"""Exact arithmetic primitives.

Projective points over Q, integer resultants, p-adic valuations, complex
root extraction with exact multiplicities, logs of huge integers, and
exact rational-coefficient combinations of logs of primes (the currency
of product-formula identities).

Conventions:
  * univariate integer polynomials ("IntPoly") are coefficient tuples in
    ascending order, coeffs[i] = coefficient of x**i, no trailing zeros;
  * homogeneous degree-d forms in (X, Y) are length d+1 sequences in
    descending X order, coeffs[j] = coefficient of X**(d-j) * Y**j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

LOG2 = math.log(2.0)

Rational = Union[int, Fraction]


class ZeroPoint(Exception):
    """Raised when (0, 0) is offered as a projective point."""


class DegreeMismatch(Exception):
    """Coefficient list length does not match the declared degree."""


class ConvergenceFailure(Exception):
    """Numeric root refinement did not reach the requested precision."""


class FactorizationTooLarge(Exception):
    """Integer factorization exceeded its budget.

    Carries partial_primes (primes found so far) and cofactor (the
    remaining composite part).
    """

    def __init__(self, message, partial_primes=frozenset(), cofactor=1):
        super().__init__(message)
        self.partial_primes = set(partial_primes)
        self.cofactor = cofactor


class ProjPointQ(NamedTuple):
    """A point [a : b] of P1(Q) in lowest terms, b >= 0, and a > 0 when b = 0."""

    a: int
    b: int

    @property
    def is_infinity(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b == 0:
            raise ZeroDivisionError("point at infinity has no affine value")
        return Fraction(self.a, self.b)

    def as_complex(self) -> complex:
        if self.b == 0:
            return complex(math.inf, 0.0)
        return complex(Fraction(self.a, self.b))

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}]"


INFINITY = ProjPointQ(1, 0)


def normalize_point(a: int, b: int) -> ProjPointQ:
    """Reduce (a, b) to the canonical representative of [a : b]."""
    if a == 0 and b == 0:
        raise ZeroPoint("(0, 0) does not define a projective point")
    g = math.gcd(a, b)
    a //= g
    b //= g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return ProjPointQ(a, b)


def point_from_rational(q: Rational) -> ProjPointQ:
    q = Fraction(q)
    return normalize_point(q.numerator, q.denominator)


def parse_point(text: str) -> ProjPointQ:
    """Parse 'a/b', 'a', or 'inf' into a projective point."""
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return INFINITY
    return point_from_rational(Fraction(s))


def padic_valuation(x: Rational, p: int):
    """v_p(x) for rational x; +inf for x = 0."""
    if p < 2:
        raise ValueError("p must be at least 2")
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# resultants


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(fcoeffs: Sequence[int], gcoeffs: Sequence[int], d: int) -> int:
    """Res of two degree-d homogeneous forms given by descending coefficient lists.

    Leading zeros are honored (the degree convention is part of the input),
    so resultant([0,1,0], [0,0,1], 2) treats XY and Y^2 as degree-2 forms.
    """
    if len(fcoeffs) != d + 1 or len(gcoeffs) != d + 1:
        raise DegreeMismatch(
            f"expected {d + 1} coefficients, got {len(fcoeffs)} and {len(gcoeffs)}"
        )
    n = 2 * d
    rows = []
    for shift in range(d):
        rows.append([0] * shift + list(fcoeffs) + [0] * (d - 1 - shift))
    for shift in range(d):
        rows.append([0] * shift + list(gcoeffs) + [0] * (d - 1 - shift))
    assert all(len(r) == n for r in rows)
    return _bareiss_det(rows)


# ---------------------------------------------------------------------------
# univariate polynomial helpers over Q (ascending coefficients)


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(coeffs) -> int:
    c = poly_trim(coeffs)
    return len(c) - 1 if c else -1


def poly_eval(coeffs, x):
    r = 0
    for c in reversed(coeffs):
        r = r * x + c
    return r


def poly_derivative(coeffs) -> tuple:
    return poly_trim(tuple(i * c for i, c in enumerate(coeffs) if i > 0))


def poly_monic(coeffs) -> tuple:
    c = poly_trim(coeffs)
    if not c:
        return c
    lead = c[-1]
    return tuple(Fraction(x) / lead for x in c)


def poly_divmod(num, den):
    num = [Fraction(x) for x in poly_trim(num)]
    den = [Fraction(x) for x in poly_trim(den)]
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            num[i + shift] -= factor * c
        while num and num[-1] == 0:
            num.pop()
    return poly_trim(quot), poly_trim(num)


def poly_gcd(a, b) -> tuple:
    """Monic gcd over Q of two ascending-coefficient polynomials."""
    a = poly_monic(a)
    b = poly_monic(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_monic(r)
    return a


def squarefree_decomposition(coeffs):
    """Yun's algorithm. Returns [(factor, multiplicity)] with monic factors over Q.

    The product of factor**multiplicity recovers the monic part of the input.
    """
    f = poly_monic(coeffs)
    if poly_degree(f) < 1:
        return []
    df = poly_derivative(f)
    a = poly_gcd(f, df)
    b, _ = poly_divmod(f, a)
    c, _ = poly_divmod(df, a)
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while poly_degree(b) > 0:
        g = poly_gcd(b, d)
        if poly_degree(g) > 0:
            out.append((g, i))
        b, _ = poly_divmod(b, g)
        c, _ = poly_divmod(d, g)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def poly_sub(a, b) -> tuple:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim(tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b)))


def rational_roots(coeffs):
    """Exact rational roots with multiplicities, reconstructed from numeric roots.

    Sound but not complete: a rational root is only reported after exact
    verification, and roots whose denominator exceeds the reconstruction
    bound are left to the numeric channel.
    """
    f = poly_trim(coeffs)
    if poly_degree(f) < 1:
        return []
    deg = poly_degree(f)
    numeric = np.roots([float(c) for c in reversed(f)])
    found = {}
    for r in numeric:
        if abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
            continue
        cand = Fraction(r.real).limit_denominator(10**6)
        if cand in found:
            continue
        if poly_eval(f, cand) == 0:
            mult = 0
            g = f
            while poly_eval(g, cand) == 0 and poly_degree(g) >= 1:
                g, rem = poly_divmod(g, (-cand, Fraction(1)))
                assert not rem
                mult += 1
            found[cand] = mult
    total = sum(found.values())
    assert total <= deg
    return sorted(found.items())


# ---------------------------------------------------------------------------
# complex roots


def _polish_roots(coeffs_desc, roots, precision):
    poly = np.array(coeffs_desc, dtype=float)
    dpoly = np.polyder(poly)
    r = np.array(roots, dtype=complex)
    for _ in range(60):
        val = np.polyval(poly, r)
        dval = np.polyval(dpoly, r)
        step = np.where(dval != 0, val / np.where(dval != 0, dval, 1.0), 0.0)
        r = r - step
        if np.all(np.abs(step) <= precision * (1.0 + np.abs(r))):
            break
    return r


def poly_roots_complex(coeffs, precision: float = 1e-12):
    """All complex roots of an ascending-coefficient rational polynomial.

    Returns [(root, multiplicity)] sorted by (re, im). Multiplicities come
    from an exact square-free decomposition, so clustered numeric roots are
    never misread as higher multiplicity. precision below about 1e-14
    switches to mpmath.
    """
    f = poly_trim(tuple(Fraction(c) for c in coeffs))
    deg = poly_degree(f)
    if deg < 1:
        return []
    out = []
    for factor, mult in squarefree_decomposition(f):
        fdeg = poly_degree(factor)
        desc = [float(c) for c in reversed(factor)]
        if precision < 1e-14:
            import mpmath

            mp_prec = max(50, int(-mpmath.log10(precision)) + 20)
            with mpmath.workdps(mp_prec):
                roots = mpmath.polyroots(
                    [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                     for c in reversed(factor)],
                    maxsteps=200,
                )
            refined = [complex(r) for r in roots]
        else:
            raw = np.roots(desc)
            refined = list(_polish_roots(desc, raw, precision))
        scale = max(1.0, max(abs(c) for c in desc))
        for r in refined:
            resid = abs(np.polyval(np.array(desc), r))
            if resid > math.sqrt(precision) * scale * max(1.0, abs(r)) ** fdeg:
                raise ConvergenceFailure(
                    f"root residual {resid:.3g} too large for factor of degree {fdeg}"
                )
            out.append((complex(r), mult))
    assert sum(m for _, m in out) == deg
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# ---------------------------------------------------------------------------
# logs of huge integers and exact log combinations

_INT_LOG_CUTOFF_BITS = 960


def int_log(n: int) -> float:
    """Natural log of a positive integer of arbitrary size."""
    if n <= 0:
        raise ValueError("int_log needs a positive integer")
    bits = n.bit_length()
    if bits <= _INT_LOG_CUTOFF_BITS:
        return math.log(n)
    shift = bits - _INT_LOG_CUTOFF_BITS
    return math.log(n >> shift) + shift * LOG2


def log_abs_fraction(q: Rational) -> float:
    q = Fraction(q)
    if q == 0:
        raise ValueError("log of zero")
    return int_log(abs(q.numerator)) - int_log(q.denominator)


def factor_integer(n: int, trial_bound: int = 10**6):
    """Factor |n| into primes, {p: exponent}. Budgeted trial division plus
    a primality check on the remainder; raises FactorizationTooLarge with
    the partial result when the cofactor stays composite."""
    import sympy

    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= trial_bound:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % len(wheel)
    if n > 1:
        if f * f > n or sympy.isprime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationTooLarge(
                f"composite cofactor {n} above trial bound {trial_bound}",
                partial_primes=set(out),
                cofactor=n,
            )
    return out


class LogCombination:
    """An exact sum of c_p * log(p) with rational coefficients over primes."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for p, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    self.coeffs[p] = c

    @classmethod
    def of_log_abs(cls, q: Rational, trial_bound: int = 10**6) -> "LogCombination":
        """log|q| as an exact prime-log combination (requires factoring q)."""
        q = Fraction(q)
        if q == 0:
            raise ValueError("log of zero")
        coeffs = {}
        for p, e in factor_integer(q.numerator or 1, trial_bound).items():
            if p != 1:
                coeffs[p] = coeffs.get(p, 0) + e
        for p, e in factor_integer(q.denominator, trial_bound).items():
            if p != 1:
                coeffs[p] = coeffs.get(p, 0) - e
        return cls(coeffs)

    def __add__(self, other: "LogCombination") -> "LogCombination":
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            coeffs[p] = coeffs.get(p, 0) + c
        return LogCombination(coeffs)

    def __sub__(self, other: "LogCombination") -> "LogCombination":
        return self + other.scaled(-1)

    def scaled(self, t: Rational) -> "LogCombination":
        t = Fraction(t)
        return LogCombination({p: c * t for p, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self) -> float:
        return math.fsum(float(c) * math.log(p) for p, c in sorted(self.coeffs.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LogCombination) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LogCombination(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self.coeffs.items())]
        return "LogCombination(" + " + ".join(parts) + ")"
