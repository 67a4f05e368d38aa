"""Exact arithmetic primitives.

Projective points over Q, integer resultants, p-adic valuations, exact
factorization of rational polynomials over Q (sympy) with numeric roots
for the nonlinear factors only, logs of huge integers, and exact
rational-coefficient combinations of logs of primes (the currency of
product-formula identities).  StochdynError is the base of every error
the package raises.

Conventions:
  * univariate integer polynomials ("IntPoly") are coefficient tuples in
    ascending order, coeffs[i] = coefficient of x**i, no trailing zeros;
  * homogeneous degree-d forms in (X, Y) are length d+1 sequences in
    descending X order, coeffs[j] = coefficient of X**(d-j) * Y**j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

LOG2 = math.log(2.0)

Rational = Union[int, Fraction]


class StochdynError(Exception):
    """Base of every stochdyn error.  exit_code is the command-line exit
    status: 3 (violated invariant or exhausted budget) unless a subclass
    says otherwise."""

    exit_code = 3


class ZeroPoint(StochdynError):
    """Raised when (0, 0) is offered as a projective point."""


class DegreeMismatch(StochdynError):
    """Coefficient list length does not match the declared degree."""


class ConvergenceFailure(StochdynError):
    """Numeric root refinement did not reach the requested precision."""


class FactorizationTooLarge(StochdynError):
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


def sylvester_rows(fcoeffs: Sequence[int], gcoeffs: Sequence[int],
                   d: int) -> list:
    """Rows of the 2d x 2d Sylvester matrix of two degree-d forms: the
    coefficients of X^(d-1-j) Y^j F, then of X^(d-1-j) Y^j G."""
    if len(fcoeffs) != d + 1 or len(gcoeffs) != d + 1:
        raise DegreeMismatch(
            f"expected {d + 1} coefficients, got {len(fcoeffs)} and {len(gcoeffs)}"
        )
    return [[0] * shift + list(form) + [0] * (d - 1 - shift)
            for form in (fcoeffs, gcoeffs) for shift in range(d)]


def resultant(fcoeffs: Sequence[int], gcoeffs: Sequence[int], d: int) -> int:
    """Res of two degree-d homogeneous forms given by descending coefficient lists.

    Leading zeros are honored (the degree convention is part of the input),
    so resultant([0,1,0], [0,0,1], 2) treats XY and Y^2 as degree-2 forms.
    """
    return _bareiss_det(sylvester_rows(fcoeffs, gcoeffs, d))


# ---------------------------------------------------------------------------
# exact factorization over Q (ascending coefficients) and complex roots


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(coeffs) -> int:
    c = poly_trim(coeffs)
    return len(c) - 1 if c else -1


def factor_poly(coeffs) -> list:
    """Irreducible factors over Q of a nonzero rational polynomial, with
    multiplicities: [(factor, multiplicity)], each factor a primitive integer
    tuple (ascending) with positive leading coefficient, sorted.  A linear
    factor (-a, b) is the rational root a/b; constants have no factors."""
    import sympy

    c = [Fraction(x) for x in poly_trim(coeffs)]
    den = math.lcm(*(x.denominator for x in c))
    desc = [int(x * den) for x in reversed(c)]
    _, factors = sympy.Poly(desc, sympy.Symbol("x")).factor_list()
    return sorted((tuple(int(a) for a in reversed(f.all_coeffs())), m)
                  for f, m in factors)


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


def scaled_roots(factor, precision: float = 1e-12) -> tuple:
    """(ys, s): the complex roots of an irreducible integer polynomial of
    degree >= 2 are 2^s y for y in ys.

    The roots y of the monic polynomial in y = x / 2^s are found
    numerically.  s > 0 only when a monic coefficient passes 2^960, as in
    int_log; s then brings every monic coefficient to at most 1, so every
    |y| < 2 (Fujiwara's bound) and no float overflows.  precision below
    about 1e-14 switches to mpmath.
    """
    deg = len(factor) - 1
    lead = factor[-1]
    # |c / lead| < 2^(b + 1) for each nonzero coefficient c of x^j
    bits = [(j, abs(c).bit_length() - abs(lead).bit_length())
            for j, c in enumerate(factor[:-1]) if c]
    s = 0
    if max(b for _, b in bits) >= _INT_LOG_CUTOFF_BITS:
        s = max(-(-(b + 1) // (deg - j)) for j, b in bits)
    monic = [Fraction(c, lead << (s * (deg - j))) for j, c in enumerate(factor)]
    desc = [float(c) for c in reversed(monic)]
    if precision < 1e-14:
        import mpmath

        mp_prec = max(50, int(-mpmath.log10(precision)) + 20)
        with mpmath.workdps(mp_prec):
            roots = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                 for c in reversed(monic)],
                maxsteps=200,
            )
        refined = [complex(r) for r in roots]
    else:
        refined = list(_polish_roots(desc, np.roots(desc), precision))
    scale = max(1.0, max(abs(c) for c in desc))
    for r in refined:
        resid = abs(np.polyval(np.array(desc), r))
        if resid > math.sqrt(precision) * scale * max(1.0, abs(r)) ** deg:
            raise ConvergenceFailure(
                f"root residual {resid:.3g} too large for factor of degree {deg}"
            )
    return [complex(r) for r in refined], s


def complex_roots(factors, precision: float = 1e-12) -> list:
    """Roots of irreducible factors (as from factor_poly) with their
    multiplicities, [(root, multiplicity)] sorted by (re, im).  Linear
    factors give their rational root, correctly rounded; only nonlinear ones
    are solved numerically (scaled_roots)."""
    out = []
    for factor, mult in factors:
        if len(factor) == 2:
            out.append((complex(Fraction(-factor[0], factor[1])), mult))
            continue
        ys, s = scaled_roots(factor, precision)
        out += [(complex(math.ldexp(y.real, s), math.ldexp(y.imag, s)), mult)
                for y in ys]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def poly_roots_complex(coeffs, precision: float = 1e-12):
    """All complex roots of an ascending-coefficient rational polynomial,
    [(root, multiplicity)] sorted by (re, im).  Multiplicities come from the
    exact factorization, so clustered numeric roots are never misread as
    higher multiplicity, and rational roots are exact."""
    out = complex_roots(factor_poly(coeffs), precision)
    assert sum(m for _, m in out) == max(poly_degree(coeffs), 0)
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
