"""Exact arithmetic primitives.

Projective points over Q, integer resultants, p-adic valuations, exact
factorization of rational polynomials over Q into rational linear factors
and square-free rests (square-free parts by Yun's algorithm, rational
roots by p-adic lifting), primality (Miller-Rabin, and strong Baillie-PSW
above its proven range), the one numeric root solver (poly_roots, on
mantissa/exponent pairs, so that neither coefficients nor roots need to
lie in float range), logs of huge integers, and exact rational-coefficient
combinations of logs of primes (the currency of product-formula
identities).  StochdynError is the base of every error the package
raises.  Nothing here needs more than the standard library and numpy.

Conventions:
  * univariate integer polynomials ("IntPoly") are coefficient tuples in
    ascending order, coeffs[i] = coefficient of x**i, no trailing zeros;
  * homogeneous degree-d forms in (X, Y) are length d+1 sequences in
    descending X order, coeffs[j] = coefficient of X**(d-j) * Y**j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
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
    """Numeric root refinement did not converge, or homogeneous
    coordinates collapsed below an escape sum's floor."""


class FactorizationTooLarge(StochdynError):
    """Integer factorization exceeded its budget."""


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

    def log_polar(self) -> tuple:
        """(log|z|, arg z), exact up to the rounding of log|z|, for any
        coordinate size: infinity is (+inf, 0) and 0 is (-inf, 0)."""
        if self.b == 0:
            return math.inf, 0.0
        if self.a == 0:
            return -math.inf, 0.0
        return (log_abs_fraction(self.as_fraction()),
                0.0 if self.a > 0 else math.pi)

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
# exact factorization over Q (ascending coefficients) and numeric roots
# of mantissa/exponent pairs


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def factor_poly(coeffs) -> list:
    """The rational linear factors and the square-free rests of a rational
    polynomial over Q, with multiplicities: [(factor, multiplicity)], each
    factor a primitive integer tuple (ascending) with positive leading
    coefficient, sorted.  A linear factor (-a, b) is the rational root a/b;
    a nonlinear factor is the product of all the irreducible factors of
    degree >= 2 of one multiplicity, so it is square-free and has no
    rational root, and no two nonlinear factors share a multiplicity.
    Constants have no factors.

    The square-free parts come from Yun's algorithm over Z (_squarefree),
    their rational linear factors from p-adic lifting (rational_roots), and
    the rest of each part is what is left after them."""
    c = [Fraction(x) for x in poly_trim(coeffs)]
    den = math.lcm(*(x.denominator for x in c))
    f = [x.numerator * (den // x.denominator) for x in c]
    if len(f) < 2:
        return []
    out = []
    for part, m in _squarefree(_primitive(f)):
        linear, rest = rational_roots(part)
        out += [(q, m) for q in linear]
        if len(rest) > 1:
            out.append((tuple(rest), m))
    return sorted(out)


def root_multiplicity(coeffs, a: int, b: int) -> int:
    """The multiplicity of a/b (b != 0, gcd(a, b) = 1) as a root of a
    nonzero integer polynomial (ascending), by exact repeated division by
    b x - a."""
    e = 0
    q = _quo(coeffs, (-a, b))
    while q is not None:
        e += 1
        q = _quo(q, (-a, b))
    return e


def rational_roots(f) -> tuple:
    """(linear, rest) for a square-free integer polynomial f (ascending,
    degree >= 1): the sorted linear factors (-a, b) of its rational roots
    a/b, and f / prod (b x - a).

    p-adic lifting (Loos, SIAM J. Comput. 1983) at the first odd prime p
    that does not divide the leading coefficient c and at which f'(r) is
    nonzero mod p for every root r of f mod p.  A rational root a/b has b
    dividing c, so it reduces to one of those simple roots, which Newton's
    method lifts uniquely until p^k exceeds 2 (|c| + max |f_i|), twice the
    Cauchy bound on |c a / b|.  As b divides c, c a / b is then the
    symmetric residue of c r mod p^k, and the candidate is kept if b x - a
    divides f exactly.  Every p dividing neither c nor the discriminant of
    f qualifies, so the search for p ends.  No integer is factored and no
    float formed."""
    c = f[-1]
    df = _deriv(f)
    p = 1
    while True:
        p += 2
        if c % p == 0 or not isprime(p):
            continue
        roots = [r for r in range(p) if _eval_mod(f, r, p) == 0]
        if all(_eval_mod(df, r, p) for r in roots):
            break
    bound = 2 * (abs(c) + max(abs(x) for x in f[:-1]))
    linear, rest = [], f
    for r in roots:
        z, m = r, p
        while m <= bound:
            m *= m
            z = (z - _eval_mod(f, z, m) * pow(_eval_mod(df, z, m), -1, m)) % m
        top = c * z % m
        if top > m // 2:
            top -= m
        g = math.gcd(top, c)
        a, b = top // g, c // g
        if b < 0:
            a, b = -a, -b
        q = _quo(rest, (-a, b))
        if q is not None:
            linear.append((-a, b))
            rest = q
    return sorted(linear), rest


def _eval_mod(f, x: int, m: int) -> int:
    """f(x) mod m, f ascending."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _primitive(f) -> list:
    """An integer polynomial over its content, leading coefficient > 0."""
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return [x // g for x in f]


def _deriv(f) -> list:
    return [i * x for i, x in enumerate(f)][1:]


def _quo(f, g):
    """f / g for integer polynomials, g primitive, or None if g does not
    divide f: as a quotient over Q has integer coefficients (Gauss's
    lemma), a division step that leaves a remainder proves it."""
    f = list(f)
    m = len(g) - 1
    q = [0] * (len(f) - m)
    for i in range(len(q) - 1, -1, -1):
        x, r = divmod(f[i + m], g[m])
        if r:
            return None
        q[i] = x
        if x:
            for j in range(m):
                f[i + j] -= x * g[j]
    return None if any(f[:m]) else q


def _gcd(f, g) -> list:
    """The primitive gcd, leading coefficient > 0, of two integer
    polynomials, f nonzero, by the heuristic gcd of Char, Geddes and Gonnet
    (EUROSAM 1984).  The primitive part h of the symmetric xi-adic digits
    of gcd(f(xi), g(xi)) is the gcd as soon as it divides f and g, for any
    xi > 2 min(|f|, |g|) + 2 (max norms): the gcd is then h k with k(xi)
    dividing the content of the digits, at most xi / 2, while a k of degree
    >= 1 has |k(xi)| > xi / 2, its roots lying within the Cauchy bound
    1 + min(|f|, |g|).  gcd(f(xi), g(xi)) / gcd(f, g)(xi) divides the
    resultant of the cofactors, whatever xi, so raising xi ends the
    search."""
    if not g:
        return _primitive(f)
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 3
    while True:
        n, digits = math.gcd(_eval(f, xi), _eval(g, xi)), []
        while n:
            r = n % xi
            if r > xi // 2:
                r -= xi
            digits.append(r)
            n = (n - r) // xi
        h = _primitive(digits)
        if _quo(f, h) is not None and _quo(g, h) is not None:
            return h
        xi = 2 * xi * math.isqrt(xi) + 1


def _eval(f, x: int) -> int:
    """f(x), f ascending."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _squarefree(f) -> list:
    """Yun's square-free decomposition of a primitive integer polynomial f
    of degree >= 1 with positive leading coefficient: [(part, i)], f =
    prod part^i, each part primitive, square-free, of degree >= 1 and with
    positive leading coefficient, the parts pairwise coprime."""
    df = _deriv(f)
    g = _gcd(f, df)
    if len(g) == 1:
        return [(f, 1)]
    b, c = _quo(f, g), _quo(df, g)
    parts, i = [], 1
    while len(b) > 1:
        d = list(poly_trim(x - y for x, y in
                           zip_longest(c, _deriv(b), fillvalue=0)))
        a = _gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c = _quo(b, a), _quo(d, a)
        i += 1
    return parts


# sentinel exponent of a zero coefficient, below every float's
_NO_EXP = -(2**40)
_OMEGA = np.exp(2j * np.pi / 3.0)


def _split(c):
    """(m, g) with c = m 2^g and 1/2 <= |m| < 1, or m = g = 0 where c is
    0, for complex c; m is exact."""
    _, g = np.frexp(np.abs(c))
    g = g.astype(np.int64)
    m = np.empty_like(c)
    m.real = np.ldexp(c.real, -g)
    m.imag = np.ldexp(c.imag, -g)
    return m, g


def _balance(monic):
    """(e, b, a) for x^k + sum_i a_i x^(k - i), each a_i a pair (m, g) of
    the complex number m 2^g: e is the integer for which the monic
    coefficients b_i = a_i 2^(-i e) of the polynomial in y = x / 2^e are
    all below 1 in modulus and one of them at least 1/8 (e = 0 for x^k),
    as LAPACK's gebal balances a companion matrix by powers of 2; a is
    monic with each m scaled into [1/2, 1).  Only b_i below float range
    round, to numbers too small to move the roots of largest modulus."""
    a = []
    for m, g in monic:
        m, shift = _split(m)
        a.append((m, g + shift))
    e = np.max([np.where(m != 0, -(-g // i), _NO_EXP)
                for i, (m, g) in enumerate(a, 1)], axis=0)
    e = np.where(e == _NO_EXP, 0, e)
    return e, [_shrink(m, g - i * e) for i, (m, g) in enumerate(a, 1)], a


def _shrink(m, g):
    """m 2^g, where g <= 0 wherever m is nonzero (a zero m stays 0)."""
    return m * np.ldexp(1.0, np.minimum(g, 0))


def _safe_div(x, y):
    """x / y, and 0 where y is 0."""
    zero = y == 0
    return np.where(zero, 0.0, x / np.where(zero, 1.0, y))


def _larger(x, y):
    """x + y or x - y, whichever has the larger modulus."""
    return np.where((x * y.conj()).real >= 0.0, x + y, x - y)


def _newton(b, r, steps):
    """r after at most `steps` Newton steps on x^k + sum_i b_i x^(k - i),
    each step kept only where it lowers |p(r)|."""
    def horner(top, coeffs, x):
        for c in coeffs:
            top = top * x + c
        return top

    k = len(b)
    db = [(k - i) * c for i, c in enumerate(b[:-1], 1)]
    f = horner(1.0, b, r)
    for _ in range(steps):
        r_new = r - _safe_div(f, horner(float(k), db, r))
        f_new = horner(1.0, b, r_new)
        better = np.abs(f_new) < np.abs(f)
        if not better.any():
            break
        r, f = np.where(better, r_new, r), np.where(better, f_new, f)
    return r


def _quadratic(a1, a2) -> list:
    """The roots of x^2 + a1 x + a2 as pairs (m, g) of m 2^g, by the stable
    rule (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    1.8): q = -(b + s)/2 with s = sqrt(b^2 - 4c) signed so that |b + s| is
    the larger, then c / q, in the balanced form of _balance.  The second
    root divides the unbalanced a2, so it stays exact when it lies far
    below the first."""
    e, (b1, b2), (_, (m2, g2)) = _balance([a1, a2])
    q = -0.5 * _larger(b1, np.sqrt(b1 * b1 - 4.0 * b2))
    return [(q, e), (_safe_div(m2, q), g2 - e)]


def _cubic(a1, a2, a3) -> list:
    """The roots of x^3 + a1 x^2 + a2 x + a3 as pairs (m, g) of m 2^g: the
    one of largest modulus by Cardano's formula in the balanced form of
    _balance, polished by three steps of _newton; then the other two as
    the roots of x^2 - S x + P, with P = -a3 / r and S = (a2 - P) / r by
    Vieta's relations (dividing from the constant term, which is stable
    after the largest root)."""
    e, (b1, b2, b3), (_, (m2, g2), (m3, g3)) = _balance([a1, a2, a3])
    shift = b1 / 3.0
    p = b2 - shift * b1
    q = b3 - shift * b2 + 2.0 * shift * shift * shift
    c = -_larger(0.5 * q, np.sqrt(0.25 * q * q + p * p * p / 27.0))
    u = np.cbrt(np.abs(c)) * np.exp(1j * np.angle(c) / 3.0)
    v = _safe_div(-p, 3.0 * u)
    y = np.stack([u * _OMEGA**j + v * _OMEGA**-j for j in range(3)]) - shift
    r = np.take_along_axis(y, np.argmax(np.abs(y), axis=0)[None], 0)[0]
    r = _newton([b1, b2, b3], r, 3)
    pm, pg = _safe_div(-m3, r), g3 - e
    # a2 - P over the larger exponent of the two
    top = np.maximum(np.where(m2 != 0, g2, _NO_EXP),
                     np.where(pm != 0, pg, _NO_EXP))
    top = np.where(top == _NO_EXP, 0, top)
    diff = _shrink(m2, g2 - top) - _shrink(pm, pg - top)
    return [(r, e)] + _quadratic((_safe_div(-diff, r), top - e), (pm, pg))


def poly_roots(cm, cg, name, pick=None) -> tuple:
    """(m, g), arrays of shape (rows, k): the roots x = m 2^g of each row
    of descending coefficients c_i = cm_i 2^cg_i of a polynomial of degree
    k with a nonzero leading one.  cm holds finite float or complex
    mantissas of any size, cg int exponents broadcasting against them, so
    coefficients and roots alike may lie far outside float range.  Given
    pick, an int array of one column index per row, (m, g) have shape
    (rows,) and hold root pick[r] of row r alone, bit for bit the entry
    the call without pick returns there.

    Degrees 1 to 3 are solved in closed form on mantissas and exponents
    (_quadratic, _cubic), so no root, however far from 1, is lost to
    overflow or underflow; higher degrees take the eigenvalues of the
    companion matrices (Edelman-Murakami, Math. Comp. 1995) of the
    balanced monic polynomials of _balance in one stacked
    np.linalg.eigvals call, those below 1e-4 there polished by _newton,
    so that they lose only roots below float range in that balanced form.
    Every returned root, with pick the picked one only, must pass the
    backward-error test |p(x)| <= 1e-6 sum_i |c_i| |x|^(k - i), else
    ConvergenceFailure names `name`, formatted only then: a root lost to 0
    or to infinity fails it."""
    cm, shift = _split(np.asarray(cm, dtype=complex))
    cg = cg + shift
    k = cm.shape[1] - 1
    monic = [(cm[:, i] / cm[:, 0], cg[:, i] - cg[:, 0])
             for i in range(1, k + 1)]
    if k <= 3:
        roots = ([(-monic[0][0], monic[0][1])] if k == 1 else
                 (_quadratic if k == 2 else _cubic)(*monic))
        xm = np.stack([m for m, _ in roots], axis=1)
        xg = np.stack([g for _, g in roots], axis=1)
    else:
        e, b, _ = _balance(monic)
        comp = np.zeros((len(cm), k, k), dtype=complex)
        comp[:, 0, :] = -np.stack(b, axis=1)
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        # the eigenvalues are good to about 1e-16 absolute, the largest near
        # 1, so Newton's method takes the small ones to full precision
        y = np.linalg.eigvals(comp)
        polished = _newton([c[:, None] for c in b], y, 8)
        xm, xg = _split(np.where(np.abs(y) < 1e-4, polished, y))
        xg = xg + e[:, None]
    if pick is not None:
        rows = np.arange(len(xm))
        xm, xg = xm[rows, pick, None], xg[rows, pick, None]
    # the terms c_i x^(k - i) of p(x) as mantissas times 2^exps, scaled by
    # 2^-(the largest exponent of a nonzero term of the root)
    deg = np.arange(k, -1, -1)[:, None, None]
    exps = (np.where(cm != 0, cg, _NO_EXP).T[..., None]
            + np.where(xm != 0, xg, _NO_EXP) * deg)
    exps -= exps.max(axis=0)
    terms = cm.T[..., None] * xm**deg * np.ldexp(1.0, exps)
    if np.any(np.abs(terms.sum(axis=0))
              > 1e-6 * np.abs(terms).sum(axis=0)):
        raise ConvergenceFailure(f"roots of {name} did not converge")
    return (xm, xg) if pick is None else (xm[:, 0], xg[:, 0])


def int_pairs(coeffs) -> tuple:
    """(cm, cg) of poly_roots for integers c: c >> g, cut to the 53 bits a
    float holds, and g, so that no huge c is formed as a float."""
    cg = [max(0, abs(c).bit_length() - 53) for c in coeffs]
    return [float(c >> g) for c, g in zip(coeffs, cg)], cg


def pair_log_polar(m, g) -> tuple:
    """(log|x|, arg x) of the roots x = m 2^g of poly_roots, with log|x| =
    -inf where x is 0."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(m)) + g * LOG2, np.angle(m)


def wrap_angle(theta):
    """Angles mod 2 pi in [0, 2 pi): np.mod rounds a tiny negative angle
    up to 2 pi itself, which is the angle 0."""
    theta = np.mod(theta, 2.0 * np.pi)
    return np.where(theta >= 2.0 * np.pi, 0.0, theta)


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


# trial divisors of factor_integer stop here
TRIAL_BOUND = 10**6


# the first 13 primes, and the bound below which they decide primality as
# Miller-Rabin bases (Sorenson-Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def isprime(n: int) -> bool:
    """Whether the integer n is prime: exact below _MR_BOUND (Miller-Rabin
    with the bases _MR_BASES), and at and above it the strong
    Baillie-PSW test (Baillie-Wagstaff, Math. Comp. 1980), which has no
    known counterexample; sympy.isprime runs the same test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a, d, s) for a in _MR_BASES)
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas(n)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """The Miller-Rabin test of odd n to base a, n - 1 = d 2^s, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of odd n > 41 not divisible by
    a base, with Selfridge's parameters: the first D of 5, -7, 9, -11, ...
    with (D / n) = -1, P = 1, Q = (1 - D) / 4 (Baillie-Wagstaff 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D / n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_k, V_k, Q^k mod n from k = 1 along the bits of d: k -> 2k, then
    # k -> k + 1 with halving mod n (n is odd)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def factor_integer(n: int):
    """Factor |n| into primes, {p: exponent}. Trial division up to
    TRIAL_BOUND plus a primality check on the remainder; raises
    FactorizationTooLarge when the cofactor stays composite."""
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
    while f * f <= n and f <= TRIAL_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % len(wheel)
    if n > 1:
        if f * f > n or isprime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationTooLarge(
                f"composite cofactor {n} above trial bound {TRIAL_BOUND}")
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
    def of_log_abs(cls, q: Rational) -> "LogCombination":
        """log|q| as an exact prime-log combination (requires factoring q)."""
        q = Fraction(q)
        if q == 0:
            raise ValueError("log of zero")
        coeffs = {}
        for p, e in factor_integer(q.numerator or 1).items():
            if p != 1:
                coeffs[p] = coeffs.get(p, 0) + e
        for p, e in factor_integer(q.denominator).items():
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

    def evaluate(self) -> float:
        return math.fsum(float(c) * math.log(p) for p, c in sorted(self.coeffs.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LogCombination) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LogCombination(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self.coeffs.items())]
        return "LogCombination(" + " + ".join(parts) + ")"
