import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochdyn.dynsys import fiber, make_map
from stochdyn.exactnum import (
    DegreeMismatch,
    LogCombination,
    ProjPointQ,
    ZeroPoint,
    _MR_BOUND,
    _strong_lucas,
    factor_integer,
    factor_poly,
    int_log,
    isprime,
    log_abs_fraction,
    normalize_point,
    padic_valuation,
    parse_point,
    poly_trim,
    resultant,
)

from oracles import is_zero, sympy_factors

ZERO = ProjPointQ(0, 1)


def _roots(f):
    """The fiber of 0 under f(z)/1, whose fiber form is f: the roots of an
    ascending integer polynomial f of degree >= 2 as (log|w|, arg w, exact
    point or None, multiplicity)."""
    return fiber(make_map(f, [1]), ZERO)


def test_normalize_point_examples():
    assert normalize_point(2, 4) == ProjPointQ(1, 2)
    assert normalize_point(3, -6) == ProjPointQ(-1, 2)
    assert normalize_point(5, 0) == ProjPointQ(1, 0)
    assert normalize_point(-5, 0) == ProjPointQ(1, 0)
    assert normalize_point(0, 7) == ProjPointQ(0, 1)


def test_normalize_point_rejects_origin():
    with pytest.raises(ZeroPoint):
        normalize_point(0, 0)


def test_parse_point():
    assert parse_point("3/2") == ProjPointQ(3, 2)
    assert parse_point("-4") == ProjPointQ(-4, 1)
    assert parse_point("inf") == ProjPointQ(1, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_normalize_point_idempotent_and_coprime(a, b):
    if a == 0 and b == 0:
        return
    p = normalize_point(a, b)
    assert math.gcd(p.a, p.b) == 1
    assert p.b > 0 or (p.b == 0 and p.a > 0)
    assert normalize_point(p.a, p.b) == p
    # same projective class: cross product vanishes
    assert a * p.b == b * p.a or (a * p.b == -(b * p.a) and p.b == 0)


def test_padic_valuation_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(3, 8), 2) == -3
    assert padic_valuation(Fraction(5, 7), 3) == 0
    assert padic_valuation(0, 5) == math.inf


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.sampled_from([2, 3, 5, 7]),
)
def test_padic_valuation_additive(x, y, p):
    if x == 0 or y == 0:
        return
    assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


def test_resultant_monomial_examples():
    # X^2 vs Y^2 and 2X^2 vs Y^2, descending-X coefficient lists
    assert resultant([1, 0, 0], [0, 0, 1], 2) == 1
    assert resultant([2, 0, 0], [0, 0, 1], 2) == 4
    assert resultant([1, 0, 1], [0, 0, 1], 2) == 1  # X^2 + Y^2 vs Y^2


def test_resultant_common_root_is_zero():
    # X^2 - Y^2 and X - Y share the root [1:1] after padding to degree 2
    assert resultant([1, 0, -1], [0, 1, -1], 2) == 0


def test_resultant_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        resultant([1, 0], [0, 1], 2)


@pytest.fixture(scope="module")
def sympy_resultant():
    """sympy.resultant after one call: the first call warms sympy's
    polynomial code, which alone takes longer than hypothesis's deadline."""
    import sympy

    x = sympy.symbols("x")
    sympy.resultant(x**2 + 1, 2 * x**2 - x, x)
    return sympy.resultant


@settings(max_examples=200)
@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_resultant_matches_sympy(sympy_resultant, f, g):
    import sympy

    x, y = sympy.symbols("x y")
    F = f[0] * x**2 + f[1] * x * y + f[2] * y**2
    G = g[0] * x**2 + g[1] * x * y + g[2] * y**2
    if F == 0 or G == 0:
        return
    hom = resultant(f, g, 2)
    if f[0] != 0 and g[0] != 0:
        expect = sympy_resultant(F.subs(y, 1), G.subs(y, 1), x)
        assert hom == expect
    elif f[0] == 0 and g[0] == 0:
        # both forms vanish at [1:0], so the homogeneous resultant is 0
        assert hom == 0


@settings(max_examples=100)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_resultant_antisymmetry(f):
    g = list(reversed(f))
    d = 3
    if all(c == 0 for c in f):
        return
    assert resultant(f, g, d) == (-1) ** (d * d) * resultant(g, f, d)


def _mul(*polys):
    """The product of ascending integer polynomials."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        out = prod
    return out


def _rests(factors) -> list:
    """factor_poly's form of a factorization over Q into irreducibles: the
    linear factors as they are, and the nonlinear ones of each
    multiplicity multiplied into one primitive rest."""
    rests = {}
    for g, m in factors:
        if len(g) > 2:
            rests[m] = _mul(rests.get(m, [1]), g)
    return sorted([e for e in factors if len(e[0]) == 2]
                  + [(tuple(r), m) for m, r in rests.items()])


def test_factor_poly_multiplicities():
    # x^2 (x - 1)^3, ascending coefficients
    # = x^5 - 3x^4 + 3x^3 - x^2
    f = (0, 0, -1, 3, -3, 1)
    assert factor_poly(f) == [((-1, 1), 3), ((0, 1), 2)]
    # content and rational coefficients do not change the factors
    assert factor_poly([Fraction(c, 7) for c in f]) == factor_poly(f)
    assert factor_poly((6,)) == []
    assert factor_poly((0, 0)) == []
    # the nonlinear factors of one multiplicity come as one square-free
    # rest with no rational root: (x^2+1)(x^2+2) once, x^2+3 three times
    x2p1, x2p2, x2p3 = (1, 0, 1), (2, 0, 1), (3, 0, 1)
    assert factor_poly(_mul(x2p1, x2p2, x2p2, x2p2)) == [
        (x2p1, 1), (x2p2, 3)]
    assert factor_poly(_mul(x2p1, x2p2, x2p3, x2p3, x2p3)) == [
        (tuple(_mul(x2p1, x2p2)), 1), (x2p3, 3)]
    assert factor_poly(_mul((1, 0, 0, 0, 1), (-1, 2))) == [
        ((-1, 2), 1), ((1, 0, 0, 0, 1), 1)]
    # the callers keep the multiplicities they need
    g = _mul((0, 1), (0, 1), (0, 1), (-1, 2), (-1, 2), (1, 0, 0, 0, 1))
    assert [e for e in factor_poly(g) if e[1] >= 2] == [
        ((-1, 2), 2), ((0, 1), 3)]
    # coefficients near 10^300, repeated
    big = 10**300
    h = _mul((-3, big), (big + 7, 1), (big + 7, 1), (1, big, 5))
    assert factor_poly(h) == [((-3, big), 1), ((1, big, 5), 1),
                              ((big + 7, 1), 2)]


_COEFF = st.one_of(st.integers(-9, 9), st.integers(-10**300, 10**300))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(_COEFF, min_size=2, max_size=4),
                          st.integers(1, 3)), max_size=3),
       st.integers(0, 3), st.integers(1, 6))
# rational roots that collide mod 5, 7 and 11, where 3 divides the leading
# coefficient: (x-1)(x-4)(x-7)(x-106)(3x-2)
@example([((-1, 1), 1), ((-4, 1), 1), ((-7, 1), 1), ((-106, 1), 1),
          ((-2, 3), 1)], 0, 1)
# x^2 - 3 is x^2 mod 3, a double root with no rational root over it
@example([((-1, 1), 1), ((-3, 0, 1), 1), ((1, 2), 1)], 1, 1)
# the leading coefficient 3 5 7 11 13 = 15015, and 1/15015 meets 4 mod 17
# and mod 19, and so does a root of x^2 + 1 mod 17
@example([((-1, 15015), 2), ((-4, 1), 1), ((1, 0, 1), 1)], 0, 2)
def test_factor_poly_matches_sympy(factors, k, content):
    # products of random factors with repeats, x^k and a content, with
    # small coefficients or ones near 10^300: the linear factors are
    # sympy's, and each rest is the product of sympy's nonlinear factors
    # of its multiplicity
    polys = [(0, 1)] * k
    for g, m in factors:
        if poly_trim(g):
            polys += [g] * m
    f = [content * c for c in _mul(*polys)]
    assert factor_poly(f) == _rests(sympy_factors(f))


# n < 10^5 that pass the strong Lucas test with Selfridge's parameters but
# are composite (OEIS A217255)
_STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499,
                              24569, 25199, 40309, 58519, 75077, 97439)


def test_isprime_fixed_cases():
    import sympy

    assert [n for n in range(-3, 60) if isprime(n)] == list(
        sympy.primerange(60))
    # strong pseudoprimes to bases 2, 3, 5, 7 and to bases 2 up to 23
    assert not isprime(3215031751)
    assert not isprime(3825123056546413051)
    # the least strong pseudoprime to all 13 bases, where the strong
    # Baillie-PSW test takes over
    assert not isprime(_MR_BOUND) and _MR_BOUND == 1287836182261 * 2575672364521
    # Carmichael numbers, the last two of Chernick's form (6k + 1)(12k + 1)
    # (18k + 1) with no factor below 43, the last above _MR_BOUND
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                for k in (35, 100000131)]
    assert chernick[1] > _MR_BOUND
    assert not any(isprime(n) for n in [561, 1105, 1729, 41041, 825265,
                                        321197185, 5394826801] + chernick)
    assert isprime(2**89 - 1) and isprime(2**127 - 1)
    assert not isprime(2**101 - 1)
    # a product of two 40-digit primes
    p, q = 10**39 + 12397, 3 * 10**39 + 37
    assert isprime(p) and isprime(q) and not isprime(p * q)


def test_strong_lucas_pseudoprimes():
    # the Lucas half of Baillie-PSW on its own: below 10^5 it passes the
    # odd n coprime to the Miller-Rabin bases exactly when n is prime or
    # one of the known strong Lucas pseudoprimes
    import sympy

    passed = [n for n in range(43, 10**5, 2)
              if math.gcd(n, math.prod(range(3, 42, 2))) == 1
              and _strong_lucas(n) and not sympy.isprime(n)]
    assert tuple(passed) == _STRONG_LUCAS_PSEUDOPRIMES


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10, 2**64),
                 st.integers(_MR_BOUND - 10**22, _MR_BOUND + 10**22),
                 st.integers(2**100, 2**200)))
def test_isprime_matches_sympy(n):
    import sympy

    assert isprime(n) == sympy.isprime(n)
    # and the primes next to n, which random draws rarely are
    q = sympy.nextprime(n)
    assert isprime(q) and not isprime(q * sympy.nextprime(q))


def test_poly_roots_multiplicities():
    # x^2 (x - 1), ascending
    assert _roots((0, 0, -1, 1)) == (
        (-math.inf, 0.0, ZERO, 2), (0.0, 0.0, ProjPointQ(1, 1), 1))


def test_poly_roots_quadratic():
    roots = _roots((-2, 0, 1))  # x^2 - 2
    assert [(e, m) for _, _, e, m in roots] == [(None, 1), (None, 1)]
    assert [r for r, _, _, _ in roots] == pytest.approx(
        [math.log(2) / 2] * 2, rel=1e-12)
    assert [t for _, t, _, _ in roots] == pytest.approx([math.pi, 0.0],
                                                         abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=3, max_size=6))
def test_poly_roots_are_roots(coeffs):
    f = poly_trim(tuple(coeffs))
    deg = len(f) - 1
    if deg < 2:
        return
    roots = _roots(f)
    assert sum(m for *_, m in roots) == deg
    desc = [float(c) for c in reversed(f)]
    scale = max(abs(c) for c in desc)
    for r, t, e, _ in roots:
        if e is not None:
            q = e.as_fraction()
            assert sum(c * q**i for i, c in enumerate(f)) == 0
            assert (r, t) == e.log_polar()
            continue
        w = cmath.rect(math.exp(r), t)
        assert abs(np.polyval(desc, w)) < 1e-7 * scale * max(1.0, abs(w)) ** deg


def test_rational_roots():
    # (x - 1/2)^2 (x + 3) * 4 = ascending of 4x^3 + 8x^2 - 11x + 3; the
    # linear factors (-a, b) are the rational roots a/b
    f = (3, -11, 8, 4)
    roots = [(Fraction(-g[0], g[1]), m) for g, m in factor_poly(f)]
    assert sorted(roots) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert _roots(f) == ((math.log(3), math.pi, ProjPointQ(-3, 1), 1),
                         (-math.log(2), 0.0, ProjPointQ(1, 2), 2))


def test_int_log_huge():
    n = 3**5000
    assert int_log(n) == pytest.approx(5000 * math.log(3), rel=1e-13)
    assert int_log(7) == pytest.approx(math.log(7))


def test_log_abs_fraction():
    assert log_abs_fraction(Fraction(-8, 3)) == pytest.approx(math.log(8 / 3))


def test_factor_integer():
    assert factor_integer(600) == {2: 3, 3: 1, 5: 2}
    assert factor_integer(-97) == {97: 1}


def test_log_combination_product_formula():
    # log|q| (arch) minus sum over p of v_p(q) log p is identically zero
    q = Fraction(-140, 27)
    arch = LogCombination.of_log_abs(q)
    finite = LogCombination(
        {p: padic_valuation(q, p) for p in (2, 3, 5, 7)}
    )
    assert is_zero(arch - finite)
    assert arch.evaluate() == pytest.approx(math.log(140 / 27))


@settings(max_examples=200)
@given(
    st.fractions(
        min_value=-10**6, max_value=10**6, max_denominator=200
    ).filter(lambda q: q != 0)
)
def test_log_combination_matches_float(q):
    lc = LogCombination.of_log_abs(q)
    assert lc.evaluate() == pytest.approx(float(log_abs_fraction(q)), abs=1e-10)
