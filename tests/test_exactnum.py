import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochdyn.exactnum import (
    DegreeMismatch,
    LogCombination,
    ProjPointQ,
    ZeroPoint,
    factor_integer,
    factor_poly,
    int_log,
    log_abs_fraction,
    normalize_point,
    padic_valuation,
    parse_point,
    poly_roots_complex,
    resultant,
)


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


@settings(max_examples=200)
@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_resultant_matches_sympy(f, g):
    import sympy

    x, y = sympy.symbols("x y")
    F = f[0] * x**2 + f[1] * x * y + f[2] * y**2
    G = g[0] * x**2 + g[1] * x * y + g[2] * y**2
    if F == 0 or G == 0:
        return
    hom = resultant(f, g, 2)
    if f[0] != 0 and g[0] != 0:
        expect = sympy.resultant(F.subs(y, 1), G.subs(y, 1), x)
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


def test_factor_poly_multiplicities():
    # x^2 (x - 1)^3, ascending coefficients
    # = x^5 - 3x^4 + 3x^3 - x^2
    f = (0, 0, -1, 3, -3, 1)
    assert factor_poly(f) == [((-1, 1), 3), ((0, 1), 2)]
    # content and rational coefficients do not change the factors
    assert factor_poly([Fraction(c, 7) for c in f]) == factor_poly(f)
    assert factor_poly((6,)) == []


def test_poly_roots_multiplicities():
    # x^2 (x - 1), ascending
    roots = poly_roots_complex((0, 0, -1, 1))
    assert len(roots) == 2
    (r0, m0), (r1, m1) = roots
    assert m0 == 2 and abs(r0) < 1e-10
    assert m1 == 1 and abs(r1 - 1) < 1e-10


def test_poly_roots_quadratic():
    roots = poly_roots_complex((-2, 0, 1))  # x^2 - 2
    vals = sorted(r.real for r, _ in roots)
    assert abs(vals[0] + math.sqrt(2)) < 1e-12
    assert abs(vals[1] - math.sqrt(2)) < 1e-12


def test_poly_roots_high_precision_path():
    roots = poly_roots_complex((-2, 0, 1), precision=1e-20)
    vals = sorted(r.real for r, _ in roots)
    assert abs(vals[1] - math.sqrt(2)) < 1e-15


@settings(max_examples=100)
@given(st.lists(st.integers(-8, 8), min_size=2, max_size=6))
def test_poly_roots_are_roots(coeffs):
    from stochdyn.exactnum import poly_degree, poly_trim

    f = poly_trim(tuple(coeffs))
    if poly_degree(f) < 1:
        return
    roots = poly_roots_complex(f)
    assert sum(m for _, m in roots) == poly_degree(f)
    desc = [float(c) for c in reversed(f)]
    scale = max(abs(c) for c in desc)
    for r, _ in roots:
        assert abs(np.polyval(desc, r)) < 1e-7 * scale * max(1.0, abs(r)) ** poly_degree(f)


def test_rational_roots():
    # (x - 1/2)^2 (x + 3) * 4 = ascending of 4x^3 + 8x^2 - 11x + 3; the
    # linear factors (-a, b) are the rational roots a/b
    f = (3, -11, 8, 4)
    roots = [(Fraction(-g[0], g[1]), m) for g, m in factor_poly(f)]
    assert sorted(roots) == [(Fraction(-3), 1), (Fraction(1, 2), 2)]
    assert poly_roots_complex(f) == [(-3 + 0j, 1), (0.5 + 0j, 2)]


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
    assert (arch - finite).is_zero()
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
