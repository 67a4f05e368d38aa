import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NotIrreducible, dirac, measure_height, weil_height_minpoly
from strategies import finite_measures, points, small_maps

from stochdyn.dynsys import MonomialProfile, make_map, make_system
from stochdyn.exactnum import (
    INFINITY,
    LogCombination,
    ProjPointQ,
    factor_integer,
    int_log,
    normalize_point,
    padic_valuation,
)
from stochdyn.heights import (
    ARCH,
    InfinitePoint,
    PlaceQ,
    _bezout_cofactors,
    cphi_bound,
    energy_pairing_discrete,
    l1_height_control_total,
    local_height,
    make_measure,
    measure_height_exact,
    mix,
    product_formula_sum,
    standard_energy_defect,
    weil_height,
)

LOG2 = math.log(2)

Z2 = make_map([0, 0, 1], [1])
TWO_Z2 = make_map([0, 0, 2], [1])
Z2_PLUS_1 = make_map([1, 0, 1], [1])


def test_weil_height_examples():
    assert weil_height(ProjPointQ(3, 2)) == pytest.approx(math.log(3))
    assert weil_height(ProjPointQ(1, 1)) == 0.0
    assert weil_height(ProjPointQ(1, 2)) == pytest.approx(LOG2)
    assert weil_height(INFINITY) == 0.0


def test_local_height_examples():
    p = ProjPointQ(3, 2)
    assert local_height(p, ARCH) == pytest.approx(math.log(1.5))
    assert local_height(p, PlaceQ(2)) == pytest.approx(LOG2)
    assert local_height(p, PlaceQ(5)) == 0.0
    with pytest.raises(InfinitePoint):
        local_height(INFINITY, ARCH)


@settings(max_examples=100)
@given(points(allow_infinity=False))
def test_height_is_sum_of_local_heights(p):
    finite = sum(
        local_height(p, PlaceQ(q)) for q in factor_integer(p.b)
    ) if p.b != 1 else 0.0
    total = local_height(p, ARCH) + finite
    assert total == pytest.approx(weil_height(p), abs=1e-12)


def test_minpoly_sqrt2():
    h = weil_height_minpoly([-2, 0, 1])
    assert h == pytest.approx(0.5 * LOG2)
    # Mahler measure oracle: mean of log|f| on the unit circle
    th = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    f = np.exp(2j * th) - 2.0
    mahler = float(np.mean(np.log(np.abs(f))))
    assert h == pytest.approx(mahler / 2, abs=1e-8)


def test_minpoly_linear_cases():
    assert weil_height_minpoly([-3, 1]) == pytest.approx(math.log(3))
    assert weil_height_minpoly([-1, 2]) == pytest.approx(LOG2)


def test_minpoly_rejects_reducible():
    with pytest.raises(NotIrreducible):
        weil_height_minpoly([-1, 0, 1])


@settings(max_examples=50)
@given(st.integers(-30, 30), st.integers(1, 30))
def test_minpoly_matches_point_height(a, b):
    g = math.gcd(a, b)
    a, b = a // g if g else a, b // g if g else b
    if a == 0 and b == 0:
        return
    h_pt = weil_height(normalize_point(a, b))
    assert weil_height_minpoly([-a, b]) == pytest.approx(h_pt, abs=1e-12)


def test_make_measure_validation():
    p, q = ProjPointQ(1, 1), ProjPointQ(2, 1)
    with pytest.raises(ValueError):
        make_measure([p, q], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        make_measure([p, p], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        make_measure([], [])


def test_mix_merges_support():
    m1 = dirac(ProjPointQ(1, 1))
    m2 = make_measure(
        [ProjPointQ(1, 1), ProjPointQ(2, 1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    m = mix([(Fraction(1, 2), m1), (Fraction(1, 2), m2)])
    assert m.support == (ProjPointQ(1, 1), ProjPointQ(2, 1))
    assert m.weights == (Fraction(3, 4), Fraction(1, 4))


def test_measure_height_examples():
    assert measure_height(dirac(ProjPointQ(3, 2))) == pytest.approx(math.log(3))
    m = make_measure(
        [ProjPointQ(3, 2), ProjPointQ(1, 1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert measure_height(m) == pytest.approx(math.log(3) / 2)
    u = make_measure(
        [ProjPointQ(1, 1), ProjPointQ(2, 1), ProjPointQ(1, 2)],
        [Fraction(1, 3)] * 3,
    )
    assert measure_height(u) == pytest.approx(2 * LOG2 / 3)


@settings(max_examples=100)
@given(finite_measures(), finite_measures(), st.integers(1, 9))
def test_measure_height_linear_exact(m1, m2, k):
    t = Fraction(k, 10)
    combo = mix([(t, m1), (1 - t, m2)])
    lhs = measure_height_exact(combo)
    rhs = measure_height_exact(m1).scaled(t) + measure_height_exact(m2).scaled(1 - t)
    assert lhs == rhs


def test_energy_pairing_examples():
    d1, d3 = dirac(ProjPointQ(1, 1)), dirac(ProjPointQ(3, 1))
    assert energy_pairing_discrete(d1, d3, ARCH) == pytest.approx(-LOG2)
    assert energy_pairing_discrete(d1, d3, PlaceQ(2)) == pytest.approx(LOG2)
    d0 = dirac(ProjPointQ(0, 1))
    assert energy_pairing_discrete(d0, d0, ARCH) == 0.0
    with pytest.raises(InfinitePoint):
        energy_pairing_discrete(dirac(INFINITY), d0, ARCH)


@settings(max_examples=60)
@given(finite_measures(), finite_measures())
def test_energy_pairing_symmetric(m1, m2):
    for place in (ARCH, PlaceQ(2), PlaceQ(3)):
        assert energy_pairing_discrete(m1, m2, place) == pytest.approx(
            energy_pairing_discrete(m2, m1, place), abs=1e-10
        )


def test_product_formula_examples():
    assert product_formula_sum(dirac(ProjPointQ(1, 1)), dirac(ProjPointQ(3, 1))) == 0.0
    assert product_formula_sum(dirac(ProjPointQ(1, 2)), dirac(ProjPointQ(5, 1))) == 0.0


@settings(max_examples=100)
@given(finite_measures(), finite_measures())
def test_product_formula_fuzz(m1, m2):
    assert product_formula_sum(m1, m2) == 0.0


def test_product_formula_sees_a_wrong_archimedean_side(monkeypatch):
    # the finite places come from factoring q: an of_log_abs that drops the
    # prime 3 leaves log 3 on the pair 7/2, 1/2, whose difference is 3
    real = LogCombination.of_log_abs.__func__

    def without_3(cls, q):
        out = real(cls, q)
        out.coeffs.pop(3, None)
        return out

    monkeypatch.setattr(LogCombination, "of_log_abs", classmethod(without_3))
    assert product_formula_sum(dirac(ProjPointQ(7, 2)),
                               dirac(ProjPointQ(1, 2))) == pytest.approx(
        math.log(3))


def test_standard_energy_defect_examples():
    assert standard_energy_defect(dirac(ProjPointQ(0, 1)), ARCH) == 0.0
    m = make_measure(
        [ProjPointQ(1, 1), ProjPointQ(-1, 1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert standard_energy_defect(m, ARCH) == pytest.approx(-LOG2 / 2)
    assert standard_energy_defect(m, PlaceQ(2)) == pytest.approx(LOG2 / 2)


@settings(max_examples=100)
@given(finite_measures())
def test_standard_energy_defect_bounds(m):
    assert standard_energy_defect(m, ARCH) >= -LOG2 - 1e-9
    for p in (2, 3, 5):
        assert standard_energy_defect(m, PlaceQ(p)) >= -1e-9


def _grid_sup_arch(phi):
    """Sup of |g| at infinity over a polar grid of both charts |z| <= 1 of
    P1, where the lift (z, 1) or (1, z) has max-norm 1."""
    r = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 40)])
    z = np.outer(r, np.exp(2j * np.pi * np.arange(32) / 32)).ravel()
    f = np.array(phi.fcoeffs, dtype=float)
    g = np.array(phi.gcoeffs, dtype=float)
    best = 0.0
    for fc, gc in ((f, g), (f[::-1], g[::-1])):
        top = np.maximum(np.abs(np.polyval(fc, z)), np.abs(np.polyval(gc, z)))
        best = max(best, float(np.max(np.abs(np.log(top)))) / phi.d)
    return best


def _sample_sup_padic(phi, p):
    """Exact max of |g_p| over p^k for -3 <= k <= 3, 0 and infinity, each
    lifted to a coprime integer pair (so of p-adic max-norm 1)."""
    lifts = ([(p**k, 1) for k in range(4)] + [(1, p**k) for k in range(1, 4)]
             + [(0, 1), (1, 0)])
    vmins = [min(padic_valuation(v, p) for v in phi.hom_eval_int(a, b))
             for a, b in lifts]
    return max(abs(v) for v in vmins) * math.log(p) / phi.d


def test_cphi_z2_vanishes():
    for place in (ARCH, PlaceQ(2), PlaceQ(7)):
        assert cphi_bound(Z2, place) == 0.0
    assert _grid_sup_arch(Z2) == pytest.approx(0.0, abs=1e-12)


def test_cphi_two_z2_closed_form():
    assert cphi_bound(TWO_Z2, ARCH) == pytest.approx(LOG2 / 2)
    assert _grid_sup_arch(TWO_Z2) == pytest.approx(LOG2 / 2)
    assert cphi_bound(TWO_Z2, PlaceQ(2)) == pytest.approx(LOG2 / 2)
    assert _sample_sup_padic(TWO_Z2, 2) == pytest.approx(LOG2 / 2)
    assert cphi_bound(TWO_Z2, PlaceQ(3)) == 0.0


def test_cphi_z2_plus_1_arch():
    # sup of |g| is attained at z = 1 with value (log 2)/2, and the
    # certified bound from coefficient norms is tight here
    assert cphi_bound(Z2_PLUS_1, ARCH) == pytest.approx(LOG2 / 2)
    assert _grid_sup_arch(Z2_PLUS_1) == pytest.approx(LOG2 / 2, abs=1e-6)


_BIG = st.integers(1, 10**400)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, 30), _BIG), st.booleans(),
       st.one_of(st.integers(1, 30), _BIG), st.integers(2, 4), st.booleans())
def test_cphi_monomial_closed_form(A, negative, B, d, inverted):
    # a z^(+-d), a = A/B: the Bezout bound is the exact sup, bit for bit,
    # log max(|A|, |B|) / d at infinity and |v_p(a)| log p / d at p
    A = -A if negative else A
    phi = (make_map([A], [0] * d + [B]) if inverted
           else make_map([0] * d + [A], [B]))
    a = Fraction(A, B)
    assert phi.monomial_profile == MonomialProfile(a, inverted)
    assert cphi_bound(phi, ARCH) == int_log(
        max(abs(a.numerator), a.denominator)) / d
    for p in (2, 3, 5, 7):
        assert cphi_bound(phi, PlaceQ(p)) == (
            abs(padic_valuation(a, p)) * math.log(p) / d)


def test_bezout_cofactors_z2_plus_1():
    a, b, c, e = _bezout_cofactors(Z2_PLUS_1)
    # X * (X^2 + Y^2) - X * Y^2 = X^3  and  Y * Y^2 = Y^3, Res = 1
    assert a == (1, 0)
    assert b == (-1, 0)
    assert (c, e) == ((0, 0), (0, 1))


@settings(max_examples=30, deadline=None)
@given(small_maps())
def test_cphi_invariant_fuzz(phi):
    # the certified bound sits above sampled values of |g_v|
    assert cphi_bound(phi, ARCH) >= _grid_sup_arch(phi) - 1e-12
    for p in (2, 3):
        assert cphi_bound(phi, PlaceQ(p)) >= _sample_sup_padic(phi, p) - 1e-12


def test_l1_height_control_examples():
    one = make_system([Z2], [1])
    assert l1_height_control_total(one) == 0.0
    dyadic = make_system([Z2, TWO_Z2], [Fraction(1, 2), Fraction(1, 2)])
    total = l1_height_control_total(dyadic)
    assert total == pytest.approx(LOG2 / 2)
    # the sum covers both maps at Arch and p=2, the one bad prime
    assert total == math.fsum(float(w) * cphi_bound(phi, place)
                              for phi, w in dyadic
                              for place in (ARCH, PlaceQ(2)))
    single = make_system([TWO_Z2], [1])
    assert l1_height_control_total(single) == pytest.approx(LOG2)
