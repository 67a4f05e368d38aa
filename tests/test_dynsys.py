import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochdyn.dynsys import (
    CommonFactor,
    DegenerateMap,
    DegreeTooLow,
    ExceptionalReport,
    MonomialProfile,
    bad_primes,
    eval_map,
    exceptional_report,
    fiber,
    is_exceptional_system,
    make_map,
    make_system,
    ramification_index,
    stochastic_degree,
    wronskian,
)
from stochdyn.exactnum import (
    INFINITY,
    ConvergenceFailure,
    ProjPointQ,
    factor_poly,
    normalize_point,
)

from oracles import mpmath_roots, sigma3, word_ramification, words

Z2 = make_map([0, 0, 1], [1])
TWO_Z2 = make_map([0, 0, 2], [1])
INV_Z2 = make_map([1], [0, 0, 1])
Z2_PLUS_1 = make_map([1, 0, 1], [1])


def dyadic_system():
    return make_system([Z2, TWO_Z2], [Fraction(1, 2), Fraction(1, 2)])


def test_make_map_examples():
    assert Z2.fcoeffs == (1, 0, 0)
    assert Z2.gcoeffs == (0, 0, 1)
    assert Z2.d == 2
    assert TWO_Z2.fcoeffs == (2, 0, 0)
    assert Z2_PLUS_1.fcoeffs == (1, 0, 1)
    assert Z2_PLUS_1.gcoeffs == (0, 0, 1)


def test_make_map_content_normalized():
    assert make_map([0, 0, 2], [2]) == Z2


def test_make_map_errors():
    with pytest.raises(DegreeTooLow):
        make_map([0, 1], [1])
    with pytest.raises(CommonFactor):
        make_map([0, 1, 1], [1, 1])  # z(z+1) / (z+1)
    with pytest.raises(DegenerateMap):
        make_map([0], [1])


def test_resultants():
    assert Z2.res == 1
    assert TWO_Z2.res == 4
    assert Z2_PLUS_1.res == 1


def test_eval_map_examples():
    assert eval_map(Z2, ProjPointQ(3, 2)) == ProjPointQ(9, 4)
    assert eval_map(TWO_Z2, ProjPointQ(1, 1)) == ProjPointQ(2, 1)
    assert eval_map(Z2, INFINITY) == INFINITY


def test_ramification_examples():
    assert ramification_index(Z2, ProjPointQ(0, 1)) == 2
    assert ramification_index(Z2, ProjPointQ(1, 1)) == 1
    assert ramification_index(INV_Z2, INFINITY) == 2
    # z^2 + 1 is totally ramified over 1, at the critical point 0
    assert ramification_index(Z2_PLUS_1, ProjPointQ(0, 1)) == 2


def test_bad_primes():
    assert bad_primes(Z2) == set()
    assert bad_primes(TWO_Z2) == {2}
    assert bad_primes(Z2_PLUS_1) == set()


def test_make_system_validation():
    with pytest.raises(ValueError):
        make_system([], [])
    with pytest.raises(ValueError):
        make_system([Z2], [Fraction(1, 2)])
    with pytest.raises(ValueError):
        make_system([Z2, TWO_Z2], [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        make_system([Z2], [Fraction(1, 2), Fraction(1, 2)])


def test_stochastic_degree():
    assert stochastic_degree(dyadic_system()) == 2
    z4 = make_map([0, 0, 0, 0, 1], [1])
    mixed = make_system([Z2, z4], [Fraction(1, 2), Fraction(1, 2)])
    assert stochastic_degree(mixed) == Fraction(8, 3)
    assert stochastic_degree(make_system([z4], [1])) == 4


def test_words_enumeration():
    ws = list(words(dyadic_system(), 3))
    assert len(ws) == 8
    assert sum(w.weight for w in ws) == 1
    assert all(w.degree == 8 for w in ws)
    with pytest.raises(ValueError):
        list(words(dyadic_system(), 3, word_cap=7))


def test_sigma3_values():
    sys2 = dyadic_system()
    assert sigma3(sys2, ProjPointQ(0, 1)) == 1
    assert sigma3(sys2, INFINITY) == 1
    # generic point: every length-3 word is unramified there
    assert sigma3(sys2, ProjPointQ(1, 1)) == Fraction(1, 8)
    single = make_system([Z2], [1])
    assert sigma3(single, ProjPointQ(1, 1)) == Fraction(1, 8)


def test_sigma3_matches_brute_force():
    sys2 = dyadic_system()
    p = ProjPointQ(2, 1)
    acc = Fraction(0)
    for w in words(sys2, 3):
        acc += w.weight * Fraction(word_ramification(sys2, w.indices, p), w.degree)
    assert sigma3(sys2, p) == acc


def test_is_exceptional_dyadic():
    sys2 = dyadic_system()
    assert is_exceptional_system(sys2, ProjPointQ(0, 1))
    assert is_exceptional_system(sys2, INFINITY)
    assert not is_exceptional_system(sys2, ProjPointQ(1, 1))


def test_depth_two_is_not_enough():
    # {1/z^2, z^2+1}: every length-2 word has e_inf = 4 = deg, yet the
    # depth-3 test rejects infinity.
    sys2 = make_system([INV_Z2, Z2_PLUS_1], [Fraction(1, 2), Fraction(1, 2)])
    for w in words(sys2, 2):
        assert word_ramification(sys2, w.indices, INFINITY) == 4 == w.degree
    assert not is_exceptional_system(sys2, INFINITY)
    assert sigma3(sys2, INFINITY) < 1


def test_exceptional_set_dyadic():
    assert list(exceptional_report(dyadic_system()).confirmed) == [
        ProjPointQ(0, 1), INFINITY]


def test_exceptional_set_mixed_pair_empty():
    sys2 = make_system([INV_Z2, Z2_PLUS_1], [Fraction(1, 2), Fraction(1, 2)])
    report = exceptional_report(sys2)
    assert report.confirmed == ()
    assert report.unresolved_factors == ()


def test_exceptional_report_irrational_candidates():
    # (z^2 - 2)/(2z) is critical at +-i sqrt(2): a Wronskian factor that is
    # irreducible over Q is reported, not decided
    system = make_system([make_map([-2, 0, 1], [0, 2])], [1])
    report = exceptional_report(system)
    assert report.confirmed == ()
    assert report.unresolved_factors == (((2, 0, 1), 1),)
    # z^3 + 3z is critical at +-i with multiplicity 1 < d - 1 = 2: not a
    # candidate, while infinity, of multiplicity 2, is exceptional
    report = exceptional_report(make_system([make_map([0, 3, 0, 1], [1])],
                                            [1]))
    assert report == ExceptionalReport((INFINITY,), ())


def test_exceptional_set_single_map():
    report = exceptional_report(make_system([Z2_PLUS_1], [1]))
    assert list(report.confirmed) == [INFINITY]


def test_wronskian_z2():
    assert wronskian(Z2) == (0, 4, 0)  # 4XY


def test_monomial_profile():
    assert Z2.monomial_profile == MonomialProfile(Fraction(1), False)
    assert TWO_Z2.monomial_profile == MonomialProfile(Fraction(2), False)
    assert INV_Z2.monomial_profile == MonomialProfile(Fraction(1), True)
    assert Z2_PLUS_1.monomial_profile is None
    three_halves = make_map([0, 0, 3], [2])
    assert three_halves.monomial_profile == MonomialProfile(Fraction(3, 2), False)


from strategies import points, small_maps  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(small_maps(), points())
def test_ramification_bounds(phi, p):
    e = ramification_index(phi, p)
    assert 1 <= e <= phi.d


@settings(max_examples=200, deadline=None)
@given(small_maps(), points())
def test_ramification_index_matches_factorization(phi, p):
    # e_P by exact division equals the multiplicity of P's factor in the
    # factorization of the fiber form v F - u G of phi(P) = [u : v]
    u, v = eval_map(phi, p)
    h = [v * f - u * g for f, g in zip(phi.fcoeffs, phi.gcoeffs)]
    if p.is_infinity:
        want = next(i for i, c in enumerate(h) if c)
    else:
        want = dict(factor_poly(h[::-1])).get((-p.a, p.b), 0)
    assert ramification_index(phi, p) == want


@settings(max_examples=60, deadline=None)
@given(small_maps(), points())
def test_fiber_multiplicities_sum_to_degree(phi, q):
    # preimage of q under phi, counted with multiplicity, has size deg(phi);
    # exact preimages carry their own log-polar form
    pre = fiber(phi, q)
    assert sum(m for *_, m in pre) == phi.d
    exact = [e for _, _, e, _ in pre if e is not None]
    assert all(eval_map(phi, e) == q for e in exact)
    assert len(set(exact)) == len(exact)
    for r, t, e, _ in pre:
        assert 0.0 <= t < 2.0 * math.pi
        assert e is None or (r, t) == e.log_polar()


@settings(max_examples=100, deadline=None)
@given(small_maps(), st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_fiber_keeps_rational_preimages(phi, a, b):
    # every rational x is an exact preimage of phi(x), whatever its height,
    # with multiplicity e_x(phi)
    x = normalize_point(a, b)
    found = {e: m for _, _, e, m in fiber(phi, eval_map(phi, x))
             if e is not None}
    assert found.get(x) == ramification_index(phi, x)


def test_fiber_examples():
    # 4 pulls back under z^2 to -2 and 2, exactly; 1 under 2z^2 to the
    # irrational +-sqrt(1/2), numeric only; 0 to the double point 0
    log2 = math.log(2.0)
    assert fiber(Z2, ProjPointQ(4, 1)) == (
        (log2, math.pi, ProjPointQ(-2, 1), 1),
        (log2, 0.0, ProjPointQ(2, 1), 1))
    pre = fiber(TWO_Z2, ProjPointQ(1, 1))
    assert [(r, t) for r, t, _, _ in pre] == [
        (pytest.approx(-log2 / 2), pytest.approx(math.pi)),
        (pytest.approx(-log2 / 2), pytest.approx(0.0, abs=1e-15))]
    assert [(e, m) for _, _, e, m in pre] == [(None, 1), (None, 1)]
    assert fiber(Z2, ProjPointQ(0, 1)) == (
        (-math.inf, 0.0, ProjPointQ(0, 1), 2),)


def test_fiber_at_infinity():
    # 1/z^2 pulls infinity back to 0, and z^2 to itself, twice each
    assert fiber(INV_Z2, INFINITY) == ((-math.inf, 0.0, ProjPointQ(0, 1), 2),)
    assert fiber(Z2, INFINITY) == ((math.inf, 0.0, INFINITY, 2),)


def test_fiber_of_large_denominator():
    # the root-rounding that fibers once relied on lost (10^7 + 1)/10^7
    x = normalize_point(10**7 + 1, 10**7)
    pre = fiber(Z2, eval_map(Z2, x))
    assert [e for _, _, e, _ in pre] == [normalize_point(-(10**7 + 1), 10**7), x]


def test_fiber_above_float_range():
    # 10^800 pulls back under z^2 to the exact +-10^400 and under 2z^2 to
    # +-(5 10^799)^(1/2), none of which is a float; the numeric roots keep
    # the (re, im) order
    x0 = 800 * math.log(10.0)
    assert list(fiber(Z2, ProjPointQ(10**800, 1))) == [
        (pytest.approx(x0 / 2, rel=1e-15), math.pi, ProjPointQ(-10**400, 1), 1),
        (pytest.approx(x0 / 2, rel=1e-15), 0.0, ProjPointQ(10**400, 1), 1)]
    assert list(fiber(TWO_Z2, ProjPointQ(10**800, 1))) == [
        (pytest.approx((x0 - math.log(2.0)) / 2, rel=1e-15),
         pytest.approx(math.pi), None, 1),
        (pytest.approx((x0 - math.log(2.0)) / 2, rel=1e-15),
         pytest.approx(0.0, abs=1e-15), None, 1)]
    # z^2 + 1 pulls -10^800 - 1 back to +-i 10^400: im is the second key
    pre = fiber(Z2_PLUS_1, ProjPointQ(-10**800, 1))
    assert [t for _, t, _, _ in pre] == pytest.approx(
        [3 * math.pi / 2, math.pi / 2])


def test_fiber_keeps_roots_far_below_float_range():
    # 3^700 pulls back under (z^3 + 1)/(2z) to the roots of the
    # irreducible z^3 - 2 3^700 z + 1: about +-(2 3^700)^(1/2) and
    # 1/(2 3^700), which a float-scaled monic polynomial lost to 0
    cubic = make_map([1, 0, 0, 1], [0, 2])
    pre = fiber(cubic, ProjPointQ(3**700, 1))
    big = (700 * math.log(3.0) + math.log(2.0))
    assert [(r, e, m) for r, _, e, m in pre] == [
        (pytest.approx(big / 2, rel=1e-12), None, 1),
        (pytest.approx(-big, rel=1e-12), None, 1),
        (pytest.approx(big / 2, rel=1e-12), None, 1)]
    assert [t for _, t, _, _ in pre] == pytest.approx([math.pi, 0.0, 0.0],
                                                      abs=1e-12)
    # a quartic takes the polished companion eigenvalues, which keep the
    # root near 1/(2z) while it stays in float range in the balanced form
    quartic = make_map([1, 0, 0, 0, 1], [0, 2])
    pre = fiber(quartic, ProjPointQ(10**44, 1))
    assert min(r for r, _, _, _ in pre) == pytest.approx(
        -(44 * math.log(10.0) + math.log(2.0)), rel=1e-9)
    # at 3^700 it lies below float range there (an open defect): a loss
    # must raise, and the error name the factor's degree, not its
    # 335-digit coefficient
    try:
        pre = fiber(quartic, ProjPointQ(3**700, 1))
    except ConvergenceFailure as err:
        assert "degree 4" in str(err) and len(str(err)) < 100
    else:
        assert min(r for r, _, _, _ in pre) == pytest.approx(-big, rel=1e-9)


Z4 = make_map([0, 0, 0, 0, 1], [1])


@pytest.mark.parametrize("phi, point, exact", [
    (Z4, 4, []),
    (Z4, 10**40, [-10**10, 10**10]),
    (make_map([2, 0, 3, 0, 1], [1]), 0, []),  # (z^2 + 1)(z^2 + 2)
    (make_map([0] * 6 + [1], [1]), 64, [-2, 2]),
    (make_map([1, 0, 0, 0, 1], [0, 2]), 10**44, []),
], ids=["z4-at-4", "z4-at-1e40", "quartic-product-at-0", "z6-at-64",
        "quartic-over-2z-at-1e44"])
def test_fiber_of_degree_at_least_4(phi, point, exact):
    # the rational preimages stay exact, and every preimage lies within
    # 1e-12 of mpmath's root in (log|w|, arg w), the rests of degree 4
    # included
    q = ProjPointQ(point, 1)
    pre = fiber(phi, q)
    assert [e for _, _, e, _ in pre if e is not None] == [
        ProjPointQ(a, 1) for a in exact]
    assert all(m == 1 for *_, m in pre)
    h = [f - point * g for f, g in zip(phi.fcoeffs, phi.gcoeffs)]
    want = mpmath_roots(h[::-1])
    assert len(pre) == len(want) == phi.d
    for r, t, e, _ in pre:
        assert e is None or (r, t) == e.log_polar()
        near = [k for k, (wr, wt) in enumerate(want)
                if abs(r - wr) <= 1e-12
                and abs(math.remainder(t - wt, 2.0 * math.pi)) <= 1e-12]
        assert near, (r, t)
        want.pop(near[0])


@settings(max_examples=40, deadline=None)
@given(small_maps(), points())
def test_eval_consistency_int_vs_float(phi, p):
    fa, ga = phi.hom_eval_int(p.a, p.b)
    fc, gc, _ = phi.hom_eval_float(float(p.a), float(p.b))
    assert abs(fa - fc) <= 1e-6 * max(1.0, abs(fa))
    assert abs(ga - gc) <= 1e-6 * max(1.0, abs(ga))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_maps(), min_size=1, max_size=3), points())
def test_sigma3_one_iff_exceptional(maps, p):
    # the forward-closure test against the depth-3 oracle
    system = make_system(maps, [Fraction(1, len(maps))] * len(maps))
    assert (sigma3(system, p) == 1) == is_exceptional_system(system, p)


def full_horner(fcoeffs, gcoeffs, x, y):
    """The full Horner rule that hom_eval_int and hom_eval_float prune:
    every coefficient, every power of y, including the unused last one."""
    fa = 0
    ga = 0
    bp = 1
    for fc, gc in zip(fcoeffs, gcoeffs):
        fa = fa * x + fc * bp
        ga = ga * x + gc * bp
        bp = bp * y
    return fa, ga


# zero and unit coefficients are the ones the sparse rule skips; 2^1000 + 1
# pushes float_forms to k > 0, where 2^-k F has no unit coefficient left
COEFFS = st.sampled_from([0, 0, 0, 1, 1, -1, -1, 2, -3, 7, 2**1000 + 1])


@st.composite
def sparse_maps(draw):
    num = draw(st.lists(COEFFS, min_size=1, max_size=5))
    den = draw(st.lists(COEFFS, min_size=1, max_size=5))
    try:
        return make_map(num, den)
    except (CommonFactor, DegenerateMap, DegreeTooLow):
        assume(False)


def same_magnitudes(got, want):
    # equal bit for bit but for signs of zeros
    got, want = np.asarray(got), np.asarray(want)
    return (np.array_equal(np.abs(got.real), np.abs(want.real))
            and np.array_equal(np.abs(got.imag), np.abs(want.imag)))


FINITE = st.floats(-4.0, 4.0)


@settings(max_examples=150, deadline=None)
@given(sparse_maps(), st.lists(st.tuples(st.integers(-10**30, 10**30),
                                         st.integers(-10**30, 10**30)),
                               min_size=1, max_size=4),
       st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1,
                max_size=4))
def test_form_evaluator_matches_full_horner(phi, ints, floats):
    for a, b in ints:
        assert phi.hom_eval_int(a, b) == full_horner(phi.fcoeffs,
                                                     phi.gcoeffs, a, b)
    a, b = (np.array(col, dtype=object) for col in zip(*ints))
    got, want = phi.hom_eval_int(a, b), full_horner(phi.fcoeffs,
                                                    phi.gcoeffs, a, b)
    assert all(list(g) == list(w) for g, w in zip(got, want))
    fc, gc, k = phi.float_forms
    xr, yr, xi, yi = (np.array(col) for col in zip(*floats))
    for x, y in ((xr, yr), (xr + 1j * xi, yr + 1j * yi)):
        fx, gy, kk = phi.hom_eval_float(x, y)
        wf, wg = full_horner(fc, gc, x, y)
        assert kk == k
        assert same_magnitudes(fx, wf) and same_magnitudes(gy, wg)
