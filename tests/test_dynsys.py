from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochdyn.dynsys import (
    CommonFactor,
    DegenerateMap,
    DegreeTooLow,
    MonomialProfile,
    WordCapExceeded,
    bad_primes,
    eval_map,
    exceptional_report,
    exceptional_set,
    fiber,
    is_exceptional_system,
    make_map,
    make_system,
    ramification_index,
    sigma3,
    stochastic_degree,
    word_ramification,
    words,
    wronskian,
)
from stochdyn.exactnum import INFINITY, ProjPointQ, normalize_point

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
    with pytest.raises(WordCapExceeded):
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
    assert exceptional_set(dyadic_system()) == [ProjPointQ(0, 1), INFINITY]


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


def test_exceptional_set_single_map():
    assert exceptional_set(make_system([Z2_PLUS_1], [1])) == [INFINITY]


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


@settings(max_examples=60, deadline=None)
@given(small_maps(), points())
def test_fiber_multiplicities_sum_to_degree(phi, q):
    # preimage of q under phi, counted with multiplicity, has size deg(phi)
    pre = fiber(phi, q)
    assert sum(m for _, _, m in pre) == phi.d
    exact = [e for _, e, _ in pre if e is not None]
    assert all(eval_map(phi, e) == q for e in exact)
    assert len(set(exact)) == len(exact)


@settings(max_examples=100, deadline=None)
@given(small_maps(), st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_fiber_keeps_rational_preimages(phi, a, b):
    # every rational x is an exact preimage of phi(x), whatever its height,
    # with multiplicity e_x(phi)
    x = normalize_point(a, b)
    found = {e: m for _, e, m in fiber(phi, eval_map(phi, x)) if e is not None}
    assert found.get(x) == ramification_index(phi, x)


def test_fiber_of_large_denominator():
    # the root-rounding that fibers once relied on lost (10^7 + 1)/10^7
    x = normalize_point(10**7 + 1, 10**7)
    pre = fiber(Z2, eval_map(Z2, x))
    assert [e for _, e, _ in pre] == [normalize_point(-(10**7 + 1), 10**7), x]


@settings(max_examples=40, deadline=None)
@given(small_maps(), points())
def test_eval_consistency_int_vs_float(phi, p):
    fa, ga = phi.hom_eval_int(p.a, p.b)
    fc, gc, _ = phi.hom_eval_float(float(p.a), float(p.b))
    assert abs(fa - fc) <= 1e-6 * max(1.0, abs(fa))
    assert abs(ga - gc) <= 1e-6 * max(1.0, abs(ga))


@settings(max_examples=40, deadline=None)
@given(points())
def test_sigma3_one_iff_exceptional(p):
    sys2 = dyadic_system()
    assert (sigma3(sys2, p) == 1) == is_exceptional_system(sys2, p)


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
