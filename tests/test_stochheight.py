import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import small_maps

from stochdyn.dynsys import (
    WordCapExceeded,
    eval_map,
    make_map,
    make_system,
    stochastic_degree,
    words,
)
from stochdyn.exactnum import INFINITY, ProjPointQ
from stochdyn.heights import l1_height_control_total, weil_height
from stochdyn.stochheight import (
    Lifts,
    _apply,
    escape_sum_exact,
    escape_sum_mc,
    scaling_residual,
    stoch_height,
    stoch_height_exact,
    stoch_height_mc,
    tail_budget,
    weil_comparison_residual,
    word_source,
)

LOG2 = math.log(2)

ONE = ProjPointQ(1, 1)
TWO = ProjPointQ(2, 1)
ZERO = ProjPointQ(0, 1)


def dp_oracle(system, alpha, n):
    """E h(word(alpha))/deg over all length-n words, from exact big-integer
    orbits: a dynamic program on (point, degree) states whose colliding
    forward images collapse.  Coordinates double in bits at every step, so
    this is only a small-depth reference for the escape-sum kernel."""
    dist = {(alpha, 1): Fraction(1)}
    for _ in range(n):
        nxt = {}
        for (pt, deg), w in dist.items():
            for phi, p in system:
                key = (eval_map(phi, pt), deg * phi.d)
                nxt[key] = nxt.get(key, Fraction(0)) + w * p
        dist = nxt
    return math.fsum(
        float(w / deg) * weil_height(pt) for (pt, deg), w in dist.items()
    )


def mixed_system():
    return make_system(
        [make_map([0, 0, 2], [1]), make_map([0, 0, 0, 1], [1])],
        [Fraction(1, 3), Fraction(2, 3)],
    )


def test_exact_alpha_one_closed_form(dyadic):
    for n in range(1, 13):
        est = stoch_height_exact(dyadic, ONE, n)
        want = (1 - 0.5**n) * LOG2 / 2
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.stderr == 0.0
        assert est.mode == "exact"


def test_exact_alpha_two_closed_form(dyadic):
    for n in range(1, 13):
        est = stoch_height_exact(dyadic, TWO, n)
        want = (1.5 - 0.5 ** (n + 1)) * LOG2
        assert est.value == pytest.approx(want, rel=1e-12)


def test_exact_fixed_points(dyadic):
    assert stoch_height_exact(dyadic, ZERO, 6).value == 0.0
    assert stoch_height_exact(dyadic, INFINITY, 6).value == 0.0


def test_exact_matches_word_enumeration(dyadic):
    # independent oracle: direct enumeration over words
    for system, alpha in ((dyadic, ONE), (mixed_system(), ONE), (mixed_system(), TWO)):
        n = 4
        brute = 0.0
        for w in words(system, n):
            pt = alpha
            for i in w.indices:
                pt = eval_map(system.maps[i], pt)
            brute += float(w.weight) * weil_height(pt) / w.degree
        est = stoch_height_exact(system, alpha, n)
        assert est.value == pytest.approx(brute, rel=1e-12)


def test_exact_word_cap(dyadic):
    with pytest.raises(WordCapExceeded):
        stoch_height_exact(dyadic, ONE, 10, word_cap=100)


def test_stoch_height_three_halves_is_log3(dyadic):
    # the 3-power numerator always dominates, so every word gives log 3;
    # tol 1e-6 needs depth 20, past the word cap, and coordinates of 2^20
    # digits that the escape sums never build
    est = stoch_height(dyadic, ProjPointQ(3, 2), 1e-6)
    assert est.mode == "mc" and est.depth == 20
    assert est.tail_bound <= 1e-6
    assert est.value == pytest.approx(math.log(3), abs=1e-12)


def test_tail_bound_formula(dyadic):
    # integrated bound (log 2)/2 and rate 2 give tail (log 2) / 2^n
    for n in range(1, 8):
        assert tail_budget(dyadic).bound(n) == pytest.approx(LOG2 * 0.5**n)
    assert tail_budget(dyadic).depth(LOG2 * 0.5**7) == 7


def test_mc_single_map_zero_variance(single_z2):
    est = stoch_height_mc(single_z2, TWO, 5, 64, seed=1)
    assert est.value == pytest.approx(LOG2, abs=1e-14)
    assert est.stderr == 0.0


def test_mc_within_four_stderr_of_exact(dyadic):
    exact = stoch_height_exact(dyadic, ONE, 12).value
    mc = stoch_height_mc(dyadic, ONE, 12, 10**4, seed=0)
    assert abs(mc.value - exact) <= 4 * mc.stderr


def test_mc_deterministic(dyadic):
    a = stoch_height_mc(dyadic, ONE, 8, 500, seed=7)
    b = stoch_height_mc(dyadic, ONE, 8, 500, seed=7)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = stoch_height_mc(dyadic, ONE, 8, 500, seed=8)
    assert a.value != c.value


def test_mc_consistency_rate(dyadic):
    exact = stoch_height_exact(dyadic, ONE, 5).value
    misses = 0
    for seed in range(40):
        mc = stoch_height_mc(dyadic, ONE, 5, 300, seed=seed)
        if abs(mc.value - exact) > 4 * mc.stderr:
            misses += 1
    assert misses <= 1


def test_stoch_height_dyadic_one(dyadic):
    est = stoch_height(dyadic, ONE, 1e-3)
    assert est.mode == "exact"
    assert est.tail_bound <= 1e-3
    assert abs(est.value - LOG2 / 2) <= 1e-3


def test_stoch_height_single_map_is_weil(single_z2):
    est = stoch_height(single_z2, ProjPointQ(3, 2), 0.1)
    assert est.depth == 1
    assert est.tail_bound == 0.0
    assert est.value == pytest.approx(math.log(3), abs=1e-12)


def test_stoch_height_dyadic_two(dyadic):
    est = stoch_height(dyadic, TWO, 1e-3)
    assert abs(est.value - 1.5 * LOG2) <= 1e-3


def test_stoch_height_mc_fallback(dyadic):
    est = stoch_height(dyadic, ONE, 1e-3, word_cap=100, seed=3)
    assert est.mode == "mc"
    assert est.tail_bound <= 1e-3
    assert abs(est.value - LOG2 / 2) <= 1e-3 + 4 * est.stderr


def test_scaling_residual(dyadic, single_z2):
    assert scaling_residual(dyadic, ONE, 1e-3) <= 2e-3
    assert scaling_residual(single_z2, ProjPointQ(3, 2), 1e-6) <= 2e-6
    assert scaling_residual(dyadic, ZERO, 1e-3) == 0.0


def test_weil_comparison_dyadic(dyadic):
    diff, budget = weil_comparison_residual(dyadic, ONE)
    assert budget == pytest.approx(3 * LOG2)
    assert diff == pytest.approx(LOG2 / 2, abs=2e-3)
    assert diff <= budget
    diff2, _ = weil_comparison_residual(dyadic, TWO)
    assert diff2 == pytest.approx(1.5 * LOG2 - LOG2, abs=2e-3)


def test_weil_comparison_trivial(single_z2):
    diff, budget = weil_comparison_residual(single_z2, ProjPointQ(5, 3))
    assert budget == 0.0
    assert diff <= 1e-12


def test_monotone_refinement(dyadic):
    for system in (dyadic, mixed_system()):
        c = l1_height_control_total(system).total
        delta = float(stochastic_degree(system))
        for alpha in (ONE, TWO, ProjPointQ(1, 2)):
            prev = stoch_height_exact(system, alpha, 1).value
            for n in range(2, 6):
                cur = stoch_height_exact(system, alpha, n).value
                assert abs(cur - prev) <= c * delta ** (2 - n) + 1e-12
                prev = cur


@settings(max_examples=25, deadline=None)
@given(small_maps(), small_maps(), st.integers(1, 3))
def test_exact_nonnegative(phi1, phi2, n):
    system = make_system([phi1, phi2], [Fraction(1, 2), Fraction(1, 2)])
    est = stoch_height_exact(system, ONE, n)
    assert est.value >= 0.0


@settings(max_examples=40, deadline=None)
@given(small_maps(), small_maps(), st.integers(1, 5),
       st.sampled_from([ONE, TWO, ZERO, INFINITY, ProjPointQ(-7, 3),
                        ProjPointQ(5, 9), ProjPointQ(12, 25)]))
def test_kernel_matches_dp_oracle(phi1, phi2, n, alpha):
    # coefficients in [-5, 5] give resultants with bad primes 2, 3, 5 and
    # more, so the p-adic terms of the kernel are exercised at odd primes
    system = make_system([phi1, phi2], [Fraction(1, 3), Fraction(2, 3)])
    est = stoch_height_exact(system, alpha, n)
    assert est.value == pytest.approx(dp_oracle(system, alpha, n),
                                      rel=1e-12, abs=1e-12)


def test_mc_matches_dp_oracle_words():
    # with every path of a one-map system equal, the sample mean is the
    # word average itself
    phi = make_map([3, 0, 5], [0, 9])
    system = make_system([phi], [Fraction(1)])
    for alpha in (ONE, ProjPointQ(-7, 3), ProjPointQ(2, 15)):
        mc = stoch_height_mc(system, alpha, 6, 4, seed=0)
        assert mc.value == pytest.approx(dp_oracle(system, alpha, 6),
                                         rel=1e-12)


def test_kernel_batching_is_invisible(dyadic):
    # 6000 lifts: the exact walk never merges siblings, and Monte Carlo
    # fits two paths per chunk, so seven paths run in four merged chunks
    rng = np.random.default_rng(3)
    z = rng.normal(size=6000) + 1j * rng.normal(size=6000)
    scale = np.maximum(np.abs(z), 1.0)
    lifts = Lifts((z / scale, 1.0 / scale + 0j))
    exact = escape_sum_exact(dyadic, lifts, 6)
    for i in (0, 17, 5999):
        single = escape_sum_exact(dyadic, lifts.take([i]), 6)
        assert exact[i] == pytest.approx(single[0], rel=1e-12, abs=1e-15)

    words = rng.integers(0, 2, size=(7, 9))
    mean, stderr = escape_sum_mc(dyadic, lifts, 7, lambda lo, hi: words[lo:hi])
    paths = np.array([escape_sum_mc(dyadic, lifts, 1,
                                    lambda lo, hi: words[s + lo:s + hi])[0]
                      for s in range(7)])
    assert mean == pytest.approx(paths.mean(axis=0), rel=1e-12, abs=1e-15)
    want = paths.std(axis=0, ddof=1) / math.sqrt(7)
    assert stderr == pytest.approx(want, rel=1e-9, abs=1e-15)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_renormalization_is_division(dyadic, general):
    # _apply scales complex lifts by 1/m where it means fx / m: numpy
    # divides a complex by a real as a product with the reciprocal, and
    # this pins that; real lifts keep the division, which 1/m would move
    rng = np.random.default_rng(5)
    z = rng.normal(size=500) * np.exp(rng.normal(size=500) * 20.0)
    zc = z * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=500))
    for x, y in ((zc, np.ones_like(zc)), (np.ones_like(zc), zc),
                 (zc, rng.normal(size=500) + 1j * rng.normal(size=500)),
                 (z, np.ones_like(z)), (np.ones_like(z), z),
                 (z, rng.normal(size=500))):
        scale = np.maximum(np.abs(x), np.abs(y))
        x, y = x / scale, y / scale
        for phi in dyadic.maps + general.maps:
            fx, gy, _ = phi.hom_eval_float(x, y)
            m = np.maximum(np.abs(fx), np.abs(gy))
            nxt, _ = _apply(phi, Lifts((x, y)), 0.0)
            assert nxt.coords[0].dtype == fx.dtype
            assert np.array_equal(bits(nxt.coords[0]), bits(fx / m))
            assert np.array_equal(bits(nxt.coords[1]), bits(gy / m))


@pytest.mark.parametrize("probs", [(Fraction(1, 2), Fraction(1, 2)),
                                   (Fraction(3, 10), Fraction(7, 10))])
def test_word_source_in_chunks_equal_one_draw(probs):
    system = make_system([make_map([0, 0, 1], [1]), make_map([0, 0, 2], [1])],
                         probs)
    words = word_source(system, 7, np.random.default_rng(9))
    chunks = np.concatenate([words(lo, min(lo + 3, 20))
                             for lo in range(0, 20, 3)])
    whole = np.random.default_rng(9).choice(2, size=(20, 7),
                                            p=[float(p) for p in probs])
    assert np.array_equal(chunks, whole)
    # the kernel asks for its chunks in order, so its bits do not depend
    # on whether the words are drawn up front or chunk by chunk
    z = np.exp(1j * np.linspace(0.0, 6.0, 5000)) * np.linspace(0.1, 3.0, 5000)
    scale = np.maximum(np.abs(z), 1.0)
    lifts = Lifts((z / scale, 1.0 / scale + 0j))
    drawn = escape_sum_mc(system, lifts, 20,
                          word_source(system, 7, np.random.default_rng(9)))
    held = escape_sum_mc(system, lifts, 20, lambda lo, hi: whole[lo:hi])
    for a, b in zip(drawn, held):
        assert np.array_equal(bits(a), bits(b))
