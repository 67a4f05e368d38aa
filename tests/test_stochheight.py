import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import words
from strategies import points, small_maps

from stochdyn.dynsys import eval_map, make_map, make_system, stochastic_degree
from stochdyn.exactnum import LOG2, INFINITY, ConvergenceFailure, ProjPointQ
from stochdyn.heights import arch_sides, l1_height_control_total, weil_height
from stochdyn import stochheight
from stochdyn.stochheight import (
    Lifts,
    _apply,
    _point_lifts,
    _sampled_tail,
    _term,
    escape_sum,
    escape_walk,
    scaling_residual,
    stoch_height,
    tail_budget,
    weil_comparison_residual,
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


def escape_sum_exact(system, lifts, depth, floor=0.0):
    """The escape sums of the lifts over all words of the given length."""
    return escape_walk(system, lifts, depth, depth, floor)[0]


def sampled(system, alpha, depth, seed, tol=1.0):
    """escape_sum of alpha at an explicit depth, with a word cap of 0 so
    that it always takes the exact prefix and samples the tails."""
    return escape_sum(system, lambda n: _point_lifts(system, [alpha], n),
                      tail_budget(system), tol, 0, seed, depth=depth)


def every_word(system, alpha, n):
    """stoch_height over every word of length n: tol inf at depth n."""
    return stoch_height(system, alpha, math.inf, depth=n)


def mixed_system():
    return make_system(
        [make_map([0, 0, 2], [1]), make_map([0, 0, 0, 1], [1])],
        [Fraction(1, 3), Fraction(2, 3)],
    )


def test_exact_alpha_one_closed_form(dyadic):
    for n in range(1, 13):
        est = every_word(dyadic, ONE, n)
        want = (1 - 0.5**n) * LOG2 / 2
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.stderr == 0.0
        assert est.mode == "exact"


def test_exact_alpha_two_closed_form(dyadic):
    for n in range(1, 13):
        est = every_word(dyadic, TWO, n)
        want = (1.5 - 0.5 ** (n + 1)) * LOG2
        assert est.value == pytest.approx(want, rel=1e-12)


def test_exact_fixed_points(dyadic):
    assert every_word(dyadic, ZERO, 6).value == 0.0
    assert every_word(dyadic, INFINITY, 6).value == 0.0


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
        est = every_word(system, alpha, n)
        assert est.value == pytest.approx(brute, rel=1e-12)


def test_accuracy_is_checked_up_front(dyadic):
    # TailBudget.depth refuses a depth below 1 before any walk starts, at
    # a finite tol and at tol inf alike
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            stoch_height(dyadic, TWO, 1e-3, depth=depth)
        with pytest.raises(ValueError, match="depth must be at least 1"):
            every_word(dyadic, ProjPointQ(3, 2), depth)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            stoch_height(dyadic, ONE, tol)
    with pytest.raises(ValueError, match="leaves tail"):
        stoch_height(dyadic, ONE, 1e-3, depth=3)


def test_huge_tol_matches_inf(dyadic):
    # a finite tol past the square root of the float range gives the same
    # depth-1 estimate as tol inf, without sizing any tails
    huge, inf = (stoch_height(dyadic, ONE, tol) for tol in (1e300, math.inf))
    assert asdict(huge) == asdict(inf) and huge.depth == 1


def test_stoch_height_three_halves_is_log3(dyadic):
    # the 3-power numerator always dominates, so every word gives log 3;
    # tol 1e-6 needs depth 20, past the word cap, so the sampled tails run
    # to the depth for tol/2, 21, over coordinates of 2^21 digits that the
    # escape sums never build
    est = stoch_height(dyadic, ProjPointQ(3, 2), 1e-6)
    assert est.mode == "exact-prefix" and est.depth == 21
    assert est.prefix_depth == 13 and est.samples == 2 << 13
    assert est.tail_bound <= 1e-6 and est.stderr == 0.0 and est.tol_met
    assert est.value == pytest.approx(math.log(3), abs=1e-12)


def test_tail_bound_formula(dyadic):
    # integrated bound (log 2)/2 and rate 2 give tail (log 2) / 2^n
    for n in range(1, 8):
        assert tail_budget(dyadic).bound(n) == pytest.approx(LOG2 * 0.5**n)
    assert tail_budget(dyadic).depth(LOG2 * 0.5**7) == 7


def test_mc_single_map_zero_variance(single_z2, monkeypatch):
    # with no exact prefix every level is sampled, and every path is equal
    monkeypatch.setattr(stochheight, "_PREFIX_WORDS", 0)
    est = sampled(single_z2, TWO, 5, 1)
    assert est.prefix_depth == 0 and est.mode == "exact-prefix"
    assert weil_height(TWO) + est.value[0] == pytest.approx(LOG2, abs=1e-14)
    assert est.stderr[0] == 0.0


def test_mc_within_four_stderr_of_exact(dyadic, monkeypatch):
    # 64 leaves of a 6-level prefix, each walked 6 more steps
    monkeypatch.setattr(stochheight, "_PREFIX_WORDS", 1 << 6)
    exact = escape_sum_exact(dyadic, _point_lifts(dyadic, [ONE], 12), 12)
    mc = sampled(dyadic, ONE, 12, 0, tol=1e-3)
    assert mc.prefix_depth == 6 and mc.stderr[0] > 0.0
    assert abs(mc.value[0] - exact[0]) <= 4 * mc.stderr[0]


def test_mc_deterministic(dyadic):
    a = sampled(dyadic, ONE, 8, 7)
    b = sampled(dyadic, ONE, 8, 7)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    c = sampled(dyadic, ONE, 8, 8)
    assert a.value != c.value


def test_mc_consistency_rate(dyadic):
    exact = every_word(dyadic, ONE, 5).value
    misses = 0
    for seed in range(40):
        mc = sampled(dyadic, ONE, 5, seed)
        if abs(weil_height(ONE) + mc.value[0] - exact) > 4 * mc.stderr[0]:
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


def test_stoch_height_mc_fallback(dyadic, monkeypatch):
    monkeypatch.setattr(stochheight, "WORD_CAP_DEFAULT", 100)
    est = stoch_height(dyadic, ONE, 1e-3, seed=3)
    assert est.mode == "exact-prefix" and est.tol_met
    assert est.depth == tail_budget(dyadic).depth(5e-4)
    assert est.tail_bound <= 1e-3 and est.stderr <= 1e-3 - est.tail_bound
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
        c = l1_height_control_total(system)
        delta = float(stochastic_degree(system))
        for alpha in (ONE, TWO, ProjPointQ(1, 2)):
            prev = every_word(system, alpha, 1).value
            for n in range(2, 6):
                cur = every_word(system, alpha, n).value
                assert abs(cur - prev) <= c * delta ** (2 - n) + 1e-12
                prev = cur


@settings(max_examples=60, deadline=None)
@given(small_maps(), st.integers(0, 2**32 - 1))
def test_arch_term_within_sides(phi, seed):
    # log max(|F(u)|, |G(u)|) of a max-norm lift u lies in
    # [-d lower, d upper]: the top from the coefficient norms, the bottom
    # from the Bezout identity; 0, the unit circle and infinity included
    upper, lower = arch_sides(phi)
    rng = np.random.default_rng(seed)
    n = 256
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) \
        * np.exp(rng.uniform(-6, 6, n))
    z[:4] = [0.0, 1.0, -1.0, 1j]
    top = np.maximum(np.abs(z), 1.0)
    lifts = Lifts((np.append(z / top, 1.0), np.append(1.0 / top, 0.0) + 0j))
    term = _term(phi, lifts, 0.0)
    assert np.all(term <= phi.d * upper + 1e-9)
    assert np.all(term >= -phi.d * lower - 1e-9)


@settings(max_examples=25, deadline=None)
@given(small_maps(), small_maps(), st.integers(1, 3))
def test_exact_nonnegative(phi1, phi2, n):
    system = make_system([phi1, phi2], [Fraction(1, 2), Fraction(1, 2)])
    est = every_word(system, ONE, n)
    assert est.value >= 0.0


@settings(max_examples=40, deadline=None)
@given(small_maps(), small_maps(), st.integers(1, 5),
       st.sampled_from([ONE, TWO, ZERO, INFINITY, ProjPointQ(-7, 3),
                        ProjPointQ(5, 9), ProjPointQ(12, 25)]))
def test_kernel_matches_dp_oracle(phi1, phi2, n, alpha):
    # coefficients in [-5, 5] give resultants with bad primes 2, 3, 5 and
    # more, so the p-adic terms of the kernel are exercised at odd primes
    system = make_system([phi1, phi2], [Fraction(1, 3), Fraction(2, 3)])
    est = every_word(system, alpha, n)
    assert est.value == pytest.approx(dp_oracle(system, alpha, n),
                                      rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_maps(), small_maps(), st.integers(1, 8),
       st.lists(points(), min_size=1, max_size=4))
def test_int64_residues_match_object_path(phi1, phi2, depth, alphas):
    # with every cap at 0 each place keeps Python ints at the full modulus;
    # the int64 path must give the same terms and residues at every step
    system = make_system([phi1, phi2], [Fraction(1, 3), Fraction(2, 3)])
    lifts = _point_lifts(system, alphas, depth)
    # an odd place whose residues step as int64 at least at the last step,
    # where the modulus is p^(V + 1)
    assume(any(pl.place.p > 2 and pl.int64_cap >= pl.place.p * pl.powers[-1]
               for pl in lifts.places))
    wide = Lifts(lifts.coords,
                 tuple(pl._replace(int64_cap=0) for pl in lifts.places))
    assert escape_sum_exact(system, lifts, depth).tobytes() \
        == escape_sum_exact(system, wide, depth).tobytes()
    rng = np.random.default_rng(depth)
    for k in range(depth):
        phi = system.maps[rng.integers(2)]
        if k + 1 == depth:
            assert (_term(phi, lifts, 0.0).tobytes()
                    == _term(phi, wide, 0.0).tobytes())
            break
        (lifts, got), (wide, want) = (_apply(phi, x, 0.0)
                                      for x in (lifts, wide))
        assert got.tobytes() == want.tobytes()
        for g, w in zip(lifts.coords[2:], wide.coords[2:]):
            assert w.dtype == object
            assert g.tolist() == w.tolist()


def test_mc_matches_dp_oracle_words(monkeypatch):
    # with every path of a one-map system equal, the sample mean is the
    # word average itself, with or without an exact prefix
    phi = make_map([3, 0, 5], [0, 9])
    system = make_system([phi], [Fraction(1)])
    for words in (1 << 13, 0):
        monkeypatch.setattr(stochheight, "_PREFIX_WORDS", words)
        for alpha in (ONE, ProjPointQ(-7, 3), ProjPointQ(2, 15)):
            mc = sampled(system, alpha, 6, 0, tol=100.0)
            assert mc.prefix_depth == (5 if words else 0)
            assert weil_height(alpha) + mc.value[0] == pytest.approx(
                dp_oracle(system, alpha, 6), rel=1e-12)


def test_kernel_batching_is_invisible(dyadic, monkeypatch):
    # 6000 lifts: the exact walk never merges siblings, and the sampled
    # tails fit 2340 lifts of 7 paths per chunk, so they run in three
    # chunks; each lift's mean and variance are those of its own paths
    rng = np.random.default_rng(3)
    z = rng.normal(size=6000) + 1j * rng.normal(size=6000)
    scale = np.maximum(np.abs(z), 1.0)
    lifts = Lifts((z / scale, 1.0 / scale + 0j))
    exact = escape_sum_exact(dyadic, lifts, 6)
    for i in (0, 17, 5999):
        single = escape_sum_exact(dyadic, lifts.take([i]), 6)
        assert exact[i] == pytest.approx(single[0], rel=1e-12, abs=1e-15)

    drawn, sampler = [], stochheight.map_sampler

    def recorded(probs):
        draw = sampler(probs)
        return lambda rng, shape: drawn.append(draw(rng, shape)) or drawn[-1]
    monkeypatch.setattr(stochheight, "map_sampler", recorded)
    mean, var = _sampled_tail(dyadic, lifts, 9, 7, rng, 0.0)
    per = (1 << 14) // 7
    assert [w.shape for w in drawn] == [(9, 7 * n) for n in (per, per, 1320)]
    for i in (0, 17, 2339, 2340, 5999):
        chunk, j = divmod(i, per)
        n = drawn[chunk].shape[1] // 7
        vals = []
        for path in range(7):
            cur, val, deg = lifts.take([i]), 0.0, 1
            for k in drawn[chunk][:, j + path * n]:
                cur, term = full_apply(dyadic.maps[k], cur, 0.0)
                deg *= dyadic.maps[k].d
                val += term[0] / deg
            vals.append(val)
        assert mean[i] == pytest.approx(np.mean(vals), rel=1e-12, abs=1e-15)
        assert var[i] == pytest.approx(np.var(vals, ddof=1) / 7, rel=1e-9,
                                       abs=1e-30)


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


def full_apply(phi, lifts, floor):
    """_apply with array-wide temporaries and tests, kept as its oracle."""
    fx, gy, k = phi.hom_eval_float(*lifts.coords[:2])
    m = np.maximum(np.abs(fx), np.abs(gy))
    if np.any(m < math.ldexp(floor, -k)):
        raise ConvergenceFailure("collapsed")
    term = np.log(m) + k * LOG2
    inv = 1.0 / m
    coords = [c * inv if np.iscomplexobj(c) else c / m for c in (fx, gy)]
    for j, place in enumerate(lifts.places):
        p, modulus, powers = place.place.p, place.modulus, place.powers
        f, g = phi.hom_eval_int(*lifts.coords[2 + 2 * j:4 + 2 * j])
        f, g = f % modulus, g % modulus
        e = np.zeros(len(f), dtype=int)
        for q in powers[1:]:
            e += (f % q == 0) & (g % q == 0)
        term = term - e * math.log(p)
        coords += [f // powers[e], g // powers[e]]
    return Lifts(tuple(coords), lifts.places), term


def full_escape_sum_exact(system, lifts, depth, floor=0.0):
    """escape_sum_exact with a weight and a degree per lift in every batch,
    kept as its oracle."""
    npts = len(lifts)
    total = np.zeros(npts)
    stack = [(lifts, np.arange(npts), np.ones(npts), np.ones(npts), 0)]
    while stack:
        cur, point, w, deg, k = stack.pop()
        if k == depth:
            continue
        children = []
        for phi, prob in system:
            nxt, term = full_apply(phi, cur, floor)
            cw, cdeg = w * float(prob), deg * phi.d
            contrib = cw * term / cdeg
            total += contrib if len(point) == npts else np.bincount(
                point, contrib, npts)
            children.append((nxt, point, cw, cdeg, k + 1))
        if len(point) * len(children) <= 1 << 14:
            parts, points, ws, degs, _ = zip(*children)
            children = [(Lifts.concat(parts), np.concatenate(points),
                         np.concatenate(ws), np.concatenate(degs), k + 1)]
        stack.extend(children)
    return total


def complex_lifts(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) * np.exp(rng.normal(size=n) * 3.0) \
        + 1j * rng.normal(size=n)
    z[:3] = (0.0, 1.0, -1.0)
    scale = np.maximum(np.abs(z), 1.0)
    return Lifts((z / scale, 1.0 / scale + 0j))


def test_escape_step_matches_full_rule(dyadic, signed, general):
    # 8193 complex lifts never merge; 40 lifts and a rational point with its
    # bad primes do, the point with p-adic places too; at depth 1 every
    # node is a leaf, whose term alone is computed
    for system in (dyadic, signed, general):
        for lifts, depth in ((complex_lifts(8193, 1), 3),
                             (complex_lifts(40, 2), 7),
                             (_point_lifts(system, [ProjPointQ(3, 2)], 9), 9),
                             (complex_lifts(40, 2), 1),
                             (_point_lifts(system, [ProjPointQ(3, 2)], 1), 1)):
            for phi in system.maps:
                got, want = _apply(phi, lifts, 0.0), full_apply(phi, lifts,
                                                                0.0)
                assert got[1].tobytes() == want[1].tobytes()
                assert _term(phi, lifts, 0.0).tobytes() == want[1].tobytes()
                for g, w in zip(got[0].coords, want[0].coords):
                    # residues may step as int64 where the oracle keeps
                    # Python ints: their values are compared
                    assert (g.tolist() == w.tolist() if w.dtype == object
                            else g.dtype == w.dtype
                            and g.tobytes() == w.tobytes())
            got = escape_sum_exact(system, lifts, depth, 1e-12)
            want = full_escape_sum_exact(system, lifts, depth, 1e-12)
            assert got.tobytes() == want.tobytes()
        assert _point_lifts(system, [ONE], 1).places  # a bad prime
    # past 2^960 the forms are scaled by 2^-k and the term gains k log 2
    huge = make_system([make_map([0, 0, 1], [1]),
                        make_map([0, 0, 2**1000 + 1], [1])],
                       [Fraction(1, 2), Fraction(1, 2)])
    assert huge.maps[1].float_forms[2] > 0
    lifts = complex_lifts(300, 3)
    assert (escape_sum_exact(huge, lifts, 4).tobytes()
            == full_escape_sum_exact(huge, lifts, 4).tobytes())


def test_mc_last_step_matches_full_rule(dyadic, general, monkeypatch):
    # a sampled tail takes only the term at its last step; with the full
    # step there instead, every bit of the mean and the variance is the same
    for system in (dyadic, general):
        for lifts in (complex_lifts(300, 4),
                      _point_lifts(system, [ProjPointQ(3, 2)], 5)):
            for depth in (1, 5):
                def run():
                    return _sampled_tail(system, lifts, depth, 64,
                                         np.random.default_rng(depth), 1e-12)
                got = run()
                with monkeypatch.context() as patch:
                    patch.setattr(stochheight, "_term",
                                  lambda phi, lifts, floor:
                                  full_apply(phi, lifts, floor)[1])
                    want = run()
                assert all(g.tobytes() == w.tobytes()
                           for g, w in zip(got, want))


def test_collapse_at_the_last_step_is_caught():
    # (10^4 z^2 - 2 10^4)/(10^4 z^2 - 20001) sends z0 to about sqrt 2,
    # where both forms nearly vanish: the lift of z0 keeps max-norm 1.7
    # after one step, that of its image only 0.5, under a floor of 1
    phi = make_map([-20000, 0, 10000], [-20001, 0, 10000])
    system = make_system([phi], [Fraction(1)])
    z0 = math.sqrt((2 - 2.0001 * math.sqrt(2)) / (1 - math.sqrt(2)))
    lifts = Lifts((np.array([1.0 + 0j]), np.array([1.0 / z0 + 0j])))

    rng = np.random.default_rng(0)
    escape_sum_exact(system, lifts, 1, 1.0)
    _sampled_tail(system, lifts, 1, 2, rng, 1.0)
    with pytest.raises(ConvergenceFailure):
        escape_sum_exact(system, lifts, 2, 1.0)
    with pytest.raises(ConvergenceFailure):
        _sampled_tail(system, lifts, 2, 2, rng, 1.0)


def test_apply_collapse_checks(dyadic, monkeypatch):
    phi, floor = dyadic.maps[0], 1e-12
    # (0, 0) collapses; a NaN lift beside it must not hide it
    for x in ([1.0, 0.0, math.nan], [math.nan, 0.0, 1.0]):
        lifts = Lifts((np.array(x, dtype=complex),
                       np.array([0.0, 0.0, 1.0], dtype=complex)))
        with pytest.raises(ConvergenceFailure):
            _apply(phi, lifts, floor)
    # NaN alone is not a collapse, as the comparison m < floor has it
    nan = Lifts((np.array([math.nan, 1.0], dtype=complex),
                 np.array([1.0, 0.0], dtype=complex)))
    assert np.isnan(_apply(phi, nan, floor)[1][0])
    # a sampled tail hands a map that no path of a step drew an empty batch
    empty = Lifts((np.empty(0, dtype=complex), np.empty(0, dtype=complex)))
    nxt, term = _apply(phi, empty, floor)
    assert len(nxt) == 0 and len(term) == 0
    lifts = complex_lifts(50, 3)
    monkeypatch.setattr(stochheight, "map_sampler",
                        lambda probs: lambda rng, shape: np.zeros(shape, int))
    mean, var = _sampled_tail(dyadic, lifts, 6, 4, None, floor)
    z2 = make_system([dyadic.maps[0]], [Fraction(1)])
    assert mean == pytest.approx(escape_sum_exact(z2, lifts, 6, floor),
                                 rel=1e-12, abs=1e-15)
    assert np.all(var == 0.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_maps(), small_maps(),
       st.sampled_from([ONE, TWO, ProjPointQ(-7, 3), ProjPointQ(5, 9)]))
def test_exact_prefix_matches_enumeration(phi1, phi2, alpha):
    # past the word cap the estimate runs to the depth for tol/2 and meets
    # the full enumeration to the depth for tol within the tail bound of
    # the latter and four standard errors; 64 leaves of a short prefix
    # carry the sampled variance
    system = make_system([phi1, phi2], [Fraction(1, 3), Fraction(2, 3)])
    tol = 1e-2
    exact = stoch_height(system, alpha, tol)
    assert exact.mode == "exact"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stochheight, "WORD_CAP_DEFAULT", 0)
        patch.setattr(stochheight, "_PREFIX_WORDS", 1 << 6)
        est = stoch_height(system, alpha, tol, seed=11)
    assert est.mode == "exact-prefix" and est.prefix_depth <= 6
    assert est.depth == tail_budget(system).depth(tol / 2)
    assert abs(est.value - exact.value) <= exact.tail_bound + 4 * est.stderr
