import io
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from stochdyn import archpotential
from stochdyn.archpotential import (
    EquidistResult,
    RadiiResult,
    canonical_sample,
    equidist,
    gS_eval,
    gS_eval_many,
    pullback_invariance_residual,
    radial_law,
    radii,
    rho_self_energy,
    write_equidist_csv,
)
from stochdyn.dynsys import ExceptionalStart, make_map, make_system
from stochdyn.exactnum import (
    INFINITY,
    ConvergenceFailure,
    StochdynError,
    normalize_point,
)
from stochdyn.heights import ARCH, cphi_bound
from stochdyn.ifs import (
    StationaryLaw,
    affine_ifs,
    ks_one_sample,
    ks_to_law,
    ks_two_sample,
)
from stochdyn.stochheight import green_budget, tail_budget

LOG2 = math.log(2.0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def two_z2():
    return make_system([make_map([0, 0, 2], [1])], [ONE])


def test_auto_depth_resolution(dyadic, single_z2):
    assert tail_budget(dyadic).depth(1e-3) == 10
    assert green_budget(dyadic).depth(1e-3) == 9
    assert tail_budget(single_z2).depth(1e-3) == 1
    # explicit depth is honored when its tail fits the tolerance
    assert tail_budget(dyadic).depth(10.0, 4) == 4
    with pytest.raises(ValueError):
        tail_budget(dyadic).depth(1e-6, 2)


def test_green_dyadic_values(dyadic):
    assert gS_eval(dyadic, 0.0).value == pytest.approx(-LOG2 / 2, abs=1e-3)
    for z in (1.0, 2.0, 10.0, math.inf):
        assert abs(gS_eval(dyadic, z).value) <= 1e-9
    vals = gS_eval_many(dyadic, [0.0, 1.0, math.inf])
    assert vals[0] == pytest.approx(-LOG2 / 2, abs=1e-3)
    assert abs(vals[1]) <= 1e-9 and vals[2] == 0.0


def test_green_vanishes_for_z2(single_z2):
    vals = gS_eval_many(single_z2, [0.0, 0.3, 1.0, 5.0, math.inf])
    assert np.max(np.abs(vals)) <= 1e-12


def test_green_two_z2_closed_form(two_z2):
    # Julia set of 2z^2 is the circle |z| = 1/2, so g = log max(|z|, 1/2) - log+|z|
    for z in (0.1, 0.5, 0.75, 2.0):
        want = math.log(max(z, 0.5)) - max(math.log(z), 0.0)
        assert gS_eval(two_z2, z).value == pytest.approx(want, abs=2e-3)


def test_green_bounded_by_distortion(dyadic, two_z2):
    for system in (dyadic, two_z2):
        bound = 2.0 * sum(float(w) * cphi_bound(phi, ARCH)
                          for phi, w in system)
        zs = [0.0, 0.2, 0.9, 1.0, 3.0, math.inf, 0.5j, -0.7 + 0.1j]
        assert np.max(np.abs(gS_eval_many(system, zs))) <= bound + 1e-9


def random_systems(count, seed):
    """Two-map systems of degree 2 or 3 with integer coefficients in
    [-4, 4] and random weights; maps make_map refuses are redrawn."""
    rng = np.random.default_rng(seed)
    systems = []
    while len(systems) < count:
        try:
            maps = [make_map(*([int(c) for c in rng.integers(-4, 5, size)]
                               for size in rng.integers(3, 5, 2)))
                    for _ in range(2)]
        except StochdynError:
            continue
        w = Fraction(int(rng.integers(1, 4)), 4)
        systems.append(make_system(maps, [w, 1 - w]))
    return systems


def random_points(rng, count):
    return list(rng.normal(size=count) * 2 + 1j * rng.normal(size=count))


def test_green_bounded_by_green_budget(dyadic):
    # every step's anchored difference is at most W / delta^(k-1), so
    # |g_S| <= bound(0) = W delta / (delta - 1), with equality at 0 on the
    # example: g(0) = -(log 2)/2
    assert green_budget(dyadic).bound(0) == pytest.approx(LOG2 / 2,
                                                          rel=1e-15)
    rng = np.random.default_rng(41)
    for system in random_systems(12, 41):
        zs = random_points(rng, 6) + [0.0, math.inf]
        g = gS_eval_many(system, zs)
        assert np.max(np.abs(g)) <= green_budget(system).bound(0) + 1e-9


def test_green_truncation_within_green_budget():
    # steps n+1..13 move g by at most bound(n) - bound(13)
    rng = np.random.default_rng(43)
    for system in random_systems(8, 43):
        budget = green_budget(system)
        zs = random_points(rng, 4) + [0.0]
        ref = gS_eval_many(system, zs, tol=10.0, depth=13)
        for n in (2, 4, 6):
            g = gS_eval_many(system, zs, tol=10.0, depth=n)
            assert np.max(np.abs(g - ref)) \
                <= budget.bound(n) - budget.bound(13) + 1e-9


def test_green_budget_is_tight_on_example(dyadic):
    # g_n(0) = -(log 2)/2 + (log 2)/2^(n+1) = -(log 2)/2 + bound(n) exactly;
    # compared on g_n itself, since g_n + (log 2)/2 cancels 2^-n of its bits
    budget = green_budget(dyadic)
    for n in range(1, 13):
        g = gS_eval(dyadic, 0.0, tol=10.0, depth=n).value
        assert g == pytest.approx(-LOG2 / 2 + budget.bound(n), rel=1e-15)


def test_green_depth_refinement(dyadic):
    # step n+1 moves g by at most W / delta^n = bound(n) - bound(n + 1),
    # which it reaches at 0
    budget = green_budget(dyadic)
    zs = [0.0, 0.3, 0.8j]
    for n in (3, 5, 7):
        hi = gS_eval_many(dyadic, zs, tol=10.0, depth=n + 1)
        diff = np.abs(hi - gS_eval_many(dyadic, zs, tol=10.0, depth=n))
        assert np.max(diff) <= budget.bound(n) - budget.bound(n + 1) + 1e-12


def test_green_monte_carlo_branch(dyadic, monkeypatch):
    # At 0 every escape-sum term of the dyadic pair is 0, and at infinity
    # term k is B_k (log 2) / 2^k with B_k the fair coin "map k is 2z^2".
    # Past the word cap g(0) = -(log 2) sum_{k<=n} B_k / 2^(k+1) takes an
    # exact prefix and sampled tails at the depth for tol/2: its mean is
    # within the tail bound of g(0) = -(log 2)/2, and its error within four
    # of the standard errors it reports.
    monkeypatch.setattr(archpotential, "_ENUM_CAP", 1)
    tol = 1e-3
    budget = green_budget(dyadic)
    est = gS_eval(dyadic, 0.0, tol)
    assert est.mode == "exact-prefix"
    assert est.depth == budget.depth(tol / 2)
    assert est.prefix_depth < est.depth
    assert 0.0 < est.stderr <= tol - est.tail_bound and est.tol_met
    assert abs(est.value + LOG2 / 2) <= est.tail_bound + 4.0 * est.stderr


def test_green_accuracy_is_checked_up_front(dyadic):
    # TailBudget.depth refuses a depth below 1 before any walk starts
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            gS_eval_many(dyadic, [0.5], depth=depth)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            gS_eval_many(dyadic, [0.5], tol=tol)
        # the IFS law path uses no tol, but refuses a bad one all the same
        with pytest.raises(ValueError, match="tol must be positive"):
            radii(dyadic, tol)
    # an explicit depth must meet the tail bound of tol
    with pytest.raises(ValueError, match="leaves tail"):
        gS_eval_many(dyadic, [0.5], tol=1e-3, depth=2)


def test_green_huge_tol(dyadic):
    # a tol past the square root of the float range sizes no tails, so it
    # cannot overflow: depth 1 over both words, finite
    g = gS_eval_many(dyadic, [0.5], tol=1e200)
    assert np.all(np.isfinite(g))
    assert gS_eval(dyadic, 0.5, tol=1e200).depth == 1
    # 2^16 words at depth 16 pass the cap: sampled tails, still finite
    est = gS_eval(dyadic, 0.5, tol=1e200, depth=16)
    assert est.mode == "exact-prefix" and math.isfinite(est.value)


def test_precision_floor_guard(single_z2, monkeypatch):
    monkeypatch.setattr(archpotential, "_COLLAPSE_FLOOR", 2.0)
    with pytest.raises(ConvergenceFailure):
        gS_eval(single_z2, 0.5)


def test_canonical_sample_z2_is_unit_circle(single_z2):
    batch = canonical_sample(single_z2, 12, 500, 3)
    assert np.all(batch.log_abs == 0.0)
    assert batch.depth == 12 and batch.samples == 500


def test_canonical_sample_dyadic_radial_law(dyadic):
    batch = canonical_sample(dyadic, 25, 20000, 5)
    assert np.all(batch.log_abs <= 1e-12)
    assert np.all(batch.log_abs >= -LOG2 - 1e-12)
    assert ks_to_law(batch.log_abs, radial_law(dyadic), 25) <= 0.02


def test_canonical_sample_general_path(mixed):
    batch = canonical_sample(mixed, 5, 40, 9)
    assert np.all(np.isfinite(batch.log_abs))
    assert len(batch.points) == 40


def test_canonical_sample_refuses_negative_depth(dyadic):
    # as backward_sample does; depth -1 used to walk no step and return a
    # batch labelled depth -1
    for call in (lambda: canonical_sample(dyadic, -1, 10, 0),
                 lambda: canonical_sample(dyadic, 3, 0, 0),
                 lambda: pullback_invariance_residual(dyadic, -1, 10, 0)):
        with pytest.raises(ValueError, match="need n >= 0 and samples >= 1"):
            call()


def test_reference_cdf_closed_form(dyadic):
    law = radial_law(dyadic)
    exact = np.clip(1.0 + law.grid / LOG2, 0.0, 1.0)
    assert np.max(np.abs(law.cdf - exact)) <= 1e-9


def test_reference_cdf_none_for_nonmonomial(mixed):
    assert affine_ifs(mixed) is None


def test_radial_atom_detection(dyadic, single_z2, two_z2):
    assert radial_law(single_z2).atom == pytest.approx(0.0, abs=1e-12)
    assert radial_law(two_z2).atom == pytest.approx(-LOG2, abs=1e-12)
    assert radial_law(dyadic).atom is None


def test_radial_law_huge_coefficient():
    # log|3^700| = 769.03... is far beyond float range as 3^700 itself
    system = make_system([make_map([0, 0, 3**700], [1]),
                          make_map([0, 0, 1], [1])], [HALF, HALF])
    law = radial_law(system)
    shift = 700 * math.log(3.0)
    # the law lives on [-log|a|, 0], between the two fixed points
    assert law.grid[0] <= -shift and law.grid[-1] >= 0.0
    assert law.cdf_at(-shift - 1e-6) == pytest.approx(0.0, abs=1e-3)
    assert law.cdf_at(1e-6) == pytest.approx(1.0, abs=1e-3)


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 400)
    ours = ks_one_sample(xs, lambda t: np.clip(t, 0.0, 1.0))
    ref = scipy.stats.kstest(xs, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_grid_cdf_matches_scipy_for_continuous():
    rng = np.random.default_rng(23)
    xs = rng.uniform(0.0, 1.0, 300)
    grid = np.linspace(-0.5, 1.5, 20001)
    f = np.clip(grid, 0.0, 1.0)
    ours = ks_to_law(xs, StationaryLaw(grid=grid, cdf=f), 300)
    ref = scipy.stats.kstest(xs, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-4)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(29)
    a = rng.normal(size=250)
    b = rng.normal(0.3, 1.0, size=180)
    ours = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_equidist_dyadic(dyadic):
    scores = equidist(dyadic, ARCH, normalize_point(3, 1), 30, 20000, 7).scores
    assert scores["reference"] == "stationary-cdf"
    assert scores["ks_radial"] <= 0.02
    assert scores["ks_angular"] <= 0.02
    assert scores["potential_residual"] <= 0.02


def test_equidist_atom_reference(single_z2):
    scores = equidist(single_z2, ARCH, normalize_point(3, 1), 20, 2000,
                      1).scores
    assert scores["reference"] == "atom"
    assert scores["ks_radial"] == 0.0  # radii collapse onto r = 1 exactly
    assert scores["ks_angular"] <= 0.05


def test_equidist_exceptional_start(dyadic):
    with pytest.raises(ExceptionalStart):
        equidist(dyadic, ARCH, normalize_point(0, 1), 5, 10, 0)
    with pytest.raises(ExceptionalStart):
        equidist(dyadic, ARCH, INFINITY, 5, 10, 0)


def test_equidist_sampled_reference(mixed):
    scores = equidist(mixed, ARCH, normalize_point(4, 1), 6, 300, 13).scores
    assert scores["reference"] == "sampled"
    # doubled-noise path, loose sanity bound
    assert 0.0 <= scores["ks_radial"] <= 0.25


def test_pullback_invariance(dyadic, single_z2):
    assert pullback_invariance_residual(dyadic, 30, 50000, 11) <= 0.01
    coarse = pullback_invariance_residual(dyadic, 0, 20000, 11)
    assert 0.4 <= coarse <= 0.6
    assert pullback_invariance_residual(single_z2, 5, 2000, 3) == 0.0




def test_rho_self_energy(dyadic, single_z2, two_z2):
    assert rho_self_energy(single_z2) == pytest.approx(0.0, abs=1e-12)
    assert rho_self_energy(dyadic) == pytest.approx(LOG2 / 3, abs=0.01)
    assert rho_self_energy(two_z2) == pytest.approx(LOG2, abs=0.01)


def _loop_probes(radii, angles, head):
    """The probe sets as the double loops that built them before."""
    pts = list(head)
    for r in radii:
        for k in range(angles):
            pts.append(r * np.exp(2j * np.pi * k / angles))
    return np.array([complex(p) for p in pts])


def test_probes_match_the_loops():
    # the broadcast probes are the loop's to the bit, signs of zeros too
    got = (archpotential._residual_probes(), archpotential._radii_probes())
    want = (_loop_probes(archpotential._RESIDUAL_RADII,
                         archpotential._RESIDUAL_ANGLES, [0j]),
            _loop_probes(archpotential._probe_radii(),
                         archpotential._PROBE_ANGLES, [0j, math.inf]))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_radii_oracles(dyadic, single_z2, two_z2):
    res = radii(single_z2)
    assert res.self_energy == rho_self_energy(single_z2)
    assert res.r_in == pytest.approx(1.0, abs=1e-9)
    assert res.r_out == pytest.approx(1.0, abs=1e-9)

    res = radii(dyadic)
    assert res.self_energy == rho_self_energy(dyadic)
    assert res.r_in == pytest.approx(2.0 ** (-1 / 6), rel=0.01)
    assert res.r_out == pytest.approx(2.0 ** (1 / 3), rel=0.01)
    assert res.r_in <= res.r_out

    res = radii(two_z2)
    assert res.r_in == pytest.approx(2.0 ** (-1 / 2), rel=0.01)
    assert res.r_out == pytest.approx(2.0 ** (1 / 2), rel=0.01)


def test_law_closed_forms(dyadic, single_z2, two_z2):
    # Jensen's formula on the IFS law: g within eps = law.error, the
    # self-energy within 2 eps, each radius within a relative exp(2 eps) - 1
    res = radii(dyadic)
    eps = res.grid_error
    assert eps == radial_law(dyadic).error
    assert 0.0 < eps < 1e-3
    assert res.reference == "stationary-cdf"
    assert abs(res.self_energy - LOG2 / 3) <= 2.0 * eps
    assert abs(res.r_in / 2.0 ** (-1 / 6) - 1.0) <= math.expm1(2.0 * eps)
    assert abs(res.r_out / 2.0 ** (1 / 3) - 1.0) <= math.expm1(2.0 * eps)
    # atoms: (rho, rho) = -t, exactly up to the rounding of log|a|
    four_z2 = make_system([make_map([0, 0, 4], [1])], [ONE])
    assert rho_self_energy(two_z2) == pytest.approx(LOG2, rel=0, abs=1e-15)
    assert rho_self_energy(four_z2) == pytest.approx(2 * LOG2, rel=0,
                                                     abs=1e-15)
    assert radii(single_z2) == RadiiResult(1.0, 1.0, 0.0, "atom", 0.0)
    assert radial_law(single_z2).error == 0.0


@st.composite
def monomial_systems(draw):
    """1-3 maps a z^(+-d), a = +-p/q with p, q <= 5 and d in [2, 4]."""
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        a = Fraction(draw(st.integers(-5, 5).filter(bool)),
                     draw(st.integers(1, 5)))
        d = draw(st.integers(2, 4))
        if draw(st.booleans()):
            maps.append(make_map([a.numerator], [0] * d + [a.denominator]))
        else:
            maps.append(make_map([0] * d + [a.numerator], [a.denominator]))
    return make_system(maps, [Fraction(1, len(maps))] * len(maps))


def enumerated_depth(system, words):
    """The largest depth at most 12 whose word count is at most words."""
    n = 1
    while n < 12 and len(system.maps) ** (n + 1) <= words:
        n += 1
    return n


@settings(max_examples=15, deadline=None)
@given(monomial_systems())
def test_law_matches_escape_sums(system):
    law = radial_law(system)
    eps = law.error
    # g at 8 shells x 4 angles against escape sums that enumerate every
    # word, within eps + the Green tail bound at that depth (+ 1e-12 for
    # the rounding of logs, as the tail bound can be tight)
    budget = green_budget(system)
    n = enumerated_depth(system, 1 << 15)
    s = np.linspace(-3.0, 3.0, 8)
    zs = (np.exp(s)[:, None] * np.exp(0.5j * np.pi * np.arange(4))).ravel()
    want = np.repeat(law.mean_max(s) - np.maximum(s, 0.0), 4)
    got = gS_eval_many(system, zs, 10.0, depth=n)
    assert np.max(np.abs(got - want)) <= eps + budget.bound(n) + 1e-12
    # (rho, rho) against the Monte Carlo estimator on the same system,
    # within 2 eps + the Green bound + 4 standard errors of its mean; a
    # zero-width budget (every |a| = 1) needs depth 1 at any tol
    tol = max(budget.bound(enumerated_depth(system, 1 << 9)), 1e-12)
    p = archpotential._sampled_potentials(system, tol)
    stderr = np.std(p) / math.sqrt(len(p))
    assert abs(rho_self_energy(system) + np.mean(p)) <= (
        2.0 * eps + tol + 4.0 * stderr + 1e-12)


def test_law_path_walks_nothing(monkeypatch, dyadic, signed, two_z2, mixed):
    def refuse(*args, **kwargs):
        raise AssertionError("the law path sampled")

    monkeypatch.setattr(archpotential, "canonical_sample", refuse)
    monkeypatch.setattr(archpotential, "gS_eval_many", refuse)
    for system in (dyadic, signed, two_z2):
        assert math.isfinite(rho_self_energy(system))
        res = radii(system)
        assert all(map(math.isfinite, (res.r_in, res.r_out, res.self_energy)))
    with pytest.raises(AssertionError, match="sampled"):
        radii(mixed)
    with pytest.raises(AssertionError, match="sampled"):
        rho_self_energy(mixed)


def test_radial_cdf_csv(dyadic):
    batch = canonical_sample(dyadic, 10, 50, 2)
    buf = io.StringIO()
    res = EquidistResult(ARCH, {}, batch.log_abs, radial_law(dyadic))
    write_equidist_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "r,empirical_cdf,reference_cdf"
    assert len(lines) == 51
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0
    assert 0.0 <= float(last[2]) <= 1.0
