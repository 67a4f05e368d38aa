import io
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from stochdyn.archpotential import (
    ArchEquidistResult,
    GreenConfig,
    QuadratureFailure,
    canonical_sample,
    equidist_test_arch,
    g1_eval,
    gS_eval,
    gS_eval_many,
    potential_eval,
    pullback_invariance_residual,
    radii,
    reference_radial_cdf,
    regularize,
    rho_self_energy,
    write_radial_cdf_csv,
)
from stochdyn.dynsys import ExceptionalStart, make_map, make_system
from stochdyn.exactnum import INFINITY, ConvergenceFailure, normalize_point
from stochdyn.heights import l1_height_control_total
from stochdyn.ifs import (
    EmpiricalCDF,
    affine_ifs,
    ks_one_sample,
    ks_two_sample,
    ks_vs_grid_cdf,
)
from stochdyn.stochheight import tail_budget

LOG2 = math.log(2.0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def two_z2():
    return make_system([make_map([0, 0, 2], [1])], [ONE])


@pytest.fixture(scope="module")
def mixed():
    # one non-monomial map so the sampled-reference paths get exercised
    return make_system([make_map([1, 0, 1], [1]), make_map([0, 0, 1], [1])],
                       [HALF, HALF])


def test_auto_depth_resolution(dyadic, single_z2):
    assert tail_budget(dyadic).depth(1e-3) == 10
    assert tail_budget(single_z2).depth(1e-3) == 1
    # explicit depth is honored when its tail fits the tolerance
    assert tail_budget(dyadic).depth(10.0, 4) == 4
    with pytest.raises(ValueError):
        tail_budget(dyadic).depth(1e-6, 2)


def test_green_dyadic_values(dyadic):
    assert gS_eval(dyadic, 0.0) == pytest.approx(-LOG2 / 2, abs=1e-3)
    for z in (1.0, 2.0, 10.0, math.inf):
        assert abs(gS_eval(dyadic, z)) <= 1e-9
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
        assert gS_eval(two_z2, z) == pytest.approx(want, abs=2e-3)


def test_one_step_green(dyadic, single_z2):
    assert g1_eval(dyadic, 3.0) == pytest.approx(LOG2 / 4, abs=1e-12)
    assert g1_eval(dyadic, 0.0) == 0.0
    assert g1_eval(single_z2, 1.7) == 0.0


def test_green_bounded_by_distortion(dyadic, two_z2):
    for system in (dyadic, two_z2):
        bound = 2.0 * sum(
            float(w) * e.certified_upper
            for w, e in l1_height_control_total(system).entries
            if e.place.p is None)
        zs = [0.0, 0.2, 0.9, 1.0, 3.0, math.inf, 0.5j, -0.7 + 0.1j]
        assert np.max(np.abs(gS_eval_many(system, zs))) <= bound + 1e-9


def test_green_depth_refinement(dyadic):
    zs = [0.0, 0.3, 0.8j]
    for n in (3, 5, 7):
        lo = GreenConfig(depth=n, tol=10.0)
        hi = GreenConfig(depth=n + 1, tol=10.0)
        diff = np.abs(gS_eval_many(dyadic, zs, hi) - gS_eval_many(dyadic, zs, lo))
        assert np.max(diff) <= tail_budget(dyadic).bound(n) + 1e-12


def test_precision_floor_guard(single_z2):
    with pytest.raises(ConvergenceFailure):
        gS_eval(single_z2, 0.5, GreenConfig(precision=2.0))


def test_potential_eval(dyadic):
    assert potential_eval(dyadic, 10.0) == pytest.approx(math.log(10.0), abs=1e-3)
    assert potential_eval(dyadic, 0.0) == pytest.approx(-LOG2 / 2, abs=1e-3)
    assert potential_eval(dyadic, math.inf) == math.inf


def test_canonical_sample_z2_is_unit_circle(single_z2):
    batch = canonical_sample(single_z2, 12, 500, 3)
    assert np.all(batch.log_abs == 0.0)
    assert batch.depth == 12 and batch.samples == 500


def test_canonical_sample_dyadic_radial_law(dyadic):
    batch = canonical_sample(dyadic, 25, 20000, 5)
    assert np.all(batch.log_abs <= 1e-12)
    assert np.all(batch.log_abs >= -LOG2 - 1e-12)
    law = reference_radial_cdf(dyadic)
    assert ks_vs_grid_cdf(batch.log_abs, law.grid, law.cdf) <= 0.02


def test_canonical_sample_general_path(mixed):
    batch = canonical_sample(mixed, 5, 40, 9)
    assert np.all(np.isfinite(batch.log_abs))
    assert len(batch.points) == 40


def test_reference_cdf_closed_form(dyadic):
    law = reference_radial_cdf(dyadic)
    exact = np.clip(1.0 + law.grid / LOG2, 0.0, 1.0)
    assert np.max(np.abs(law.cdf - exact)) <= 1e-9


def test_reference_cdf_none_for_nonmonomial(mixed):
    assert reference_radial_cdf(mixed) is None
    assert affine_ifs(mixed) is None


def test_radial_atom_detection(dyadic, single_z2, two_z2):
    assert reference_radial_cdf(single_z2).atom == pytest.approx(0.0, abs=1e-12)
    assert reference_radial_cdf(two_z2).atom == pytest.approx(-LOG2, abs=1e-12)
    assert reference_radial_cdf(dyadic).atom is None


def test_radial_law_huge_coefficient():
    # log|3^700| = 769.03... is far beyond float range as 3^700 itself
    system = make_system([make_map([0, 0, 3**700], [1]),
                          make_map([0, 0, 1], [1])], [HALF, HALF])
    law = reference_radial_cdf(system)
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
    ours = ks_vs_grid_cdf(xs, grid, f)
    ref = scipy.stats.kstest(xs, "uniform").statistic
    assert ours == pytest.approx(ref, abs=1e-4)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(29)
    a = rng.normal(size=250)
    b = rng.normal(0.3, 1.0, size=180)
    ours = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_empirical_cdf_sides():
    cdf = EmpiricalCDF.from_samples(np.array([1.0, 1.0, 2.0, 4.0]))
    assert cdf.eval(1.0) == 0.5 and cdf.eval_left(1.0) == 0.0
    assert cdf.eval(3.0) == 0.75 and cdf.eval(5.0) == 1.0


def test_equidist_dyadic(dyadic):
    res = equidist_test_arch(dyadic, normalize_point(3, 1), 30, 20000, 7)
    assert res.reference == "stationary-cdf"
    assert res.ks_radial <= 0.02
    assert res.ks_angular <= 0.02
    assert res.potential_residual <= 0.02
    assert set(res.as_dict()) == {
        "ks_radial", "ks_angular", "potential_residual", "reference"}


def test_equidist_atom_reference(single_z2):
    res = equidist_test_arch(single_z2, normalize_point(3, 1), 20, 2000, 1)
    assert res.reference == "atom"
    assert res.ks_radial == 0.0  # radii collapse onto r = 1 exactly
    assert res.ks_angular <= 0.05


def test_equidist_exceptional_start(dyadic):
    with pytest.raises(ExceptionalStart):
        equidist_test_arch(dyadic, normalize_point(0, 1), 5, 10, 0)
    with pytest.raises(ExceptionalStart):
        equidist_test_arch(dyadic, INFINITY, 5, 10, 0)


def test_equidist_sampled_reference(mixed):
    res = equidist_test_arch(mixed, normalize_point(4, 1), 6, 300, 13)
    assert res.reference == "sampled"
    assert 0.0 <= res.ks_radial <= 0.25  # doubled-noise path, loose sanity bound


def test_pullback_invariance(dyadic, single_z2):
    assert pullback_invariance_residual(dyadic, 30, 50000, 11) <= 0.01
    coarse = pullback_invariance_residual(dyadic, 0, 20000, 11)
    assert 0.4 <= coarse <= 0.6
    assert pullback_invariance_residual(single_z2, 5, 2000, 3) == 0.0


def test_regularize_oracles():
    assert regularize([2.0 + 1.0j], [1.0], 0.1) == pytest.approx(-math.log(0.1))
    want = 0.5 * (-math.log(0.1)) + 0.5 * (-math.log(3.0))
    assert regularize([0.0, 3.0], [0.5, 0.5], 0.1) == pytest.approx(want, abs=1e-7)
    assert regularize([5.0], [1.0], 1.0) == pytest.approx(0.0, abs=1e-12)


def test_regularize_validation():
    with pytest.raises(ValueError):
        regularize([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        regularize([0.0, 1.0], [1.0], 0.5)
    with pytest.raises(QuadratureFailure):
        regularize([0.0, 1.0], [0.5, 0.5], 0.5, precision=-1.0)


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0,
                       allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_regularized_mutual_energy_floor(delta, eps):
    # pairing of two eps-circles never drops below the point-pair floor
    energy = regularize([0.0, 3.0 + delta], [0.5, 0.5], eps)
    gap = abs(3.0 + delta)
    floor = math.log(max(gap, eps))
    # energy = 0.5(-log eps) + 0.5 * mutual, and -mutual >= floor
    mutual = 2.0 * energy + math.log(eps)
    assert -mutual >= floor - 1e-9


def test_rho_self_energy(dyadic, single_z2, two_z2):
    assert rho_self_energy(single_z2) == pytest.approx(0.0, abs=1e-12)
    assert rho_self_energy(dyadic) == pytest.approx(LOG2 / 3, abs=0.01)
    assert rho_self_energy(two_z2) == pytest.approx(LOG2, abs=0.01)


def test_radii_oracles(dyadic, single_z2, two_z2):
    r_in, r_out = radii(single_z2)
    assert r_in == pytest.approx(1.0, abs=1e-9)
    assert r_out == pytest.approx(1.0, abs=1e-9)

    r_in, r_out = radii(dyadic)
    assert r_in == pytest.approx(2.0 ** (-1 / 6), rel=0.01)
    assert r_out == pytest.approx(2.0 ** (1 / 3), rel=0.01)
    assert r_in <= r_out

    r_in, r_out = radii(two_z2)
    assert r_in == pytest.approx(2.0 ** (-1 / 2), rel=0.01)
    assert r_out == pytest.approx(2.0 ** (1 / 2), rel=0.01)


def test_radial_cdf_csv(dyadic):
    batch = canonical_sample(dyadic, 10, 50, 2)
    buf = io.StringIO()
    write_radial_cdf_csv(batch, reference_radial_cdf(dyadic), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "r,empirical_cdf,reference_cdf"
    assert len(lines) == 51
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0
    assert 0.0 <= float(last[2]) <= 1.0
