import io
import math
from fractions import Fraction

import numpy as np
import pytest

from stochdyn.dynsys import make_map, make_system
from stochdyn.exactnum import INFINITY, ProjPointQ
from stochdyn.heights import dirac, make_measure
from stochdyn.archpotential import canonical_sample
from stochdyn.orbits import (
    NodeBudgetExceeded,
    backward_sample,
    backward_tree,
    backward_walk,
    numeric_fiber,
    preimages,
    pushforward,
    sup_mass_certificate,
    sup_mass_decay,
    well_distributed_stat,
    write_samples_csv,
)

ONE = ProjPointQ(1, 1)
Z2 = make_map([0, 0, 1], [1])
TWO_Z2 = make_map([0, 0, 2], [1])
INV_Z2 = make_map([1], [0, 0, 1])
SQRT_HALF = 2.0 ** -0.5


def test_preimages_examples():
    got = sorted(preimages(Z2, ProjPointQ(4, 1)), key=lambda t: t[0].real)
    assert [(round(w.real, 9), m) for w, m in got] == [(-2.0, 1), (2.0, 1)]
    got = sorted(preimages(TWO_Z2, ONE), key=lambda t: t[0].real)
    assert len(got) == 2
    assert got[0][0] == pytest.approx(-SQRT_HALF)
    assert got[1][0] == pytest.approx(SQRT_HALF)
    assert preimages(Z2, ProjPointQ(0, 1)) == [(0j, 2)]


def test_preimages_at_infinity():
    # 1/z^2 pulls infinity back to 0 with multiplicity 2
    got = preimages(INV_Z2, INFINITY)
    assert got == [(0j, 2)]
    got = preimages(Z2, INFINITY)
    assert len(got) == 1 and math.isinf(got[0][0].real) and got[0][1] == 2


def test_preimages_numeric_input():
    got = sorted(preimages(Z2, complex(4.0)), key=lambda t: t[0].real)
    assert got[0][0] == pytest.approx(-2.0)
    assert got[1][0] == pytest.approx(2.0)
    got = preimages(Z2, complex(0.0))
    assert len(got) == 1 and got[0][1] == 2


def test_numeric_fiber_log_polar():
    # |z| = e^100 under z^2: two roots of modulus e^50, half the angle apart
    log_w, arg_w = numeric_fiber(Z2, [100.0], [1.0])
    assert log_w[0] == pytest.approx([50.0, 50.0], rel=1e-12)
    assert sorted(arg_w[0]) == pytest.approx([0.5, 0.5 + math.pi], rel=1e-12)
    # infinity is (1, 0): a double root at infinity under z^2, at 0 under
    # 1/z^2, and both 0 and infinity under (z^2 + 1)/z, whose fiber form
    # vanishes at both ends
    inf = [math.inf]
    assert numeric_fiber(Z2, inf, [0.0])[0].tolist() == [[math.inf] * 2]
    assert numeric_fiber(INV_Z2, inf, [0.0])[0].tolist() == [[-math.inf] * 2]
    log_w, arg_w = numeric_fiber(make_map([1, 0, 1], [0, 1]), inf, [0.0])
    assert sorted(log_w[0]) == [-math.inf, math.inf]
    assert arg_w.tolist() == [[0.0, 0.0]]


def test_numeric_fiber_matches_roots_loop(general):
    # reference: np.roots of each point's fiber polynomial, one at a time
    rng = np.random.default_rng(4)
    log_r = rng.uniform(-3.0, 3.0, 50)
    theta = rng.uniform(0.0, 2.0 * np.pi, 50)
    z = np.exp(log_r + 1j * theta)
    for phi in general.maps:
        log_w, arg_w = numeric_fiber(phi, log_r, theta)
        assert log_w.shape == (50, phi.d)
        assert np.all((arg_w >= 0.0) & (arg_w < 2.0 * np.pi))
        w = np.exp(log_w + 1j * arg_w)
        f, g, _ = phi.hom_eval_float(w, np.ones_like(w))
        assert np.allclose(f / g, z[:, None], rtol=1e-9)
        fc, gc = np.array(phi.fcoeffs), np.array(phi.gcoeffs)
        for zk, wk in zip(z, w):
            want = list(np.roots(fc - zk * gc))
            for r in wk:
                nearest = min(want, key=lambda x: abs(x - r))
                assert abs(nearest - r) <= 1e-9 * max(1.0, abs(r))
                want.remove(nearest)


def test_backward_tree_depth_zero(dyadic):
    tree = backward_tree(dyadic, ONE, 0)
    assert tree.depth == 0
    assert tree.levels[0].weights == [Fraction(1)]
    assert tree.levels[0].exact_points == [ONE]


def test_backward_tree_dyadic_level_one(dyadic):
    tree = backward_tree(dyadic, ONE, 1)
    level = tree.levels[1]
    assert sorted(level.weights) == [Fraction(1, 4)] * 4
    mags = sorted(abs(z) for z in level.points)
    assert mags[:2] == pytest.approx([SQRT_HALF, SQRT_HALF])
    assert mags[2:] == pytest.approx([1.0, 1.0])
    exacts = {e for e in level.exact_points if e is not None}
    assert exacts == {ProjPointQ(1, 1), ProjPointQ(-1, 1)}


def test_backward_tree_z2_roots_of_unity(single_z2):
    tree = backward_tree(single_z2, ONE, 2)
    level = tree.levels[2]
    assert sorted(level.weights) == [Fraction(1, 4)] * 4
    got = sorted(level.points, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = [-1, -1j, 1j, 1]
    for g, w in zip(got, want):
        assert g == pytest.approx(w)


def test_tree_mass_conservation(dyadic):
    mixed = make_system(
        [make_map([0, 0, 2], [1]), make_map([1, 0, 1], [1])],
        [Fraction(1, 2), Fraction(1, 2)],
    )
    for system in (dyadic, mixed):
        tree = backward_tree(system, ONE, 3)
        for level in tree.levels:
            assert sum(level.weights) == 1
            assert all(w > 0 for w in level.weights)


def test_tree_avoids_exceptional_set(dyadic):
    tree = backward_tree(dyadic, ONE, 5)
    for level in tree.levels:
        for z, e in zip(level.points, level.exact_points):
            assert abs(z) > 0.1
            assert math.isfinite(z.real)
            assert e != ProjPointQ(0, 1) and e != INFINITY


def test_tree_exact_numeric_agreement(dyadic):
    tree = backward_tree(dyadic, ONE, 4)
    for level in tree.levels:
        for z, e in zip(level.points, level.exact_points):
            if e is not None and not e.is_infinity:
                assert abs(z - complex(e.as_fraction())) <= 1e-10 * max(1.0, abs(z))


def test_node_budget(dyadic):
    with pytest.raises(NodeBudgetExceeded):
        backward_tree(dyadic, ONE, 5, node_budget=10)


def test_well_distributed_stat(dyadic, single_z2):
    tree = backward_tree(dyadic, ONE, 6)
    assert well_distributed_stat(tree, 0) == 1
    assert well_distributed_stat(tree, 1) == Fraction(1, 4)
    for k in range(6):
        assert well_distributed_stat(tree, k + 1) <= well_distributed_stat(tree, k)
    ztree = backward_tree(single_z2, ONE, 4)
    for k in range(5):
        assert well_distributed_stat(ztree, k) == Fraction(1, 2**k)


def test_sup_mass_decay_z2(single_z2):
    tree = backward_tree(single_z2, ONE, 6)
    assert sup_mass_decay(tree) == [
        (0, Fraction(1)),
        (1, Fraction(1, 8)),
        (2, Fraction(1, 64)),
    ]
    assert sup_mass_certificate(tree) == Fraction(1, 8)


def test_sup_mass_decay_dyadic(dyadic):
    tree = backward_tree(dyadic, ONE, 6)
    decay = sup_mass_decay(tree)
    m = sup_mass_certificate(tree)
    assert m <= Fraction(1, 64) + Fraction(0)
    for (_, prev), (_, cur) in zip(decay, decay[1:]):
        assert cur <= m * prev


def test_sup_mass_decay_needs_depth(dyadic):
    with pytest.raises(ValueError):
        sup_mass_decay(backward_tree(dyadic, ONE, 2))


def test_pushforward_examples():
    two = ProjPointQ(2, 1)
    minus_two = ProjPointQ(-2, 1)
    m = make_measure([two, minus_two], [Fraction(1, 2), Fraction(1, 2)])
    assert pushforward(Z2, m) == dirac(ProjPointQ(4, 1))
    assert pushforward(TWO_Z2, dirac(ONE)) == dirac(two)
    pm = make_measure(
        [ProjPointQ(1, 1), ProjPointQ(-1, 1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert pushforward(Z2, pm) == dirac(ONE)


def test_sampler_z2_unit_circle(single_z2):
    batch = backward_sample(single_z2, ONE, 6, 500, seed=2)
    assert np.all(batch.log_abs == 0.0)
    # angles are multiples of 2 pi / 2^6
    steps = batch.angle * (2**6) / (2 * np.pi)
    assert np.allclose(steps, np.round(steps), atol=1e-9)


def _atom_freqs(batch, level):
    pts = np.array(level.points, dtype=complex)
    d = np.abs(batch.points[:, None] - pts[None, :])
    nearest = np.argmin(d, axis=1)
    return np.bincount(nearest, minlength=len(pts)) / batch.samples


def test_sampler_unbiased_vs_tree(dyadic):
    for depth in (1, 3):
        tree = backward_tree(dyadic, ONE, depth)
        batch = backward_sample(dyadic, ONE, depth, 20000, seed=0)
        freqs = _atom_freqs(batch, tree.levels[depth])
        slack = 4.0 / math.sqrt(batch.samples)
        for f, w in zip(freqs, tree.levels[depth].weights):
            assert abs(f - float(w)) <= slack


def test_sampler_exceptional_start(dyadic):
    batch = backward_sample(dyadic, ProjPointQ(0, 1), 4, 100, seed=1)
    assert np.all(batch.points == 0.0)


def test_sampler_deterministic(dyadic):
    a = backward_sample(dyadic, ONE, 5, 300, seed=9)
    b = backward_sample(dyadic, ONE, 5, 300, seed=9)
    assert np.array_equal(a.log_abs, b.log_abs)
    assert np.array_equal(a.angle, b.angle)


def test_sampler_general_path_multiplicity():
    # z^2+1 pulls 1 back to the double point 0, so the non-monomial
    # sampler must weight it 1/2 against +-1 from the other map
    system = make_system(
        [make_map([1, 0, 1], [1]), Z2], [Fraction(1, 2), Fraction(1, 2)]
    )
    tree = backward_tree(system, ONE, 1)
    batch = backward_sample(system, ONE, 1, 4000, seed=5)
    freqs = _atom_freqs(batch, tree.levels[1])
    slack = 4.0 / math.sqrt(batch.samples)
    weights = [float(w) for w in tree.levels[1].weights]
    assert 0.5 in weights
    for f, w in zip(freqs, weights):
        assert abs(f - w) <= slack
    # irrational multiple preimages: (z^2 - 2)^2 pulls 0 back to +-sqrt 2,
    # each twice
    quartic = make_system([make_map([4, 0, -4, 0, 1], [1])], [Fraction(1)])
    batch = backward_sample(quartic, ProjPointQ(0, 1), 1, 4000, seed=5)
    assert np.allclose(np.abs(batch.points), math.sqrt(2.0))
    assert abs(np.mean(batch.points.real > 0) - 0.5) <= slack


def test_sampler_numeric_phase_vs_tree(general):
    # level 1 from 3 holds the irrational roots of z^3 - 6z + 1, so the
    # draws that reach them take their level-2 fibers from numeric_fiber
    tree = backward_tree(general, ProjPointQ(3, 1), 2)
    assert any(e is None for e in tree.levels[1].exact_points)
    batch = backward_sample(general, ProjPointQ(3, 1), 2, 20000, seed=8)
    freqs = _atom_freqs(batch, tree.levels[2])
    slack = 4.0 / math.sqrt(batch.samples)
    for f, w in zip(freqs, tree.levels[2].weights):
        assert abs(f - float(w)) <= slack


def test_walker_numeric_double_root(mixed):
    # z^2 + 1 pulls the numeric point 1.0 back to 0 twice: a uniform index
    # over the two eigenvalues must draw 0 with chance 1/2 (map 1/2 times
    # multiplicity 2 over degree 2), and +-1 with 1/4 each from z^2
    n = 4000
    log_r, theta = backward_walk(mixed, np.zeros(n), np.zeros(n), None, 1,
                                 np.random.default_rng(3))
    slack = 4.0 / math.sqrt(n)
    assert abs(np.mean(np.isneginf(log_r)) - 0.5) <= slack
    unit = np.abs(log_r) < 1e-12
    at_one = np.minimum(theta, 2.0 * np.pi - theta) < 1e-12
    assert abs(np.mean(unit & at_one) - 0.25) <= slack
    assert abs(np.mean(unit & (np.abs(theta - np.pi) < 1e-12)) - 0.25) <= slack


def test_walker_angles_in_range(dyadic, mixed):
    # the IFS walk (dyadic) and the fiber walk (mixed) both give [0, 2 pi)
    for system in (dyadic, mixed):
        for batch in (backward_sample(system, ProjPointQ(3, 1), 6, 2000, 4),
                      canonical_sample(system, 6, 2000, 4)):
            assert np.all((batch.angle >= 0.0) & (batch.angle < 2.0 * np.pi))
            assert batch.angle.min() < 1.0 and batch.angle.max() > 5.0


def test_tree_keeps_tiny_points_apart(general):
    # level 1 of 10^30 holds +-1e15 and +-1.4e15; under (z^3 + 1)/(2z)
    # each has a preimage near +-5e-16 or +-3.5e-16, four distinct points
    # that an absolute tolerance below |z| = 1 merged into one atom
    level = backward_tree(general, ProjPointQ(10**30, 1), 3).levels[2]
    tiny = sorted((z.real, w) for z, w in zip(level.points, level.weights)
                  if abs(z) < 1e-10)
    half_root2 = 2.5 * math.sqrt(2.0)
    assert [x * 1e16 for x, _ in tiny] == pytest.approx(
        [-5.0, -half_root2, half_root2, 5.0], rel=1e-9)
    assert [w for _, w in tiny] == [Fraction(1, 24), Fraction(1, 36),
                                    Fraction(1, 36), Fraction(1, 24)]
    assert sum(level.weights) == 1


def test_csv_export(dyadic):
    batch = backward_sample(dyadic, ONE, 3, 10, seed=0)
    buf = io.StringIO()
    write_samples_csv(batch, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,re,im,log_abs,depth"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[4]) == 3
