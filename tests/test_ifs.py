"""The affine IFS against the maps it models."""

import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stochdyn.dynsys import eval_map, make_map, make_system
from stochdyn.exactnum import (
    log_abs_fraction,
    normalize_point,
    padic_valuation,
    point_from_rational,
)
from stochdyn.ifs import (
    ROW_BLOCK,
    StationaryLaw,
    affine_ifs,
    ks_one_sample,
    ks_to_law,
    ks_two_sample,
    map_sampler,
    stationary_law,
)
from stochdyn.forks import fork_map
from stochdyn.heights import ARCH, PlaceQ
from stochdyn.orbits import backward_sample
from stochdyn.padicmodel import sample_backward_valuations

from oracles import ks_one_sample_whole, ks_two_sample_whole

nonzero = st.fractions(min_value=-10**6, max_value=10**6,
                       max_denominator=10**6).filter(lambda q: q != 0)


@st.composite
def monomial_maps(draw):
    """a z^d or a z^(-d) with d in [2, 5]."""
    a = draw(nonzero)
    d = draw(st.integers(2, 5))
    if draw(st.booleans()):
        return make_map([a.numerator], [0] * d + [a.denominator])
    return make_map([0] * d + [a.numerator], [a.denominator])


@given(st.lists(monomial_maps(), min_size=1, max_size=3), nonzero,
       st.sampled_from([2, 3, 5, 7]))
def test_step_undoes_each_map(maps, z, p):
    system = make_system(maps, [Fraction(1, len(maps))] * len(maps))
    at_inf, at_p = affine_ifs(system), affine_ifs(system, PlaceQ(p))
    for i, phi in enumerate(maps):
        w = eval_map(phi, point_from_rational(z)).as_fraction()
        idx, d = np.array([i]), np.array([float(phi.d)])
        back = at_p.step(np.array([float(padic_valuation(w, p))]), idx, d)[0]
        assert back == padic_valuation(z, p)
        x = log_abs_fraction(w)
        back = at_inf.step(np.array([x]), idx, d)[0]
        scale = max(1.0, abs(x), abs(at_inf.shifts[i]))
        assert back == pytest.approx(log_abs_fraction(z), rel=0,
                                     abs=1e-12 * scale)


def full_step(ifs, x, idx):
    """AffineIFS.step with np.where on every call, kept as its oracle."""
    s, d, inv = ifs.arrays
    s = s[idx]
    return np.where(inv[idx], s - x, x - s) / d[idx]


def test_step_matches_full_rule(dyadic, signed):
    rng = np.random.default_rng(4)
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324],
                        rng.normal(size=500) * 1e3])
    for system in (dyadic, signed):
        for place in (ARCH, PlaceQ(2), PlaceQ(3)):
            ifs = affine_ifs(system, place)
            for i in range(len(system.maps)):
                idx = np.full(len(x), i)
                got = ifs.step(x, idx, ifs.arrays[1][idx])
                assert got.tobytes() == full_step(ifs, x, idx).tobytes()
            idx = rng.integers(0, len(system.maps), len(x))
            got = ifs.step(x, idx, ifs.arrays[1][idx])
            assert got.tobytes() == full_step(ifs, x, idx).tobytes()


def spread(m, zero):
    """m probabilities proportional to 1, ..., m, except that map `zero`
    has none, so two cut points of the sampler coincide."""
    weights = [0 if i == zero else i + 1 for i in range(m)]
    return tuple(Fraction(w, sum(weights)) for w in weights)


@pytest.mark.parametrize("p", [
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)),
    spread(2, 0), spread(3, 1), spread(16, 5), spread(16, 0),
    spread(17, 8), spread(64, 40)])
@pytest.mark.parametrize("shape", [(1000,), (40, 25)])
def test_map_sampler_is_choice(p, shape):
    floats = [float(q) for q in p]
    draw = map_sampler(floats)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        got = draw(got_rng, shape if len(shape) > 1 else shape[0])
        want = want_rng.choice(len(p), size=shape, p=floats)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # a uniform on the cut point where map i starts takes map i, or the
    # next map with a chance when map i has none
    cdf = np.cumsum(floats)
    cdf /= cdf[-1]

    class Edges:
        def random(self, shape):
            return np.concatenate([[0.0], cdf[:-1]])

    assert draw(Edges(), None).tolist() == [
        min(j for j in range(i, len(p)) if p[j] > 0) for i in range(len(p))]
    # Fractions, as a system holds them, give the same draws as floats
    assert np.array_equal(map_sampler(p)(np.random.default_rng(1), shape),
                          np.random.default_rng(1).choice(len(p), size=shape,
                                                          p=floats))


def test_affine_ifs_dyadic_at_two(dyadic):
    ifs = affine_ifs(dyadic, PlaceQ(2))
    assert ifs.shifts == (0, 1) and ifs.degrees == (2, 2)
    assert ifs.inverted == (False, False)


def ks_vs_grid_cdf(samples, grid, ref):
    """sup |F_emp - F_ref| against a piecewise-linear CDF on a grid, over
    the samples and the grid nodes, with the empirical CDF taken from both
    sides: the grid-law KS that ks_to_law replaced, kept as its oracle."""
    xs = np.sort(np.asarray(samples, dtype=float))
    cand = np.concatenate([xs, grid])
    fr = np.interp(cand, grid, ref, left=float(ref[0]), right=float(ref[-1]))
    return float(max(
        np.max(np.abs(np.searchsorted(xs, cand, side=side) / len(xs) - fr))
        for side in ("right", "left")))


@pytest.mark.parametrize("p", [None, 2])
@pytest.mark.parametrize("seed", [1, 11, 23])
def test_ks_to_law_matches_grid_oracle(dyadic, p, seed):
    # a continuous nondecreasing reference: the sup sits at a sample, so
    # the grid nodes never change the value
    one = normalize_point(1, 1)
    place = ARCH if p is None else PlaceQ(p)
    if place.is_arch:
        xs = backward_sample(dyadic, one, 30, 20000, seed).log_abs
    else:
        xs = sample_backward_valuations(dyadic, place, one, 30, 20000, seed)
    law = stationary_law(affine_ifs(dyadic, place))
    assert ks_to_law(xs, law, 30) == ks_vs_grid_cdf(xs, law.grid, law.cdf)


@given(st.lists(st.integers(0, 5), min_size=2, max_size=40),
       st.floats(-5, 5), st.floats(0.1, 10),
       st.lists(st.floats(-20, 20), min_size=1, max_size=60))
def test_ks_to_law_matches_grid_oracle_on_any_law(steps, lo, width, xs):
    assume(sum(steps) > 0)
    grid = np.linspace(lo, lo + width, len(steps) + 1)
    cdf = np.concatenate([[0.0], np.cumsum(steps) / sum(steps)])
    xs = np.array(xs)
    law = StationaryLaw(grid=grid, cdf=cdf)
    assert ks_to_law(xs, law, 30) == ks_vs_grid_cdf(xs, grid, cdf)


def test_law_expectations_exact_on_linear_cdf():
    # uniform on [0, 1] is linear on the cells of this grid: E T = 1/2,
    # E max(s, T) = (1 + s^2)/2 on [0, 1], E max(T, T') = 2/3
    grid = np.linspace(-0.5, 1.5, 9)
    law = StationaryLaw(grid=grid, cdf=np.clip(grid, 0.0, 1.0))
    assert law.mean() == pytest.approx(0.5, rel=0, abs=1e-15)
    s = np.array([-3.0, -0.5, 0.0, 0.3, 0.6, 1.0, 1.5, 4.0])
    want = np.where(s < 0, 0.5, np.where(s > 1, s, (1.0 + s * s) / 2.0))
    assert np.max(np.abs(law.mean_max(s) - want)) <= 1e-15
    assert law.mean_max_pair() == pytest.approx(2 / 3, rel=0, abs=1e-15)
    atom = StationaryLaw(atom=-0.25)
    assert (atom.mean(), atom.mean_max_pair()) == (-0.25, -0.25)
    assert atom.mean_max(s).tolist() == np.maximum(s, -0.25).tolist()
    assert (law.kind, atom.kind) == ("stationary-cdf", "atom")


def test_grid_law_error_bounds_w1(dyadic):
    # the dyadic law is uniform on [-log 2, 0]; the W1 distance of the
    # grid law to it is int |F - F_exact| (fine trapezoid), at most error
    law = stationary_law(affine_ifs(dyadic))
    h = law.grid[1] - law.grid[0]
    # kappa = 1/2: error = h + 2^-64 (hi - lo)
    assert law.error == pytest.approx(h, rel=1e-9)
    x = np.linspace(law.grid[0], law.grid[-1], 400001)
    gap = np.abs(law.cdf_at(x) - np.clip(1.0 + x / np.log(2.0), 0.0, 1.0))
    w1 = np.sum((gap[1:] + gap[:-1]) / 2.0) * (x[1] - x[0])
    assert w1 <= law.error


_BLOCK_SIZES = [1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]


def tied(rng, n, scale):
    """n draws on the grid k / scale, so a sample count far above scale is
    full of ties."""
    return np.round(rng.uniform(0.0, 1.0, n) * scale) / scale


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_ks_one_sample_matches_whole_array(n):
    # the blocked sup is the whole-array one to the bit: a continuous CDF
    # at tied samples, and the step CDF of an atom some samples sit on
    rng = np.random.default_rng(n)
    xs = tied(rng, n, 64)
    uniform = lambda t: np.clip(t, 0.0, 1.0)  # noqa: E731
    assert ks_one_sample(xs, uniform) == ks_one_sample_whole(xs, uniform)
    atom = StationaryLaw(atom=0.25)
    xs[: n // 3] = 0.25
    assert (ks_one_sample(xs, atom.cdf_at)
            == ks_one_sample_whole(xs, atom.cdf_at))


@pytest.mark.parametrize("n", _BLOCK_SIZES)
def test_ks_two_sample_matches_whole_array(n):
    # unequal sizes, ties within each sample and values the two share
    rng = np.random.default_rng(n + 1)
    for m in (n, n + 3, 2 * n + ROW_BLOCK):
        a, b = tied(rng, n, 100), tied(rng, m, 100) + 0.01
        assert ks_two_sample(a, b) == ks_two_sample_whole(a, b)
        assert ks_two_sample(b, a) == ks_two_sample_whole(b, a)


def traced_peak(fn, *args) -> int:
    """Bytes fn(*args) holds at its peak beyond what is allocated before
    it runs, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# per-block allowance of the KS loops: eight float or index arrays of
# ROW_BLOCK entries (a block's gaps, ranks and quotients), plus 64 KiB for
# the list of block maxima and numpy's bookkeeping
_KS_BLOCK_BYTES = 8 * 8 * ROW_BLOCK + 64 * 1024


def test_ks_memory_is_sorted_copies_plus_one_block():
    # whole-array candidates, ranks and gaps took 32 to 40 bytes per sample
    # on top of the sorted copies; blocked, only those copies grow with n
    n = 200_000
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=n), rng.normal(size=n)
    assert traced_peak(ks_two_sample, a, b) <= 2 * 8 * n + _KS_BLOCK_BYTES
    uniform = lambda t: np.clip(t, 0.0, 1.0)  # noqa: E731
    assert traced_peak(ks_one_sample, a, uniform) <= 8 * n + _KS_BLOCK_BYTES


# ---------------------------------------------------------------------------
# fork_map

_ITEMS = list(range(7))


@pytest.mark.parametrize("split", range(len(_ITEMS) + 2))
def test_fork_map_is_map(forks, split):
    assert list(fork_map(str, _ITEMS, split)) == list(map(str, _ITEMS))
    assert len(forks) == (split < len(_ITEMS))


def test_fork_map_raises_child_exception_here(forks, capfd):
    parent = os.getpid()

    def pid_unless_four(item):
        if item == 4:
            raise ValueError(os.getpid())
        return os.getpid()

    got = []
    with pytest.raises(ValueError) as raised:
        for pid in fork_map(pid_unless_four, range(6), 2):
            got.append(pid)
    # items 2 and 3 come from the child, which stopped at 4; 4 is computed
    # again here, and nothing reaches stdout or stderr
    assert raised.value.args == (parent,)
    assert got[:2] == [parent] * 2 and len(got) == 4 and parent not in got[2:]
    assert forks == [1]
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("taken, busy", [(1, 60.0), (3, 0.0)])
def test_fork_map_close_reaps_child(forks, taken, busy):
    # closed while the child still computes (it is killed), or after it
    # delivered a result
    parent = os.getpid()

    def pid(item):
        if os.getpid() != parent:
            time.sleep(busy)
        return os.getpid()

    t0 = time.monotonic()
    gen = fork_map(pid, range(5), 2)
    pids = [next(gen) for _ in range(taken)]
    gen.close()
    assert time.monotonic() - t0 < 30.0
    assert forks == [1] and (pids[-1] == parent) == (taken <= 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_one_cpu_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert list(fork_map(str, _ITEMS, 3)) == list(map(str, _ITEMS))


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_fork_map_without_fork_runs_here(monkeypatch, fork):
    def failing():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", failing)
    assert list(fork_map(str, _ITEMS, 3)) == list(map(str, _ITEMS))


def test_fork_map_nested_in_child_runs_there(forks):
    parent = os.getpid()

    def nested(item):
        return os.getpid(), list(fork_map(lambda _: os.getpid(), range(4), 2))

    results = list(fork_map(nested, range(4), 2))
    # here, while the outer map's child runs, the inner maps run here too:
    # no second child is started
    for pid, inner in results[:2]:
        assert pid == parent and inner == [parent] * 4
    for pid, inner in results[2:]:  # in the child: they run in the child
        assert pid != parent and inner == [pid] * 4
    assert len(forks) == 1
