import cmath
import hashlib
import io
import itertools
import math
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stochdyn import exactnum, orbits
from stochdyn.dynsys import fiber, make_map, make_system
from stochdyn.exactnum import (
    INFINITY,
    ConvergenceFailure,
    ProjPointQ,
    poly_roots,
)
from stochdyn.ifs import ROW_BLOCK, affine_ifs
from stochdyn.archpotential import canonical_sample
from stochdyn.orbits import (
    DEFAULT_CLUSTER_TOL,
    NodeBudgetExceeded,
    _LevelBuilder,
    backward_sample,
    backward_tree,
    backward_walk,
    numeric_fiber,
    sup_mass_certificate,
    sup_mass_decay,
    well_distributed_stat,
    write_samples_csv,
)

from oracles import all_roots_fiber_step, level_weights
from strategies import points, small_maps, small_systems

ONE = ProjPointQ(1, 1)
Z2 = make_map([0, 0, 1], [1])
TWO_Z2 = make_map([0, 0, 2], [1])
INV_Z2 = make_map([1], [0, 0, 1])
SQRT_HALF = 2.0 ** -0.5


def _complex(point):
    """The complex number of a tree point (log|z|, arg z)."""
    log_r, theta = point
    if log_r == math.inf:
        return complex(math.inf, 0.0)
    return cmath.rect(math.exp(log_r), theta)


def test_preimages_numeric_input():
    # numeric 4 pulls back under z^2 to +-2, and numeric 0 to 0 twice
    log_w, arg_w = numeric_fiber(Z2, [math.log(4.0)], [0.0])
    w = sorted(cmath.rect(math.exp(r), t).real
               for r, t in zip(log_w[0], arg_w[0]))
    assert w == pytest.approx([-2.0, 2.0], rel=1e-12)
    assert numeric_fiber(Z2, [-math.inf], [0.0])[0].tolist() == [
        [-math.inf] * 2]


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


def test_numeric_fiber_refuses_underflowing_lifts():
    # e^-709 is below the smallest normal float, so the lift of |z| = e^709
    # would pass for infinity and that of |z| = e^-709 for 0
    for log_r in (709.0, -709.0):
        with pytest.raises(OverflowError):
            numeric_fiber(Z2, [0.0, log_r], [0.0, 1.0])
    log_w, _ = numeric_fiber(Z2, [708.0, -708.0], [0.0, 0.0])
    assert np.allclose(log_w, [[354.0] * 2, [-354.0] * 2], rtol=1e-12)


def test_numeric_fiber_matches_roots_loop(general):
    # reference: numpy's np.roots of each point's fiber polynomial, one at
    # a time: companion eigenvalues, apart from exactnum.poly_roots, and
    # accurate for these points within e^3 of the unit circle
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


def test_numeric_fiber_keeps_roots_far_from_one():
    # the small root of (z^3 + 1)/(2z) over e^L e^{0.3i} is about
    # 1/(2 e^L); the companion eigenvalues lost it to 0 from L = 50 on
    cubic = make_map([1, 0, 0, 1], [0, 2])
    for big in (50.0, 300.0, 700.0):
        log_w, _ = numeric_fiber(cubic, [big], [0.3])
        assert min(log_w[0]) == pytest.approx(-(big + math.log(2.0)),
                                              rel=1e-12)
    # over 10^302.5, (z^2 + 1)/z has roots near 10^302.5 and 10^-302.5,
    # and z^2/10^300 over 10^305 the roots +-10^302.5 (once both infinity;
    # the lift's coefficient e^-702.3 F(1, 0) = 7e-317 is subnormal and
    # holds 24 bits, so the roots keep about 8 digits)
    big = 302.5 * math.log(10.0)
    log_w, _ = numeric_fiber(make_map([1, 0, 1], [0, 1]), [big], [0.0])
    assert sorted(log_w[0]) == pytest.approx([-big, big], rel=1e-12)
    log_w, arg_w = numeric_fiber(make_map([0, 0, 1], [10**300]),
                                 [305.0 * math.log(10.0)], [0.0])
    assert log_w[0] == pytest.approx([big, big], abs=1e-7)
    assert sorted(arg_w[0]) == pytest.approx([0.0, math.pi], abs=1e-12)


def test_numeric_fiber_refuses_lost_roots():
    # degree 4 takes the polished companion eigenvalues, which find the
    # root near 1/(2z) of (w^4 + 1)/(2w) = z at |z| = e^50 and e^100 but
    # lose it to 0 at e^700, where it lies below float range in the
    # balanced form: that fails the backward-error test instead of
    # passing as 0
    quartic = make_map([1, 0, 0, 0, 1], [0, 2])
    for log_r in (50.0, 100.0):
        log_w, _ = numeric_fiber(quartic, [log_r], [0.3])
        assert min(log_w[0]) == pytest.approx(-(log_r + math.log(2.0)),
                                              rel=1e-9)
    with pytest.raises(ConvergenceFailure):
        numeric_fiber(quartic, [700.0], [0.3])


def test_numeric_fiber_blocks_match_separate_calls(general):
    # ROW_BLOCK + 1 rows, at scales from 0 to infinity, against one call
    # per block: every row comes out to the bit, through the closed forms
    # of degrees 2 and 3 and the stacked eigenvalues of degree 4
    rng = np.random.default_rng(8)
    n = ROW_BLOCK + 1
    log_r = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.integers(-2, 3, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    log_r[:3], log_r[-2:] = [-math.inf, math.inf, 0.0], [-math.inf, 300.0]
    quartic = make_map([1, 0, 0, 0, 1], [0, 2])
    for phi in (*general.maps, quartic):
        got = numeric_fiber(phi, log_r, theta)
        parts = [numeric_fiber(phi, log_r[rows], theta[rows])
                 for rows in (slice(0, ROW_BLOCK), slice(ROW_BLOCK, n))]
        for whole, head, tail in zip(got, *parts):
            assert whole.shape == (n, phi.d)
            assert np.array_equal(whole, np.vstack([head, tail]))
    # a root that fails the backward-error test in the last block still
    # raises
    log_r = np.zeros(n)
    log_r[-1] = 700.0
    with pytest.raises(ConvergenceFailure):
        numeric_fiber(quartic, log_r, np.full(n, 0.3))


# maps with rows at 0 and infinity, a leading zero in the chart at
# infinity, t-chart rows and degree 4
_PICK_MAPS = (Z2, INV_Z2, make_map([1, 0, 1], [0, 1]),
              make_map([0, 0, 0, 1], [1, 0, 1]),
              make_map([4, 0, -4, 0, 1], [1]),
              make_map([1, 0, 0, 0, 1], [0, 2]),
              make_map([-1, 0, 1], [1]), make_map([1, 0, 0, 1], [0, 2]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PICK_MAPS) | small_maps(max_size=5),
       st.integers(0, 2**32 - 1))
def test_numeric_fiber_pick_is_its_column(phi, seed):
    # entry pick[k] of row k, bit for bit, at 0, infinity, 1 and points
    # from e^-30 to e^30 (both charts), each pick drawn per row
    rng = np.random.default_rng(seed)
    log_r = np.concatenate([[-math.inf, math.inf, 0.0],
                            rng.uniform(-30.0, 30.0, 40)])
    theta = np.concatenate([[0.0, 0.0, 0.0],
                            rng.uniform(0.0, 2.0 * np.pi, 40)])
    try:
        log_w, arg_w = numeric_fiber(phi, log_r, theta)
    except ConvergenceFailure:
        assume(False)
    rows = np.arange(len(log_r))
    for pick in (rng.integers(0, phi.d, len(log_r)),
                 *(np.full(len(log_r), j) for j in range(phi.d))):
        got = numeric_fiber(phi, log_r, theta, pick)
        assert got[0].shape == (len(log_r),)
        assert got[0].tobytes() == log_w[rows, pick].tobytes()
        assert got[1].tobytes() == arg_w[rows, pick].tobytes()


def test_numeric_fiber_pick_tests_its_root_alone():
    # at |z| = e^700 the quartic loses one root to 0 (see
    # test_numeric_fiber_refuses_lost_roots): picking it raises, and
    # picking any of the other three returns that root, of modulus
    # (2 e^700)^(1/3)
    quartic = make_map([1, 0, 0, 0, 1], [0, 2])
    lost = []
    for j in range(4):
        try:
            log_w, _ = numeric_fiber(quartic, [700.0], [0.3], np.array([j]))
        except ConvergenceFailure:
            lost.append(j)
        else:
            assert log_w[0] == pytest.approx((700.0 + math.log(2.0)) / 3.0)
    assert len(lost) == 1


def _fiber_digests(general) -> list:
    """SHA-256 of numeric_fiber's bytes under each map of general and of
    _PICK_MAPS, the full call and a random pick, on a seeded grid of 4,096
    points: 0, infinity, 1, |log|z|| = 700 and 1e-3 to 700 in both charts
    (a ConvergenceFailure is hashed as its name); then of the exact fibers
    of the irreducible cubics z^3 - 6z + 1 and 2z^3 - 3 10^400 - 2."""
    rng = np.random.default_rng(35)
    n = 4096
    log_r = (rng.choice([-1.0, 1.0], n)
             * np.exp(rng.uniform(math.log(1e-3), math.log(700.0), n)))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    log_r[:6] = [-math.inf, math.inf, 0.0, 700.0, -700.0, 0.0]
    theta[:6] = [0.0, 0.0, 0.0, 0.3, 2.0, np.pi]
    digests = []
    for phi in (*general.maps, *_PICK_MAPS):
        h = hashlib.sha256()
        for pick in (None, rng.integers(0, phi.d, n)):
            try:
                for part in numeric_fiber(phi, log_r, theta, pick):
                    h.update(part.tobytes())
            except ConvergenceFailure:
                h.update(b"ConvergenceFailure")
        digests.append(h.hexdigest())
    for phi, point in ((general.maps[1], ProjPointQ(3, 1)),
                       (make_map([1, 0, 0, 2], [3]),
                        ProjPointQ(10**400 + 1, 1))):
        digests.append(hashlib.sha256(
            repr(fiber(phi, point)).encode()).hexdigest())
    return digests


# _fiber_digests of the solver whose cubic deflated every row, which
# every later solver must keep bit for bit
_FIBER_DIGESTS = [
    "3afb25984ebb4c5072a9253adb07bc46"
    "d9f0a683e0aac9002f0fda6ddb73d8e3",
    "2d7e659c82c11e47c8758e4fc594a767"
    "0c036540f5d009e0556fdb5dc4a3214d",
    "8678a2af56c6c68898c54e04385674b5"
    "0bdb20245da8b153b04dd6cd36851e24",
    "57c0278a52acba2d4f7ee9a0f9db32b0"
    "ee1fbe49672155c732bac81d2759c65e",
    "8502ec6453a40030a314f4e49450dcb7"
    "b9d73cfa687238adc7f5b3b50c92f764",
    "fb47aabb38361aa2daefa502bc7f93f7"
    "01c1854b681ea7fd085c5301f15be646",
    "58e011a16a52d7bccbc65d381ac47d9d"
    "8c668f3855ed6cfe89dd886c4bf6202c",
    "68eb65ca3d5302d4843114db32ba4cab"
    "ccee99694d06bf7a8fadb6bfde4e5694",
    "d94127ea7c7a47c0404b11c91e2add3a"
    "099692836fc5ef0dd5c091d6e52acf98",
    "f7021f1aeabb2bccdcd5bd0a347d6661"
    "aa9589ebc68a1ebbbeca43201ba2ce86",
    "f35dfa3b807adf49263c81f325bdd5f6"
    "6f52e7605dcc59164dbef105009d6178",
    "804dda267b13186c482a0a6710518d49"
    "c4a3b0dd390296aefdeb8e70d9d32af2",
]


def test_numeric_fiber_bytes_are_pinned(general):
    assert _fiber_digests(general) == _FIBER_DIGESTS


def _cubic_block(general, n=ROW_BLOCK):
    """n finite points around general's Julia set, in both charts, and a
    seeded pick of one of the three preimages of each under its cubic."""
    rng = np.random.default_rng(11)
    return (rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 2.0 * np.pi, n),
            rng.integers(0, 3, n))


def test_cubic_deflates_only_rows_that_pick_a_deflated_root(general,
                                                              monkeypatch):
    # the cubic's deflation to a quadratic sees the rows whose pick is 1 or
    # 2 alone; every row used to take it
    rows = []
    quadratic = exactnum._quadratic

    def counted(am, ag, pick):
        rows.append(am.shape[1])
        return quadratic(am, ag, pick)

    monkeypatch.setattr(exactnum, "_quadratic", counted)
    log_r, theta, pick = _cubic_block(general, 2000)
    numeric_fiber(general.maps[1], log_r, theta, pick)
    assert rows == [np.count_nonzero(pick >= 1)]


def test_numeric_fiber_temporaries_per_row(general):
    # numeric_fiber's docstring lists what a block row holds for a map of
    # degree d, chart degree k <= 3, with pick: 10k + 2d + 29 floats, 65
    # for general's cubic, so one ROW_BLOCK-row call peaks below that
    log_r, theta, pick = _cubic_block(general)
    numeric_fiber(general.maps[1], log_r, theta, pick)
    tracemalloc.start()
    try:
        numeric_fiber(general.maps[1], log_r, theta, pick)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (10 * 3 + 2 * 3 + 29) * 8 * ROW_BLOCK


def _walk_outcome(walk, *args):
    """The bytes of a walk's (log|z|, arg z), or the type of the error it
    raised."""
    try:
        batch = walk(*args)
    except (ConvergenceFailure, OverflowError) as exc:
        return type(exc)
    return batch.log_abs.tobytes(), batch.angle.tobytes()


def _assert_walks_match_all_roots_step(system, starts, depth, samples,
                                       seed):
    # backward_sample from each start and canonical_sample, with the walker
    # step that solves every root as the oracle: the same bits, or the
    # oracle raises where a root that no draw picked fails its test
    walks = [(backward_sample, system, s, depth, samples, seed)
             for s in starts]
    walks.append((canonical_sample, system, depth, samples, seed))
    for walk, *args in walks:
        got = _walk_outcome(walk, *args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbits, "_fiber_step", all_roots_fiber_step)
            want = _walk_outcome(walk, *args)
        assert got == want or want is ConvergenceFailure


def test_general_walks_match_all_roots_step(general):
    for seed in (0, 7):
        _assert_walks_match_all_roots_step(
            general, (ProjPointQ(0, 1), INFINITY, ProjPointQ(3, 1)), 12,
            3000, seed)


@settings(max_examples=60, deadline=None)
@given(small_systems(), points(), st.integers(0, 2**32 - 1))
def test_walks_match_all_roots_step(system, start, seed):
    _assert_walks_match_all_roots_step(
        system, (ProjPointQ(0, 1), INFINITY, start), 5, 200, seed)


def test_numeric_walk_memory_per_sample(general):
    # the traced peak of a numeric walk grows per added sample by at most
    # 16 floats.  In one process (11.1 measured): the start angles
    # canonical_sample holds (1); 5 arrays the walk holds over a step
    # (coordinates, map indices, the draws as ints, exact codes, rewritten
    # in place); the two new coordinate columns (2); for the points under
    # one map, at most all of them, their indices, coordinates, draws and
    # the picked root's two columns (6, whatever d is), so 14, with 2 to
    # spare for the masks (on_exact is 1/8); the fiber's own temporaries
    # stay a ROW_BLOCK-row constant.  Split over two CPUs (15.7 measured),
    # this process holds both start arrays (2) and walks half the rows, and
    # the fiber temporaries of its half grow from about 5,000 rows per map
    # at 20,000 samples to a full ROW_BLOCK at 60,000 (about 9)
    def peak(samples):
        tracemalloc.start()
        try:
            canonical_sample(general, 2, samples, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 20_000, 60_000
    assert peak(large) - peak(small) <= 16 * 8 * (large - small)


# a coefficient as the pair (mantissa, exponent) of mantissa 2^exponent
_COEFF = st.one_of(st.just((0j, 0)), st.tuples(
    st.builds(complex, st.integers(-2**20, 2**20),
              st.integers(-2**20, 2**20)),
    st.integers(-1500, 1500)))


def _closed_form(body) -> list:
    """The roots of one row of descending coefficient pairs by
    exactnum.poly_roots, as mpmath numbers (no float range limit)."""
    cm, cg = zip(*body)
    xm, xg = poly_roots([cm], np.array([cg]), "p")
    return [mpmath.mpc(m) * mpmath.ldexp(1, g)
            for m, g in zip(xm[0].tolist(), xg[0].tolist())]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(_COEFF, min_size=k + 1, max_size=k + 1)))
def test_closed_form_roots(body):
    # coefficients 2^-1500 to 2^1520 in modulus and exact zeros: the roots
    # reproduce the monic coefficients, each elementary symmetric function
    # e_i to 1e-10 of e_i of the moduli; and where Newton's method at 60
    # digits, started from each root, reaches roots 1e-3 apart relative to
    # their size, each root is within 1e-9 of its own, relative to its size.
    # np.linalg.eigvals is no reference here: with the coefficients
    # (0.875, 2.7e16, 0, 8.6e9) i its roots near +-5.6e-4 i are 1e-9 off
    assume(body[0][0] != 0)
    k = len(body) - 1
    with mpmath.workdps(60):
        roots = _closed_form(body)
        coeffs = [mpmath.mpc(m) * mpmath.ldexp(1, g) for m, g in body]
        for i in range(1, k + 1):
            subsets = list(itertools.combinations(roots, i))
            e = mpmath.fsum(mpmath.fprod(s) for s in subsets)
            scale = mpmath.fsum(mpmath.fprod(abs(x) for x in s)
                                for s in subsets)
            gap = abs(coeffs[i] / coeffs[0] - (-1) ** i * e)
            assert gap <= 1e-10 * scale
        polished = []
        for x in roots:
            for _ in range(50):
                f, df = mpmath.polyval(coeffs, x, derivative=True)
                if f == 0 or df == 0:
                    break
                x = x - f / df
            polished.append(x)
        assume(all(abs(x - y) > 1e-3 * max(abs(x), abs(y))
                   for x, y in itertools.combinations(polished, 2)))
        for x, y in zip(roots, polished):
            assert abs(x - y) <= 1e-9 * abs(y)


# the exact ones come out exact: no rounding reaches a repeated root
_EXACT_PATTERNS = [(1, 1, -2), (0, 0, 0), (1, 1, 1), (0, 0, -2), (3, 3, 3),
                   (-1, -1), (0, 0), (5,), (0,)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_EXACT_PATTERNS + [(0, 1, 1), (1j, 1j, -2),
                                          (2, 2, -1j), (1 + 1j,) * 3]),
       st.integers(-200, 200), st.sampled_from([1, 3, -2j, 1 + 1j]),
       st.integers(-200, 200))
def test_closed_form_multiple_roots(pattern, s, lead, t):
    # double and triple roots scaled by 2^s, with exact coefficients, such
    # as (z - 1)^2 (z + 2) and z^3: simple roots to 1e-9 relative (0
    # exactly), and so are the repeated roots of _EXACT_PATTERNS.  Others
    # move by about eps^(1/m) under the rounding of the deflated
    # coefficients, as the companion eigenvalues do too: a root of
    # multiplicity m may be 4 eps^(1/m) off, relative to its size.
    roots = [complex(r) * 2.0**s for r in pattern]
    body = [complex(lead) * 2.0**t]
    for r in roots:
        body = [x - r * y for x, y in zip(body + [0j], [0j] + body)]
    want = [(w, 1e-9 if pattern in _EXACT_PATTERNS or pattern.count(r) == 1
             else 4.0 * sys.float_info.epsilon ** (1.0 / pattern.count(r)))
            for r, w in zip(pattern, roots)]
    got = _closed_form([(c, 0) for c in body])
    assert any(all(abs(g - w) <= tol * abs(w) for g, (w, tol) in zip(got, p))
               for p in itertools.permutations(want))


@settings(max_examples=150, deadline=None)
@given(small_maps())
def test_numeric_fiber_at_zero_and_infinity(phi):
    # rows at 0 and infinity against the exact fibers, multiplicities
    # included: a simple root to 1e-9, a repeated one to 1e-6
    log_w, arg_w = numeric_fiber(phi, [-math.inf, math.inf], [0.0, 0.0])
    for row, point in enumerate((ProjPointQ(0, 1), INFINITY)):
        want = [(r, t, m) for r, t, _, m in fiber(phi, point)]
        got = sorted(zip(log_w[row].tolist(), arg_w[row].tolist()))
        assert len(got) == sum(m for *_, m in want)
        for r, t, m in want:
            tol = 1e-9 if m == 1 else 1e-6
            near = [k for k, (gr, gt) in enumerate(got)
                    if (gr == r if math.isinf(r) else
                        abs(cmath.rect(math.exp(gr - r), gt)
                            - cmath.exp(1j * t)) <= tol)]
            assert len(near) >= m
            for k in near[:m][::-1]:
                got.pop(k)


def test_backward_tree_depth_zero(dyadic):
    tree = backward_tree(dyadic, ONE, 0)
    assert tree.depth == 0
    assert level_weights(tree.levels[0]) == [Fraction(1)]
    assert tree.levels[0].exact_points == [ONE]
    # a negative depth is refused, not answered with the root alone
    with pytest.raises(ValueError, match="need n >= 0"):
        backward_tree(dyadic, ONE, -1)


def test_backward_tree_dyadic_level_one(dyadic):
    tree = backward_tree(dyadic, ONE, 1)
    level = tree.levels[1]
    assert sorted(level_weights(level)) == [Fraction(1, 4)] * 4
    mags = sorted(math.exp(log_r) for log_r, _ in level.points)
    assert mags[:2] == pytest.approx([SQRT_HALF, SQRT_HALF])
    assert mags[2:] == pytest.approx([1.0, 1.0])
    exacts = {e for e in level.exact_points if e is not None}
    assert exacts == {ProjPointQ(1, 1), ProjPointQ(-1, 1)}


def test_backward_tree_z2_roots_of_unity(single_z2):
    tree = backward_tree(single_z2, ONE, 2)
    level = tree.levels[2]
    assert sorted(level_weights(level)) == [Fraction(1, 4)] * 4
    got = sorted(map(_complex, level.points),
                 key=lambda z: (round(z.real, 6), round(z.imag, 6)))
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
            assert sum(level_weights(level)) == 1
            assert all(w > 0 for w in level_weights(level))


def test_tree_avoids_exceptional_set(dyadic):
    tree = backward_tree(dyadic, ONE, 5)
    for level in tree.levels:
        for (log_r, _), e in zip(level.points, level.exact_points):
            assert math.log(0.1) < log_r < math.inf
            assert e != ProjPointQ(0, 1) and e != INFINITY


def test_tree_exact_numeric_agreement(dyadic):
    tree = backward_tree(dyadic, ONE, 4)
    for level in tree.levels:
        for p, e in zip(level.points, level.exact_points):
            if e is not None and not e.is_infinity:
                z = _complex(p)
                assert abs(z - complex(e.as_fraction())) <= 1e-10 * max(1.0, abs(z))


def test_node_budget(dyadic, monkeypatch):
    monkeypatch.setattr(orbits, "DEFAULT_NODE_BUDGET", 10)
    # levels of 1, 4 and 16 nodes: the third takes the count past 10
    with pytest.raises(NodeBudgetExceeded,
                       match="^21 nodes exceeds budget 10$"):
        backward_tree(dyadic, ONE, 5)


def test_tree_memory_per_node(dyadic):
    """The depth-8 tree from 1 on the example holds at most 64 traced bytes
    per node, plus 16 KiB of headers.  No two of its preimages meet, so
    each of its 87,381 nodes but the root has exactly one edge, and a node
    costs:
    - 16 B of point row, two float64;
    - 24 B of edge row, three int64;
    - 8 B of indptr, one int64;
    - 8 B of numerator pointer: L = 4 and every unit is 1, so every
      numerator is 1, a cached small int;
    - 8 B of exact_points pointer, to None or to one of the few exact
      points.
    The 16 KiB cover the nine levels' headers (the TreeLevel and its dict,
    three arrays, two lists: about 1 KiB a level), each indptr's extra
    entry and the exact points +-1 of each level.  The first build fills
    the exact fiber caches, so the second one's traced growth is the tree.
    """
    backward_tree(dyadic, ONE, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = backward_tree(dyadic, ONE, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(len(level.points) for level in tree.levels)
    assert nodes == 87_381
    assert held <= 64 * nodes + 16 * 1024


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


def test_sampler_z2_unit_circle(single_z2):
    batch = backward_sample(single_z2, ONE, 6, 500, seed=2)
    assert np.all(batch.log_abs == 0.0)
    # angles are multiples of 2 pi / 2^6
    steps = batch.angle * (2**6) / (2 * np.pi)
    assert np.allclose(steps, np.round(steps), atol=1e-9)


def _atom_freqs(batch, level):
    pts = np.array([_complex(p) for p in level.points])
    d = np.abs(batch.points[:, None] - pts[None, :])
    nearest = np.argmin(d, axis=1)
    return np.bincount(nearest, minlength=len(pts)) / batch.samples


def test_sampler_unbiased_vs_tree(dyadic):
    for depth in (1, 3):
        tree = backward_tree(dyadic, ONE, depth)
        batch = backward_sample(dyadic, ONE, depth, 20000, seed=0)
        freqs = _atom_freqs(batch, tree.levels[depth])
        slack = 4.0 / math.sqrt(batch.samples)
        for f, w in zip(freqs, level_weights(tree.levels[depth])):
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
    weights = [float(w) for w in level_weights(tree.levels[1])]
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
    for f, w in zip(freqs, level_weights(tree.levels[2])):
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


def test_ifs_walk_wraps_tiny_negative_angles():
    # 1/z^2 sends the angle 1e-300 to -5e-301 when j = 0, which np.mod
    # rounds up to 2 pi itself; the walk wraps it to 0
    system = make_system([make_map([1], [0, 0, 1]), Z2],
                         [Fraction(1, 2)] * 2)
    n = 4000
    _, theta = backward_walk(system, np.zeros(n), np.full(n, 1e-300), None, 1,
                             np.random.default_rng(1))
    assert np.all((theta >= 0.0) & (theta < 2.0 * np.pi))
    assert np.sum(theta == 0.0) > n // 8


def choice_walk(system, log_r, theta, steps, rng):
    """The monomial branch of backward_walk without its skipped no-ops,
    kept as its oracle: rng.choice draws the maps, every step applies the
    sign and the shift by arg a and takes np.mod of every angle, and the
    radius steps through AffineIFS.step's np.where."""
    probs = np.array([float(p) for p in system.probs])
    shifts, degs, inverted = affine_ifs(system).arrays
    arg_a = np.array([0.0 if phi.monomial_profile.coeff > 0 else math.pi
                      for phi in system.maps])
    sign = np.where(inverted, -1.0, 1.0)
    for _ in range(steps):
        idx = rng.choice(len(degs), size=len(log_r), p=probs)
        d = degs[idx]
        j = np.floor(rng.random(len(log_r)) * d)
        s = shifts[idx]
        log_r = np.where(inverted[idx], s - log_r, log_r - s) / d
        theta = sign[idx] * (theta - arg_a[idx]) / d + 2.0 * np.pi * j / d
        theta = np.mod(theta, 2.0 * np.pi)
    return log_r, theta


@pytest.mark.parametrize("steps", [1, 12])
def test_ifs_walk_matches_choice_walk(dyadic, signed, steps):
    # bytes, so signs of zeros count; starts at 0, -0, pi and infinities,
    # then uniform angles as canonical_sample draws them.  The last two
    # systems have only a negative coefficient, or only an inverted map.
    half = [Fraction(1, 2)] * 2
    negative = make_system([make_map([0, 0, -1], [1]), TWO_Z2], half)
    inverted = make_system([Z2, make_map([1], [0, 0, 2])], half)
    rng = np.random.default_rng(17)
    log_r0 = np.concatenate([[0.0, -0.0, 0.0, math.inf, -math.inf, 3.5],
                             rng.normal(size=2000)])
    theta0 = np.concatenate([[0.0, -0.0, math.pi, 0.0, math.pi, 1e-300],
                             rng.uniform(0.0, 2.0 * np.pi, 2000)])
    for system in (dyadic, signed, negative, inverted):
        for start in ((log_r0, theta0), (np.zeros(3000), np.full(3000, np.pi))):
            kept = [a.copy() for a in start]
            got_rng, want_rng = (np.random.default_rng(5) for _ in range(2))
            got = backward_walk(system, *start, None, steps, got_rng)
            want = choice_walk(system, *start, steps, want_rng)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert all(a.tobytes() == b.tobytes() for a, b in zip(start, kept))
            if system is signed and start[0] is not log_r0:
                # -z^2 sends the angle pi to exactly 0 when j = 0
                assert np.any(want[1] == 0.0)


def test_tree_keeps_tiny_points_apart(general):
    # level 1 of 10^30 holds +-1e15 and +-1.4e15; under (z^3 + 1)/(2z)
    # each has a preimage near +-5e-16 or +-3.5e-16, four distinct points
    # that an absolute tolerance below |z| = 1 merged into one atom
    level = backward_tree(general, ProjPointQ(10**30, 1), 3).levels[2]
    tiny = sorted((_complex(p).real, w)
                  for p, w in zip(level.points, level_weights(level))
                  if p[0] < math.log(1e-10))
    half_root2 = 2.5 * math.sqrt(2.0)
    assert [x * 1e16 for x, _ in tiny] == pytest.approx(
        [-5.0, -half_root2, half_root2, 5.0], rel=1e-9)
    assert [w for _, w in tiny] == [Fraction(1, 24), Fraction(1, 36),
                                    Fraction(1, 36), Fraction(1, 24)]
    assert sum(level_weights(level)) == 1


def _perturbed(point, eps):
    """The point z (1 + eps), in log-polar form."""
    c = 1.0 + eps
    return (point[0] + math.log(abs(c)),
            (point[1] + cmath.phase(c)) % (2.0 * math.pi))


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e4, 1e4), st.floats(0.0, 6.283185307179586),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@example(-711.0, 1.0, 0.5, 0.5)  # |z| below the subnormals
@example(1e4, 3.0, -0.9, 0.0)  # |z| far above float range
@example(0.0, 6.283185307179586, 0.0, 1.0)  # across the angle 0
@example(math.log(1e3), 0.0, 0.0, 100.0)  # 1e-6 apart at |z| = 1e3
def test_merge_cells_hold_every_close_pair(log_r, theta, dx, dy):
    # a point about a tolerance from z, relative to |z|, at every scale
    builder = _LevelBuilder()
    z = (log_r, theta % (2.0 * math.pi))
    w = _perturbed(z, DEFAULT_CLUSTER_TOL * complex(dx, dy))
    if builder._close(z, w):
        cell, block = builder._keys(*np.array([z, w]).T)
        assert cell[1] in block[0] and cell[0] in block[1]


def _numeric_level(points, numerators):
    """_LevelBuilder.build on numeric edges with these points, in order,
    edge k of parent k, whose numerator is numerators[k], under map 0."""
    log_r, theta = np.array(points, dtype=float).T
    edges = np.array([(k, 0, 1) for k in range(len(points))], dtype=np.int64)
    return _LevelBuilder().build(log_r, theta, {}, edges, numerators, [1],
                                 sum(numerators))


def test_tree_merges_relative_at_every_scale():
    for z in ((math.log(1e3), 0.0), (1e4, 1.0), (-1e4, 6.0)):
        level = _numeric_level([z, _perturbed(z, 5e-9j),
                                _perturbed(z, -2.0)], [1, 2, 1])
        assert level.numerators == [3, 1] and level.tolerance_merges == 1


def test_tree_keeps_distinct_exact_points_apart():
    # z^2 and ((10^9 + 1)^2 / 10^18) z^2 pull 1 back to +-1 and
    # +-10^9/(10^9 + 1), a relative 1e-9 apart, within the merge tolerance;
    # each carries its own exact identity, so none merges with another
    big = 10**9
    system = make_system([make_map([0, 0, 1], [1]),
                          make_map([0, 0, (big + 1)**2], [big**2])],
                         [Fraction(1, 2)] * 2)
    level = backward_tree(system, ONE, 1).levels[1]
    assert level.tolerance_merges == 0
    assert set(level.exact_points) == {
        ProjPointQ(1, 1), ProjPointQ(-1, 1), ProjPointQ(big, big + 1),
        ProjPointQ(-big, big + 1)}
    assert [Fraction(w, level.denominator) for w in level.numerators] == [
        Fraction(1, 4)] * 4


def test_csv_export(dyadic):
    batch = backward_sample(dyadic, ONE, 3, 10, seed=0)
    buf = io.StringIO()
    write_samples_csv(batch, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,re,im,log_abs,depth"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[4]) == 3


# ---------------------------------------------------------------------------
# oracles: the per-edge Fraction tree and the brute-force merge scan that
# backward_tree and _LevelBuilder replace


def _oracle_close(p1, p2, tol):
    """|z1 - z2| <= tol max(|z1|, |z2|) on complex numbers scaled by the
    larger modulus; infinity and 0 are close only to themselves."""
    if math.isinf(p1[0]) or math.isinf(p2[0]):
        return p1[0] == p2[0]
    top = max(p1[0], p2[0])
    z1, z2 = (cmath.rect(math.exp(r - top), t) for r, t in (p1, p2))
    return abs(z1 - z2) <= tol * max(abs(z1), abs(z2))


class _FractionLevelBuilder:
    """The per-edge Fraction level builder, except that a point scans every
    node for the earliest one within tol: its absolute 1e-8 buckets missed
    pairs within the relative tolerance above |z| = 1 (and overflowed above
    about 1.8e300), which _LevelBuilder's cells fix."""

    def __init__(self, tol):
        self.tol = tol
        self.points, self.exact, self.weights = [], [], []
        self.edges = []
        self.by_exact = {}
        self.tolerance_merges = 0

    def _find_mergeable(self, z, exact):
        if exact is not None and exact in self.by_exact:
            return self.by_exact[exact], False
        for j, (w, other) in enumerate(zip(self.points, self.exact)):
            if exact is not None and other is not None:
                continue
            if _oracle_close(z, w, self.tol):
                if exact is not None:
                    self.exact[j] = exact
                    self.by_exact[exact] = j
                return j, True
        return None, False

    def add(self, z, exact, weight, edge):
        idx, tolerance_driven = self._find_mergeable(z, exact)
        if idx is None:
            idx = len(self.points)
            self.points.append(z)
            self.exact.append(exact)
            self.weights.append(Fraction(0))
            self.edges.append([])
            if exact is not None:
                self.by_exact[exact] = idx
        elif tolerance_driven:
            self.tolerance_merges += 1
        self.weights[idx] += weight
        self.edges[idx].append(edge)


def fraction_tree(system, alpha, n, tol=DEFAULT_CLUSTER_TOL):
    """Levels as (points, exact, weights, edges, tolerance_merges), one
    Fraction per edge, one numeric_fiber call per numeric node and map, and
    each of its raw roots an edge of multiplicity 1."""
    levels = [([alpha.log_polar()], [alpha], [Fraction(1)], [[]], 0)]
    for _ in range(n):
        points, exacts, weights = levels[-1][:3]
        nxt = _FractionLevelBuilder(tol)
        for pidx, (z, exact, w) in enumerate(zip(points, exacts, weights)):
            for midx, (phi, prob) in enumerate(system):
                if exact is None:
                    log_w, arg_w = numeric_fiber(phi, [z[0]], [z[1]])
                    pre = [((r, t), None, 1)
                           for r, t in zip(log_w[0].tolist(),
                                           arg_w[0].tolist())]
                else:
                    pre = [((r, t), pt, m)
                           for r, t, pt, m in fiber(phi, exact)]
                for wpt, wexact, m in pre:
                    nxt.add(wpt, wexact, w * prob * Fraction(m, phi.d),
                            (pidx, midx, m))
        assert sum(nxt.weights) == 1
        levels.append((nxt.points, nxt.exact, nxt.weights, nxt.edges,
                       nxt.tolerance_merges))
    return levels


def fraction_certificate(system, levels):
    best = Fraction(0)
    for k3 in range(3, len(levels), 3):
        coef = {i: Fraction(1) for i in range(len(levels[k3 - 3][0]))}
        for lev in range(k3 - 2, k3 + 1):
            nxt = defaultdict(Fraction)
            for node_idx, edges in enumerate(levels[lev][3]):
                for pidx, midx, m in edges:
                    if pidx in coef:
                        nxt[node_idx] += (coef[pidx] * system.probs[midx]
                                          * Fraction(m, system.maps[midx].d))
            coef = nxt
        best = max(best, max(coef.values()))
    return best


_PROBS = {1: [(Fraction(1),)],
          2: [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 5), Fraction(4, 5))],
          3: [(Fraction(1, 3), Fraction(1, 5), Fraction(7, 15))]}


@st.composite
def tree_cases(draw):
    maps = draw(st.lists(small_maps().filter(lambda phi: phi.d <= 3),
                         min_size=1, max_size=3))
    probs = draw(st.sampled_from(_PROBS[len(maps)]))
    depth = draw(st.integers(0, 4))
    assume(sum(phi.d for phi in maps) ** depth <= 1500)
    return make_system(maps, list(probs)), draw(points()), depth


@settings(max_examples=60, deadline=None)
@given(tree_cases())
def test_tree_matches_fraction_oracle(case):
    system, alpha, depth = case
    tree = backward_tree(system, alpha, depth)
    oracle = fraction_tree(system, alpha, depth)
    assert tree.depth == depth
    for level, (points, exacts, weights, edges, merges) in zip(
            tree.levels, oracle):
        assert list(map(tuple, level.points.tolist())) == points
        assert level.exact_points == exacts
        assert level_weights(level) == weights
        assert sum(level.numerators) == level.denominator
        assert level.edges.tolist() == [list(e) for node in edges
                                        for e in node]
        assert np.diff(level.indptr).tolist() == list(map(len, edges))
        assert level.tolerance_merges == merges
    for k, (_, _, weights, *_) in enumerate(oracle):
        assert well_distributed_stat(tree, k) == sum(w * w for w in weights)
    if depth >= 3:
        assert sup_mass_decay(tree) == [(k, max(oracle[3 * k][2]))
                                        for k in range(depth // 3 + 1)]
    assert sup_mass_certificate(tree) == fraction_certificate(system, oracle)


def _fiber_rows():
    """numeric_fiber rows with exact and forced near-double roots and with
    roots at infinity and 0."""
    quartic = make_map([4, 0, -4, 0, 1], [1])  # (z^2 - 2)^2
    pole = make_map([1, 0, 1], [0, 1])  # (z^2 + 1)/z: 0 and inf over inf
    cubic = make_map([0, 0, 0, 1], [1, 0, 1])  # z^3/(z^2 + 1): inf over inf
    yield numeric_fiber(quartic, [-math.inf, 0.0, -30.0], [0.0, 1.0, 2.0])
    yield numeric_fiber(Z2, [-math.inf, math.inf, -1e-9], [0.0, 0.0, 3.0])
    yield numeric_fiber(pole, [math.inf, 0.0], [0.0, 0.5])
    yield numeric_fiber(cubic, [math.inf, 5.0, -5.0], [0.0, 0.3, 4.0])


def _greedy_nodes(points, tol):
    """(point, count) per node of a brute-force scan: each point joins the
    earliest node within tol of it, else opens one."""
    nodes = []
    for p in points:
        for node in nodes:
            if _oracle_close(p, node[0], tol):
                node[1] += 1
                break
        else:
            nodes.append([p, 1])
    return [tuple(node) for node in nodes]


def _built_nodes(points):
    """(point, count) per node of _LevelBuilder given the points in order."""
    level = _numeric_level(points, [1] * len(points))
    return list(zip(map(tuple, level.points.tolist()), level.numerators))


def test_level_builder_merges_fiber_rows():
    for tol in (DEFAULT_CLUSTER_TOL, 1e-6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbits, "DEFAULT_CLUSTER_TOL", tol)
            for log_w, arg_w in _fiber_rows():
                for r, t in zip(log_w.tolist(), arg_w.tolist()):
                    points = list(zip(r, t))
                    assert _built_nodes(points) == _greedy_nodes(points, tol)
    # the eigenvalues of the double roots +-sqrt 2 of (z^2 - 2)^2 over 0
    # split by about 3e-8 relative, so 1e-6 joins them and 1e-8 does not
    log_w, arg_w = numeric_fiber(make_map([4, 0, -4, 0, 1], [1]),
                                 [-math.inf], [0.0])
    points = list(zip(log_w[0].tolist(), arg_w[0].tolist()))
    assert len(_built_nodes(points)) == 4
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "DEFAULT_CLUSTER_TOL", 1e-6)
        nodes = _built_nodes(points)
    assert [m for _, m in nodes] == [2, 2]
    assert sorted(_complex(p).real for p, _ in nodes) == pytest.approx(
        [-math.sqrt(2.0), math.sqrt(2.0)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 6.28),
                          st.integers(0, 9), st.floats(-3e-8, 3e-8)),
                min_size=2, max_size=6),
       st.sampled_from([1e-8, 1e-3]), st.sampled_from([0, 1, -1]))
def test_level_builder_greedy_rule(roots, tol, far):
    # points that are near copies of earlier ones (about a tolerance
    # apart), zeros and infinities, in two orders; with far = +-1 the
    # points lie within 5 cells of the clip of the cell rows
    log_cell = -3.0 * math.log1p(-tol)
    points = []
    for k, (r, t, pick, shift) in enumerate(roots):
        if far:
            r = far * orbits._ROW_CLIP * log_cell + r * log_cell
        if pick >= 8:
            r, t = (math.inf if pick == 9 else -math.inf), 0.0
        elif k and pick < 5 and math.isfinite(points[pick % k][0]):
            r0, t0 = points[pick % k]
            r, t = r0 + shift, (t0 - shift) % (2.0 * math.pi)
        points.append((r, t))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "DEFAULT_CLUSTER_TOL", tol)
        for order in (points, points[::-1]):
            assert _built_nodes(order) == _greedy_nodes(order, tol)


def test_contact_in_either_direction():
    # in log|z| cell units: 0.9 has the block rows {0, 1} and 1.6 the rows
    # {1, 2}, so the cell of 1.6 is in the block of 0.9 but not the other
    # way; both take the scalar rule.  2.6 meets neither
    builder = _LevelBuilder()
    for x, want in (((0.9, 1.6), [True, True]), ((0.9, 2.6), [False, False]),
                    ((0.9, 0.95), [True, True])):
        log_r = np.array(x) * builder.log_cell
        keys = builder._keys(log_r, np.full(2, 1.0))
        assert builder._in_contact(*keys).tolist() == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.floats(-3.0, 3.0),
                          st.floats(0.0, 6.28), st.floats(-2.0, 2.0),
                          st.sampled_from([0, 0, 1, -1, 2, -2])),
                min_size=1, max_size=60),
       st.sampled_from([1e-8, 1e-3]))
def test_level_build_matches_scalar_rule(draws, tol):
    # build takes whole arrays; with every edge in contact, so that all go
    # through add one by one, it must give the same level: clusters about
    # a tolerance wide, lone points, 0, infinity and exact identities, some
    # shared, and rows past the clip of the cell rows (far = +-2) or within
    # a few cells of it (far = +-1)
    exacts = [ProjPointQ(k, 1) for k in range(3)]
    log_cell = -3.0 * math.log1p(-tol)
    clip = orbits._ROW_CLIP * log_cell
    points, exact = [], {}
    for k, (kind, r, t, shift, far) in enumerate(draws):
        r = far * clip + r * (4.0 * log_cell if abs(far) == 1 else 1.0)
        if kind == 0:
            r, t = math.inf, 0.0
        elif kind == 1:
            r, t = -math.inf, 0.0
        elif kind < 7 and k and math.isfinite(points[kind % k][0]):
            r0, t0 = points[kind % k]
            r, t = r0 + shift * tol, (t0 - shift * tol) % (2.0 * math.pi)
        if kind >= 9:
            exact[k] = exacts[kind - 9]
        points.append((r, t))
    nums = list(range(1, len(points) + 1))
    edges = np.array([(k, k % 2, 1) for k in range(len(points))])
    log_r, theta = np.array(points).T
    levels = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "DEFAULT_CLUSTER_TOL", tol)
        for all_scalar in (False, True):
            if all_scalar:
                patch.setattr(_LevelBuilder, "_in_contact",
                              lambda self, cell, block: np.ones(len(cell),
                                                                dtype=bool))
            levels.append(_LevelBuilder().build(log_r, theta, exact, edges,
                                                nums, [1, 1], sum(nums)))
    got, scalar = levels
    assert got.points.tobytes() == scalar.points.tobytes()
    assert got.exact_points == scalar.exact_points
    assert got.numerators == scalar.numerators
    assert got.edges.tolist() == scalar.edges.tolist()
    assert got.indptr.tolist() == scalar.indptr.tolist()
    assert got.tolerance_merges == scalar.tolerance_merges
