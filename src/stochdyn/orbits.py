"""Random backwards-orbit measures: exact trees, samplers, mass statistics.

The level-n measure pulls the start point back through every length-n word,
weighting each preimage by (word probability) * multiplicity / degree.  The
tree keeps its weights exact and fraction-free: with L the lcm over the
maps of den(p_i) * deg(phi_i), every level-k weight is a Python int over
the one denominator L^k, a child's numerator is its parent's times
p_i * m * L / deg(phi_i), and the statistics read the numerators, building
one Fraction per returned value.  Every point, in the tree and in the
walker, is a pair (log|z|, arg z), which holds moduli far outside float
range; tree nodes add an exact projective identity whenever the preimage
is rational.  Fibers of rational points are exact and come in the same
form (dynsys.fiber), so no rational preimage loses its identity.  Fibers
of numeric points come from one kernel, numeric_fiber (exactnum.poly_roots
on ifs.ROW_BLOCK points at a time): the tree asks it for every root, the
walker for the one root each point drew.  The tree merges numerically
coincident points by one rule, relative at every scale, and refuses a
merge when the two carry distinct exact identities; any merge involving a
point without an exact identity is counted as tolerance-driven so callers
can see when output atoms rest on a numeric coincidence.  A level holds
its nodes as arrays, point rows and (parent, map, mult) edge rows grouped
by node, beside lists of numerators and exact identities.  It is built
from arrays of all of its edges: a numeric edge that no other edge can
meet under the merge rule opens its own node at once, and only the other
edges take the rule one by one, so the levels are those of the
edge-by-edge rule.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dynsys import RationalMapQ, StochasticSystem, fiber
from .exactnum import (ProjPointQ, StochdynError, pair_log_polar, poly_roots,
                       wrap_angle)
from .forks import split_walk
from .ifs import ROW_BLOCK, affine_ifs, map_sampler, write_csv_blocks

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_CLUSTER_TOL = 1e-8
# past this |log|z||, a max-norm lift coordinate is below the smallest
# normal float
_LOG_TINY = -math.log(sys.float_info.min)


class NodeBudgetExceeded(StochdynError):
    """Backward tree would exceed the configured node budget."""


# ---------------------------------------------------------------------------
# preimages


def numeric_fiber(phi: RationalMapQ, log_r, theta, pick=None) -> tuple:
    """Fibers under phi of the numeric points (log|z|, arg z), as
    (log|w|, arg w) arrays of shape (points, d) with arg w in [0, 2 pi):
    row k lists each preimage of point k as often as its multiplicity,
    infinity as log|w| = +inf and 0 as log|w| = -inf.  Given pick, one
    column index per point, the arrays have shape (points,) and hold
    entry pick[k] of row k alone, bit for bit.

    No point is formed as a complex number: the fiber form H = v F - u G
    of its max-norm lift (u, v), (e^{i theta}, e^{-log r}) when log r > 0,
    (e^{log r + i theta}, 1) otherwise and (1, 0) at infinity, is solved
    in the chart of its larger end coefficient, w or t = 1/w, by
    exactnum.poly_roots (ConvergenceFailure where a root, with pick the
    picked one, fails its backward-error test).  An exact zero end
    coefficient gives an exact zero root, so infinity is a preimage
    exactly when t = 0 is.  A finite point with |log r| above _LOG_TINY
    raises OverflowError: its lift would underflow.

    The points are solved ROW_BLOCK at a time, each block by the
    operations a call on it alone would take, holding per block row, in
    floats of 8 bytes, for degree d, chart degree k <= 3 and pick: the
    outputs (2); one buffer for the lift and H (2(d + 3)); the rows'
    chart, lead and picks (3); poly_roots' split coefficients (3(k + 1))
    and monic ratios (3k); _cubic's e and balanced coefficients (1 + 2k);
    at most 8 complex arrays of _cardano or _newton and the latter's k - 1
    derivative coefficients (2k + 14): 10k + 2d + 29, 65 on a cubic."""
    log_r = np.asarray(log_r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(np.isfinite(log_r) & (np.abs(log_r) > _LOG_TINY)):
        raise OverflowError(f"a point with |log|z|| above {_LOG_TINY:.1f} "
                            "has a max-norm lift below float range")
    shape = (len(log_r), phi.d) if pick is None else (len(log_r),)
    log_w, arg_w = np.full(shape, math.inf), np.zeros(shape)
    # a block's lift (u, v) and fiber form h, allocated once
    lift = np.empty((phi.d + 3, min(len(log_r), ROW_BLOCK)), dtype=complex)
    for lo in range(0, len(log_r), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        _fiber_rows(phi, log_r[rows], theta[rows], log_w[rows], arg_w[rows],
                    None if pick is None else pick[rows], lift)
    return log_w, arg_w


def _fiber_rows(phi: RationalMapQ, log_r, theta, log_w, arg_w, pick,
                lift) -> None:
    """numeric_fiber on one block of points, each row by itself, written
    into the block's output rows log_w (+inf on entry) and arg_w (0), with
    u, v and h in the rows of the buffer lift."""
    fc, gc, _ = phi.float_forms
    d, n = phi.d, len(log_r)
    u, v, h = lift[0, :n], lift[1, :n].real, lift[2:, :n]
    # u = e^(min(log r, 0) + i theta); theta + 0 makes a -0 angle +0
    np.minimum(log_r, 0.0, out=u.real)
    np.add(theta, 0.0, out=u.imag)
    np.exp(u, out=u)
    u[log_r == math.inf] = 1.0
    np.exp(-np.maximum(log_r, 0.0), out=v)
    for i in range(d + 1):  # h[i] = v F_i - u G_i, of X^(d-i) Y^i
        np.multiply(v, fc[i], out=h[i])
        if gc[i]:
            h[i] -= u * gc[i]
    # descending in the chart of the larger end coefficient
    t_chart = np.flatnonzero(np.abs(h[0]) < np.abs(h[d]))
    h[:, t_chart] = h[::-1, t_chart]
    # a leading zero in the chart means both ends of H vanish, so 0 and
    # infinity are both preimages; it counts as a root at the chart's infinity
    lead, ends = np.zeros(n, dtype=int), np.flatnonzero(h[0] == 0)
    nonzero = h[:, ends] != 0
    assert np.all(nonzero.any(axis=0))
    lead[ends] = np.argmax(nonzero, axis=0)
    for m in np.flatnonzero(np.bincount(lead)):
        rows = lead == m
        if pick is not None:
            # a pick among the m roots at the chart's infinity keeps +inf
            rows &= pick >= m
        if not rows.any():
            continue
        rows = slice(None) if rows.all() else rows
        if pick is None:
            log_w[rows, m:], arg_w[rows, m:] = pair_log_polar(
                *poly_roots(h[m:, rows].T, 0, phi))
        else:
            log_w[rows], arg_w[rows] = pair_log_polar(
                *poly_roots(h[m:, rows].T, 0, phi, pick[rows] - m))
    # in the t chart, log|w| = -log|t| and arg w = -arg t
    log_w[t_chart] *= -1.0
    arg_w[t_chart] *= -1.0
    arg_w[...] = wrap_angle(arg_w)
    arg_w[np.isinf(log_w)] = 0.0


# ---------------------------------------------------------------------------
# exact backward trees


@dataclass
class TreeLevel:
    points: np.ndarray  # (nodes, 2) rows (log|z|, arg z); inf, 0: (+-inf, 0)
    exact_points: list  # ProjPointQ or None, per node
    numerators: list  # int: weight k is numerators[k] / denominator
    denominator: int  # L^level, L from _edge_units
    edges: np.ndarray  # (edges, 3) int64 rows (parent_idx, map_idx, mult)
    indptr: np.ndarray  # node k's edges are rows indptr[k]:indptr[k + 1]
    tolerance_merges: int


@dataclass
class MeasureTree:
    system: StochasticSystem
    alpha: ProjPointQ
    levels: list

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _edge_units(system: StochasticSystem) -> tuple:
    """(L, units): L is the lcm of den(p_i) * deg(phi_i) over the maps, and
    an edge of multiplicity m under map i carries units[i] * m / L of its
    parent's weight, which is p_i * m / deg(phi_i)."""
    lcm = math.lcm(*(p.denominator * phi.d for phi, p in system))
    return lcm, [p.numerator * (lcm // (p.denominator * phi.d))
                 for phi, p in system]


def _edge_sums(values, units, edges, indptr) -> np.ndarray:
    """Per node, the sum over its edge rows (p, i, m) of
    values[p] * units[i] * m, in Python ints (an object array)."""
    parent, map_idx, mult = edges.T
    terms = (np.asarray(values, dtype=object)[parent]
             * np.asarray(units, dtype=object)[map_idx] * mult.astype(object))
    return np.add.reduceat(terms, indptr[:-1])


# cell rows past this are clipped in the keys, which keeps them in int64 and
# can only add candidates
_ROW_CLIP = float(2**34)


class _LevelBuilder:
    """One level of the tree, built from all of its edges at once.  An edge
    joins the node of its exact identity, else the earliest node it is
    _close to whose exact identity does not differ from its own, else it
    opens a node; nodes are numbered in the order the edges open them.

    Nodes are filed under cells of (log|z|, arg z) three times as wide as
    the largest gap _close accepts, -log(1 - tol) in log|z| and asin(tol)
    in angle, so the 2 x 2 block of cells nearest a point holds every node
    _close to it; infinity and 0 have a cell each.  _keys gives every edge
    its cell and block at once.  A numeric edge whose block holds no other
    edge's cell, and whose cell is in no other edge's block, can neither
    join a node nor be joined: it opens its own node with no scan.  Every
    other edge (exact, at 0 or infinity, or in contact) goes through add,
    the scalar rule, in edge order; the nodes it meets are only those of
    such edges.  add only names each edge's node, and build then gives all
    nodes their points, numerators and edge rows in one step."""

    def __init__(self):
        self.tol = DEFAULT_CLUSTER_TOL
        self.log_cell = -3.0 * math.log1p(-self.tol)
        self.arg_cells = int(2.0 * math.pi / (3.0 * math.asin(self.tol)))
        # the nodes of the scalar rule, with the edge that opened each
        self.points = []
        self.exact = []
        self.openers = []
        self.by_exact = {}
        self.cells = defaultdict(list)
        self.tolerance_merges = 0

    def _keys(self, log_r, theta):
        """Per point, its cell and the block of cells nearest it, its own
        and the next one toward its nearer edge in each coordinate, as
        int64 keys.  A cell (r, a) is the key r * arg_cells + a, with r
        clipped to +-_ROW_CLIP: clipped points share rows, so no contact is
        lost.  Infinity and 0 take the largest and the smallest key, which
        is also their whole block."""
        n = self.arg_cells
        x = np.clip(log_r / self.log_cell, -_ROW_CLIP, _ROW_CLIP)
        y = theta / (2.0 * math.pi) * n
        r, a = np.floor(x), np.floor(y)
        r2 = np.where(x - r >= 0.5, r + 1, r - 1).astype(np.int64) * n
        a2 = np.where(y - a >= 0.5, a + 1, a - 1).astype(np.int64) % n
        r, a = r.astype(np.int64) * n, a.astype(np.int64) % n
        block = np.stack((r + a, r + a2, r2 + a, r2 + a2), axis=1)
        ends = np.isinf(log_r)
        block[ends] = np.where(log_r[ends] > 0, 2**63 - 1, -2**63)[:, None]
        return block[:, 0], block

    def _close(self, p1, p2):
        """|z1 - z2| <= tol max(|z1|, |z2|), relative at every scale (an
        absolute floor would merge distinct tiny preimages, even of opposite
        signs).  Divided by the larger modulus, with rho <= 1 the ratio of
        the moduli and delta the angle between the points, the left side is
        the hypotenuse of 1 - rho and 2 sqrt(rho) sin(delta / 2)."""
        gap = -abs(p1[0] - p2[0])
        s = math.sin((p1[1] - p2[1]) / 2.0)
        return math.hypot(math.expm1(gap),
                          2.0 * math.exp(gap / 2.0) * s) <= self.tol

    def _in_contact(self, cell, block):
        """Per edge, whether another edge's cell is in its block or its
        cell is in another edge's block; infinity and 0, whose block is
        their own cell, always are."""
        keys, at, counts = np.unique(cell, return_inverse=True,
                                     return_counts=True)
        contact = counts[at] > 1
        in_block = np.zeros(len(keys), dtype=bool)
        for other in block[:, 1:].T:
            pos = np.minimum(np.searchsorted(keys, other), len(keys) - 1)
            hit = keys[pos] == other
            contact |= hit
            in_block[pos[hit]] = True
        return contact | in_block[at]

    def add(self, opener, point, exact, cell, block) -> int:
        """The scalar rule for edge number opener: the number of the scalar
        node it joins."""
        idx = self.by_exact.get(exact) if exact is not None else None
        if idx is None:
            idx = self._find_mergeable(point, exact, block)
        if idx is None:
            idx = len(self.points)
            self.points.append(point)
            self.exact.append(exact)
            self.openers.append(opener)
            self.cells[cell].append(idx)
            if exact is not None:
                self.by_exact[exact] = idx
        return idx

    def _find_mergeable(self, point, exact, block):
        """The earliest node the point may join by tolerance, or None."""
        # every node in the cell of infinity or of 0 is the point itself
        equal = math.isinf(point[0])
        found = None
        for cell in block:
            for j in self.cells.get(cell, ()):
                if found is not None and j >= found:
                    break
                if exact is not None and self.exact[j] is not None:
                    continue  # distinct exact identities: refuse the merge
                if equal or self._close(point, self.points[j]):
                    found = j
        if found is not None:
            if exact is not None:
                # promote the numeric node to the exact identity
                self.exact[found] = exact
                self.by_exact[exact] = found
            self.tolerance_merges += 1
        return found

    def build(self, log_r, theta, exact, edges, numerators, units,
              denominator, spent=0) -> TreeLevel:
        """The level of the given edges, in order: their points as arrays
        of log|z| and arg z, the exact identities {edge: ProjPointQ} of
        those that have one, and their int64 rows (parent_idx, map_idx,
        mult); edge (p, i, m) carries numerators[p] * units[i] * m.  Once
        the node count is known, before the level is assembled, it raises
        NodeBudgetExceeded if that count and spent exceed the budget."""
        cell, block = self._keys(log_r, theta)
        scalar = self._in_contact(cell, block)
        scalar[list(exact)] = True
        at = np.flatnonzero(scalar)
        joined = [self.add(*args) for args in zip(
            at.tolist(), zip(log_r[at].tolist(), theta[at].tolist()),
            map(exact.get, at.tolist()), cell[at].tolist(),
            block[at].tolist())]
        opens = ~scalar
        opens[self.openers] = True
        order = np.flatnonzero(opens)
        if spent + len(order) > DEFAULT_NODE_BUDGET:
            raise NodeBudgetExceeded(f"{spent + len(order)} nodes exceeds "
                                     f"budget {DEFAULT_NODE_BUDGET}")
        node = np.cumsum(opens) - 1
        first = node[np.array(self.openers, dtype=np.int64)]
        node[at] = first[np.array(joined, dtype=np.int64)]
        node_exact = [None] * len(order)
        for j, k in enumerate(first.tolist()):
            node_exact[k] = self.exact[j]
        by_node = np.argsort(node, kind="stable")
        indptr = np.searchsorted(node[by_node], np.arange(len(order) + 1))
        edges = edges[by_node]
        nums = _edge_sums(numerators, units, edges, indptr).tolist()
        assert sum(nums) == denominator
        return TreeLevel(np.column_stack((log_r[order], theta[order])),
                         node_exact, nums, denominator, edges, indptr,
                         self.tolerance_merges)


def _level_edges(system: StochasticSystem, level: TreeLevel) -> tuple:
    """The edges below a level, by parent, then map, then preimage, as
    _LevelBuilder.build takes them.  Numeric parents take one numeric_fiber
    call per map, each raw root an edge of multiplicity 1; exact parents
    take dynsys.fiber."""
    maps = system.maps
    degs = [phi.d for phi in maps]
    rows = {k: [(r, t, pt, m, i) for i, phi in enumerate(maps)
                for r, t, pt, m in fiber(phi, e)]
            for k, e in enumerate(level.exact_points) if e is not None}
    sizes = np.full(len(level.points), sum(degs))
    sizes[list(rows)] = [len(row) for row in rows.values()]
    numeric = np.ones(len(sizes), dtype=bool)
    numeric[list(rows)] = False
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    log_w, arg_w = np.empty(total), np.empty(total)
    edges = np.ones((total, 3), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(len(sizes)), sizes)
    if numeric.any():
        log_r, theta = level.points[numeric].T
        solved = [numeric_fiber(phi, log_r, theta) for phi in maps]
        at = starts[numeric][:, None] + np.arange(sum(degs))
        log_w[at] = np.hstack([w for w, _ in solved])
        arg_w[at] = np.hstack([t for _, t in solved])
        edges[at, 1] = np.repeat(np.arange(len(maps)), degs)
    exact = {}
    for k, row in rows.items():
        for j, (r, t, pt, m, i) in enumerate(row, int(starts[k])):
            log_w[j], arg_w[j], edges[j, 1:] = r, t, (i, m)
            if pt is not None:
                exact[j] = pt
    return log_w, arg_w, exact, edges


def backward_tree(system: StochasticSystem, alpha: ProjPointQ,
                  n: int) -> MeasureTree:
    """Exact level measures down to depth n, each weight an integer over
    the level's denominator, with at most DEFAULT_NODE_BUDGET nodes in
    all."""
    if n < 0:
        raise ValueError("need n >= 0")
    lcm, units = _edge_units(system)
    levels = [TreeLevel(np.array([alpha.log_polar()]), [alpha], [1], 1,
                        np.zeros((0, 3), np.int64), np.zeros(2, np.int64), 0)]
    total_nodes = 1
    for _ in range(n):
        cur = levels[-1]
        levels.append(_LevelBuilder().build(
            *_level_edges(system, cur), cur.numerators, units,
            cur.denominator * lcm, total_nodes))
        total_nodes += len(levels[-1].points)
    return MeasureTree(system, alpha, levels)


def well_distributed_stat(tree: MeasureTree, k: int) -> Fraction:
    """Exact sum of squared atom weights at level k."""
    level = tree.levels[k]
    return Fraction(sum(w * w for w in level.numerators),
                    level.denominator**2)


def sup_mass_decay(tree: MeasureTree):
    """[(k, sup weight at level 3k)] for every full triple of levels."""
    if tree.depth < 3:
        raise ValueError("need depth >= 3")
    return [
        (k, Fraction(max(level.numerators), level.denominator))
        for k, level in enumerate(tree.levels[::3])
    ]


def sup_mass_certificate(tree: MeasureTree) -> Fraction:
    """Exact M with sup-mass(3k) <= M * sup-mass(3(k-1)) on this tree.

    For each node at a level 3k, sum nu * mult / deg over all 3-step
    incoming paths; the maximum over nodes and windows bounds every
    observed ratio.  The sums are kept as integers over L^3.
    """
    lcm, units = _edge_units(tree.system)
    best = 0
    for k3 in range(3, tree.depth + 1, 3):
        coef = np.ones(len(tree.levels[k3 - 3].points), dtype=object)
        for level in tree.levels[k3 - 2:k3 + 1]:
            coef = _edge_sums(coef, units, level.edges, level.indptr)
        best = max(best, coef.max())
    return Fraction(best, lcm**3)


# ---------------------------------------------------------------------------
# path sampling


@dataclass(frozen=True)
class OrbitSampleBatch:
    log_abs: np.ndarray
    angle: np.ndarray
    depth: int
    seed: int
    samples: int

    @property
    def points(self) -> np.ndarray:
        return _points(self.log_abs, self.angle)


def _points(log_abs, angle):
    """Complex numbers of (log|z|, arg z) arrays.  A point above float
    range, infinity (log|z| = +inf) among them, has signed infinite
    coordinates, or 0.0 where the cosine or sine of its angle is exactly 0,
    where the product e^{log|z|} e^{i arg z} would give nan."""
    with np.errstate(over="ignore"):
        r = np.exp(log_abs)
    u = np.exp(1j * angle)
    with np.errstate(invalid="ignore"):
        z = r * u
    big = np.isinf(r)
    for part, c in ((z.real, u.real[big]), (z.imag, u.imag[big])):
        part[big] = np.where(c == 0.0, 0.0, np.copysign(math.inf, c))
    return z


def backward_walk(system: StochasticSystem, log_r: np.ndarray,
                  theta: np.ndarray, start: Optional[ProjPointQ], steps: int,
                  rng: np.random.Generator):
    """Walks each point (log_r[k], theta[k]) `steps` levels backward and
    returns the end points as (log_r, theta), theta in [0, 2 pi).

    Each step makes one draw for all points: a map index by probability
    through ifs.map_sampler, then u from rng.random, and a point whose map
    has degree d takes preimage number floor(u d) of its fiber, in which a
    preimage of multiplicity m appears m times, so it is drawn with chance
    m/d.  Magnitudes are tracked as logs, so deep walks neither underflow
    nor overflow.  Systems whose maps are all of monomial shape step the
    radius through their affine IFS and the angle alongside it.  Other
    systems take fibers: start, when given, is the common start as an
    exact point, and while a path stays rational its fibers are the cached
    exact ones of dynsys.fiber, taken once per (map, point) in a step;
    numeric points take numeric_fiber's pick, one call per map and step,
    so a step raises ConvergenceFailure only when a drawn root fails its
    backward-error test.  The rows go through forks.split_walk as an "ifs" or a "fiber"
    walk, so a large walk walks its second half of rows in a forked child,
    bit for bit as in one process.
    """
    count = len(log_r)
    draw = map_sampler(system.probs)
    ifs = affine_ifs(system)
    if ifs is not None:
        arg_a = np.array([0.0 if phi.monomial_profile.coeff > 0 else math.pi
                          for phi in system.maps])
        _, degs, inverted = ifs.arrays
        sign = np.where(inverted, -1.0, 1.0)
        # sign and shift are exact no-ops, -0 too, for positive uninverted maps
        turn = bool(np.any(inverted) or np.any(arg_a))
    else:
        degs = np.array([float(phi.d) for phi in system.maps])

    def walk(rows, draws):
        log_r, theta = rows
        rows.clear()  # so that the start arrays go as the walk moves on
        if ifs is None:
            # code c >= 0: the path is still at the exact point exact[c]
            exact = [] if start is None else [start]
            codes = np.full(len(log_r), -1 if start is None else 0)
        for _ in range(steps):
            idx = draw(draws, count)
            d = degs[idx]
            j = np.floor(draws.random(count) * d)
            if ifs is not None:
                log_r = ifs.step(log_r, idx, d)
                if turn:
                    theta = sign[idx] * (theta - arg_a[idx])
                theta = theta / d + 2.0 * np.pi * j / d
                out = np.flatnonzero((theta <= 0.0) | (theta >= 2.0 * np.pi))
                theta[out] = wrap_angle(theta[out])  # -0 turns into +0
            else:
                j = j.astype(int)  # frees the float draws
                del d  # and the degrees, over the fiber step
                log_r, theta = _fiber_step(system, log_r, theta, codes,
                                           exact, idx, j)
        return log_r, theta

    rows = [log_r, theta]
    del log_r, theta  # walk alone holds them
    return split_walk(walk, rows, steps, "fiber" if ifs is None else "ifs",
                      rng)


def _fiber_step(system, log_r, theta, codes, exact, idx, j):
    """One step of the fiber walk: point k moves to entry j[k] of its fiber
    under map idx[k], which lists each preimage once per unit of
    multiplicity.  Points at exact[c] (codes c >= 0) take the exact fiber,
    once per (map, point); new rational points are appended to exact, and
    codes is rewritten in place (a numeric point stays numeric, at -1).
    Numeric points take their entry alone from numeric_fiber's pick."""
    nmaps = len(system.maps)
    new_r, new_t = np.empty_like(log_r), np.empty_like(theta)
    on_exact = codes >= 0
    members = np.flatnonzero(on_exact)
    keys = codes[members] * nmaps + idx[members]
    code_of = {pt: c for c, pt in enumerate(exact)}
    for key in np.flatnonzero(np.bincount(keys)):
        c, i = divmod(int(key), nmaps)
        entries = []
        for r, t, pt, m in fiber(system.maps[i], exact[c]):
            if pt is not None and pt not in code_of:
                code_of[pt] = len(exact)
                exact.append(pt)
            entries += [(r, t, -1 if pt is None else code_of[pt])] * m
        r, t, cd = (np.array(col) for col in zip(*entries))
        sel = members[keys == key]
        new_r[sel], new_t[sel], codes[sel] = r[j[sel]], t[j[sel]], cd[j[sel]]
    for i, phi in enumerate(system.maps):
        sel = np.flatnonzero(~on_exact & (idx == i))
        if len(sel):
            new_r[sel], new_t[sel] = numeric_fiber(phi, log_r[sel],
                                                   theta[sel], j[sel])
    return new_r, new_t


def backward_sample(system: StochasticSystem, alpha: ProjPointQ, n: int,
                    samples: int, seed: int) -> OrbitSampleBatch:
    """i.i.d. draws from the level-n measure, by backward_walk from alpha."""
    if n < 0 or samples < 1:
        raise ValueError("need n >= 0 and samples >= 1")
    rng = np.random.default_rng(seed)
    log_r0, theta0 = alpha.log_polar()
    log_r, theta = backward_walk(system, np.full(samples, log_r0),
                                 np.full(samples, theta0), alpha, n, rng)
    return OrbitSampleBatch(log_r, theta, n, seed, samples)


def write_samples_csv(batch: OrbitSampleBatch, fileobj):
    """Sample CSV, columns index, re, im, log_abs, depth (write_csv_blocks)."""

    def columns(lo, hi):
        log_abs = batch.log_abs[lo:hi]
        pts = _points(log_abs, batch.angle[lo:hi])
        return [range(lo, hi), pts.real.tolist(), pts.imag.tolist(),
                log_abs.tolist()]

    write_csv_blocks(fileobj, "index,re,im,log_abs,depth",
                     f"%d,%r,%r,%r,{batch.depth}\r\n", batch.samples, columns)
