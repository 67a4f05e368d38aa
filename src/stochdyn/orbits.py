"""Random backwards-orbit measures: exact trees, samplers, mass statistics.

The level-n measure pulls the start point back through every length-n word,
weighting each preimage by (word probability) * multiplicity / degree.  The
tree keeps weights as exact rationals; support points carry a complex
embedding always, plus an exact projective identity whenever the preimage
is rational.  Fibers of rational points are exact (dynsys.fiber), so no
rational preimage loses its identity.  Fibers of numeric points come from
one batched kernel, numeric_fiber, which takes points as (log|z|, arg z)
and solves every point's fiber under one map with a single stacked
companion-matrix eigenvalue call; the tree calls it once per level and
map, the walker once per step and map.  Merging of numerically
coincident support points is refused when the two carry distinct exact
identities, and any merge involving a point without an exact identity is
counted as tolerance-driven so callers can see when output atoms rest on
a numeric coincidence.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .dynsys import RationalMapQ, StochasticSystem, fiber
from .exactnum import (
    ConvergenceFailure,
    ProjPointQ,
    StochdynError,
    log_abs_fraction,
)
from .heights import DiscreteMeasure, make_measure
from .ifs import CSV_BLOCK, affine_ifs

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_CLUSTER_TOL = 1e-8


class NodeBudgetExceeded(StochdynError):
    """Backward tree would exceed the configured node budget."""


# ---------------------------------------------------------------------------
# preimages


def _cluster_roots(roots, tol):
    """Union nearby numeric roots into (representative, count) groups."""
    roots = list(roots)
    groups = []
    for r in roots:
        for g in groups:
            if abs(r - g[0]) <= tol * max(1.0, abs(r), abs(g[0])):
                g[1] += 1
                break
        else:
            groups.append([r, 1])
    return [(g[0], g[1]) for g in groups]


def _wrap(theta):
    """Angles mod 2 pi in [0, 2 pi): np.mod rounds a tiny negative angle
    up to 2 pi itself, which is the angle 0."""
    theta = np.mod(theta, 2.0 * np.pi)
    return np.where(theta >= 2.0 * np.pi, 0.0, theta)


def _log_polar(z):
    """(log|z|, arg z) arrays of complex numbers, infinity as (+inf, 0)."""
    z = np.asarray(z, dtype=complex)
    inf = np.isinf(z)
    with np.errstate(divide="ignore"):
        log_r = np.where(inf, math.inf, np.log(np.abs(z)))
    return log_r, _wrap(np.where(inf, 0.0, np.angle(z)))


def _complex(log_r, theta):
    """Complex numbers of finite or zero (log|z|, arg z)."""
    return np.exp(log_r) * np.exp(1j * theta)


def numeric_fiber(phi: RationalMapQ, log_r, theta) -> tuple:
    """Fibers under phi of the numeric points (log|z|, arg z), as
    (log|w|, arg w) arrays of shape (points, d) with arg w in [0, 2 pi):
    row k lists each preimage of point k as often as its multiplicity,
    infinity as log|w| = +inf and 0 as log|w| = -inf.

    No point is formed as a complex number.  Its max-norm lift is
    (e^{i theta}, e^{-log r}) when log r > 0, (e^{log r + i theta}, 1)
    otherwise and (1, 0) at infinity.  The fiber form H = v F - u G of
    each lift is solved in the chart of its larger end coefficient, w or
    t = 1/w, through the eigenvalues of its companion matrix
    (Edelman-Murakami, Math. Comp. 1995), all points in one stacked
    np.linalg.eigvals call.  An exact zero end coefficient gives an exact
    zero eigenvalue, so infinity is a preimage exactly when t = 0 is.
    """
    log_r = np.asarray(log_r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    fc, gc, _ = phi.float_forms
    d = phi.d
    u = np.exp(np.minimum(log_r, 0.0) + 1j * theta)
    u = np.where(np.isposinf(log_r), 1.0, u)
    v = np.exp(-np.maximum(log_r, 0.0))
    h = v[:, None] * np.array(fc) - u[:, None] * np.array(gc)  # X^(d-i) Y^i
    scale = np.max(np.abs(h), axis=1)
    assert np.all(scale > 0.0)
    w_chart = np.abs(h[:, 0]) >= np.abs(h[:, d])
    poly = np.where(w_chart[:, None], h, h[:, ::-1])  # descending in the chart
    roots = np.empty((len(h), d), dtype=complex)
    # a leading zero in the chart means both ends of H vanish, so 0 and
    # infinity are both preimages; it counts as a root at the chart's infinity
    lead = np.argmax(poly != 0, axis=1)
    for m in np.flatnonzero(np.bincount(lead)):
        rows = lead == m
        body = poly[rows, m:]
        k = d - m
        comp = np.zeros((len(body), k, k), dtype=complex)
        comp[:, 0, :] = -body[:, 1:] / body[:, :1]
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        r = np.linalg.eigvals(comp)
        resid = body[:, :1]
        for c in body[:, 1:].T:
            resid = resid * r + c[:, None]
        bound = 1e-6 * scale[rows, None] * np.maximum(1.0, np.abs(r))**(k + 1)
        if np.any(np.abs(resid) > bound):
            raise ConvergenceFailure(f"fiber roots of {phi} did not converge")
        roots[rows, :m] = math.inf
        roots[rows, m:] = r
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(roots))
    # in the t chart, log|w| = -log|t| and arg w = -arg t
    sign = np.where(w_chart, 1.0, -1.0)[:, None]
    log_w = sign * log_w
    arg_w = _wrap(sign * np.angle(roots))
    return log_w, np.where(np.isinf(log_w), 0.0, arg_w)


def _clustered(log_w, arg_w, tol):
    """(complex, mult) pairs of one numeric fiber: infinity first, then the
    finite roots clustered within tol."""
    inf = np.isposinf(log_w)
    out = [(complex(math.inf, 0.0), int(inf.sum()))] if inf.any() else []
    return out + _cluster_roots(_complex(log_w[~inf], arg_w[~inf]), tol)


def preimages(phi: RationalMapQ, z: Union[ProjPointQ, complex]):
    """Preimages of z with multiplicities, as (complex, mult) pairs: the
    exact fiber of a rational point, else numeric_fiber on a batch of one
    with its roots clustered."""
    if isinstance(z, ProjPointQ):
        return [(w, m) for w, _, m in fiber(phi, z)]
    log_w, arg_w = numeric_fiber(phi, *_log_polar([complex(z)]))
    return _clustered(log_w[0], arg_w[0], DEFAULT_CLUSTER_TOL)


# ---------------------------------------------------------------------------
# exact backward trees


@dataclass
class TreeLevel:
    points: list  # complex embeddings
    exact_points: list  # ProjPointQ or None, parallel to points
    weights: list  # Fraction, sums to 1
    mult: list  # total preimage multiplicity received
    edges: list  # per node: list of (parent_idx, map_idx, mult)
    tolerance_merges: int


@dataclass
class MeasureTree:
    system: StochasticSystem
    alpha: ProjPointQ
    levels: list

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


class _LevelBuilder:
    def __init__(self, tol):
        self.tol = tol
        self.points = []
        self.exact = []
        self.weights = []
        self.mult = []
        self.edges = []
        self.by_exact = {}
        self.buckets = defaultdict(list)
        self.tolerance_merges = 0

    def _key(self, z):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return ("inf",)
        return (round(z.real * 1e8), round(z.imag * 1e8))

    def _close(self, z1, z2):
        if self._key(z1) == ("inf",) or self._key(z2) == ("inf",):
            return self._key(z1) == self._key(z2)
        # relative at every scale: an absolute floor would merge distinct
        # tiny preimages, even of opposite signs
        return abs(z1 - z2) <= self.tol * max(abs(z1), abs(z2))

    def _find_mergeable(self, z, exact):
        if exact is not None and exact in self.by_exact:
            return self.by_exact[exact], False
        kx = self._key(z)
        if kx == ("inf",):
            neighborhoods = [kx]
        else:
            neighborhoods = [
                (kx[0] + dx, kx[1] + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            ]
        for key in neighborhoods:
            for j in self.buckets.get(key, ()):
                if not self._close(z, self.points[j]):
                    continue
                other = self.exact[j]
                if exact is not None and other is not None and exact != other:
                    continue  # distinct exact identities: refuse the merge
                if exact is not None and other is None:
                    # promote the numeric node to the exact identity
                    self.exact[j] = exact
                    self.by_exact[exact] = j
                return j, exact is None or other is None
        return None, False

    def add(self, z, exact, weight, mult, edge):
        idx, tolerance_driven = self._find_mergeable(z, exact)
        if idx is None:
            idx = len(self.points)
            self.points.append(z)
            self.exact.append(exact)
            self.weights.append(Fraction(0))
            self.mult.append(0)
            self.edges.append([])
            self.buckets[self._key(z)].append(idx)
            if exact is not None:
                self.by_exact[exact] = idx
        elif tolerance_driven:
            self.tolerance_merges += 1
        self.weights[idx] += weight
        self.mult[idx] += mult
        self.edges[idx].append(edge)

    def build(self) -> TreeLevel:
        assert sum(self.weights) == 1
        return TreeLevel(self.points, self.exact, self.weights, self.mult,
                         self.edges, self.tolerance_merges)


def backward_tree(system: StochasticSystem, alpha: ProjPointQ, n: int,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL) -> MeasureTree:
    """Exact level measures down to depth n."""
    root = TreeLevel([alpha.as_complex()], [alpha], [Fraction(1)], [1], [[]], 0)
    levels = [root]
    total_nodes = 1
    for _ in range(n):
        cur = levels[-1]
        nxt = _LevelBuilder(cluster_tol)
        # one kernel call per map over all of the level's numeric nodes;
        # row[k] is node k's row in its output
        numeric = [k for k, e in enumerate(cur.exact_points) if e is None]
        row = {k: r for r, k in enumerate(numeric)}
        if numeric:
            log_r, theta = _log_polar([cur.points[k] for k in numeric])
            solved = [numeric_fiber(phi, log_r, theta) for phi in system.maps]
        for pidx, (exact, w) in enumerate(zip(cur.exact_points, cur.weights)):
            for midx, (phi, prob) in enumerate(system):
                if exact is None:
                    log_w, arg_w = solved[midx]
                    pre = [(wpt, None, m) for wpt, m in _clustered(
                        log_w[row[pidx]], arg_w[row[pidx]], cluster_tol)]
                else:
                    pre = fiber(phi, exact)
                for wpt, wexact, m in pre:
                    nxt.add(wpt, wexact, w * prob * Fraction(m, phi.d), m,
                            (pidx, midx, m))
        level = nxt.build()
        total_nodes += len(level.points)
        if total_nodes > node_budget:
            raise NodeBudgetExceeded(
                f"{total_nodes} nodes exceeds budget {node_budget}"
            )
        levels.append(level)
    return MeasureTree(system, alpha, levels)


def well_distributed_stat(tree: MeasureTree, k: int) -> Fraction:
    """Exact sum of squared atom weights at level k."""
    level = tree.levels[k]
    return sum((w * w for w in level.weights), Fraction(0))


def sup_mass_decay(tree: MeasureTree):
    """[(k, sup weight at level 3k)] for every full triple of levels."""
    if tree.depth < 3:
        raise ValueError("need depth >= 3")
    return [
        (k, max(tree.levels[3 * k].weights))
        for k in range(tree.depth // 3 + 1)
    ]


def sup_mass_certificate(tree: MeasureTree) -> Fraction:
    """Exact M with sup-mass(3k) <= M * sup-mass(3(k-1)) on this tree.

    For each node at a level 3k, sum nu * mult / deg over all 3-step
    incoming paths; the maximum over nodes and windows bounds every
    observed ratio.
    """
    system = tree.system
    best = Fraction(0)
    for k3 in range(3, tree.depth + 1, 3):
        coef = {i: Fraction(1) for i in range(len(tree.levels[k3 - 3].points))}
        for lev in range(k3 - 2, k3 + 1):
            nxt = defaultdict(Fraction)
            for node_idx, edges in enumerate(tree.levels[lev].edges):
                for pidx, midx, m in edges:
                    if pidx in coef:
                        nxt[node_idx] += (
                            coef[pidx]
                            * system.probs[midx]
                            * Fraction(m, system.maps[midx].d)
                        )
            coef = nxt
        best = max(best, max(coef.values()))
    return best


def pushforward(phi: RationalMapQ, measure: DiscreteMeasure) -> DiscreteMeasure:
    """Exact image measure, merging collisions."""
    from .dynsys import eval_map

    acc = {}
    for p, w in measure:
        img = eval_map(phi, p)
        acc[img] = acc.get(img, Fraction(0)) + w
    pts = sorted(acc, key=lambda q: (q.is_infinity, q.a, q.b))
    return make_measure(pts, [acc[p] for p in pts])


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
    """Complex numbers of (log|z|, arg z) arrays, with log|z| = +inf as
    complex(inf, 0.0), which the product e^{log|z|} e^{i arg z} would give
    as (inf, nan)."""
    with np.errstate(invalid="ignore"):
        z = np.exp(log_abs) * np.exp(1j * angle)
    z[np.isposinf(log_abs)] = complex(math.inf, 0.0)
    return z


def _exact_log_polar(point: ProjPointQ):
    if point.is_infinity:
        return math.inf, 0.0
    if point.a == 0:
        return -math.inf, 0.0
    q = point.as_fraction()
    return log_abs_fraction(q), 0.0 if q > 0 else math.pi


def backward_walk(system: StochasticSystem, log_r: np.ndarray,
                  theta: np.ndarray, start: Optional[ProjPointQ], steps: int,
                  rng: np.random.Generator):
    """Walks each point (log_r[k], theta[k]) `steps` levels backward and
    returns the end points as (log_r, theta), theta in [0, 2 pi).

    Each step makes one draw for all points: a map index by probability
    through rng.choice, then u from rng.random, and a point whose map has
    degree d takes preimage number floor(u d) of its fiber, in which a
    preimage of multiplicity m appears m times, so it is drawn with chance
    m/d.  Magnitudes are tracked as logs, so deep walks neither underflow
    nor overflow.  Systems whose maps are all of monomial shape step the
    radius through their affine IFS and the angle alongside it.  Other
    systems take fibers: start, when given, is the common start as an
    exact point, and while a path stays rational its fibers are the cached
    exact ones of dynsys.fiber, taken once per (map, point) in a step;
    numeric points are solved by numeric_fiber, once per map and step.
    """
    count = len(log_r)
    probs = np.array([float(p) for p in system.probs])
    ifs = affine_ifs(system)
    if ifs is not None:
        arg_a = np.array([0.0 if phi.monomial_profile.coeff > 0 else math.pi
                          for phi in system.maps])
        _, degs, inverted = ifs.arrays
        sign = np.where(inverted, -1.0, 1.0)
    else:
        degs = np.array([float(phi.d) for phi in system.maps])
        # code c >= 0: the path is still at the exact point exact[c]
        exact = [] if start is None else [start]
        codes = np.full(count, -1 if start is None else 0)
    for _ in range(steps):
        idx = rng.choice(len(degs), size=count, p=probs)
        d = degs[idx]
        j = np.floor(rng.random(count) * d)
        if ifs is not None:
            log_r = ifs.step(log_r, idx)
            theta = sign[idx] * (theta - arg_a[idx]) / d + 2.0 * np.pi * j / d
            theta = np.mod(theta, 2.0 * np.pi)
        else:
            log_r, theta, codes = _fiber_step(system, log_r, theta, codes,
                                              exact, idx, j.astype(int))
    return log_r, theta


def _fiber_step(system, log_r, theta, codes, exact, idx, j):
    """One step of the fiber walk: point k moves to entry j[k] of its fiber
    under map idx[k], which lists each preimage once per unit of
    multiplicity.  Points at exact[c] (codes c >= 0) take the exact fiber,
    once per (map, point); new rational points are appended to exact."""
    nmaps = len(system.maps)
    new_r, new_t, new_c = log_r.copy(), theta.copy(), np.full(len(codes), -1)
    on_exact = codes >= 0
    members = np.flatnonzero(on_exact)
    keys = codes[members] * nmaps + idx[members]
    code_of = {pt: c for c, pt in enumerate(exact)}
    for key in np.flatnonzero(np.bincount(keys)):
        c, i = divmod(int(key), nmaps)
        entries = []
        for w, pt, m in fiber(system.maps[i], exact[c]):
            if pt is None:
                r, t = (float(x[0]) for x in _log_polar([w]))
                entries += [(r, t, -1)] * m
                continue
            if pt not in code_of:
                code_of[pt] = len(exact)
                exact.append(pt)
            entries += [(*_exact_log_polar(pt), code_of[pt])] * m
        r, t, cd = (np.array(col) for col in zip(*entries))
        sel = members[keys == key]
        new_r[sel], new_t[sel], new_c[sel] = r[j[sel]], t[j[sel]], cd[j[sel]]
    for i, phi in enumerate(system.maps):
        sel = np.flatnonzero(~on_exact & (idx == i))
        if len(sel):
            r, t = numeric_fiber(phi, log_r[sel], theta[sel])
            rows = np.arange(len(sel))
            new_r[sel], new_t[sel] = r[rows, j[sel]], t[rows, j[sel]]
    return new_r, new_t, new_c


def backward_sample(system: StochasticSystem, alpha: ProjPointQ, n: int,
                    samples: int, seed: int) -> OrbitSampleBatch:
    """i.i.d. draws from the level-n measure, by backward_walk from alpha."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    log_r0, theta0 = _exact_log_polar(alpha)
    log_r, theta = backward_walk(system, np.full(samples, log_r0),
                                 np.full(samples, theta0), alpha, n, rng)
    return OrbitSampleBatch(log_r, theta, n, seed, samples)


def write_samples_csv(batch: OrbitSampleBatch, fileobj):
    """CSV export with columns index, re, im, log_abs, depth: the lines of
    csv.writer, written a block of rows at a time (no cell needs quoting)."""
    csv.writer(fileobj).writerow(["index", "re", "im", "log_abs", "depth"])
    for lo in range(0, batch.samples, CSV_BLOCK):
        log_abs = batch.log_abs[lo:lo + CSV_BLOCK]
        pts = _points(log_abs, batch.angle[lo:lo + CSV_BLOCK])
        rows = zip(range(lo, lo + len(log_abs)), pts.real.tolist(),
                   pts.imag.tolist(), log_abs.tolist())
        fileobj.write("".join(f"{i},{re!r},{im!r},{la!r},{batch.depth}\r\n"
                              for i, re, im, la in rows))
