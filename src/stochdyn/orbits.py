"""Random backwards-orbit measures: exact trees, samplers, mass statistics.

The level-n measure pulls the start point back through every length-n word,
weighting each preimage by (word probability) * multiplicity / degree.  The
tree keeps weights as exact rationals; support points carry a complex
embedding always, plus an exact projective identity whenever the preimage
is rational.  Fibers of rational points are exact (dynsys.fiber), so no
rational preimage loses its identity; fibers of numeric points are solved
here with np.roots.  Merging of numerically coincident support points is
refused when the two carry distinct exact identities, and any merge
involving a point without an exact identity is counted as
tolerance-driven so callers can see when output atoms rest on a numeric
coincidence.
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
from .ifs import affine_ifs

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


def _preimages_numeric(phi: RationalMapQ, z: complex, tol=DEFAULT_CLUSTER_TOL):
    s = max(1.0, abs(z))
    u, v = z / s, 1.0 / s
    h = np.array([v * fc - u * gc for fc, gc in zip(phi.fcoeffs, phi.gcoeffs)],
                 dtype=complex)
    scale = float(np.max(np.abs(h)))
    assert scale > 0.0
    inf_mult = 0
    while inf_mult <= phi.d and abs(h[inf_mult]) <= 1e-13 * scale:
        inf_mult += 1
    out = []
    if inf_mult:
        out.append((complex(math.inf, 0.0), inf_mult))
    body = h[inf_mult:]
    if len(body) > 1:
        roots = np.roots(body)
        resid = np.abs(np.polyval(body, roots))
        bound = 1e-6 * scale * np.maximum(1.0, np.abs(roots)) ** len(body)
        if np.any(resid > bound):
            raise ConvergenceFailure(f"fiber roots of {phi} at {z} did not converge")
        out.extend(_cluster_roots(roots, tol))
    assert sum(m for _, m in out) == phi.d
    return out


def preimages(phi: RationalMapQ, z: Union[ProjPointQ, complex]):
    """Preimages of z with multiplicities, as (complex, mult) pairs."""
    if isinstance(z, ProjPointQ):
        return [(w, m) for w, _, m in fiber(phi, z)]
    return _preimages_numeric(phi, complex(z))


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
        return abs(z1 - z2) <= self.tol * max(1.0, abs(z1), abs(z2))

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
        for pidx, (z, exact, w) in enumerate(
            zip(cur.points, cur.exact_points, cur.weights)
        ):
            for midx, (phi, prob) in enumerate(system):
                if exact is not None:
                    pre = fiber(phi, exact)
                else:
                    pre = [(wpt, None, m)
                           for wpt, m in _preimages_numeric(phi, z, cluster_tol)]
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
        return np.exp(self.log_abs) * np.exp(1j * self.angle)


def _start_log_polar(alpha: ProjPointQ):
    if alpha.is_infinity:
        return math.inf, 0.0
    if alpha.a == 0:
        return -math.inf, 0.0
    q = alpha.as_fraction()
    return log_abs_fraction(q), 0.0 if q > 0 else math.pi


def backward_walk(system: StochasticSystem, log_r: np.ndarray,
                  theta: np.ndarray, start: Optional[ProjPointQ], steps: int,
                  rng: np.random.Generator):
    """Walks each point (log_r[k], theta[k]) `steps` levels backward and
    returns the end points as (log_r, theta).

    Each step picks a map by its probability and then one preimage with
    chance multiplicity/degree.  Magnitudes are tracked as logs, so deep
    monomial systems neither underflow nor overflow.  Systems whose maps
    are all of monomial shape step the radius through their affine IFS and
    the angle alongside it, vectorized over the points; other systems walk
    point by point through the fibers.  start, when given, is the common
    start as an exact point, and fibers are then solved exactly until the
    path leaves the rational points.
    """
    count = len(log_r)
    ifs = affine_ifs(system)
    if ifs is not None:
        arg_a = np.array([0.0 if phi.monomial_profile.coeff > 0 else math.pi
                          for phi in system.maps])
        _, degs, inverted = ifs.arrays
        sign = np.where(inverted, -1.0, 1.0)
        for _ in range(steps):
            idx = rng.choice(len(degs), size=count, p=ifs.probs)
            d = degs[idx]
            j = np.floor(rng.random(count) * d)
            log_r = ifs.step(log_r, idx)
            theta = sign[idx] * (theta - arg_a[idx]) / d + 2.0 * np.pi * j / d
            theta = np.mod(theta, 2.0 * np.pi)
        return log_r, theta
    probs = np.array([float(p) for p in system.probs])
    for k in range(count):
        exact = start
        z = (None if exact is not None or math.isinf(log_r[k])
             else np.exp(log_r[k]) * np.exp(1j * theta[k]))
        for _ in range(steps):
            phi = system.maps[int(rng.choice(len(system.maps), p=probs))]
            if exact is not None:
                pre = fiber(phi, exact)
            else:
                pre = [(w, None, m) for w, m in _preimages_numeric(phi, z)]
            mults = np.array([m for _, _, m in pre], dtype=float)
            z, exact, _ = pre[int(rng.choice(len(pre), p=mults / phi.d))]
        log_r[k] = np.log(abs(z)) if z != 0 else -math.inf
        theta[k] = np.angle(z) if z != 0 else 0.0
    return log_r, theta


def backward_sample(system: StochasticSystem, alpha: ProjPointQ, n: int,
                    samples: int, seed: int) -> OrbitSampleBatch:
    """i.i.d. draws from the level-n measure, by backward_walk from alpha."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    log_r0, theta0 = _start_log_polar(alpha)
    log_r, theta = backward_walk(system, np.full(samples, log_r0),
                                 np.full(samples, theta0), alpha, n, rng)
    return OrbitSampleBatch(log_r, theta, n, seed, samples)


def write_samples_csv(batch: OrbitSampleBatch, fileobj):
    """CSV export with columns index, re, im, log_abs, depth."""
    writer = csv.writer(fileobj)
    writer.writerow(["index", "re", "im", "log_abs", "depth"])
    pts = batch.points
    for i in range(batch.samples):
        writer.writerow(
            [i, repr(float(pts[i].real)), repr(float(pts[i].imag)),
             repr(float(batch.log_abs[i])), batch.depth]
        )
