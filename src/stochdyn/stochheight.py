"""Stochastic heights by per-place escape sums, exact or with sampled tails.

The stochastic height of a point is the limit of E h(word(alpha))/deg(word)
over random words of growing length.  Renormalizing a lift of alpha place
by place after every map telescopes it into bounded local terms
(Call-Silverman 1993):

    h(gamma_n alpha)/deg gamma_n
        = h(alpha) + sum_{k<=n} sum_v log|Phi_{i_k}(u_{k-1})|_v / deg gamma_k.

At infinity u is a max-norm float (or complex) vector.  At a prime p it is
a p-unit integer vector, and min(v_p F(u), v_p G(u)) <= v_p(Res), so n steps
need u only modulo p^(n V + 1), V the largest v_p(Res), and step k only
modulo p^((n - k) V + 1); good primes give 0.  Residues step as int64 once
the shrinking modulus keeps every form value below 2^62, as Python ints
before.
The same estimator, escape_sum, serves the Green's function
(archpotential), with complex lifts and infinity as its only place: every
word within the caller's cap, or an exact prefix whose leaves walk on along
random words of their own.  The truncation tail decays geometrically
(tail_budget over every place for heights, green_budget at infinity for
the Green's function); estimates report it and the standard error apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynsys import StochasticSystem, bad_primes, eval_map, stochastic_degree
from .exactnum import (
    LOG2,
    ConvergenceFailure,
    ProjPointQ,
    padic_valuation,
)
from .heights import PlaceQ, arch_sides, l1_height_control_total, weil_height
from .ifs import map_sampler

_BATCH = 1 << 14  # lifts advanced together; bounds the kernel's working set
WORD_CAP_DEFAULT = 10**6  # most words a stochastic height enumerates
_PREFIX_WORDS = 1 << 13  # most words per start point of an exact prefix
_TAIL_PATHS = 1 << 17  # most sampled tail paths per start point


@dataclass(frozen=True, eq=False)
class EscapeEstimate:
    """Escape sums and standard errors per lift (floats for one point):
    prefix_depth of the depth levels enumerated, `samples` tail paths per
    start point, and whether every standard error met its target."""

    value: np.ndarray
    stderr: np.ndarray
    depth: int
    prefix_depth: int
    samples: int
    tail_bound: float
    tol_met: bool = True

    @property
    def mode(self) -> str:
        return "exact" if self.prefix_depth == self.depth else "exact-prefix"


@dataclass(frozen=True)
class TailBudget:
    """Truncation tail sum_{k >= n} c / delta^k of an escape sum: c / delta^k
    bounds step k + 1 in expectation, delta the stochastic degree."""

    c: float
    delta: float

    def bound(self, n: int) -> float:
        return self.c * self.delta ** (1 - n) / (self.delta - 1.0)

    def depth(self, tol: float, depth: Optional[int] = None) -> int:
        """Smallest depth whose tail is at most tol.  An explicit depth is
        honored only if it is at least 1 and meets the same bound.  Every
        escape sum checks its tol and depth here."""
        if not tol > 0:  # nan too
            raise ValueError(f"tol must be positive, got {tol}")
        if depth is not None and depth < 1:
            raise ValueError("depth must be at least 1")
        n = depth or 1
        while self.bound(n) > tol:
            if depth is not None:
                raise ValueError(f"depth {depth} leaves tail "
                                 f"{self.bound(depth):.3g} > tol {tol}")
            n += 1
        return n


@lru_cache(maxsize=64)
def tail_budget(system: StochasticSystem) -> TailBudget:
    """The heights' tail budget, over every place; computed once."""
    return TailBudget(l1_height_control_total(system),
                      float(stochastic_degree(system)))


@lru_cache(maxsize=64)
def green_budget(system: StochasticSystem) -> TailBudget:
    """The tail budget of g_S = T(z) - T(infinity), with c the width
    W = sum nu_phi (upper_phi + lower_phi) of heights.arch_sides.  Step k's
    terms of T(z) and T(infinity) follow the same law on words and both lie
    in [-lower_phi, upper_phi] / D_(k-1), so their difference is at most
    W / delta^(k-1) in expectation."""
    return TailBudget(math.fsum(float(w) * sum(arch_sides(phi))
                                for phi, w in system),
                      float(stochastic_degree(system)))


class LiftPlace(NamedTuple):
    """A bad prime of lifts: residues modulo modulus, divided by p^V after
    every step, as int64 once modulus <= int64_cap, Python ints before."""

    place: PlaceQ
    modulus: int
    powers: np.ndarray
    int64_cap: int


@dataclass(frozen=True)
class Lifts:
    """Normalized lifts of a batch of points: coords holds (x, y) at infinity
    (max-norm 1), then (x, y) as p-unit residues at each of places."""

    coords: tuple
    places: tuple = ()  # LiftPlace per bad prime

    def __len__(self) -> int:
        return len(self.coords[0])

    def take(self, ix) -> "Lifts":
        return Lifts(tuple(c[ix] for c in self.coords), self.places)

    @staticmethod
    def concat(parts) -> "Lifts":
        coords = zip(*(part.coords for part in parts))
        return Lifts(tuple(np.concatenate(c) for c in coords), parts[0].places)


def _int64_cap(system: StochasticSystem, p: int) -> int:
    """The largest power M of p with sum |c| M^d < 2^62 for each form of
    every map, or 0 if p fails: on residues below M every value that
    dynsys._eval_forms forms, partial sums of Horner's rule and powers of y
    included, stays below 2^62 in absolute value, so int64 is exact.  One
    cap for all maps gives every map's images of a batch one dtype."""
    bounds = [(max(sum(map(abs, phi.fcoeffs)), sum(map(abs, phi.gcoeffs))),
               phi.d) for phi in system.maps]
    cap, m = 0, p
    while all(s * m**d < 1 << 62 for s, d in bounds):
        cap, m = m, m * p
    return cap


def _point_lifts(system: StochasticSystem, points, depth: int) -> Lifts:
    """Lifts of rational points at infinity and at every bad prime, with
    p-adic precision for depth steps."""
    tops = [max(abs(pt.a), abs(pt.b)) for pt in points]
    coords = [np.array([pt.a / t for pt, t in zip(points, tops)]),
              np.array([pt.b / t for pt, t in zip(points, tops)])]
    places = []
    for p in sorted(set().union(*map(bad_primes, system.maps))):
        v = max(padic_valuation(phi.res, p) for phi in system.maps)
        modulus = p ** (depth * v + 1)
        coords += [np.array([pt.a % modulus for pt in points], dtype=object),
                   np.array([pt.b % modulus for pt in points], dtype=object)]
        places.append(LiftPlace(
            PlaceQ(p), modulus,
            np.array([p**j for j in range(v + 1)], dtype=object),
            _int64_cap(system, p)))
    return Lifts(tuple(coords), tuple(places))


def _images(phi, lifts: Lifts, floor: float) -> tuple:
    """Phi(u) at every place before renormalizing, and the step's term
    sum_v log|Phi(u)|_v: (F, G, m, [(f, g, e) per place], term), with m the
    max-norm of (F, G) and p^e the power of p dividing both of f and g.  At
    infinity Phi is evaluated scaled by 2^-k (RationalMapQ.hom_eval_float),
    so its term gains k log 2."""
    fx, gy, k = phi.hom_eval_float(*lifts.coords[:2])
    m = np.abs(fx)
    np.maximum(m, np.abs(gy), out=m)
    # fmin skips NaN lifts, as m < floor does, and initial covers no lifts
    if np.fmin.reduce(m, initial=math.inf) < math.ldexp(floor, -k):
        raise ConvergenceFailure(
            "homogeneous coordinates collapsed below precision floor")
    term = np.log(m) + k * LOG2 if k else np.log(m)
    ints = []
    for j, (place, modulus, powers, int64_cap) in enumerate(lifts.places):
        x, y = lifts.coords[2 + 2 * j:4 + 2 * j]
        if modulus <= int64_cap:
            # residues of an earlier step may still exceed the modulus
            x, y = ((c % modulus).astype(np.int64, copy=False) for c in (x, y))
        f, g = phi.hom_eval_int(x, y)
        f, g = f % modulus, g % modulus
        e = np.zeros(len(f), dtype=int)
        for q in powers[1:]:
            e += (f % q == 0) & (g % q == 0)
        term = term - e * math.log(place.p)
        ints.append((f, g, e))
    return fx, gy, m, ints, term


def _term(phi, lifts: Lifts, floor: float) -> np.ndarray:
    """The term of _apply alone, for the last step of an escape sum, whose
    renormalized lifts nothing reads."""
    return _images(phi, lifts, floor)[-1]


def _apply(phi, lifts: Lifts, floor: float):
    """(Phi(u) renormalized at every place, sum_v log|Phi(u)|_v)."""
    fx, gy, m, ints, term = _images(phi, lifts, floor)
    # numpy divides a complex by a real as a product with its reciprocal
    # cast to complex, so c * (1 / m) is c / m bit for bit on complex lifts,
    # at a third of the cost; on real lifts the two differ in the last bit.
    # Forms of degree >= 2 come back as fresh arrays, scaled here in place.
    if np.iscomplexobj(fx) and np.iscomplexobj(gy):
        inv = (1.0 / m).astype(complex)
        fx *= inv
        gy *= inv
    else:
        fx, gy = fx / m, gy / m
    coords, places = [fx, gy], []
    for (f, g, e), (place, modulus, powers, cap) in zip(ints, lifts.places):
        div = powers[e] if f.dtype == object else powers.astype(np.int64)[e]
        coords += [f // div, g // div]
        # p^e (e <= V) divides them: the next step reads them modulo p^N / p^V
        places.append(LiftPlace(place, modulus // powers[-1], powers, cap))
    return Lifts(tuple(coords), tuple(places)), term


def escape_walk(system: StochasticSystem, lifts: Lifts, depth: int,
                prefix: int, floor: float = 0.0, paths: int = 0,
                rng: Optional[np.random.Generator] = None) -> tuple:
    """(mean, variance of the mean) per lift of the escape sum
    E sum_{k<=depth} sum_v log|Phi(u_{k-1})|_v / deg gamma_k: the words of
    the first prefix levels walked depth first from shared prefixes (all
    words when prefix == depth), then _sampled_tail from each leaf.
    Siblings merge into one batch while it stays under _BATCH lifts, so a
    single point runs breadth first and many points one word at a time; an
    unmerged batch shares one word, so its weight and degree are scalars."""
    npts = len(lifts)
    total, var = np.zeros(npts), np.zeros(npts)
    stack = [(lifts, np.arange(npts), 1.0, 1.0, 0)]
    while stack:
        cur, point, w, deg, k = stack.pop()
        if k == prefix:
            if k < depth:
                mean, v = _sampled_tail(system, cur, depth - k, paths, rng,
                                        floor)
                scale = np.broadcast_to(w / deg, len(point))
                total += np.bincount(point, scale * mean, npts)
                var += np.bincount(point, scale**2 * v, npts)
            continue
        last = k + 1 == depth  # leaves: only their terms are read
        children = []
        for phi, prob in system:
            if last:
                term = _term(phi, cur, floor)
            else:
                nxt, term = _apply(phi, cur, floor)
            cw, cdeg = w * float(prob), deg * phi.d
            term *= cw
            term /= cdeg  # unmerged batches are in point order
            total += term if len(point) == npts else np.bincount(
                point, term, npts)
            if not last:
                children.append((nxt, point, cw, cdeg, k + 1))
        if children and len(point) * len(children) <= _BATCH:
            parts, points, ws, degs, _ = zip(*children)
            ws, degs = (np.broadcast_arrays(point, *v)[1:] for v in (ws, degs))
            children = [(Lifts.concat(parts), np.concatenate(points),
                         np.concatenate(ws), np.concatenate(degs), k + 1)]
        stack.extend(children)
    return total, var


def _sampled_tail(system: StochasticSystem, lifts: Lifts, steps: int,
                  paths: int, rng: np.random.Generator, floor: float) -> tuple:
    """(mean, variance of the mean) per lift of its escape sum over `steps`
    steps along `paths` random words of its own, in chunks of at most
    _BATCH paths, path-major (column j is lift lo + j % n, path j // n)."""
    draw = map_sampler(system.probs)
    degs = np.array([float(phi.d) for phi in system.maps])
    per = max(1, _BATCH // paths)
    means, variances = [], []
    for lo in range(0, len(lifts), per):
        n = min(per, len(lifts) - lo)
        cur = lifts.take(np.tile(np.arange(lo, lo + n), paths))
        vals, deg = np.zeros(len(cur)), np.ones(len(cur))
        for k, idx in enumerate(draw(rng, (steps, len(cur)))):
            coords, term = None, np.empty(len(cur))
            for i, phi in enumerate(system.maps):
                sel = idx == i
                if k + 1 == steps:  # only the last step's terms are read
                    term[sel] = _term(phi, cur.take(sel), floor)
                    continue
                nxt, term[sel] = _apply(phi, cur.take(sel), floor)
                # every map's images share their dtypes
                coords = coords or [np.empty(len(cur), part.dtype)
                                    for part in nxt.coords]
                for c, part in zip(coords, nxt.coords):
                    c[sel] = part
            cur = Lifts(tuple(coords), nxt.places) if coords else cur
            deg = deg * degs[idx]
            vals += term / deg
        vals = vals.reshape(paths, n)
        means.append(vals.mean(axis=0))
        variances.append(vals.var(axis=0, ddof=1) / paths)
    return np.concatenate(means), np.concatenate(variances)


def escape_sum(system: StochasticSystem, lifts_at: Callable[[int], Lifts],
               budget: TailBudget, tol: float, cap: int, seed: int,
               floor: float = 0.0,
               depth: Optional[int] = None) -> EscapeEstimate:
    """Escape sums of the lifts lifts_at(n) to within tol: all m^n words if
    they are at most cap, n budget.depth(tol) (or the explicit depth).
    Otherwise n is the depth for tol/2; the first L levels are enumerated,
    m^L <= _PREFIX_WORDS, and each leaf walks on along s random words of
    its own, so the variance is sum_leaf (w/D)^2 var_leaf / s.  A pilot
    with s = 2 sizes s for a standard error of tol - tail_bound(n), within
    _TAIL_PATHS paths per start point."""
    m = len(system.maps)
    n = prefix = budget.depth(tol, depth)
    s = 0
    if m**n > cap:
        n = depth or budget.depth(tol / 2)
        prefix, s = 0, 2
        while prefix + 1 < n and m ** (prefix + 1) <= _PREFIX_WORDS:
            prefix += 1
    lifts, rng = lifts_at(n), np.random.default_rng(seed)
    value, var = escape_walk(system, lifts, n, prefix, floor, s, rng)
    target = tol - budget.bound(n)
    most = _TAIL_PATHS // m**prefix
    if s and most > s:
        # s paths per leaf give the variance var * 2 / s; target * target
        # is inf, where target**2 would overflow, when tol is huge
        need = (2.0 * float(var.max()) / (target * target) if target > 0
                else math.inf)
        if need > s:
            s = most if not need < most else math.ceil(need)
            value, var = escape_walk(system, lifts, n, prefix, floor, s, rng)
    stderr = np.sqrt(var)
    return EscapeEstimate(value, stderr, n, prefix, s * m**prefix,
                          budget.bound(n), bool(np.all(stderr <= target)))


def stoch_height(system: StochasticSystem, alpha: ProjPointQ, tol: float,
                 seed: int = 0, depth: Optional[int] = None) -> EscapeEstimate:
    """Estimate to tolerance by escape_sum: every word up to
    WORD_CAP_DEFAULT of them, an exact prefix with sampled tails past it.
    tol = inf with an explicit depth averages every word of that length
    exactly while they fit the cap."""
    est = escape_sum(system, lambda n: _point_lifts(system, [alpha], n),
                     tail_budget(system), tol, WORD_CAP_DEFAULT, seed,
                     depth=depth)
    # the heights averaged are >= 0, but logs that cancel exactly (log 6 -
    # log 2 - log 3 when a word sends 1 to infinity) can leave -1e-16
    return replace(est, value=max(0.0, weil_height(alpha) + est.value[0]),
                   stderr=float(est.stderr[0]))


def scaling_residual(system: StochasticSystem, alpha: ProjPointQ,
                     tol: float) -> float:
    """|h_S(alpha) - E h_S(phi(alpha))/deg phi|, zero up to estimate error."""
    tol_each = tol / (2 * len(system.maps))
    h0 = stoch_height(system, alpha, tol_each).value
    terms = []
    for phi, p in system:
        img = eval_map(phi, alpha)
        h_img = stoch_height(system, img, tol_each).value
        terms.append(float(p) * h_img / phi.d)
    return abs(h0 - math.fsum(terms))


def weil_comparison_residual(system: StochasticSystem,
                             alpha: ProjPointQ) -> tuple:
    """(|h_S - h|, certified budget); the difference never exceeds six
    times the integrated per-map bound."""
    budget = 6.0 * tail_budget(system).c
    # estimate well below the budget scale; there is no point resolving
    # h_S to 1e-6 when the contract has log-2-sized slack
    tol = max(1e-6, 1e-3 * budget) if budget > 0 else 1.0
    est = stoch_height(system, alpha, tol)
    diff = abs(est.value - weil_height(alpha))
    return diff, budget
