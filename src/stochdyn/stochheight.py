"""Stochastic heights by per-place escape sums, Monte Carlo estimates, checks.

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
The same kernel serves the Green's function (archpotential), with complex
lifts and infinity as its only place.  The truncation tail decays
geometrically (TailBudget), and estimates report it and the sampling
standard error separately: the two shrink at different rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .dynsys import StochasticSystem, bad_primes, eval_map, stochastic_degree
from .exactnum import (
    LOG2,
    ConvergenceFailure,
    ProjPointQ,
    StochdynError,
    padic_valuation,
)
from .heights import l1_height_control_total, weil_height
from .ifs import map_sampler

_BATCH = 1 << 14  # lifts advanced together; bounds the kernel's working set
WORD_CAP_DEFAULT = 10**6  # most words an exact estimate enumerates


class WordCapExceeded(StochdynError):
    """An exact estimate would enumerate more than WORD_CAP_DEFAULT words."""


@dataclass(frozen=True)
class StochHeightEstimate:
    value: float
    stderr: float
    depth: int
    mode: str  # "exact" or "mc"
    samples: int
    tail_bound: float

    def __post_init__(self):
        assert self.stderr >= 0.0
        assert self.mode in ("exact", "mc")
        assert self.mode != "exact" or self.stderr == 0.0


@dataclass(frozen=True)
class TailBudget:
    """Truncation tail sum_{k >= n} c / delta^k of an escape sum, with c the
    integrated per-map potential bound and delta the stochastic degree."""

    c: float
    delta: float

    def bound(self, n: int) -> float:
        return self.c * self.delta ** (1 - n) / (self.delta - 1.0)

    def depth(self, tol: float, depth: Optional[int] = None) -> int:
        """Smallest depth whose tail is at most tol.  An explicit depth is
        honored only if it meets the same bound."""
        if not tol > 0:  # nan too
            raise ValueError(f"tol must be positive, got {tol}")
        n = depth or 1
        while self.bound(n) > tol:
            if depth is not None:
                raise ValueError(f"depth {depth} leaves tail "
                                 f"{self.bound(depth):.3g} > tol {tol}")
            n += 1
        return n


@lru_cache(maxsize=64)
def tail_budget(system: StochasticSystem) -> TailBudget:
    """The system's tail budget; the potential bound is computed once."""
    return TailBudget(l1_height_control_total(system),
                      float(stochastic_degree(system)))


@dataclass(frozen=True)
class Lifts:
    """Normalized lifts of a batch of points: coords holds (x, y) at infinity
    (max-norm 1), then (x, y) at each place (p, p^N, [1, p, ..., p^V]) of
    places as p-unit residues mod p^N, the current modulus, which _apply
    divides by p^V.  int64_caps holds per place the largest modulus at which
    residues step as int64 (see _int64_cap); above it they are Python ints
    in object arrays."""

    coords: tuple
    places: tuple = ()
    int64_caps: tuple = ()

    def __len__(self) -> int:
        return len(self.coords[0])

    def take(self, ix) -> "Lifts":
        return Lifts(tuple(c[ix] for c in self.coords), self.places,
                     self.int64_caps)

    @staticmethod
    def concat(parts) -> "Lifts":
        coords = zip(*(part.coords for part in parts))
        return Lifts(tuple(np.concatenate(c) for c in coords), parts[0].places,
                     parts[0].int64_caps)


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
    places, caps = [], []
    for p in sorted(set().union(*map(bad_primes, system.maps))):
        v = max(padic_valuation(phi.res, p) for phi in system.maps)
        modulus = p ** (depth * v + 1)
        coords += [np.array([pt.a % modulus for pt in points], dtype=object),
                   np.array([pt.b % modulus for pt in points], dtype=object)]
        places.append((p, modulus,
                       np.array([p**j for j in range(v + 1)], dtype=object)))
        caps.append(_int64_cap(system, p))
    return Lifts(tuple(coords), tuple(places), tuple(caps))


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
    for j, (p, modulus, powers) in enumerate(lifts.places):
        x, y = lifts.coords[2 + 2 * j:4 + 2 * j]
        if modulus <= lifts.int64_caps[j]:
            # residues of an earlier step may still exceed the modulus
            x, y = ((c % modulus).astype(np.int64, copy=False) for c in (x, y))
        f, g = phi.hom_eval_int(x, y)
        f, g = f % modulus, g % modulus
        e = np.zeros(len(f), dtype=int)
        for q in powers[1:]:
            e += (f % q == 0) & (g % q == 0)
        term = term - e * math.log(p)
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
    for (f, g, e), (p, modulus, powers) in zip(ints, lifts.places):
        div = powers[e] if f.dtype == object else powers.astype(np.int64)[e]
        coords += [f // div, g // div]
        # p^e with e <= V divides the residues: the next step reads them
        # modulo p^N / p^V
        places.append((p, modulus // powers[-1], powers))
    return Lifts(tuple(coords), tuple(places), lifts.int64_caps), term


def escape_sum_exact(system: StochasticSystem, lifts: Lifts, depth: int,
                     floor: float = 0.0) -> np.ndarray:
    """E sum_{k<=depth} sum_v log|Phi(u_{k-1})|_v / deg gamma_k per lift,
    over all words, walked depth first from shared prefixes.  Siblings merge
    into one batch while it stays under _BATCH lifts, so a single point runs
    breadth first and many points run one word at a time.  Every lift of an
    unmerged batch has the same word, so its weight and degree are scalars
    until a merge spreads them into arrays."""
    npts = len(lifts)
    total = np.zeros(npts)
    stack = [(lifts, np.arange(npts), 1.0, 1.0, 0)]
    while stack:
        cur, point, w, deg, k = stack.pop()
        if k == depth:
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
    return total


def word_source(system: StochasticSystem, depth: int,
                rng: np.random.Generator):
    """Rows lo..hi-1 of a samples x depth matrix of i.i.d. map indices, as
    a function (lo, hi) -> rows that draws them from rng when called.
    ifs.map_sampler takes one uniform per entry in row-major order, so rows
    drawn chunk after chunk equal one draw of the whole matrix."""
    draw = map_sampler(system.probs)
    return lambda lo, hi: draw(rng, (hi - lo, depth))


def escape_sum_mc(system: StochasticSystem, lifts: Lifts, samples: int,
                  words, floor: float = 0.0) -> tuple:
    """(sample mean, standard error) per lift of the escape sum along
    `samples` words, one row of map indices per path, which words(lo, hi)
    gives for paths lo..hi-1 (see word_source; a caller holding a word
    matrix passes its slices).  Paths run in chunks of at most _BATCH lifts
    whose means and squared deviations merge (Chan-Golub-LeVeque); a
    chunk's words are asked for when it runs, so no word matrix is held."""
    npts = len(lifts)
    degs = np.array([float(phi.d) for phi in system.maps])
    chunk = max(1, _BATCH // npts)
    mean, m2 = np.zeros(npts), np.zeros(npts)
    for start in range(0, samples, chunk):
        rows = words(start, min(start + chunk, samples))
        cur = lifts.take(np.tile(np.arange(npts), len(rows)))
        vals, deg = np.zeros(len(cur)), np.ones(len(cur))
        for k in range(rows.shape[1]):
            idx = np.repeat(rows[:, k], npts)
            last = k + 1 == rows.shape[1]  # only its terms are read
            coords = None
            term = np.empty(len(cur))
            for i, phi in enumerate(system.maps):
                sel = idx == i
                if last:
                    term[sel] = _term(phi, cur.take(sel), floor)
                    continue
                nxt, term[sel] = _apply(phi, cur.take(sel), floor)
                if coords is None:  # every map's images share their dtypes
                    coords = [np.empty(len(cur), part.dtype)
                              for part in nxt.coords]
                for c, part in zip(coords, nxt.coords):
                    c[sel] = part
            if not last:
                cur = Lifts(tuple(coords), nxt.places, nxt.int64_caps)
            deg = deg * degs[idx]
            vals += term / deg
        vals = vals.reshape(len(rows), npts)
        delta, seen = vals.mean(axis=0) - mean, start + len(rows)
        m2 += ((vals - vals.mean(axis=0)) ** 2).sum(axis=0) \
            + delta**2 * (start * len(rows) / seen)
        mean += delta * (len(rows) / seen)
    return mean, np.sqrt(m2 / max(samples - 1, 1)) / math.sqrt(samples)


def _height(alpha: ProjPointQ, escape: float) -> float:
    # the heights averaged are >= 0, but logs that cancel exactly (log 6 -
    # log 2 - log 3 when a word sends 1 to infinity) can leave -1e-16
    return max(0.0, weil_height(alpha) + float(escape))


def stoch_height_exact(system: StochasticSystem, alpha: ProjPointQ,
                       n: int) -> StochHeightEstimate:
    """Exact average over all length-n words."""
    if len(system.maps) ** n > WORD_CAP_DEFAULT:
        raise WordCapExceeded(f"{len(system.maps) ** n} words of length {n} "
                              f"exceeds cap {WORD_CAP_DEFAULT}")
    escape = escape_sum_exact(system, _point_lifts(system, [alpha], n), n)
    return StochHeightEstimate(_height(alpha, escape[0]), 0.0, n,
                               "exact", 0, tail_budget(system).bound(n))


def stoch_height_mc(system: StochasticSystem, alpha: ProjPointQ, n: int,
                    samples: int, seed: int) -> StochHeightEstimate:
    """Monte Carlo average of h(word(alpha))/deg over i.i.d. words."""
    if samples < 1:
        raise ValueError("need at least one sample")
    words = word_source(system, n, np.random.default_rng(seed))
    mean, stderr = escape_sum_mc(system, _point_lifts(system, [alpha], n),
                                 samples, words)
    return StochHeightEstimate(_height(alpha, mean[0]),
                               float(stderr[0]), n, "mc", samples,
                               tail_budget(system).bound(n))


def stoch_height(system: StochasticSystem, alpha: ProjPointQ, tol: float,
                 seed: int = 0) -> StochHeightEstimate:
    """Estimate to tolerance: depth from the geometric tail, then exact
    enumeration when the word cap allows it, Monte Carlo otherwise."""
    n = tail_budget(system).depth(tol)
    if len(system.maps) ** n <= WORD_CAP_DEFAULT:
        return stoch_height_exact(system, alpha, n)
    pilot = stoch_height_mc(system, alpha, n, 256, seed ^ 0x9E3779B9)
    sigma = pilot.stderr * math.sqrt(256.0)
    need = min(10**6, max(256, math.ceil((sigma / tol) ** 2) + 1))
    return stoch_height_mc(system, alpha, n, need, seed)


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
