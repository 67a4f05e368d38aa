"""Weil heights, local heights, discrete-measure heights and energy pairings.

Everything here works over Q: points are exact, places are the archimedean
one plus primes, and any sum that is a rational combination of logs of
rationals can be carried exactly (see LogCombination) so that identities
like the product formula hold on the nose instead of up to float error.

Per-map potential bounds: for a map with forms (F, G) of degree d the
potential g_v(z) = (1/d) log max(|F|_v, |G|_v) - log max(|x|_v, |y|_v) is
bounded on all of P1, and C(v) = sup |g_v| admits certified upper bounds
from coefficient norms (upper side) and from integer Bezout cofactors of
(F, G) scaled by the resultant (lower side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .dynsys import RationalMapQ, StochasticSystem, _form_mul, bad_primes
from .exactnum import (
    _bareiss_det,
    LogCombination,
    ProjPointQ,
    StochdynError,
    factor_integer,
    int_log,
    isprime,
    log_abs_fraction,
    padic_valuation,
    sylvester_rows,
)


class InfinitePoint(StochdynError):
    """Operation not defined for the point at infinity."""


@dataclass(frozen=True)
class PlaceQ:
    """A place of Q: p=None is archimedean, otherwise the prime p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not isprime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_arch(self) -> bool:
        return self.p is None

    def as_json(self):
        """The place in a JSON record: "arch", or the int p."""
        return "arch" if self.is_arch else self.p

    def __str__(self) -> str:
        return "Arch" if self.is_arch else f"p={self.p}"


ARCH = PlaceQ(None)


# ---------------------------------------------------------------------------
# heights of points


def weil_height(point: ProjPointQ) -> float:
    """log max(|a|, |b|) for the normalized coprime representative."""
    return int_log(max(abs(point.a), abs(point.b)))


def local_height(point: ProjPointQ, place: PlaceQ) -> float:
    """log+ |a/b|_v.  Rejects the point at infinity."""
    if point.is_infinity:
        raise InfinitePoint("local height undefined at [1:0]")
    if place.is_arch:
        return int_log(max(abs(point.a), abs(point.b))) - int_log(abs(point.b))
    # coprimality: |a/b|_p > 1 exactly when p divides b
    v = padic_valuation(point.b, place.p)
    return v * math.log(place.p)


# ---------------------------------------------------------------------------
# discrete measures


@dataclass(frozen=True)
class DiscreteMeasure:
    support: tuple
    weights: tuple

    def __len__(self):
        return len(self.support)

    def __iter__(self):
        return iter(zip(self.support, self.weights))


def _point_sort_key(p: ProjPointQ):
    return (p.is_infinity, p.as_fraction() if not p.is_infinity else Fraction(0))


def make_measure(support: Sequence, weights: Sequence) -> DiscreteMeasure:
    support = tuple(support)
    weights = tuple(Fraction(w) for w in weights)
    if len(support) != len(weights) or not support:
        raise ValueError("support and weights must be nonempty and match")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")
    if sum(weights) != 1:
        raise ValueError(f"weights sum to {sum(weights)}, not 1")
    if len(set(support)) != len(support):
        raise ValueError("support points must be distinct")
    return DiscreteMeasure(support, weights)


def mix(components) -> DiscreteMeasure:
    """Convex combination [(t_k, measure_k)], merging shared support points."""
    acc = {}
    for t, m in components:
        t = Fraction(t)
        for p, w in m:
            acc[p] = acc.get(p, Fraction(0)) + t * w
    pts = sorted(acc, key=_point_sort_key)
    return make_measure(pts, [acc[p] for p in pts])


def measure_height_exact(measure: DiscreteMeasure) -> LogCombination:
    """The measure's height sum_p w_p h(p), as an exact rational
    combination of prime logs."""
    acc = LogCombination()
    for p, w in measure:
        acc = acc + LogCombination.of_log_abs(max(abs(p.a), abs(p.b))).scaled(w)
    return acc


# ---------------------------------------------------------------------------
# energy pairings


def _pairs(gamma: DiscreteMeasure, delta: DiscreteMeasure) -> list:
    """(s t, z - w) over the off-diagonal pairs of gamma x delta, whose
    supports must be finite."""
    if any(p.is_infinity for p in gamma.support + delta.support):
        raise InfinitePoint("measure has support at [1:0]")
    return [(s * t, z.as_fraction() - w.as_fraction())
            for z, s in gamma for w, t in delta if z != w]


def _log_abs_at(q: Fraction, place: PlaceQ) -> float:
    if place.is_arch:
        return log_abs_fraction(q)
    return -padic_valuation(q, place.p) * math.log(place.p)


def energy_pairing_discrete(gamma: DiscreteMeasure, delta: DiscreteMeasure,
                            place: PlaceQ) -> float:
    """-sum s_m t_n log|z_m - w_n|_v over off-diagonal pairs."""
    return math.fsum(-float(st) * _log_abs_at(q, place)
                     for st, q in _pairs(gamma, delta))


def product_formula_sum(gamma: DiscreteMeasure, delta: DiscreteMeasure) -> float:
    """Sum of the local pairings over every place, computed exactly.

    For rational supports each difference q = z - w contributes log|q| at
    the archimedean place and -v_p(q) log p at each prime p of q, found by
    factoring q apart from the archimedean side, and these cancel by the
    product formula; the return value is exactly 0.0 unless something is
    wrong.
    """
    total = LogCombination()
    for st, q in _pairs(gamma, delta):
        primes = {*factor_integer(q.numerator), *factor_integer(q.denominator)}
        finite = LogCombination({p: -padic_valuation(q, p) for p in primes})
        total = total + (LogCombination.of_log_abs(q) + finite).scaled(-st)
    return total.evaluate()


def standard_energy_defect(measure: DiscreteMeasure, place: PlaceQ) -> float:
    """Energy of the measure against the standard reference at one place.

    2 sum t_i log+|a_i|_v - sum_{i != j} t_i t_j log|a_i - a_j|_v.
    Nonnegative at finite places; at least -log 2 at the archimedean one.
    """
    cross = energy_pairing_discrete(measure, measure, place)  # finite support
    return math.fsum(
        2.0 * float(t) * local_height(p, place) for p, t in measure
    ) + cross


# ---------------------------------------------------------------------------
# per-map potential bounds


@lru_cache(maxsize=256)
def _bezout_cofactors(phi: RationalMapQ):
    """Integer forms (A, B, C, D) of degree d-1 with
    A F + B G = Res X^(2d-1) and C F + D G = Res Y^(2d-1)."""
    d = phi.d
    n = 2 * d
    rows = sylvester_rows(phi.fcoeffs, phi.gcoeffs, d)

    # u . rows = Res e_k, and det rows = Res, so by Cramer's rule u_i is
    # the (i, k) cofactor of rows
    def solve(k):
        return [(-1) ** (i + k) * _bareiss_det(
                    [row[:k] + row[k + 1:] for j, row in enumerate(rows)
                     if j != i])
                for i in range(n)]

    ux = solve(0)
    uy = solve(n - 1)
    a, b = tuple(ux[:d]), tuple(ux[d:])
    c, e = tuple(uy[:d]), tuple(uy[d:])

    def check(p, q, target_idx):
        s = [x + y for x, y in zip(_form_mul(p, phi.fcoeffs), _form_mul(q, phi.gcoeffs))]
        want = [0] * n
        want[target_idx] = phi.res
        assert s == want, "cofactor identity failed"

    check(a, b, 0)
    check(c, e, n - 1)
    return a, b, c, e


def arch_sides(phi: RationalMapQ) -> tuple:
    """(upper, lower) with -d lower <= log max(|F(u)|, |G(u)|) <= d upper for
    every max-norm lift u: the top from coefficient norms, the bottom from
    A F + B G = Res X^(2d-1) and its Y twin (_bezout_cofactors)."""
    a, b, c, e = _bezout_cofactors(phi)
    l1f = sum(abs(x) for x in phi.fcoeffs)
    l1g = sum(abs(x) for x in phi.gcoeffs)
    k2 = max(
        sum(abs(x) for x in a) + sum(abs(x) for x in b),
        sum(abs(x) for x in c) + sum(abs(x) for x in e),
    )
    return (int_log(max(l1f, l1g)) / phi.d,
            (math.log(k2) - int_log(abs(phi.res))) / phi.d)


def cphi_bound(phi: RationalMapQ, place: PlaceQ) -> float:
    """Certified upper bound for sup |g_v|: the larger of arch_sides at
    infinity, the Bezout cofactor identity divided by the resultant at p.
    For a z^(+-d), a = A/B in lowest terms, this is the exact
    sup: log max(|A|, |B|) / d at infinity, where the lower side is
    -log min(|A|, |B|) / d <= 0, and |v_p(a)| log p / d at p.
    """
    if place.is_arch:
        return max(arch_sides(phi))
    a, b, c, e = _bezout_cofactors(phi)
    p = place.p
    vres = padic_valuation(phi.res, p)
    m = min(
        padic_valuation(x, p) for x in (*a, *b, *c, *e) if x != 0
    )
    return max(0.0, (vres - m) * math.log(p) / phi.d)


def l1_height_control_total(system: StochasticSystem) -> float:
    """Weighted certified bound sum over the archimedean place and every
    bad prime of the system; finite by construction."""
    primes = set()
    for phi in system.maps:
        primes |= bad_primes(phi)
    places = [ARCH] + [PlaceQ(p) for p in sorted(primes)]
    return math.fsum(float(w) * cphi_bound(phi, place)
                     for phi, w in system for place in places)
