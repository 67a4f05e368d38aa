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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .dynsys import RationalMapQ, StochasticSystem, _form_mul, bad_primes
from .exactnum import (
    LOG2,
    LogCombination,
    ProjPointQ,
    StochdynError,
    factor_poly,
    int_log,
    log_abs_fraction,
    padic_valuation,
    poly_trim,
    scaled_roots,
    sylvester_rows,
)


class InfinitePoint(StochdynError):
    """Operation not defined for the point at infinity."""


class NotIrreducible(StochdynError):
    """Polynomial has a nontrivial factorization over Q."""


@dataclass(frozen=True)
class PlaceQ:
    """A place of Q: p=None is archimedean, otherwise the prime p."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            import sympy

            if not sympy.isprime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def is_arch(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "Arch" if self.is_arch else f"p={self.p}"


ARCH = PlaceQ(None)


def prime_place(p: int) -> PlaceQ:
    return PlaceQ(p)


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


def weil_height_minpoly(coeffs: Sequence) -> float:
    """Height of any root of an irreducible integer polynomial (ascending).

    (1/deg)(log|lead| + sum of log+ over complex roots), the Mahler-measure
    form of the height.  The root of a linear polynomial is exact; the
    roots 2^s y of a nonlinear one enter as log|y| + s log 2.
    """
    f = poly_trim(tuple(int(c) for c in coeffs))
    deg = len(f) - 1
    if deg < 1:
        raise ValueError("need degree >= 1")
    factors = factor_poly(f)
    if len(factors) != 1 or factors[0][1] != 1:
        raise NotIrreducible(f"{f} factors over Q")
    if deg == 1:
        tail = max(0.0, log_abs_fraction(Fraction(-f[0], f[1]))) if f[0] else 0.0
    else:
        ys, s = scaled_roots(f)
        tail = math.fsum(max(0.0, math.log(abs(y)) + s * LOG2) for y in ys)
    return (int_log(abs(f[-1])) + tail) / deg


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


def dirac(point: ProjPointQ) -> DiscreteMeasure:
    return make_measure([point], [Fraction(1)])


def mix(components) -> DiscreteMeasure:
    """Convex combination [(t_k, measure_k)], merging shared support points."""
    acc = {}
    for t, m in components:
        t = Fraction(t)
        for p, w in m:
            acc[p] = acc.get(p, Fraction(0)) + t * w
    pts = sorted(acc, key=_point_sort_key)
    return make_measure(pts, [acc[p] for p in pts])


def measure_height(measure: DiscreteMeasure) -> float:
    return math.fsum(float(w) * weil_height(p) for p, w in measure)


def measure_height_exact(measure: DiscreteMeasure) -> LogCombination:
    """Same sum, as an exact rational combination of prime logs."""
    acc = LogCombination()
    for p, w in measure:
        acc = acc + LogCombination.of_log_abs(max(abs(p.a), abs(p.b))).scaled(w)
    return acc


# ---------------------------------------------------------------------------
# energy pairings


def _require_finite_support(measure: DiscreteMeasure):
    if any(p.is_infinity for p in measure.support):
        raise InfinitePoint("measure has support at [1:0]")


def _log_abs_at(q: Fraction, place: PlaceQ) -> float:
    if place.is_arch:
        return log_abs_fraction(q)
    return -padic_valuation(q, place.p) * math.log(place.p)


def energy_pairing_discrete(gamma: DiscreteMeasure, delta: DiscreteMeasure,
                            place: PlaceQ) -> float:
    """-sum s_m t_n log|z_m - w_n|_v over off-diagonal pairs."""
    _require_finite_support(gamma)
    _require_finite_support(delta)
    terms = []
    for z, s in gamma:
        for w, t in delta:
            if z == w:
                continue
            q = z.as_fraction() - w.as_fraction()
            terms.append(-float(s * t) * _log_abs_at(q, place))
    return math.fsum(terms)


def product_formula_sum(gamma: DiscreteMeasure, delta: DiscreteMeasure) -> float:
    """Sum of the local pairings over every place, computed exactly.

    For rational supports each difference z - w contributes log|z - w| at
    the archimedean place and -v_p(z - w) log p at each prime, and these
    cancel by the product formula; the return value is exactly 0.0 unless
    something is wrong.
    """
    _require_finite_support(gamma)
    _require_finite_support(delta)
    total = LogCombination()
    for z, s in gamma:
        for w, t in delta:
            if z == w:
                continue
            q = z.as_fraction() - w.as_fraction()
            arch = LogCombination.of_log_abs(q)
            finite = LogCombination(
                {p: -padic_valuation(q, p) for p in arch.coeffs}
            )
            total = total + (arch + finite).scaled(-s * t)
    return total.evaluate()


def standard_energy_defect(measure: DiscreteMeasure, place: PlaceQ) -> float:
    """Energy of the measure against the standard reference at one place.

    2 sum t_i log+|a_i|_v - sum_{i != j} t_i t_j log|a_i - a_j|_v.
    Nonnegative at finite places; at least -log 2 at the archimedean one.
    """
    _require_finite_support(measure)
    linear = math.fsum(
        2.0 * float(t) * local_height(p, place) for p, t in measure
    )
    cross = energy_pairing_discrete(measure, measure, place)
    return linear + cross


# ---------------------------------------------------------------------------
# per-map potential bounds


@dataclass(frozen=True)
class CphiBound:
    map_index: Optional[int]
    place: PlaceQ
    numeric_estimate: float
    certified_upper: float

    def __post_init__(self):
        assert 0.0 <= self.numeric_estimate <= self.certified_upper + 1e-12


@lru_cache(maxsize=256)
def _bezout_cofactors(phi: RationalMapQ):
    """Integer forms (A, B, C, D) of degree d-1 with
    A F + B G = Res X^(2d-1) and C F + D G = Res Y^(2d-1)."""
    d = phi.d
    n = 2 * d
    rows = sylvester_rows(phi.fcoeffs, phi.gcoeffs, d)
    # u . rows = target, so solve rows^T u = target
    def solve(target):
        m = [[Fraction(rows[r][c]) for r in range(n)] for c in range(n)]
        rhs = [Fraction(t) for t in target]
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col] != 0)
            m[col], m[piv] = m[piv], m[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    rhs[r] -= f * rhs[col]
        assert all(x.denominator == 1 for x in rhs)
        return [int(x) for x in rhs]

    ux = solve([phi.res] + [0] * (n - 1))
    uy = solve([0] * (n - 1) + [phi.res])
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


def _arch_grid_sup(phi: RationalMapQ, radii: int, angles: int) -> float:
    """Grid sup of |g| over both charts of P1; the forms are evaluated
    scaled by 2^-k, so k log 2 / d goes back into g."""
    r = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, radii)])
    th = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    z = np.outer(r, np.exp(1j * th)).ravel()
    best = 0.0
    for x, y in ((z, np.ones_like(z)), (np.ones_like(z), z)):
        fv, gv, k = phi.hom_eval_float(x, y)
        top = np.maximum(np.abs(fv), np.abs(gv))
        g = (np.log(np.maximum(top, 1e-300)) + k * LOG2) / phi.d - np.log(
            np.maximum(np.abs(x), np.abs(y))
        )
        best = max(best, float(np.max(np.abs(g))))
    return best


def _finite_sample_sup(phi: RationalMapQ, p: int) -> float:
    """|g_p| at a few valuation profiles; exact for each sampled point."""
    num, den = phi.num_den_z()
    best = Fraction(0)
    for k in range(-3, 4):
        z = Fraction(p) ** k
        fz = sum(Fraction(c) * z**i for i, c in enumerate(num))
        gz = sum(Fraction(c) * z**i for i, c in enumerate(den))
        if fz == 0 and gz == 0:
            continue
        vmin = min(padic_valuation(fz, p), padic_valuation(gz, p))
        gval = Fraction(-vmin, phi.d) - max(0, -k)
        best = max(best, abs(gval))
    fa, ga = phi.hom_eval_int(1, 0)
    vmin = min(padic_valuation(fa, p), padic_valuation(ga, p))
    best = max(best, abs(Fraction(-vmin, phi.d)))
    f0, g0 = phi.hom_eval_int(0, 1)
    vmin = min(padic_valuation(f0, p), padic_valuation(g0, p))
    best = max(best, abs(Fraction(-vmin, phi.d)))
    return float(best) * math.log(p)


def cphi_bound(phi: RationalMapQ, place: PlaceQ,
               grid_radii: int = 200, grid_angles: int = 256) -> CphiBound:
    """Numeric estimate and certified upper bound for sup |g_v|.

    Monomial-like maps get the exact closed form at every place.  Otherwise
    the upper side comes from coefficient norms and the lower side from the
    Bezout cofactor identity divided by the resultant.
    """
    prof = phi.monomial_profile
    if prof is not None:
        a = prof.coeff.numerator
        c = prof.coeff.denominator
        if place.is_arch:
            exact = int_log(max(abs(a), c)) / phi.d
        else:
            exact = abs(padic_valuation(prof.coeff, place.p)) * math.log(place.p) / phi.d
        return CphiBound(None, place, exact, exact)
    a, b, c, e = _bezout_cofactors(phi)
    if place.is_arch:
        l1f = sum(abs(x) for x in phi.fcoeffs)
        l1g = sum(abs(x) for x in phi.gcoeffs)
        k2 = max(
            sum(abs(x) for x in a) + sum(abs(x) for x in b),
            sum(abs(x) for x in c) + sum(abs(x) for x in e),
        )
        certified = max(
            math.log(max(l1f, l1g)) / phi.d,
            (math.log(k2) - int_log(abs(phi.res))) / phi.d,
        )
        numeric = min(_arch_grid_sup(phi, grid_radii, grid_angles), certified)
        return CphiBound(None, place, numeric, certified)
    p = place.p
    vres = padic_valuation(phi.res, p)
    m = min(
        padic_valuation(x, p) for x in (*a, *b, *c, *e) if x != 0
    )
    certified = max(0.0, (vres - m) * math.log(p) / phi.d)
    numeric = min(_finite_sample_sup(phi, p), certified)
    return CphiBound(None, place, numeric, certified)


@dataclass(frozen=True)
class L1HeightControl:
    total: float
    entries: tuple  # (weight: Fraction, CphiBound) pairs


def l1_height_control_total(system: StochasticSystem) -> L1HeightControl:
    """Weighted certified bound sum over the archimedean place and every
    bad prime of the system; finite by construction."""
    primes = set()
    for phi in system.maps:
        primes |= bad_primes(phi)
    places = [ARCH] + [prime_place(p) for p in sorted(primes)]
    entries = []
    for idx, (phi, w) in enumerate(system):
        for place in places:
            bound = replace(cphi_bound(phi, place), map_index=idx)
            entries.append((w, bound))
    total = math.fsum(float(w) * b.certified_upper for w, b in entries)
    return L1HeightControl(total, tuple(entries))
