"""Archimedean Green's function and potentials; equidistribution at every place.

The dynamical Green's function of a stochastic system is computed as a
renormalized escape rate.  Write gamma_k for the random composition of
the first k maps and deg gamma_k for its degree.  Lifting z to
homogeneous coordinates u_0 = (z, 1) / max-norm and renormalizing after
every map application,

    Phi_{i_k}(u_{k-1}) = m_k * u_k,      |u_k| normalized to max-norm 1,

the escape sum  T(z) = E [ sum_{k>=1} log(m_k) / deg gamma_k ]  converges
geometrically (each term is bounded by the expected one-step distortion
over deg gamma_k).  T(z) - log+|z| is the Green's function up to an
additive constant; we pin the constant by anchoring at infinity,

    g_S(z) = T(z) - T(infinity),

which forces g_S(infinity) = 0.  The escape sum is the stochastic-height
kernel of stochheight with complex lifts and infinity as its only place,
and its depth comes from green_budget, which bounds the anchored
difference by the width of each step's interval at infinity.  The
anchoring matters: for systems with unbalanced leading coefficients the
raw escape sum carries a constant drift (for {z^2 (1/2), 2 z^2 (1/2)} it
is (log 2)/2) that would otherwise pollute every value.

The potential of the canonical measure rho is p(z) = g_S(z) + log+|z|,
and rho itself is sampled by pulling the uniform unit circle backward n
steps, choosing a preimage with probability multiplicity/degree at each
step.

A monomial-shaped system's rho is rotation invariant, and the law of its
log-radius T is the stationary law of the system's affine IFS
(`radial_law`).  Jensen's formula then reads p, and so g_S, off that law:

    p(e^s) = E max(s, T),   p(0) = E T,   (rho, rho) = -E max(T, T'),

with T' an independent copy of T.  Both sides are 1-Lipschitz in T, so
the law's W1 bound law.error (`ifs.stationary_law`) bounds every such
g_S value, and twice it the self-energy.  `equidist` scores against that
law and `radii` reads its Green's function and self-energy off it; other
systems are sampled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .dynsys import StochasticSystem, walk_start
from .exactnum import ProjPointQ
from .heights import ARCH, PlaceQ
from .ifs import (
    ROW_BLOCK,
    StationaryLaw,
    affine_ifs,
    ks_one_sample,
    ks_to_law,
    ks_two_sample,
    stationary_law,
    write_cdf_csv,
)
from .orbits import OrbitSampleBatch, backward_sample, backward_walk
from .padicmodel import sample_backward_valuations
from .stochheight import EscapeEstimate, Lifts, escape_sum, green_budget


_RADII_SEED = 0x5EED_4A11  # fixed so radii() is reproducible without a seed knob
_ENUM_CAP = 1 << 15  # enumerate words exactly up to this many per point
_ENERGY_DRAWS = 8192  # canonical draws of rho_self_energy
_COLLAPSE_FLOOR = 1e-12  # homogeneous coordinates below this have collapsed


def _hom_arrays(zs: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm-normalized homogeneous lifts; inf maps to (1, 0)."""
    z = np.array([complex(v) for v in zs])
    inf = np.isinf(z)
    scale = np.where(inf, 1.0, np.maximum(np.abs(z), 1.0))
    return (np.where(inf, 1.0, np.where(inf, 0.0, z) / scale),
            np.where(inf, 0.0, 1.0 / scale) + 0j)


def gS_eval_many(system: StochasticSystem, zs: Sequence[complex],
                 tol: float = 1e-3, depth: Optional[int] = None) -> np.ndarray:
    """Green's function at each point, anchored so g(infinity) = 0, to
    within tol (the anchored-difference tail of green_budget plus the
    standard error), at the smallest depth for tol or the explicit depth,
    which must meet the same bound."""
    return _anchored_green(system, _hom_arrays(list(zs) + [math.inf]), tol,
                           depth).value


def _anchored_green(system: StochasticSystem, coords: tuple, tol: float,
                    depth: Optional[int]) -> EscapeEstimate:
    # coords: max-norm lifts whose last entry is infinity, (1, 0).  Past
    # _ENUM_CAP words per point escape_sum samples the tails, with seed 0;
    # the sampled tails of the two escape sums are independent.  Lifts
    # below _COLLAPSE_FLOOR raise ConvergenceFailure.
    est = escape_sum(system, lambda n: Lifts(coords), green_budget(system),
                     tol, _ENUM_CAP, 0, _COLLAPSE_FLOOR, depth)
    return replace(est, value=est.value[:-1] - est.value[-1],
                   stderr=np.hypot(est.stderr[:-1], est.stderr[-1]))


def gS_eval(system: StochasticSystem, z: Union[complex, ProjPointQ],
            tol: float = 1e-3, depth: Optional[int] = None) -> EscapeEstimate:
    """Green's function at a complex number, or at a rational point through
    its lift (a, b)/max(|a|, |b|) by int true division, as _point_lifts
    does, so a and b may lie past float range: floats with a stderr, to
    the accuracy of gS_eval_many."""
    if not isinstance(z, ProjPointQ):
        coords = _hom_arrays([z, math.inf])
    else:
        top = max(abs(z.a), abs(z.b))
        coords = (np.array([z.a / top, 1.0], dtype=complex),
                  np.array([z.b / top, 0.0], dtype=complex))
    est = _anchored_green(system, coords, tol, depth)
    return replace(est, value=float(est.value[0]),
                   stderr=float(est.stderr[0]))


@lru_cache(maxsize=64)
def radial_law(system: StochasticSystem,
               place: PlaceQ = ARCH) -> Optional[StationaryLaw]:
    """The law of the place's coordinate (log|w| at infinity, v_p(w) at p)
    under the canonical measure of a monomial-shaped system, None for any
    other: the stationary law of its affine IFS at the place, within W1
    distance law.error (`ifs.stationary_law`).  The one law lookup, cached
    per (system, place)."""
    ifs = affine_ifs(system, place)
    return None if ifs is None else stationary_law(ifs)


def canonical_sample(system: StochasticSystem, n: int, samples: int,
                     seed: int) -> OrbitSampleBatch:
    """Draws from the depth-n approximation of the canonical measure.

    Starts uniform on the unit circle and walks n backward steps, each
    step choosing a map by its probability and a preimage by
    multiplicity/degree.
    """
    walk_start(system, None, n, samples)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    log_r, theta = backward_walk(system, np.zeros(samples), theta, None, n, rng)
    return OrbitSampleBatch(log_r, theta, n, seed, samples)


# ---------------------------------------------------------------------------
# equidistribution diagnostics

_RESIDUAL_RADII = (0.1, 0.3, 1.5, 3.0)
_RESIDUAL_ANGLES = 8
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _rings(head, radii, angles: int) -> np.ndarray:
    """head, then r e^(2 pi i k / angles) for k < angles, r by r."""
    turns = np.exp(2j * np.pi * np.arange(angles) / angles)
    return np.concatenate([head, (np.asarray(radii)[:, None] * turns).ravel()])


def _residual_probes() -> np.ndarray:
    return _rings([0.0], _RESIDUAL_RADII, _RESIDUAL_ANGLES)


@dataclass(frozen=True, eq=False)
class EquidistResult:
    """What equidist scored at one place: the JSON fields (ks_radial,
    ks_angular, potential_residual and reference at infinity; ks at a
    prime), the scored values (log|z| at infinity, v_p(z) at p) and the
    stationary law they were scored against (None when sampled)."""

    place: PlaceQ
    scores: dict
    values: np.ndarray = field(repr=False)
    law: Optional[StationaryLaw] = field(repr=False)


def equidist(system: StochasticSystem, place: PlaceQ, alpha: ProjPointQ,
             n: int, samples: int, seed: int,
             tol: float = 1e-3) -> EquidistResult:
    """Compare the level-n backward measure from alpha with the canonical
    measure at the place.

    At a prime p the backward valuations (`padicmodel`) are scored against
    the stationary law of the IFS at p by `ifs.ks_to_law`.  At infinity the
    score is the KS distance in radius and angle plus a
    logarithmic-potential residual over a fixed probe set, with g_S to
    within tol.  Monomial-shaped systems are scored there against
    the closed-form stationary radial law; others fall back to a 4x-size
    canonically sampled reference, whose KS statistic carries roughly
    double the noise floor (callers should double their thresholds on that
    path).
    """
    if not place.is_arch:
        vals = sample_backward_valuations(system, place, alpha, n, samples,
                                          seed)
        law = radial_law(system, place)
        return EquidistResult(place, {"ks": ks_to_law(vals, law, n)}, vals,
                              law)
    batch = backward_sample(system, alpha, n, samples, seed)
    # the CDF CSV labels and the probe distances take a finite |z| as a float
    if np.any(np.isfinite(batch.log_abs) & (batch.log_abs > _LOG_FLOAT_MAX)):
        raise OverflowError("a sample's |z| is above the float range")

    # a monomial-shaped system's radial step is the affine contraction of
    # its IFS, and the preimage choice does not affect the radius
    law = radial_law(system)
    if law is not None:
        ks_rad = ks_to_law(batch.log_abs, law, n)
        refname = law.kind
    else:
        ref_batch = canonical_sample(system, n, 4 * samples, seed + 1)
        ks_rad = ks_two_sample(batch.log_abs, ref_batch.log_abs)
        refname = "sampled"

    ks_ang = ks_one_sample(batch.angle, lambda t: t / (2.0 * np.pi))

    probes = _residual_probes()
    emp = _log_potentials(batch.points, probes)
    g = gS_eval_many(system, probes, tol)
    pot = g + np.maximum(np.log(np.maximum(np.abs(probes), 1e-300)), 0.0)
    # with samples at infinity emp is +inf at every probe: JSON null
    residual = float(np.max(np.abs(emp - pot)))
    scores = {"ks_radial": ks_rad, "ks_angular": ks_ang, "reference": refname,
              "potential_residual": residual if residual < math.inf else None}
    return EquidistResult(place, scores, batch.log_abs, law)


def _log_potentials(pts: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Per probe x, the mean of log|x - z| over the points z, each log
    array filled ROW_BLOCK points at a time before its one np.mean.  Exact
    probe hits would give -inf; they are clipped at a scale far below any
    meaningful residual."""
    logs = np.empty(len(pts))
    emp = np.empty(len(probes))
    for k, x in enumerate(probes):
        for lo in range(0, len(pts), ROW_BLOCK):
            gap = np.abs(x - pts[lo:lo + ROW_BLOCK])
            logs[lo:lo + ROW_BLOCK] = np.log(np.maximum(gap, 1e-12))
        emp[k] = np.mean(logs)
    return emp


def pullback_invariance_residual(system: StochasticSystem, n: int,
                                 samples: int, seed: int) -> float:
    """KS distance between the radial laws at depths n and n+1.

    Near-invariance under one more expected pullback is the sampling
    signature of the canonical measure; the statistic decays to the
    two-sample noise floor as n grows.
    """
    a = canonical_sample(system, n, samples, seed).log_abs
    b = canonical_sample(system, n + 1, samples, seed + 1).log_abs
    return ks_two_sample(a, b)


# ---------------------------------------------------------------------------
# inner and outer radii of the recentered Green's function

_PROBE_SHELLS = 64
_PROBE_ANGLES = 64


def _probe_radii() -> np.ndarray:
    # per call, not at import: numpy sets up state on its first call, and
    # doing that at import raised every command's peak RSS (by ~0.07 MB)
    return np.geomspace(1e-2, 1e2, _PROBE_SHELLS)


def _radii_probes() -> np.ndarray:
    return _rings([0.0, math.inf], _probe_radii(), _PROBE_ANGLES)


def _sampled_potentials(system: StochasticSystem, tol: float) -> np.ndarray:
    """p = g_S + log+|w| at _ENERGY_DRAWS canonical draws, with g_S to
    within tol: the Monte Carlo route to (rho, rho) for systems without
    an IFS law."""
    depth = green_budget(system).depth(tol)
    batch = canonical_sample(system, depth + 10, _ENERGY_DRAWS, _RADII_SEED)
    g = gS_eval_many(system, batch.points, tol)
    return g + np.maximum(batch.log_abs, 0.0)


def rho_self_energy(system: StochasticSystem, tol: float = 1e-3) -> float:
    """(rho, rho) = -E_{w ~ rho}[p(w)].

    With an IFS law (`radial_law`) it is -E max(T, T') = -(hi - int F^2)
    by Jensen's formula, exact over the piecewise-linear CDF F, within
    2 law.error, and -t for an atom t; tol is only checked, as every tol
    is.  Otherwise it is a mean over _ENERGY_DRAWS canonical draws with g_S
    to within tol: the radii depend on it through exp(energy/2), so its
    Monte Carlo error has to sit well inside a one-percent radius budget.
    """
    law = radial_law(system)
    if law is not None:
        green_budget(system).depth(tol)  # refuses a tol that is not positive
        return 0.0 - law.mean_max_pair()  # 0.0, not -0.0, for t = 0
    return float(-np.mean(_sampled_potentials(system, tol)))


@dataclass(frozen=True)
class RadiiResult:
    """The radii record: the radii, the self-energy that recenters them,
    the reference they were read off ("atom", "stationary-cdf" or
    "sampled") and that law's W1 bound eps (None when sampled)."""

    r_in: float
    r_out: float
    self_energy: float
    reference: str
    grid_error: Optional[float]


def radii(system: StochasticSystem, tol: float = 1e-3) -> RadiiResult:
    """Inner and outer radii of the recentered Green's function, with the
    self-energy that recenters it and the reference both came from: the
    whole record the `radii` command prints, off the cached `radial_law`.

    With gt = g_S + (rho, rho)/2, r_in = exp(-sup gt) and
    r_out = exp(-inf gt) over 64 shells |z| in [1e-2, 1e2] plus
    {0, infinity}.  The shift recenters by half the self-energy of the
    canonical measure, so a single map c z^d with |c| != 1 gets the
    symmetric pair of radii around its Julia circle.

    With an IFS law g_S is radial, so one angle per shell serves:
    g(e^s) = E max(s, T) - s^+, g(0) = E T and g(infinity) = 0, each within
    eps = law.error of the truth and with no walk and no escape sum, so the
    radii are within a relative exp(2 eps) - 1 and the cost does not depend
    on tol.  Other systems evaluate g_S to within tol by escape sums at 64
    angles per shell.
    """
    law = radial_law(system)
    energy = rho_self_energy(system, tol)
    if law is not None:
        s = np.log(_probe_radii())
        g = np.concatenate([[law.mean(), 0.0],
                            law.mean_max(s) - np.maximum(s, 0.0)])
    else:
        g = gS_eval_many(system, _radii_probes(), tol)
    gt = g + 0.5 * energy
    return RadiiResult(float(np.exp(-np.max(gt))), float(np.exp(-np.min(gt))),
                       energy, "sampled" if law is None else law.kind,
                       None if law is None else law.error)


# ---------------------------------------------------------------------------
# CSV emission

def write_equidist_csv(result: EquidistResult, fileobj) -> None:
    """Rows (r, empirical CDF, reference CDF) at the sorted sample radii at
    infinity, (v, ...) at the sorted valuations at a prime; the reference
    column is blank when the result has no stationary law."""
    arch = result.place.is_arch
    write_cdf_csv(result.values, result.law, "r" if arch else "v", fileobj,
                  math.exp if arch else float)
