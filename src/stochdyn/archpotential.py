"""Archimedean Green's function, potentials, and equidistribution checks.

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
sharing its tail budget.  The anchoring matters: for systems with
unbalanced leading coefficients the raw escape sum carries a constant
drift (for {z^2 (1/2), 2 z^2 (1/2)} it is (log 2)/2) that would otherwise
pollute every value.

The potential of the canonical measure is p(z) = g_S(z) + log+|z|, and
the canonical measure itself is sampled by pulling the uniform unit
circle backward n steps, choosing a preimage with probability
multiplicity/degree at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .dynsys import ExceptionalStart, StochasticSystem, is_exceptional_system
from .exactnum import ProjPointQ, StochdynError, normalize_point
from .ifs import (
    StationaryLaw,
    affine_ifs,
    ks_one_sample,
    ks_to_law,
    ks_two_sample,
    stationary_law,
    write_cdf_csv,
)
from .orbits import OrbitSampleBatch, backward_sample, backward_walk
from .stochheight import (
    Lifts,
    escape_sum_exact,
    escape_sum_mc,
    tail_budget,
    word_source,
)


class QuadratureFailure(StochdynError):
    """Circle quadrature did not settle under refinement."""


_RADII_SEED = 0x5EED_4A11  # fixed so radii() is reproducible without a seed knob


@dataclass(frozen=True)
class GreenConfig:
    """Accuracy knobs for Green's function evaluation.

    depth None means the smallest depth whose TailBudget tail is at most
    tol; an explicit depth must meet the same bound.  samples is the Monte
    Carlo word count used when full word enumeration would be too large.
    precision is the floor below which homogeneous coordinates collapse.
    """

    depth: Optional[int] = None
    samples: int = 1024
    tol: float = 1e-3
    precision: float = 1e-12

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be at least 1")


_ENUM_CAP = 1 << 15  # enumerate words exactly up to this many leaves


def _hom_arrays(zs: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm-normalized homogeneous lifts; inf maps to (1, 0)."""
    z = np.array([complex(v) for v in zs])
    inf = np.isinf(z)
    scale = np.where(inf, 1.0, np.maximum(np.abs(z), 1.0))
    return (np.where(inf, 1.0, np.where(inf, 0.0, z) / scale),
            np.where(inf, 0.0, 1.0 / scale) + 0j)


def gS_eval_many(system: StochasticSystem, zs: Sequence[complex],
                 cfg: Optional[GreenConfig] = None) -> np.ndarray:
    """Green's function at each point, anchored so g(infinity) = 0."""
    return _anchored_green(system, _hom_arrays(list(zs) + [math.inf]), cfg)


def _anchored_green(system: StochasticSystem, coords: tuple,
                    cfg: Optional[GreenConfig]) -> np.ndarray:
    # coords: max-norm lifts whose last entry is infinity, (1, 0)
    cfg = cfg or GreenConfig()
    depth = tail_budget(system).depth(cfg.tol, cfg.depth)
    lifts = Lifts(coords)
    if len(system.maps) ** depth <= _ENUM_CAP:
        vals = escape_sum_exact(system, lifts, depth, cfg.precision)
    else:
        words = word_source(system, depth, np.random.default_rng(0))
        vals = escape_sum_mc(system, lifts, cfg.samples, words,
                             cfg.precision)[0]
    return vals[:-1] - vals[-1]


def gS_eval(system: StochasticSystem, z: Union[complex, ProjPointQ],
            cfg: Optional[GreenConfig] = None) -> float:
    """Green's function at a complex number, or at a rational point through
    its lift (a, b)/max(|a|, |b|) taken by int true division, as
    stochheight._point_lifts does, so a and b may lie past float range."""
    if not isinstance(z, ProjPointQ):
        return float(gS_eval_many(system, [z], cfg)[0])
    top = max(abs(z.a), abs(z.b))
    coords = (np.array([z.a / top, 1.0], dtype=complex),
              np.array([z.b / top, 0.0], dtype=complex))
    return float(_anchored_green(system, coords, cfg)[0])


def g1_eval(system: StochasticSystem, z: complex) -> float:
    """One-step expected Green's function E[(1/d) log max|Phi(z,1)| - log+|z|],
    the depth-1 escape sum; a point mapped to (0, 0) raises."""
    lifts = Lifts(_hom_arrays([z]))
    return float(escape_sum_exact(system, lifts, 1, math.ulp(0.0))[0])


def potential_eval(system: StochasticSystem, z: complex,
                   cfg: Optional[GreenConfig] = None) -> float:
    """Potential of the canonical measure, p(z) = g_S(z) + log+|z|."""
    z = complex(z)
    if math.isinf(z.real) or math.isinf(z.imag):
        return math.inf
    logplus = max(math.log(abs(z)), 0.0) if z != 0 else 0.0
    return gS_eval(system, z, cfg) + logplus


def canonical_sample(system: StochasticSystem, n: int, samples: int,
                     seed: int) -> OrbitSampleBatch:
    """Draws from the depth-n approximation of the canonical measure.

    Starts uniform on the unit circle and walks n backward steps, each
    step choosing a map by its probability and a preimage by
    multiplicity/degree.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    log_r, theta = backward_walk(system, np.zeros(samples), theta, None, n, rng)
    return OrbitSampleBatch(log_r, theta, n, seed, samples)


def reference_radial_cdf(system: StochasticSystem) -> Optional[StationaryLaw]:
    """Stationary law of log|w| under the backward radial walk, or None
    for systems with a non-monomial map.

    For monomial-shaped systems the radial step is the affine contraction
    L -> +-(L - log|a|)/d of their IFS, and the preimage choice does not
    affect the radius.
    """
    ifs = affine_ifs(system)
    return None if ifs is None else stationary_law(ifs)


# ---------------------------------------------------------------------------
# equidistribution diagnostics

_RESIDUAL_RADII = (0.1, 0.3, 1.5, 3.0)
_RESIDUAL_ANGLES = 8


def _residual_probes() -> np.ndarray:
    pts = [0.0 + 0.0j]
    for r in _RESIDUAL_RADII:
        for k in range(_RESIDUAL_ANGLES):
            pts.append(r * np.exp(2j * np.pi * k / _RESIDUAL_ANGLES))
    return np.array(pts)


@dataclass(frozen=True)
class ArchEquidistResult:
    ks_radial: float
    ks_angular: float
    potential_residual: float
    reference: str  # "atom", "stationary-cdf", or "sampled"
    batch: OrbitSampleBatch = field(repr=False, compare=False)
    law: Optional[StationaryLaw] = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "ks_radial": self.ks_radial,
            "ks_angular": self.ks_angular,
            "potential_residual": self.potential_residual,
            "reference": self.reference,
        }


def equidist_test_arch(system: StochasticSystem, alpha: ProjPointQ, n: int,
                       samples: int, seed: int,
                       cfg: Optional[GreenConfig] = None) -> ArchEquidistResult:
    """Compare the level-n backward measure from alpha with the canonical
    measure: KS distance in radius and angle plus a logarithmic-potential
    residual over a fixed probe set.  The result keeps the backward batch
    and the stationary radial law (None when sampled) it scored.

    Monomial-shaped systems are scored against the closed-form stationary
    radial law; others fall back to a 4x-size canonically sampled
    reference, whose KS statistic carries roughly double the noise floor
    (callers should double their thresholds on that path).
    """
    alpha = normalize_point(alpha.a, alpha.b)
    if is_exceptional_system(system, alpha):
        raise ExceptionalStart(f"{alpha} is exceptional for this system")
    cfg = cfg or GreenConfig()
    batch = backward_sample(system, alpha, n, samples, seed)

    law = reference_radial_cdf(system)
    if law is not None:
        ks_rad = ks_to_law(batch.log_abs, law, n)
        refname = "atom" if law.atom is not None else "stationary-cdf"
    else:
        ref_batch = canonical_sample(system, n, 4 * samples, seed + 1)
        ks_rad = ks_two_sample(batch.log_abs, ref_batch.log_abs)
        refname = "sampled"

    ks_ang = ks_one_sample(batch.angle, lambda t: t / (2.0 * np.pi))

    probes = _residual_probes()
    pts = batch.points
    # exact probe hits would give -inf; clip at a scale far below any
    # meaningful residual
    emp = np.array([
        float(np.mean(np.log(np.maximum(np.abs(x - pts), 1e-12))))
        for x in probes])
    g = gS_eval_many(system, probes, cfg)
    pot = g + np.maximum(np.log(np.maximum(np.abs(probes), 1e-300)), 0.0)
    residual = float(np.max(np.abs(emp - pot)))
    return ArchEquidistResult(ks_rad, ks_ang, residual, refname, batch, law)


def pullback_invariance_residual(system: StochasticSystem, n: int,
                                 samples: int, seed: int) -> float:
    """KS distance between the radial laws at depths n and n+1.

    Near-invariance under one more expected pullback is the sampling
    signature of the canonical measure; the statistic decays to the
    two-sample noise floor as n grows.
    """
    a = canonical_sample(system, n, samples, seed)
    b = canonical_sample(system, n + 1, samples, seed + 1)
    return ks_two_sample(a.log_abs, b.log_abs)


# ---------------------------------------------------------------------------
# epsilon-regularized energy

def _circle_quadrature(delta: complex, eps: float, precision: float) -> float:
    """(1/2pi) int log max(|delta - eps e^{is}|, eps) ds by trapezoid
    refinement.  The integrand is periodic and piecewise smooth, so the
    rule converges fast away from the kink and quadratically across it.
    """
    prev = None
    npts = 256
    while npts <= (1 << 17):
        s = np.linspace(0.0, 2.0 * np.pi, npts, endpoint=False)
        vals = np.log(np.maximum(np.abs(delta - eps * np.exp(1j * s)), eps))
        cur = float(np.mean(vals))
        if prev is not None and abs(cur - prev) <= precision:
            return cur
        prev = cur
        npts *= 2
    raise QuadratureFailure(
        f"circle quadrature for |delta|={abs(delta):.3g}, eps={eps:.3g} "
        f"did not converge to {precision:.1g}")


def regularize(support: Sequence[complex], weights: Sequence,
               eps: float, precision: float = 1e-8) -> float:
    """Energy (Delta_eps, Delta_eps) of the measure smoothed onto
    eps-circles: each atom t_i delta_{z_i} becomes t_i times the uniform
    measure on the circle |z - z_i| = eps.

    Self-energy of each circle is -log eps; cross terms integrate the
    floored point potential over the difference circle.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = [complex(z) for z in support]
    wts = [float(t) for t in weights]
    if len(pts) != len(wts):
        raise ValueError("support and weights must have equal length")
    total = sum(t * t for t in wts) * (-math.log(eps))
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            if i == j:
                continue
            mutual = -_circle_quadrature(zi - zj, eps, precision)
            total += wts[i] * wts[j] * mutual
    return total


# ---------------------------------------------------------------------------
# inner and outer radii of the recentered Green's function

_PROBE_SHELLS = 64
_PROBE_ANGLES = 64


def _radii_probes() -> list:
    rs = np.geomspace(1e-2, 1e2, _PROBE_SHELLS)
    probes = [0.0 + 0.0j, math.inf]
    for r in rs:
        for k in range(_PROBE_ANGLES):
            probes.append(r * np.exp(2j * np.pi * k / _PROBE_ANGLES))
    return probes


def rho_self_energy(system: StochasticSystem,
                    cfg: Optional[GreenConfig] = None) -> float:
    """(rho, rho) = -E_{w ~ rho}[p(w)] estimated by canonical sampling.

    Uses at least 8192 draws regardless of cfg.samples: the radii depend
    on this number through exp(energy/2), so its Monte Carlo error has to
    sit well inside a one-percent radius budget.
    """
    cfg = cfg or GreenConfig()
    depth = tail_budget(system).depth(cfg.tol, cfg.depth)
    draws = max(cfg.samples, 8192)
    batch = canonical_sample(system, depth + 10, draws, _RADII_SEED)
    g = gS_eval_many(system, batch.points, cfg)
    p = g + np.maximum(batch.log_abs, 0.0)
    return float(-np.mean(p))


def radii(system: StochasticSystem, cfg: Optional[GreenConfig] = None,
          energy: Optional[float] = None) -> tuple[float, float]:
    """Inner and outer radii of the recentered Green's function.

    With gt = g_S + (rho, rho)/2, returns (exp(-sup gt), exp(-inf gt))
    over a probe grid of 64 shells x 64 angles plus {0, infinity}.  The
    shift recenters by half the self-energy of the canonical measure, so
    a single map c z^d with |c| != 1 gets the symmetric pair of radii
    around its Julia circle.  energy, when given, is rho_self_energy(system,
    cfg) already computed by the caller.
    """
    cfg = cfg or GreenConfig()
    if energy is None:
        energy = rho_self_energy(system, cfg)
    g = gS_eval_many(system, _radii_probes(), cfg)
    gt = g + 0.5 * energy
    return float(np.exp(-np.max(gt))), float(np.exp(-np.min(gt)))


# ---------------------------------------------------------------------------
# CSV emission

def write_radial_cdf_csv(batch: OrbitSampleBatch,
                         reference: Optional[StationaryLaw], fileobj) -> None:
    """Rows (r, empirical CDF, reference CDF) at the sorted sample radii.

    The reference column uses the stationary radial law (as from
    reference_radial_cdf) when there is one and is left blank otherwise.
    """
    write_cdf_csv(batch.log_abs, reference, "r", fileobj, math.exp)
