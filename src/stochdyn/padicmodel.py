"""Non-archimedean side: reduction types and valuation dynamics.

At a finite place p the only systems with computable canonical measures
here are the monomial-shaped ones, a z^d or a z^(-d).  Their action on
the valuation coordinate v = v_p(z) is the affine IFS of `ifs` at p,
v -> d v + v_p(a) (sign flipped for inverted maps), so backward orbits of
valuations walk backward through it; degrees and exponent signs may be
mixed.  Its stationary law is the canonical measure seen through the
valuation coordinate; for the system {z^2 (1/2), 2 z^2 (1/2)} at p = 2 it
is uniform on v in [-1, 0].

Good-reduction places keep all mass at the Gauss point v = 0.  Places of
bad reduction whose maps are not monomial-shaped are reported
UnsupportedStructure rather than approximated.

Shifts, fixed points and atoms are exact rationals.  The walk itself
runs in float64, which is exact while every degree is a power of 2 and
the valuations need at most 53 significant bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynsys import ExceptionalStart, StochasticSystem, is_exceptional_system
from .exactnum import ProjPointQ, StochdynError, normalize_point, padic_valuation
from .ifs import (
    AffineIFS,
    StationaryLaw,
    affine_ifs,
    ks_to_law,
    stationary_law,
    write_cdf_csv,
)

import sympy


class UnsupportedStructure(StochdynError):
    """No computable valuation dynamics for this system at this place."""


@dataclass(frozen=True)
class GoodReduction:
    pass


@dataclass(frozen=True)
class MonomialLike:
    ifs: AffineIFS


@dataclass(frozen=True)
class Unsupported:
    pass


def classify_place(system: StochasticSystem, p: int):
    """GoodReduction if p divides no resultant; else MonomialLike when
    every map is monomial-shaped; else Unsupported."""
    if p < 2 or not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    if all(phi.res % p != 0 for phi in system.maps):
        return GoodReduction()
    ifs = affine_ifs(system, p)
    return Unsupported() if ifs is None else MonomialLike(ifs)


def stationary_segment(system: StochasticSystem, p: int) -> StationaryLaw:
    """Stationary law of the backward valuation walk at p: an exact atom
    when every map fixes the same valuation, else a grid CDF."""
    ifs = affine_ifs(system, p)
    if ifs is None:
        raise UnsupportedStructure(
            f"system has a non-monomial map; no valuation dynamics at p={p}")
    return stationary_law(ifs)


def sample_backward_valuations(system: StochasticSystem, p: int,
                               alpha: ProjPointQ, n: int, samples: int,
                               seed: int) -> np.ndarray:
    """Level-n backward valuation samples from alpha, with all guards."""
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    alpha = normalize_point(alpha.a, alpha.b)
    if is_exceptional_system(system, alpha):
        raise ExceptionalStart(f"{alpha} is exceptional for this system")
    if alpha.a == 0 or alpha.b == 0:
        raise ValueError("start must have finite nonzero valuation")
    if isinstance(classify_place(system, p), Unsupported):
        raise UnsupportedStructure(
            f"bad reduction at p={p} without monomial shape")
    ifs = affine_ifs(system, p)
    if ifs is None:
        # good reduction but no valuation coordinate to walk in
        raise UnsupportedStructure(
            f"place p={p} has good reduction but the maps are not "
            "monomial-shaped; valuation sampling is undefined")
    v = np.full(samples, float(padic_valuation(alpha.as_fraction(), p)))
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = ifs.step(v, rng.choice(len(ifs.probs), size=samples, p=ifs.probs))
    return v


def equidist_test_padic(system: StochasticSystem, p: int, alpha: ProjPointQ,
                        n: int, samples: int, seed: int):
    """(ks, vals, law): the level-n backward valuations vals from alpha,
    the stationary law at p and their distance ks (`ifs.ks_to_law`)."""
    vals = sample_backward_valuations(system, p, alpha, n, samples, seed)
    law = stationary_segment(system, p)
    return ks_to_law(vals, law, n), vals, law


def write_valuation_cdf_csv(vals: np.ndarray, reference: StationaryLaw,
                            fileobj) -> None:
    """Rows (v, empirical CDF, reference CDF) at the sorted sample values."""
    write_cdf_csv(vals, reference, "v", fileobj)
