"""Non-archimedean side: valuation dynamics of monomial-shaped systems.

At a finite place p the only systems with computable canonical measures
here are the monomial-shaped ones, a z^d or a z^(-d).  Their action on
the valuation coordinate v = v_p(z) is the affine IFS of `ifs` at p,
v -> d v + v_p(a) (sign flipped for inverted maps), so backward orbits of
valuations walk backward through it; degrees and exponent signs may be
mixed.  The walk's stationary law, which `archpotential.equidist` scores
it against, is the canonical measure seen through the valuation
coordinate; for the system {z^2 (1/2), 2 z^2 (1/2)} at p = 2 it is
uniform on v in [-1, 0].

A system with a map that is not monomial-shaped is reported
UnsupportedStructure at every prime, good or bad, rather than
approximated.

Shifts, fixed points and atoms are exact rationals.  The walk itself
runs in float64, which is exact while every degree is a power of 2 and
the valuations need at most 53 significant bits.  It runs in one process:
a forked half of it won no resolvable wall-clock time on the command.
"""

from __future__ import annotations

import numpy as np

from .dynsys import StochasticSystem, walk_start
from .exactnum import ProjPointQ, StochdynError, padic_valuation
from .heights import PlaceQ
from .ifs import affine_ifs, map_sampler


class UnsupportedStructure(StochdynError):
    """No computable valuation dynamics for this system at this place."""


def valuation_ifs(system: StochasticSystem, place: PlaceQ):
    """The valuations' IFS at the prime place; UnsupportedStructure unless
    every map is monomial-shaped."""
    ifs = affine_ifs(system, place)
    if ifs is None:
        raise UnsupportedStructure(
            f"system has a non-monomial map; no valuation dynamics at {place}")
    return ifs


def sample_backward_valuations(system: StochasticSystem, place: PlaceQ,
                               alpha: ProjPointQ, n: int, samples: int,
                               seed: int) -> np.ndarray:
    """Level-n backward valuation samples at the prime place from alpha,
    with all guards (dynsys.walk_start's among them); level 0 is the atom
    at v_p(alpha)."""
    if place.is_arch:
        raise ValueError("the valuation walk needs a prime place")
    alpha = walk_start(system, alpha, n, samples)
    ifs = valuation_ifs(system, place)
    rng = np.random.default_rng(seed)
    draw = map_sampler(ifs.probs)
    degs = ifs.arrays[1]
    v = np.full(samples, float(padic_valuation(alpha.as_fraction(), place.p)))
    for _ in range(n):
        idx = draw(rng, samples)
        v = ifs.step(v, idx, degs[idx])
    return v
