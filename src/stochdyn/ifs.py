"""The affine iterated function system of a monomial-shaped system.

A map a z^d acts on the coordinate x of a place by x -> d x + s, and a map
a z^(-d) by x -> s - d x, where

    x = log|z|,  s = log|a|      at infinity,
    x = v_p(z),  s = v_p(a)      at a prime p.

Every preimage of a point has the same coordinate, so backward orbits see
the coordinate through the affine iterated function system

    x -> (x - s_i)/d_i,  or  (s_i - x)/d_i  for inverted maps,

with map i drawn with probability nu_i.  Its stationary law (Hutchinson
1981) is the local canonical measure seen through the coordinate: a single
atom when every map fixes the same point, else a continuous law that the
CDF fixed-point equation

    F(u) = sum_i nu_i F(d_i u + s_i)          (1 - F(s_i - d_i u) if inverted)

determines.  Shifts at a prime stay exact rationals, so fixed points and
atoms there are exact.

The module also holds the empirical CDFs and Kolmogorov-Smirnov distances
that score samples against these laws (hand rolled; scipy is only used as
an oracle in the test suite) and the CDF CSV writer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .dynsys import StochasticSystem
from .exactnum import log_abs_fraction, padic_valuation

_ATOM_TOL = 1e-9  # fixed points this close count as one atom
_GRID_SIZE = 4096
_CDF_ITERS = 64
# rows per write of the CSV writers; whole-array tolist() would hold every
# cell of a 100k-row file as a Python object at once
CSV_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class AffineIFS:
    """Per-map shifts, degrees, exponent signs and probabilities."""

    shifts: tuple  # float log|a_i| at infinity, Fraction v_p(a_i) at p
    degrees: tuple
    inverted: tuple
    probs: np.ndarray

    @cached_property
    def arrays(self) -> tuple:
        """Shifts and degrees as float64 arrays, and the inverted mask."""
        return (np.array([float(s) for s in self.shifts]),
                np.array(self.degrees, dtype=float), np.array(self.inverted))

    def step(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """One backward step of each x[k] through map idx[k], in float64."""
        s, d, inv = self.arrays
        s = s[idx]
        return np.where(inv[idx], s - x, x - s) / d[idx]


def affine_ifs(system: StochasticSystem, p: Optional[int] = None
               ) -> Optional[AffineIFS]:
    """The IFS at infinity (p None) or at the prime p; None if some map is
    not of the form a z^d or a z^(-d)."""
    profiles = [phi.monomial_profile for phi in system.maps]
    if any(pr is None for pr in profiles):
        return None
    if p is None:
        shifts = [log_abs_fraction(pr.coeff) for pr in profiles]
    else:
        shifts = [Fraction(padic_valuation(pr.coeff, p)) for pr in profiles]
    return AffineIFS(tuple(shifts), tuple(phi.d for phi in system.maps),
                     tuple(pr.inverted for pr in profiles),
                     np.array([float(q) for q in system.probs]))


@dataclass(frozen=True, eq=False)
class StationaryLaw:
    """A single atom, or a CDF given on a uniform grid."""

    atom: Union[float, Fraction, None] = None  # Fraction at a prime
    grid: Optional[np.ndarray] = None
    cdf: Optional[np.ndarray] = None

    def cdf_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.atom is not None:
            return (x >= float(self.atom)).astype(float)
        return np.interp(x, self.grid, self.cdf, left=0.0, right=1.0)


def stationary_law(ifs: AffineIFS) -> StationaryLaw:
    """Stationary law of the backward walk.

    The grid spans 0 and every fixed point, widened by 1 on each side and
    then until every backward map sends it into itself; the CDF equation
    is iterated on it from F = 1{x >= 0}, the law of a start at x = 0,
    until the transient is below grid resolution.
    """
    fps = [s / (d + 1) if inv else -s / (d - 1)
           for s, d, inv in zip(ifs.shifts, ifs.degrees, ifs.inverted)]
    if max(fps) - min(fps) <= _ATOM_TOL:
        return StationaryLaw(atom=fps[0])
    anchors = [0.0] + [float(f) for f in fps]
    lo, hi = min(anchors) - 1.0, max(anchors) + 1.0
    m = len(ifs.shifts)
    for _ in range(200):
        ends = ifs.step(np.repeat([lo, hi], m), np.tile(np.arange(m), 2))
        nlo, nhi = min(lo, float(ends.min())), max(hi, float(ends.max()))
        if nlo == lo and nhi == hi:
            break
        lo, hi = nlo, nhi
    grid = np.linspace(lo, hi, _GRID_SIZE)
    f = (grid >= 0.0).astype(float)
    rows = list(zip(*ifs.arrays, ifs.probs))
    for _ in range(_CDF_ITERS):
        nxt = np.zeros_like(f)
        for s, d, inverted, prob in rows:
            if inverted:
                # P(x' <= u) = P(x >= s - d u)
                q = np.interp(s - d * grid, grid, f, left=0.0, right=1.0)
                nxt += prob * (1.0 - q)
            else:
                q = np.interp(d * grid + s, grid, f, left=0.0, right=1.0)
                nxt += prob * q
        f = nxt
    return StationaryLaw(grid=grid, cdf=f)


# ---------------------------------------------------------------------------
# empirical CDFs and Kolmogorov-Smirnov distances

@dataclass(frozen=True)
class EmpiricalCDF:
    values: np.ndarray  # sorted ascending

    @classmethod
    def from_samples(cls, xs: np.ndarray) -> "EmpiricalCDF":
        return cls(np.sort(np.asarray(xs, dtype=float)))

    @property
    def n(self) -> int:
        return len(self.values)

    def eval(self, x) -> np.ndarray:
        return np.searchsorted(self.values, x, side="right") / self.n

    def eval_left(self, x) -> np.ndarray:
        return np.searchsorted(self.values, x, side="left") / self.n


def ks_one_sample(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup |F_emp - F| for a continuous reference CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    ref = np.asarray(cdf(xs), dtype=float)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return float(max(np.max(ref - lo), np.max(hi - ref)))


def ks_vs_grid_cdf(samples: np.ndarray, grid: np.ndarray, ref: np.ndarray) -> float:
    """sup |F_emp - F_ref| against a piecewise-linear CDF given on a grid.

    Candidates include both the sample points and the grid nodes, and the
    empirical CDF is evaluated from both sides, so step-like references
    are handled without assuming continuity of the empirical part.
    """
    emp = EmpiricalCDF.from_samples(samples)
    cand = np.concatenate([emp.values, grid])
    fr = np.interp(cand, grid, ref, left=float(ref[0]), right=float(ref[-1]))
    d1 = np.max(np.abs(emp.eval(cand) - fr))
    d2 = np.max(np.abs(emp.eval_left(cand) - fr))
    return float(max(d1, d2))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    fa = EmpiricalCDF.from_samples(a)
    fb = EmpiricalCDF.from_samples(b)
    cand = np.concatenate([fa.values, fb.values])
    d1 = np.max(np.abs(fa.eval(cand) - fb.eval(cand)))
    d2 = np.max(np.abs(fa.eval_left(cand) - fb.eval_left(cand)))
    return float(max(d1, d2))


def ks_to_law(xs: np.ndarray, law: StationaryLaw, n: int) -> float:
    """Distance of level-n samples from a stationary law.

    Against an atom it is the share of samples farther than 1/n from it
    (the sup-CDF distance for a window of that width); against a grid CDF
    it is the usual sup-CDF distance.
    """
    if law.atom is not None:
        return float(np.mean(np.abs(xs - float(law.atom)) > 1.0 / max(n, 1)))
    return ks_vs_grid_cdf(xs, law.grid, law.cdf)


def write_cdf_csv(xs: np.ndarray, law: Optional[StationaryLaw], column: str,
                  fileobj, label: Callable[[float], float] = float) -> None:
    """Rows (label(x), empirical CDF, reference CDF) at the sorted samples;
    the reference column is blank without a law.  The lines are those of
    csv.writer, written a block of rows at a time (no cell needs quoting)."""
    emp = EmpiricalCDF.from_samples(xs)
    ref = None if law is None else law.cdf_at(emp.values)
    n = emp.n
    csv.writer(fileobj).writerow([column, "empirical_cdf", "reference_cdf"])
    for lo in range(0, n, CSV_BLOCK):
        vals = emp.values[lo:lo + CSV_BLOCK].tolist()
        ranks = range(lo + 1, lo + 1 + len(vals))
        # one f-string per line: a list of formatted reference cells per
        # block would add about 0.5 MB to the writer's peak memory
        if ref is None:
            lines = (f"{label(x):.12g},{i / n:.12g},\r\n"
                     for i, x in zip(ranks, vals))
        else:
            lines = (f"{label(x):.12g},{i / n:.12g},{r:.12g}\r\n"
                     for i, x, r in zip(ranks, vals,
                                        ref[lo:lo + CSV_BLOCK].tolist()))
        fileobj.write("".join(lines))
