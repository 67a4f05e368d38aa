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

The module also holds the map sampler of every walk, the Kolmogorov-Smirnov
distances that score samples against these laws (hand rolled; scipy is only
an oracle in the test suite) and the one CSV block writer, behind the CDF
CSV here and the sample CSV of orbits, whose second half of blocks a forked
child formats (forks.fork_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .dynsys import StochasticSystem
from .exactnum import log_abs_fraction, padic_valuation
from .forks import fork_map
from .heights import ARCH, PlaceQ

_ATOM_TOL = 1e-9  # fixed points this close count as one atom
_GRID_SIZE = 4096
_CDF_ITERS = 64
# rows per block of every loop over a sample-sized array (KS distances, CSV
# writers, numeric fibers, the residual potential), so that its temporaries
# stay a fixed size whatever the sample count; the CSV writer's tolist()
# would otherwise hold every cell of a 100k-row file as a Python object
ROW_BLOCK = 8192


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

    def step(self, x: np.ndarray, idx: np.ndarray,
             d: np.ndarray) -> np.ndarray:
        """One backward step of each x[k] through map idx[k], whose degree
        the caller has gathered as d[k], in float64."""
        s, _, inv = self.arrays
        s = s[idx]
        return (np.where(inv[idx], s - x, x - s) if any(self.inverted)
                else x - s) / d


def map_sampler(probs) -> Callable:
    """draw(rng, shape): i.i.d. indices i with probability probs[i].  It is
    Generator.choice(len(probs), size=shape, p=probs) without the checks
    choice repeats per call: the same draws, and rng left in the same state.

    A draw is the number of cut points cdf[:-1] at or below its uniform,
    which is searchsorted(cdf, u, "right").  One comparison per cut point
    beats the binary search up to some 32 maps; at 64 maps 100k draws take
    6.2 ms against its 4.5 ms (2-vCPU VM, numpy 2.4)."""
    cdf = np.array(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    cuts = cdf[:-1].tolist()

    def draw(rng, shape):
        u = rng.random(shape)
        idx = np.zeros(np.shape(u), dtype=np.intp)
        for c in cuts:
            idx += u >= c
        return idx

    return draw


def affine_ifs(system: StochasticSystem, place: PlaceQ = ARCH
               ) -> Optional[AffineIFS]:
    """The IFS at the place; None if some map is not of the form a z^d or
    a z^(-d)."""
    profiles = [phi.monomial_profile for phi in system.maps]
    if any(pr is None for pr in profiles):
        return None
    if place.is_arch:
        shifts = [log_abs_fraction(pr.coeff) for pr in profiles]
    else:
        shifts = [Fraction(padic_valuation(pr.coeff, place.p))
                  for pr in profiles]
    return AffineIFS(tuple(shifts), tuple(phi.d for phi in system.maps),
                     tuple(pr.inverted for pr in profiles),
                     np.array([float(q) for q in system.probs]))


@dataclass(frozen=True, eq=False)
class StationaryLaw:
    """A single atom, or a CDF given on a uniform grid [lo, hi] and linear
    between its nodes (0 below lo, 1 above hi); error bounds its W1
    distance to the law it stands for."""

    atom: Union[float, Fraction, None] = None  # Fraction at a prime
    grid: Optional[np.ndarray] = None
    cdf: Optional[np.ndarray] = None
    error: float = 0.0

    @property
    def kind(self) -> str:
        """The law's name in records: "atom" or "stationary-cdf"."""
        return "atom" if self.atom is not None else "stationary-cdf"

    def cdf_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.atom is not None:
            return (x >= float(self.atom)).astype(float)
        return np.interp(x, self.grid, self.cdf, left=0.0, right=1.0)

    @cached_property
    def _integrals(self) -> tuple:
        # int_lo^x F at each node, and int_lo^hi F^2, both exact on the
        # linear cells
        a, b = self.cdf[:-1], self.cdf[1:]
        h = np.diff(self.grid)
        cum = np.concatenate([[0.0], np.cumsum(h * (a + b) / 2.0)])
        return cum, float(np.sum(h * (a * a + a * b + b * b) / 3.0))

    def mean(self) -> float:
        """E T = hi - int_lo^hi F."""
        if self.atom is not None:
            return float(self.atom)
        return float(self.grid[-1] - self._integrals[0][-1])

    def mean_max(self, s) -> np.ndarray:
        """E max(s, T) = max(s, hi) - int_min(s, hi)^hi F at each finite s
        (F vanishes below lo)."""
        s = np.asarray(s, dtype=float)
        if self.atom is not None:
            return np.maximum(s, float(self.atom))
        grid, f = self.grid, self.cdf
        cum = self._integrals[0]
        x = np.clip(s, grid[0], grid[-1])
        k = np.clip(np.searchsorted(grid, x, side="right") - 1, 0,
                    len(grid) - 2)
        dx = x - grid[k]
        slope = (f[k + 1] - f[k]) / (grid[k + 1] - grid[k])
        below = cum[k] + dx * f[k] + 0.5 * slope * dx * dx  # int_lo^x F
        return np.maximum(s, grid[-1]) - (cum[-1] - below)

    def mean_max_pair(self) -> float:
        """E max(T, T') = hi - int_lo^hi F^2, T' an independent copy."""
        if self.atom is not None:
            return float(self.atom)
        return float(self.grid[-1] - self._integrals[1])


def stationary_law(ifs: AffineIFS) -> StationaryLaw:
    """Stationary law of the backward walk.

    The grid spans 0 and every fixed point, widened by 1 on each side and
    then until every backward map sends it into itself; the CDF equation
    is iterated on it from F = 1{x >= 0}, the law of a start at x = 0,
    until the transient is below grid resolution.

    The error is a W1 bound.  Each iteration's linear interpolation moves
    the law at most h/2 (h the grid step), and one backward step contracts
    W1 by kappa = sum_i nu_i / d_i <= 1/2, so after the 64 iterations

        error = h / (2 (1 - kappa)) + kappa^64 (hi - lo).

    An atom stands for fixed points spread over at most _ATOM_TOL; every
    point of the true support lies within 3 spreads of the first one (a
    step halves its distance to its map's fixed point at worst), which is
    its error.
    """
    fps = [s / (d + 1) if inv else -s / (d - 1)
           for s, d, inv in zip(ifs.shifts, ifs.degrees, ifs.inverted)]
    spread = max(fps) - min(fps)
    if spread <= _ATOM_TOL:
        return StationaryLaw(atom=fps[0], error=3.0 * float(spread))
    anchors = [0.0] + [float(f) for f in fps]
    lo, hi = min(anchors) - 1.0, max(anchors) + 1.0
    m = len(ifs.shifts)
    idx = np.tile(np.arange(m), 2)
    degs = ifs.arrays[1][idx]
    for _ in range(200):
        ends = ifs.step(np.repeat([lo, hi], m), idx, degs)
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
    kappa = float(np.sum(ifs.probs / ifs.arrays[1]))
    step = (hi - lo) / (_GRID_SIZE - 1)
    error = step / (2.0 * (1.0 - kappa)) + kappa ** _CDF_ITERS * (hi - lo)
    grid.flags.writeable = f.flags.writeable = False  # radial_law shares them
    return StationaryLaw(grid=grid, cdf=f, error=error)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distances

def ks_one_sample(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup |F_emp - F| for a continuous nondecreasing reference CDF, where
    the sup is reached at a sample, from one side or the other.  cdf is
    taken elementwise, ROW_BLOCK sorted samples at a time, and the sup is
    the max of the blocks' maxima."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    tops = []
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        ref = np.asarray(cdf(xs[lo:hi]), dtype=float)
        tops.append(np.max(ref - np.arange(lo, hi) / n))
        tops.append(np.max(np.arange(lo + 1, hi + 1) / n - ref))
    return float(np.max(tops))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b|: both empirical CDFs are right-continuous steps
    that jump only at samples, so the sup is reached at a sample, and each
    left limit there is the value at the previous candidate.  The
    candidates are taken ROW_BLOCK at a time, a's then b's, and the sup is
    the max of the blocks' maxima."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    tops = []
    for cand in (a, b):
        for lo in range(0, len(cand), ROW_BLOCK):
            block = cand[lo:lo + ROW_BLOCK]
            fa = np.searchsorted(a, block, side="right") / len(a)
            fb = np.searchsorted(b, block, side="right") / len(b)
            tops.append(np.max(np.abs(fa - fb)))
    return float(np.max(tops))


def ks_to_law(xs: np.ndarray, law: StationaryLaw, n: int) -> float:
    """Distance of level-n samples from a stationary law.

    Against an atom it is the share of samples farther than 1/n from it
    (the sup-CDF distance for a window of that width); against a grid CDF
    it is the usual sup-CDF distance.
    """
    if law.atom is not None:
        return float(np.mean(np.abs(xs - float(law.atom)) > 1.0 / max(n, 1)))
    return ks_one_sample(xs, law.cdf_at)


def write_csv_blocks(fileobj, header: str, row: str, n: int,
                     columns: Callable[[int, int], list]) -> None:
    """The one CSV block writer: the header line, then rows 0 to n - 1,
    ROW_BLOCK at a time, each block one %-format of the row template
    repeated over the cells columns(lo, hi) gives column by column for rows
    [lo, hi): the lines of csv.writer when no cell needs quoting.  A forked
    child formats the second half of the blocks (forks.fork_map)."""
    fileobj.write(header + "\r\n")

    def block(lo):
        hi = min(lo + ROW_BLOCK, n)
        cols = columns(lo, hi)
        cells = [None] * (len(cols) * (hi - lo))
        for k, col in enumerate(cols):
            cells[k::len(cols)] = col
        return row * (hi - lo) % tuple(cells)

    starts = range(0, n, ROW_BLOCK)
    for text in fork_map(block, starts, (len(starts) + 1) // 2):
        fileobj.write(text)


def write_cdf_csv(xs: np.ndarray, law: Optional[StationaryLaw], column: str,
                  fileobj, label: Callable[[float], float] = float) -> None:
    """Rows (label(x), empirical CDF, reference CDF) at the sorted samples,
    through write_csv_blocks; the reference column is blank without a law,
    and the reference CDF is taken per block."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)

    def columns(lo, hi):
        # ranks below 2^53 convert exactly, so each quotient is Python's i / n
        cols = [map(label, xs[lo:hi].tolist()),
                (np.arange(lo + 1, hi + 1) / n).tolist()]
        if law is not None:
            cols.append(law.cdf_at(xs[lo:hi]).tolist())
        return cols

    write_csv_blocks(fileobj, f"{column},empirical_cdf,reference_cdf",
                     "%.12g,%.12g,\r\n" if law is None
                     else "%.12g,%.12g,%.12g\r\n", n, columns)
