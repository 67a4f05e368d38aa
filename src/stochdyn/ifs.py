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
an oracle in the test suite), the CDF CSV writer, `fork_map`, the one
ordered map that hands the second half of a loop to a forked child (the
acceptance battery's criteria and the blocks of both CSV writers go through
it), and `split_walk`, which walks the second half of a seeded walk's rows
in that child on exactly the random numbers those rows get in one process.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .dynsys import StochasticSystem
from .exactnum import log_abs_fraction, padic_valuation
from .heights import ARCH, PlaceQ

_ATOM_TOL = 1e-9  # fixed points this close count as one atom
_GRID_SIZE = 4096
_CDF_ITERS = 64
# rows per block of every loop over a sample-sized array (KS distances, CSV
# writers, numeric fibers, the residual potential), so that its temporaries
# stay a fixed size whatever the sample count; the CSV writers' tolist()
# would otherwise hold every cell of a 100k-row file as a Python object
ROW_BLOCK = 8192
_in_child = False  # set in a fork_map child, whose own fork_maps run serially
_child_running = False  # set while a fork_map of this process has a child


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether a fork_map may fork now: os.fork exists, this process may
    use more than one CPU, and it neither is a fork_map child nor has one
    running, so that at most two processes ever compute."""
    return (not _in_child and not _child_running and hasattr(os, "fork")
            and _cpus() > 1)


def fork_map(fn: Callable, items: Sequence, split: int) -> Iterator:
    """Yield fn(item) for each item, in item order.

    This process computes items[:split] while a forked child computes
    items[split:], keeps the results and then pickles them back through a
    pipe one at a time, so that the caller never holds the child's half at
    once.  Whatever the child did not deliver (fn raised there, or the
    child died) is computed again here after the child is reaped, so an
    exception is raised where the serial loop raises it; the child's
    stdout and stderr go to os.devnull.  Everything runs in this process
    when there is no os.fork, this process may use one CPU only, split >=
    len(items), the fork fails, this is a fork_map child itself, or
    another fork_map of this process has its child running.

    The child is forked rather than spawned, because a fresh interpreter
    would cost as much as the half it takes over; fn and items reach it as
    they are, unpickled.  It freezes the objects it inherits out of its
    garbage collections and ends with os._exit, so it runs no finalizer of
    an inherited object and flushes no inherited file buffer.  It is
    killed, if still running, and reaped when the generator ends or is
    closed.
    """
    global _child_running
    pid = pipe = None
    if split < len(items) and _may_fork():
        pid, pipe = _fork(fn, items[split:])
    done = split if pid is not None else len(items)
    if pid is not None:
        _child_running = True
    try:
        for item in items[:done]:
            yield fn(item)
        while done < len(items):
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                break  # the child stopped early
            done += 1
            yield result
    finally:
        if pid is not None:
            # imported here: the signal module's enums add about 2.5 ms to
            # the start of every command, most of which never fork
            import signal

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            _child_running = False
    for item in items[done:]:
        yield fn(item)


def _fork(fn: Callable, items: Sequence) -> tuple:
    """(pid, read end of its pipe) of a child serving fn over items, or
    (None, None) when the pipe or the fork fails."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None, None
    if pid == 0:
        _serve(fn, items, rfd, wfd)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def _serve(fn: Callable, items: Sequence, rfd: int, wfd: int) -> None:
    """The child of fork_map: maps fn over items up to the first exception,
    writes each result to wfd as one pickle, and exits.  Never returns."""
    global _in_child
    try:
        _in_child = True
        gc.freeze()
        os.close(rfd)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        results = []
        # the parent computes a failing item again and raises there
        with contextlib.suppress(Exception):
            for item in items:
                results.append(fn(item))
        with os.fdopen(wfd, "wb") as pipe:
            for result in results:
                pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


# A walk splits when its estimated work, rows x steps x its caller's cost per
# row-step, is at least _SPLIT_FACTOR fork_map round trips, and each half
# has at least _SPLIT_ROWS rows.  A round trip, fork_map of two items from a
# process that imported stochdyn, took about 2.7 ms, plus about 2 ms per
# 800 KB the child returns (2-vCPU VM, Python 3.11, numpy 2.4), so a split
# saves at least one round trip; the callers' costs per row-step were
# measured on the same VM.
_ROUND_TRIP_S = 2.7e-3
_RETURN_S_PER_BYTE = 2e-3 / 800e3
_SPLIT_FACTOR = 4
_SPLIT_ROWS = 1024


def _skip(bitgen, k: int) -> None:
    """Moves bitgen past its next k 64-bit outputs, into the state k draws
    leave.  PCG64 and PCG64DXSM advance by outputs; Philox advances by
    blocks of four and drops its buffer, so the buffered outputs and the
    last block are drawn instead."""
    state = bitgen.state
    if "buffer_pos" not in state:
        bitgen.advance(k)
        return
    size = len(state["buffer"])
    buffered = size - state["buffer_pos"]
    if k <= buffered:
        bitgen.random_raw(k)
        return
    blocks, last = divmod(k - buffered - 1, size)
    bitgen.advance(blocks)
    bitgen.random_raw(last + 1)


class RowDraws:
    """The draws of rows [lo, hi) of a walk: random(n) returns the values
    lo to hi of what rng.random(n) returns, and moves rng past all n of
    them, skipping the other rows' values with bit_generator.advance.  A
    walk that makes every draw through random(n), with n its row count,
    thus sees on rows [lo, hi) the numbers those rows see in the whole
    walk, and leaves rng in the whole walk's end state."""

    def __init__(self, rng: np.random.Generator, lo: int, hi: int):
        self.rng, self.lo, self.hi = rng, lo, hi

    def random(self, n: int) -> np.ndarray:
        bitgen = self.rng.bit_generator
        _skip(bitgen, self.lo)
        values = self.rng.random(self.hi - self.lo)
        _skip(bitgen, n - self.hi)
        return values


def _splittable(rng) -> bool:
    """Whether RowDraws reproduce rng's draws: its bit generator advances
    and holds no buffered 32-bit value, which advance would drop."""
    bitgen = rng.bit_generator
    return hasattr(bitgen, "advance") and not bitgen.state["has_uint32"]


def split_walk(walk: Callable, rows: list, steps: int, row_step_s: float,
               rng: np.random.Generator) -> tuple:
    """The arrays walk(rows, rng) returns: a seeded walk of `steps` steps,
    each of whose rows starts at its entries of the start arrays in the
    list rows and ends at its entries of the returned arrays, one per start
    array.  walk owns the list and may empty it, so that a walk in one
    piece frees its start arrays as it goes, and it makes every draw as
    rng.random(count), count = len(rows[0]).

    When the walk is large enough (the rule beside _SPLIT_FACTOR), fork_map
    may fork and RowDraws reproduce rng's draws, a fork_map child walks
    rows [h, count), h = count // 2, while this process walks rows [0, h),
    each half as walk(its rows, RowDraws(rng, lo, hi)) from rng's start
    state; the halves go into one output, allocated once this process's
    half is done.  Every row sees the numbers it sees in the walk in one
    piece, so the arrays are that walk's bit for bit, and rng ends in its
    end state.  A split walk that raises is walked again in one piece here,
    so it raises what that walk raises.  Any other walk runs in one piece
    here.
    """
    count = len(rows[0])
    h = count // 2
    work = count * steps * row_step_s
    trip = _ROUND_TRIP_S + _RETURN_S_PER_BYTE * sum(
        a[h:].nbytes for a in rows)
    if (h < _SPLIT_ROWS or work < _SPLIT_FACTOR * trip or not _may_fork()
            or not _splittable(rng)):
        return walk(rows, rng)
    start = rng.bit_generator.state
    out = []
    spans = [(0, h), (h, count)]

    def half(span):
        lo, hi = span
        rng.bit_generator.state = start
        return walk([a[lo:hi] for a in rows], RowDraws(rng, lo, hi))

    try:
        for (lo, hi), part in zip(spans, fork_map(half, spans, 1)):
            if not out:
                out = [np.empty(count, p.dtype) for p in part]
            for whole, piece in zip(out, part):
                whole[lo:hi] = piece
    except Exception:
        rng.bit_generator.state = start
        return walk(rows, rng)
    return tuple(out)


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


def write_cdf_csv(xs: np.ndarray, law: Optional[StationaryLaw], column: str,
                  fileobj, label: Callable[[float], float] = float) -> None:
    """Rows (label(x), empirical CDF, reference CDF) at the sorted samples;
    the reference column is blank without a law.  The lines are those of
    csv.writer (no cell needs quoting), written ROW_BLOCK rows at a time,
    each block one %-format of a repeated row template over its cells, with
    the reference CDF taken per block; a forked child formats the second
    half of the blocks (fork_map)."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    csv.writer(fileobj).writerow([column, "empirical_cdf", "reference_cdf"])
    if law is None:
        row, width = "%.12g,%.12g,\r\n", 2
    else:
        row, width = "%.12g,%.12g,%.12g\r\n", 3

    def block(lo):
        hi = min(lo + ROW_BLOCK, n)
        cells = [None] * (width * (hi - lo))
        cells[0::width] = map(label, xs[lo:hi].tolist())
        # ranks below 2^53 convert exactly, so each quotient is Python's i / n
        cells[1::width] = (np.arange(lo + 1, hi + 1) / n).tolist()
        if law is not None:
            cells[2::width] = law.cdf_at(xs[lo:hi]).tolist()
        return row * (hi - lo) % tuple(cells)

    starts = range(0, n, ROW_BLOCK)
    for text in fork_map(block, starts, (len(starts) + 1) // 2):
        fileobj.write(text)
