"""The second CPU: one ordered fork map, and the row split of the IFS walk.

fork_map hands the second half of a loop to a forked child and yields the
results in item order (the acceptance battery, the CSV block writer);
split_walk walks the second half of a seeded IFS walk's rows in that child
on the numbers they get in one process (the backward walker of
monomial-shaped systems), by one rule priced at one cost per row-step.
Either prints the bytes one process prints.  This module imports nothing
from stochdyn.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
from typing import Callable, Iterator, Sequence

import numpy as np

_busy = False  # set while a fork_map of this process has a child, and in it


def _may_fork() -> bool:
    """Whether a fork_map may fork now: os.fork exists, this process may
    use more than one CPU, and it neither has a fork_map child running nor
    is one, so that at most two processes ever compute."""
    if _busy or not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


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
    global _busy
    pid = pipe = None
    if split < len(items) and _may_fork():
        _busy = True  # before the fork, so that the child inherits it
        try:
            pid, pipe = _fork(fn, items[split:])
        finally:
            _busy = pid is not None
    done = split if pid is not None else len(items)
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
            _busy = False
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
    try:
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


# A walk splits when its estimated work, rows x steps x _ROW_STEP_S, is at
# least _SPLIT_FACTOR fork_map round trips, and each half has at least
# _SPLIT_ROWS rows.  A round trip, fork_map of two items from a process that
# imported stochdyn, took about 2.7 ms, plus about 2 ms per 800 KB the child
# returns, so a split saves at least one round trip.  A row-step of the IFS
# walk (orbits.backward_walk) took about 17 ns; both on a 2-vCPU VM, Python
# 3.11, numpy 2.4.
_ROUND_TRIP_S = 2.7e-3
_RETURN_S_PER_BYTE = 2e-3 / 800e3
_ROW_STEP_S = 17e-9
_SPLIT_FACTOR = 4
_SPLIT_ROWS = 1024


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
        bitgen.advance(self.lo)
        values = self.rng.random(self.hi - self.lo)
        bitgen.advance(n - self.hi)
        return values


def split_walk(walk: Callable, rows: list, steps: int,
               rng: np.random.Generator) -> tuple:
    """The arrays walk(rows, rng) returns: a seeded IFS walk of `steps`
    steps, whose row k starts at entry k of each start array in the list
    rows and ends at entry k of each returned array.  walk owns the list
    and may empty it, so that a walk in one piece frees its start arrays
    as it goes; it makes every draw as rng.random(count), count =
    len(rows[0]), and raises nothing.  rng is the PCG64 Generator of
    np.random.default_rng that orbits.backward_walk gets, which has drawn
    only doubles, so RowDraws reproduce its draws.

    When the walk is large enough (the rule beside _SPLIT_FACTOR) and
    fork_map may fork, a fork_map child walks rows [h, count), h = count //
    2, while this process walks rows [0, h), each half as walk(its rows,
    RowDraws(rng, lo, hi)) from rng's start state; the halves go into one
    output, allocated once this process's half is done.  Every row sees
    the numbers it sees in the walk in one piece, so the arrays are that
    walk's bit for bit, and rng ends in its end state.  Any other walk
    runs in one piece here.
    """
    count = len(rows[0])
    h = count // 2
    work = count * steps * _ROW_STEP_S
    trip = _ROUND_TRIP_S + _RETURN_S_PER_BYTE * sum(
        a[h:].nbytes for a in rows)
    if h < _SPLIT_ROWS or work < _SPLIT_FACTOR * trip or not _may_fork():
        return walk(rows, rng)
    start = rng.bit_generator.state
    out = []
    spans = [(0, h), (h, count)]

    def half(span):
        lo, hi = span
        rng.bit_generator.state = start
        return walk([a[lo:hi] for a in rows], RowDraws(rng, lo, hi))

    for (lo, hi), part in zip(spans, fork_map(half, spans, 1)):
        if not out:
            out = [np.empty(count, p.dtype) for p in part]
        for whole, piece in zip(out, part):
            whole[lo:hi] = piece
    return tuple(out)
