"""Split walks: forks.RowDraws and forks.split_walk, and the IFS walks
that go through them, against the same walks in one process.  Fiber walks
run in one process (test_orbits)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochdyn.forks
from stochdyn.archpotential import canonical_sample
from stochdyn.exactnum import normalize_point
from stochdyn.forks import RowDraws, fork_map, split_walk
from stochdyn.orbits import backward_sample


def _state(rng) -> dict:
    return rng.bit_generator.state


@pytest.fixture()
def dear(monkeypatch):
    """A walk price of 1 s per row-step, so that whether a test walk splits
    turns on its rows and on whether this process may fork."""
    monkeypatch.setattr(stochdyn.forks, "_ROW_STEP_S", 1.0)


@st.composite
def _rows(draw):
    count = draw(st.integers(1, 300))
    lo = draw(st.integers(0, count - 1))
    return count, lo, draw(st.integers(lo + 1, count))


@settings(max_examples=150, deadline=None)
@given(bitgen=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]),
       seed=st.integers(0, 2**32), ahead=st.integers(0, 9), rows=_rows(),
       calls=st.integers(1, 4))
def test_row_draws_are_the_rows_of_full_draws(bitgen, seed, ahead, rows,
                                              calls):
    # `ahead` draws first, so that the rows start anywhere in the stream
    count, lo, hi = rows
    full, part = (np.random.Generator(bitgen(seed)) for _ in range(2))
    full.random(ahead)
    part.random(ahead)
    draws = RowDraws(part, lo, hi)
    for _ in range(calls):
        got = draws.random(count)
        assert got.tobytes() == full.random(count)[lo:hi].tobytes()
    assert _state(part) == _state(full)


_N = 4096


def _walk(count):
    """A walk of two steps over one start array of count rows, each step
    one draw per row through draws.random."""
    def walk(rows, draws):
        x = rows.pop()
        for _ in range(2):
            x = x * 0.5 + draws.random(count)
        return (x,)

    return walk


def _split(rng, count=_N):
    return split_walk(_walk(count), [np.arange(count, dtype=float)], 2,
                      rng)[0]


def _one_piece(seed, count=_N):
    rng = np.random.default_rng(seed)
    x = np.arange(count, dtype=float)
    for _ in range(2):
        x = x * 0.5 + rng.random(count)
    return x, _state(rng)


def test_split_walk_is_the_walk_in_one_piece(forks, dear):
    rng = np.random.default_rng(3)
    x, state = _one_piece(3)
    assert _split(rng).tobytes() == x.tobytes() and _state(rng) == state
    assert forks == [1]


def test_split_walk_rule(forks, monkeypatch):
    # the walk splits from _SPLIT_FACTOR round trips of work and
    # _SPLIT_ROWS rows on each side
    rule = stochdyn.forks
    half = rule._SPLIT_ROWS
    trip = rule._ROUND_TRIP_S + rule._RETURN_S_PER_BYTE * 8 * half
    at_bound = rule._SPLIT_FACTOR * trip / (2 * half * 2)
    for count, cost, splits in ((2 * half, 1.01 * at_bound, True),
                                (2 * half, 0.99 * at_bound, False),
                                (2 * half - 1, 1.0, False)):
        forks.clear()
        monkeypatch.setattr(rule, "_ROW_STEP_S", cost)
        rng = np.random.default_rng(5)
        x, state = _one_piece(5, count)
        assert _split(rng, count).tobytes() == x.tobytes()
        assert _state(rng) == state and len(forks) == splits


def test_split_walk_on_one_cpu_or_in_a_fork_map_half(forks, dear,
                                                     monkeypatch):
    x, _ = _one_piece(3)
    # in both halves of a running fork_map: here, and in its child
    for got in fork_map(lambda _: _split(np.random.default_rng(3)), [0, 1],
                        1):
        assert got.tobytes() == x.tobytes()
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _split(np.random.default_rng(3)).tobytes() == x.tobytes()
    assert forks == [1]


def _forked_and_one_cpu(monkeypatch, forks, sample):
    """The bytes of sample() on two CPUs, after checking that it forked
    once, and on one CPU."""
    def arrays():
        return [a.tobytes() for a in np.atleast_2d(sample())]

    forked = arrays()
    assert forks == [1]
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert arrays() == forked
    assert forks == [1]


def _batch(batch):
    return np.stack((batch.log_abs, batch.angle))


@pytest.mark.parametrize("name", ["dyadic", "signed"])
def test_ifs_walks_split_as_in_one_process(monkeypatch, forks, request,
                                           name):
    system = request.getfixturevalue(name)
    _forked_and_one_cpu(monkeypatch, forks, lambda: _batch(backward_sample(
        system, normalize_point(3, 2), 40, 20_000, 9)))
    forks.clear()
    _forked_and_one_cpu(monkeypatch, forks, lambda: _batch(canonical_sample(
        system, 40, 20_000, 9)))
