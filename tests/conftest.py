import os
from fractions import Fraction

import pytest

from stochdyn.dynsys import make_map, make_system


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process "
                f"({'still running' if pid == 0 else f'pid {pid}'})")


@pytest.fixture()
def forks(monkeypatch):
    """The test runs as if on two CPUs (so forks.fork_map, and through it
    forks.split_walk, which only the IFS walk calls, may fork), and the list
    counts its calls of os.fork, one entry each."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


@pytest.fixture(scope="session")
def dyadic():
    """The two-map example system {z^2 (1/2), 2z^2 (1/2)}."""
    return make_system(
        [make_map([0, 0, 1], [1]), make_map([0, 0, 2], [1])],
        [Fraction(1, 2), Fraction(1, 2)],
    )


@pytest.fixture(scope="session")
def single_z2():
    return make_system([make_map([0, 0, 1], [1])], [Fraction(1)])


@pytest.fixture(scope="session")
def mixed():
    """{z^2 + 1 (1/2), z^2 (1/2)}: one non-monomial map, so samplers take
    the fiber walk and equidist the sampled reference."""
    return make_system([make_map([1, 0, 1], [1]), make_map([0, 0, 1], [1])],
                       [Fraction(1, 2), Fraction(1, 2)])


@pytest.fixture(scope="session")
def general():
    """The pair {z^2 - 1 (1/2), (z^3 + 1)/(2z) (1/2)} of
    perfbench/general.json."""
    return make_system(
        [make_map([-1, 0, 1], [1]), make_map([1, 0, 0, 1], [0, 2])],
        [Fraction(1, 2), Fraction(1, 2)])


@pytest.fixture(scope="session")
def signed():
    """{-z^2 (1/2), 1/(2z^2) (1/2)}: monomial shaped, with a negative
    coefficient and an inverted map."""
    return make_system([make_map([0, 0, -1], [1]), make_map([1], [0, 0, 2])],
                       [Fraction(1, 2), Fraction(1, 2)])
