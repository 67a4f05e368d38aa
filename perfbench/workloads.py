"""Workload definitions: the command list of each workload and the checks
applied to every output.

Each operation is one user-visible command: a `stochdyn` CLI call, or a run
of `scripts/backward_tree_stats.py`, which is how users reach the exact
backward tree.  Paths are relative to the root of the checkout, which is the
working directory of every pass.

Workloads and why each was chosen:

- dyadic: the reference pair {z^2, 2z^2} of configs/example.json.  Every
  command takes a monomial fast path (vectorized stepper, exact escape
  enumeration, grid-CDF references, 100k-row CSV writers), and the closed
  forms of the pair check the answers.  The numeric walker and the bigint
  height DP barely run, so a change to either should not move this workload.
- general: the non-monomial pair {(z^2-1) 1/2, (z^3+1)/(2z) 1/2} of
  perfbench/general.json.  The per-sample np.roots walker does most of the
  work; the affine models of the monomial case are bypassed.
- exact: the bigint and Fraction paths: the acceptance suite, exact height
  DPs at small tolerances and exact backward trees.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

LOG2 = math.log(2.0)
EXAMPLE = "configs/example.json"
GENERAL = "perfbench/general.json"
TREE_SCRIPT = "scripts/backward_tree_stats.py"
WORK_DIR = ".bench_work"

# Command kinds; each end-to-end or per-command time sums the operations of
# one kind within a pass.
KINDS = ("validate", "stoch_height", "orbit_sample", "equidist_arch",
         "equidist_padic", "green_eval", "radii", "backward_tree", "suite")

# Failures that the program is known to produce at the commit that added this
# benchmark.  They still count as failed operations; `correct` turns false
# only for a failure that matches none of them.
KNOWN_DEFECTS = (
    ("'np.float64(", "ROADMAP D5: write_samples_csv writes numpy reprs"),
    ("raised IntegerOverflowBudget",
     "ROADMAP D2/D5: bit-budget overflow escapes the CLI as a traceback"),
)


def known_defect(reason: str) -> Optional[str]:
    for marker, label in KNOWN_DEFECTS:
        if marker in reason:
            return label
    return None


@dataclass(frozen=True)
class Op:
    """One command.  `check(stdout, outputs)` returns failure reasons.

    `clock_fields` matches wall-clock durations the command prints; they are
    left out when a traced pass is compared byte for byte with an untraced
    one, since no two runs print the same durations.
    """

    label: str
    kind: str
    argv: tuple
    check: Callable[[str, tuple], list]
    expect_rc: int = 0
    outputs: tuple = field(default=())
    script: Optional[str] = None
    clock_fields: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup_config: str
    ops: tuple


# ---------------------------------------------------------------------------
# output checks (standard library only, so they cannot perturb the program)

def _record(stdout: str) -> dict:
    return json.loads(stdout)


def _finite(rec: dict, *keys) -> list:
    bad = [k for k in keys
           if not isinstance(rec.get(k), (int, float))
           or not math.isfinite(rec[k])]
    return [f"{k} = {rec.get(k)!r} is not a finite number" for k in bad]


def _close(name: str, got: float, want: float, tol: float) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, expected {want!r} within {tol!r}"]


def csv_failures(path: str, expect_rows: Optional[int] = None) -> list:
    """Every cell below the header must parse with float()."""
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            rows += 1
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    return [f"{path} row {rows}: cell {cell!r} does not "
                            f"parse as float"]
    if expect_rows is not None and rows != expect_rows:
        return [f"{path}: {rows} rows, expected {expect_rows}"]
    return []


def _checked(fn):
    """Turns a malformed record into a failure instead of a crash."""
    def check(stdout, outputs):
        try:
            return fn(stdout, outputs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return check


@_checked
def check_validate(stdout, outputs):
    rec = _record(stdout)
    return _finite(rec, "stochastic_degree", "distortion_budget")


def check_stoch_height(tol: float):
    @_checked
    def check(stdout, outputs):
        rec = _record(stdout)
        fails = _finite(rec, "value", "stderr", "tail_bound")
        if not fails and rec["tail_bound"] > tol:
            fails.append(f"tail_bound {rec['tail_bound']!r} above tol {tol!r}")
        return fails
    return check


@_checked
def check_dyadic_stoch_height_1(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "value", "stderr", "tail_bound")
    if fails:
        return fails
    return _close("h_S(1)", rec["value"], LOG2 / 2,
                  rec["tail_bound"] + 3.0 * rec["stderr"])


def check_orbit_sample(samples: int):
    @_checked
    def check(stdout, outputs):
        rec = _record(stdout)
        return _finite(rec, "mean_log_abs") + csv_failures(outputs[0], samples)
    return check


@_checked
def check_dyadic_equidist_arch(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "ks_radial", "ks_angular", "potential_residual")
    for key in ("ks_radial", "ks_angular"):
        if not fails and rec[key] > 0.02:
            fails.append(f"{key} = {rec[key]!r} above 0.02")
    return fails + csv_failures(outputs[0], 100000)


@_checked
def check_dyadic_equidist_2(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "ks")
    if not fails and rec["ks"] > 0.02:
        fails.append(f"ks = {rec['ks']!r} above 0.02")
    return fails + csv_failures(outputs[0], 100000)


@_checked
def check_dyadic_green_0(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "green", "tol")
    return fails or _close("g(0)", rec["green"], -LOG2 / 2, rec["tol"])


@_checked
def check_dyadic_radii(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "r_in", "r_out", "self_energy")
    if fails:
        return fails
    r_in, r_out = rec["r_in"] / 2 ** (-1 / 6), rec["r_out"] / 2 ** (1 / 3)
    return (_close("r_in / 2^(-1/6)", r_in, 1.0, 0.01)
            + _close("r_out / 2^(1/3)", r_out, 1.0, 0.01))


@_checked
def check_general_equidist(stdout, outputs):
    rec = _record(stdout)
    fails = _finite(rec, "ks_radial", "ks_angular", "potential_residual")
    if rec.get("reference") != "sampled":
        fails.append(f"reference = {rec.get('reference')!r}, "
                     f"expected 'sampled'")
    return fails


@_checked
def check_general_green(stdout, outputs):
    return _finite(_record(stdout), "green", "potential")


@_checked
def check_suite(stdout, outputs):
    lines = stdout.splitlines()
    failing = [ln.split()[0] for ln in lines
               if ln.startswith("criterion-") and " FAIL " in ln]
    passing = [ln for ln in lines
               if ln.startswith("criterion-") and " PASS " in ln]
    fails = []
    if failing != ["criterion-05"]:
        fails.append(f"failing criteria {failing}, expected ['criterion-05']")
    if len(passing) != 13:
        fails.append(f"{len(passing)} criteria passed, expected 13")
    return fails


def check_tree(depth: int):
    """Invariants of the table printed by backward_tree_stats.py."""
    @_checked
    def check(stdout, outputs):
        rows = [ln.split() for ln in stdout.splitlines()[1:depth + 2]]
        if len(rows) != depth + 1 or any(len(r) != 5 for r in rows):
            return [f"expected {depth + 1} level rows"]
        fails = []
        for level, atoms, sup, sumsq, mean_log in rows:
            atoms, sup = int(atoms), Fraction(sup)
            sumsq, mean_log = float(sumsq), float(mean_log)
            # weights sum to 1, so 1/atoms <= sup and sup^2 <= sum w^2 <= sup;
            # sum w^2 is printed with four significant digits
            if not (Fraction(1, atoms) <= sup <= 1
                    and float(sup) ** 2 * (1 - 1e-3) <= sumsq
                    <= float(sup) * (1 + 1e-3)
                    and math.isfinite(mean_log)):
                fails.append(f"level {level}: inconsistent row {atoms} "
                             f"{sup} {sumsq} {mean_log}")
        if "certified 3-level contraction ratio" not in stdout:
            fails.append("no contraction certificate printed")
        return fails
    return check


# ---------------------------------------------------------------------------
# workloads

def _cli(label, kind, command, config, seed, *rest, check, expect_rc=0,
         outputs=(), clock_fields=None):
    argv = (command, "--config", config, "--seed", str(seed)) + rest
    return Op(label, kind, argv, check, expect_rc, outputs,
              clock_fields=clock_fields)


def _tree(label, config, alpha, depth):
    argv = ("--config", config, alpha, "--depth", str(depth))
    return Op(label, "backward_tree", argv, check_tree(depth),
              script=TREE_SCRIPT)


def workload(name: str, seed: int) -> Workload:
    w = WORK_DIR
    if name == "dyadic":
        c = EXAMPLE
        ops = (
            _cli("validate", "validate", "validate", c, seed,
                 check=check_validate),
            _cli("stoch-height 1", "stoch_height", "stoch-height", c, seed,
                 "1", check=check_dyadic_stoch_height_1),
            _cli("orbit-sample 1", "orbit_sample", "orbit-sample", c, seed,
                 "1", "--out", f"{w}/dyadic_orbit.csv",
                 check=check_orbit_sample(100000),
                 outputs=(f"{w}/dyadic_orbit.csv",)),
            _cli("equidist 1 arch", "equidist_arch", "equidist", c, seed,
                 "1", "--place", "arch", "--out", f"{w}/dyadic_arch.csv",
                 check=check_dyadic_equidist_arch,
                 outputs=(f"{w}/dyadic_arch.csv",)),
            _cli("equidist 1 p=2", "equidist_padic", "equidist", c, seed,
                 "1", "--place", "2", "--out", f"{w}/dyadic_val2.csv",
                 check=check_dyadic_equidist_2,
                 outputs=(f"{w}/dyadic_val2.csv",)),
            _cli("green-eval 0", "green_eval", "green-eval", c, seed, "0",
                 check=check_dyadic_green_0),
            _cli("radii", "radii", "radii", c, seed, check=check_dyadic_radii),
        )
        return Workload(name, c, ops)
    if name == "general":
        c = GENERAL
        ops = (
            _cli("validate", "validate", "validate", c, seed,
                 check=check_validate),
            _cli("stoch-height 3/2", "stoch_height", "stoch-height", c, seed,
                 "3/2", check=check_stoch_height(1e-3)),
            _cli("orbit-sample 3", "orbit_sample", "orbit-sample", c, seed,
                 "3", "--out", f"{w}/general_orbit.csv",
                 check=check_orbit_sample(1000),
                 outputs=(f"{w}/general_orbit.csv",)),
            _cli("equidist 3", "equidist_arch", "equidist", c, seed, "3",
                 check=check_general_equidist),
            _cli("green-eval 0", "green_eval", "green-eval", c, seed, "0",
                 check=check_general_green),
        )
        return Workload(name, c, ops)
    if name == "exact":
        ops = (
            # criteria 1 and 10 print their run time, "run 0.2s"
            _cli("suite", "suite", "suite", EXAMPLE, seed, check=check_suite,
                 expect_rc=1, clock_fields=r"run \d+\.\d+s"),
            _cli("stoch-height 3/2 tol 1e-4 (general)", "stoch_height",
                 "stoch-height", GENERAL, seed, "3/2", "--tol", "1e-4",
                 check=check_stoch_height(1e-4)),
            _cli("stoch-height 3/2 tol 1e-6 (example)", "stoch_height",
                 "stoch-height", EXAMPLE, seed, "3/2", "--tol", "1e-6",
                 check=check_stoch_height(1e-6)),
            _tree("backward_tree 1 depth 7 (example)", EXAMPLE, "1", 7),
            _tree("backward_tree 3 depth 5 (general)", GENERAL, "3", 5),
        )
        return Workload(name, EXAMPLE, ops)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dyadic", "general", "exact")
