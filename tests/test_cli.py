import ast
import contextlib
import csv
import importlib
import json
import math
import os
import pathlib
import re
import runpy
import subprocess
import sys
import time
import types
import warnings

import pytest

import stochdyn.archpotential
import stochdyn.cli
import stochdyn.ifs
import stochdyn.orbits
import stochdyn.padicmodel
import stochdyn.stochheight
from stochdyn.cli import (
    ConfigParseError,
    InvariantViolation,
    build_system,
    load_config,
    main,
    parse_alpha,
)
from stochdyn.exactnum import INFINITY, ConvergenceFailure, normalize_point
from stochdyn.orbits import NodeBudgetExceeded

ROOT = pathlib.Path(__file__).parent.parent
REPO_CONFIG = ROOT / "configs" / "example.json"
GENERAL_CONFIG = ROOT / "perfbench" / "general.json"
SCRIPTS = ROOT / "scripts"
TREE_SCRIPT = SCRIPTS / "backward_tree_stats.py"

EXAMPLE = {
    "maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "1/2"},
        {"num_coeffs": [0, 0, 2], "den_coeffs": [1], "prob": "1/2"},
    ],
    "seed": 11,
    "depth": 20,
    "samples": 4000,
    "tol": 1e-3,
}


@pytest.fixture()
def example_config(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_script(monkeypatch, script, *argv):
    """Runs a script of scripts/ as __main__; returns its exit code."""
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    return stop.value.code


@contextlib.contextmanager
def warnings_as_errors():
    """Turns every warning, numpy's floating-point ones too, into an
    error, so that a command that would print one fails instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_parse_alpha():
    assert parse_alpha("inf") == INFINITY
    assert parse_alpha("7/3") == normalize_point(7, 3)
    assert parse_alpha("-2") == normalize_point(-2, 1)
    with pytest.raises(ConfigParseError):
        parse_alpha("abc")


def test_load_config_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"maps": EXAMPLE["maps"]}))
    cfg = load_config(str(path))
    assert cfg.depth == 30 and cfg.samples == 100000 and cfg.seed == 0
    assert cfg.tol == 1e-3 and len(cfg.sha256) == 64
    system = build_system(cfg)
    assert len(system.maps) == 2
    # configs written for the removed 'precision' setting still load
    path.write_text(json.dumps({"maps": EXAMPLE["maps"], "precision": 1e-9}))
    assert load_config(str(path)).tol == 1e-3


def test_validate_report(capsys, example_config):
    code, out, _ = run_cli(capsys, "validate", "--config", example_config)
    assert code == 0
    record = json.loads(out)
    assert record["stochastic_degree"] == 2.0
    assert record["exceptional_set"] == ["0", "inf"]
    assert record["maps"][1]["bad_primes"] == [2]
    assert record["distortion_budget"] == pytest.approx(math.log(2) / 2)
    assert record["seed"] == 11
    assert record["version"] and len(record["config_sha256"]) == 64


def test_validate_general_distortion_budget(capsys):
    # the certified per-place bounds of perfbench/general.json, summed
    code, out, _ = run_cli(capsys, "validate", "--config", str(GENERAL_CONFIG))
    assert code == 0
    assert '"distortion_budget": 0.40433585532663474,' in out


def test_validate_refuses_unfactored_resultant(capsys, tmp_path):
    # z^2 / (1000003 * 1000033): the resultant's composite cofactor is
    # above the trial bound, so validate prints no partial record
    path = tmp_path / "big_den.json"
    path.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1000003 * 1000033],
         "prob": "1"}]}))
    code, out, err = run_cli(capsys, "validate", "--config", str(path))
    assert (code, out) == (3, "")
    assert err == ("error: FactorizationTooLarge: composite cofactor "
                   "1000072001494007128009801 above trial bound 1000000\n")


def test_exit_codes(capsys, tmp_path, example_config, monkeypatch):
    code, _, err = run_cli(capsys, "validate", "--config",
                           str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{nope")
    code, _, _ = run_cli(capsys, "validate", "--config", str(mangled))
    assert code == 2

    badprob = tmp_path / "badprob.json"
    badprob.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "9/10"}]}))
    code, _, err = run_cli(capsys, "validate", "--config", str(badprob))
    assert code == 3

    deg1 = tmp_path / "deg1.json"
    deg1.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 1], "den_coeffs": [1], "prob": "1"}]}))
    code, _, err = run_cli(capsys, "validate", "--config", str(deg1))
    assert code == 3 and "DegreeTooLow" in err

    code, _, err = run_cli(capsys, "equidist", "--config", example_config,
                           "0", "--samples", "10", "--depth", "3")
    assert code == 4 and "ExceptionalStart" in err

    code, out, err = run_cli(capsys, "orbit-sample", "--config",
                             example_config, "0", "--samples", "10")
    assert code == 4 and "ExceptionalStart" in err and out == ""

    # bad depths and tolerances are rejected, not answered
    code, out, err = run_cli(capsys, "orbit-sample", "--config",
                             example_config, "1", "--depth", "-1")
    assert code == 3 and "ValueError" in err and out == ""
    code, out, err = run_cli(capsys, "equidist", "--config", example_config,
                             "1", "--depth", "-2")
    assert code == 3 and "ValueError" in err and out == ""
    # the depth is checked before the start point at every place
    for place in ("arch", "2"):
        code, out, err = run_cli(capsys, "equidist", "--config",
                                 example_config, "0", "--depth", "-2",
                                 "--place", place)
        assert code == 3 and "ValueError" in err and out == ""
    # nan passes a tol <= 0 test; it once printed depth 1 and exited 0
    for tol in ("0", "-1e-3", "nan"):
        code, out, err = run_cli(capsys, "stoch-height", "--config",
                                 example_config, "1", f"--tol={tol}")
        assert (code, out) == (3, "")
        assert err.startswith("error: ValueError: tol must be positive")
    # a depth below 1 is refused before any walk, with one message
    for depth in ("0", "-1"):
        code, out, err = run_cli(capsys, "green-eval", "--config",
                                 example_config, "1", f"--depth={depth}")
        assert (code, out) == (3, "")
        assert err == "error: ValueError: depth must be at least 1\n"

    # 101 maps: 101^3 length-3 words, which the exceptional test does not
    # enumerate
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "1/101"}] * 101}))
    code, out, _ = run_cli(capsys, "validate", "--config", str(many))
    assert code == 0
    assert json.loads(out)["exceptional_set"] == ["0", "inf"]
    for argv in (("orbit-sample", "1", "--samples", "5", "--depth", "2"),
                 ("equidist", "1", "--samples", "50", "--depth", "5"),
                 ("equidist", "1", "--samples", "50", "--depth", "5",
                  "--place", "2")):
        code, _, err = run_cli(capsys, argv[0], "--config", str(many),
                               *argv[1:])
        assert code == 0, err

    # no CLI input reaches these budgets cheaply; check the mapping itself
    for exc in (NodeBudgetExceeded, ConvergenceFailure):
        def fail(*args, exc=exc, **kwargs):
            raise exc("budget exhausted")
        monkeypatch.setattr(stochdyn.cli, "stoch_height", fail)
        code, _, err = run_cli(capsys, "stoch-height", "--config",
                               example_config, "1")
        assert code == 3 and exc.__name__ in err


def test_negative_seed_refused(capsys, tmp_path, example_config):
    # every command refuses a negative seed, from the config or from
    # --seed, with one message and nothing printed, also where the record
    # is exact and draws nothing
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({**EXAMPLE, "seed": -1}))
    with pytest.raises(InvariantViolation, match="seed must be nonnegative"):
        load_config(str(negative))
    alpha = {"height": ["1"], "stoch-height": ["1"], "orbit-sample": ["1"],
             "equidist": ["1"], "green-eval": ["0"]}
    for command in stochdyn.cli._COMMANDS:
        for config, seed in ((example_config, ["--seed", "-1"]),
                             (str(negative), [])):
            argv = [command, "--config", config, *seed]
            code, out, err = run_cli(capsys, *argv, *alpha.get(command, ()))
            assert (code, out) == (3, ""), argv
            assert err == ("error: InvariantViolation: "
                           "seed must be nonnegative\n")


def test_height_command(capsys, example_config):
    code, out, _ = run_cli(capsys, "height", "--config", example_config, "3/2")
    assert code == 0
    record = json.loads(out)
    assert record["weil_height"] == pytest.approx(math.log(3))
    assert record["alpha"] == "3/2"


def test_stoch_height_command(capsys, example_config):
    code, out, _ = run_cli(capsys, "stoch-height", "--config", example_config,
                           "1")
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "exact"
    assert record["value"] == pytest.approx(math.log(2) / 2, abs=1e-3)
    assert record["tail_bound"] <= 1e-3


def test_stoch_height_small_tol(capsys):
    code, out, _ = run_cli(capsys, "stoch-height", "--config",
                           str(REPO_CONFIG), "3/2", "--tol", "1e-6")
    assert code == 0
    record = json.loads(out)
    assert record["tail_bound"] <= 1e-6
    assert record["value"] == pytest.approx(math.log(3), abs=1e-12)


def test_green_eval_command(capsys, example_config):
    code, out, _ = run_cli(capsys, "green-eval", "--config", example_config,
                           "0")
    assert code == 0
    record = json.loads(out)
    assert record["green"] == pytest.approx(-math.log(2) / 2, abs=1e-3)
    # the record names the bound that chose its depth: green_budget's tail
    # (log 2)/2^10 at depth 9, all 2^9 words enumerated
    assert record["tail_bound"] <= record["tol"] and record["depth"] == 9
    assert record["tail_bound"] == pytest.approx(math.log(2) / 2**10)
    assert (record["mode"], record["prefix_depth"], record["samples"],
            record["tol_met"]) == ("exact", 9, 0, True)


# (command, config, alpha, extra args, field, value, depth) of records that
# enumerate every word: their numbers keep every bit
ENUMERATED_RECORDS = (
    ("stoch-height", REPO_CONFIG, "1", (), "value", 0.34623513950821483, 10),
    ("stoch-height", GENERAL_CONFIG, "3/2", (), "value", 0.9691808514673695,
     8),
    ("stoch-height", GENERAL_CONFIG, "3/2", ("--tol", "1e-4"), "value",
     0.9692041944221342, 11),
    ("green-eval", REPO_CONFIG, "0", (), "green", -0.34589668873645707, 9),
    ("green-eval", GENERAL_CONFIG, "0", (), "green", 0.032235607957921145, 8),
    ("green-eval", REPO_CONFIG, "1/3", ("--depth", "12"), "green",
     -0.3464889775870332, 12),
)


def test_enumerated_records_are_pinned(capsys):
    for command, config, alpha, extra, field, value, depth in \
            ENUMERATED_RECORDS:
        code, out, err = run_cli(capsys, command, "--config", str(config),
                                 alpha, *extra)
        assert code == 0, err
        record = json.loads(out)
        assert (record[field], record["depth"]) == (value, depth)
        assert record["stderr"] == 0.0
        assert record["mode"] == "exact" and record["tol_met"]
        assert (record["prefix_depth"], record["samples"]) == (depth, 0)


def test_stoch_height_huge_tol(capsys):
    # a finite tol too large to square sizes no tails: the record is the
    # one of tol inf, depth 1
    records = []
    for tol in ("1e300", "inf"):
        code, out, err = run_cli(capsys, "stoch-height", "--config",
                                 str(REPO_CONFIG), "1", "--tol", tol)
        assert code == 0, err
        records.append(out)
    assert records[0] == records[1] and json.loads(out)["depth"] == 1


def test_stoch_height_exact_prefix(capsys):
    # past the word cap: an exact 13-level prefix and sampled tails to the
    # depth for tol/2, whose standard error meets tol - tail_bound
    code, out, _ = run_cli(capsys, "stoch-height", "--config",
                           str(REPO_CONFIG), "1", "--tol", "1e-6", "--seed",
                           "5")
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "exact-prefix" and record["tol_met"]
    assert (record["depth"], record["prefix_depth"]) == (21, 13)
    assert record["stderr"] <= 1e-6 - record["tail_bound"]
    assert abs(record["value"] - math.log(2) / 2) \
        <= record["tail_bound"] + 4 * record["stderr"]


def test_stoch_height_unreachable_tol(capsys):
    # the path budget cannot reach tol 1e-12: the record says so and the
    # command still succeeds, within seconds
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stoch-height", "--config",
                           str(REPO_CONFIG), "1", "--tol", "1e-12")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "exact-prefix" and record["tol_met"] is False
    assert record["tail_bound"] <= 5e-13 < record["stderr"]
    assert abs(record["value"] - math.log(2) / 2) \
        <= record["tail_bound"] + 4 * record["stderr"]


def test_green_eval_prints_stderr(capsys):
    # depth 16 is past the word cap; g(0) = -(log 2)/2 on the example
    code, out, _ = run_cli(capsys, "green-eval", "--config", str(REPO_CONFIG),
                           "0", "--depth", "16")
    assert code == 0
    record = json.loads(out)
    assert record["depth"] == 16 and 0.0 < record["stderr"] <= record["tol"]
    tail = math.log(2) / 2**17  # the example's Green tail bound at depth 16
    assert record["tail_bound"] == pytest.approx(tail)
    assert abs(record["green"] + math.log(2) / 2) \
        <= tail + 4 * record["stderr"]


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not
    JSON."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_records_are_strict(capsys, tmp_path, example_config,
                                 monkeypatch):
    # every command that prints a JSON record prints plain numbers, or null
    # for the potential at infinity, which is +inf
    csv_path = str(tmp_path / "orbit.csv")
    for argv in (("validate",), ("height", "3/2"), ("stoch-height", "1"),
                 ("orbit-sample", "1", "--samples", "20", "--out", csv_path),
                 ("equidist", "1", "--samples", "200", "--depth", "10"),
                 ("equidist", "1", "--samples", "200", "--depth", "10",
                  "--place", "2"),
                 ("green-eval", "0"), ("green-eval", "inf"), ("radii",)):
        code, out, err = run_cli(capsys, argv[0], "--config", example_config,
                                 *argv[1:])
        assert code == 0, err
        record = _strict_json(out)
        if argv == ("green-eval", "inf"):
            assert record["potential"] is None
            assert math.isfinite(record["green"])
    # a non-finite value exits 3 before anything is printed
    monkeypatch.setattr(stochdyn.cli, "weil_height", lambda alpha: math.nan)
    code, out, err = run_cli(capsys, "height", "--config", example_config,
                             "3/2")
    assert (code, out) == (3, "") and err.startswith("error: ValueError")


def test_radii_command(capsys, example_config):
    code, out, _ = run_cli(capsys, "radii", "--config", example_config)
    assert code == 0
    record = json.loads(out)
    assert record["r_in"] == pytest.approx(2 ** (-1 / 6), rel=0.01)
    assert record["r_out"] == pytest.approx(2 ** (1 / 3), rel=0.01)
    # the example config's record keeps every bit
    code, out, err = run_cli(capsys, "radii", "--config", str(REPO_CONFIG))
    assert code == 0, err
    record = json.loads(out)
    assert (record["r_in"], record["r_out"], record["self_energy"]) == (
        0.8908987874237851, 1.259921147876462, 0.23104890465057726)
    assert record["reference"] == "stationary-cdf"
    # read off the IFS law, g_S is within eps = grid_error everywhere and
    # the self-energy within 2 eps, so each radius exp(-g - energy/2) is
    # within a relative exp(2 eps) - 1 of its closed form
    eps = record["grid_error"]
    assert 0.0 < eps < 1e-3
    assert abs(record["self_energy"] - math.log(2.0) / 3.0) <= 2.0 * eps
    rel = math.expm1(2.0 * eps)
    assert abs(record["r_in"] / 2 ** (-1 / 6) - 1.0) <= rel
    assert abs(record["r_out"] / 2 ** (1 / 3) - 1.0) <= rel


def test_radii_sampled_record(capsys):
    # a system with a non-monomial map has no IFS law: sampled, no grid error
    code, out, err = run_cli(capsys, "radii", "--config", str(GENERAL_CONFIG))
    assert code == 0, err
    record = _strict_json(out)
    assert record["reference"] == "sampled"
    assert record["grid_error"] is None


def test_equidist_byte_identical(capsys, example_config):
    args = ("equidist", "--config", example_config, "1",
            "--samples", "2000", "--depth", "15")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["ks_radial"] <= 0.05


def test_repeated_commands_identical(capsys, tmp_path):
    # state left behind by one call, such as a cached sampler, would show
    # as a second run that differs from the first
    orbit, padic = str(tmp_path / "orbit.csv"), str(tmp_path / "p2.csv")
    commands = [("radii",), ("orbit-sample", "1", "--out", orbit),
                ("equidist", "1", "--place", "2", "--out", padic)]

    def run_all():
        outs = []
        for name, *rest in commands:
            code, out, _ = run_cli(capsys, name, "--config", str(REPO_CONFIG),
                                   *rest)
            assert code == 0
            outs.append(out)
        return outs + [pathlib.Path(p).read_bytes() for p in (orbit, padic)]

    assert run_all() == run_all()


# os.fork calls of every command perfbench times, at the config's seed: a
# 100k-row walk at infinity splits, and so does each 100k-row CSV, while the
# valuation walk at a prime runs in one piece; general's 1,000-row
# sample walks are too small to split, the canonical walks of its equidist
# and radii are not; the suite forks for its battery alone, whose walks run
# in one piece
_FORK_COUNTS = [
    (REPO_CONFIG, ("validate",), 0),
    (REPO_CONFIG, ("stoch-height", "1"), 0),
    (REPO_CONFIG, ("orbit-sample", "1", "--out", "F"), 2),
    (REPO_CONFIG, ("equidist", "1", "--place", "arch", "--out", "F"), 2),
    (REPO_CONFIG, ("equidist", "1", "--place", "2", "--out", "F"), 1),
    (REPO_CONFIG, ("green-eval", "0"), 0),
    (REPO_CONFIG, ("radii",), 0),
    (GENERAL_CONFIG, ("validate",), 0),
    (GENERAL_CONFIG, ("stoch-height", "3/2"), 0),
    (GENERAL_CONFIG, ("orbit-sample", "3", "--out", "F"), 0),
    (GENERAL_CONFIG, ("equidist", "3"), 0),
    (GENERAL_CONFIG, ("green-eval", "0"), 0),
    (GENERAL_CONFIG, ("radii",), 0),
    (REPO_CONFIG, ("suite",), 1),
    (GENERAL_CONFIG, ("stoch-height", "3/2", "--tol", "1e-4"), 0),
    (REPO_CONFIG, ("stoch-height", "3/2", "--tol", "1e-6"), 0),
]


@pytest.mark.parametrize(
    "config, argv, count", _FORK_COUNTS,
    ids=[f"{c.stem}-{'-'.join(a).replace('/', '_')}"
         for c, a, _ in _FORK_COUNTS])
def test_forking_commands_leave_no_child(capsys, tmp_path, forks, config,
                                         argv, count):
    # each command forks as often as the table says, writes every row of
    # its CSV, and reaps its children
    out_csv = tmp_path / "out.csv"
    name, *rest = (str(out_csv) if a == "F" else a for a in argv)
    code, out, _ = run_cli(capsys, name, "--config", str(config), *rest)
    assert code == (1 if name == "suite" else 0)
    assert len(forks) == count
    if "F" in argv:
        with open(out_csv) as fh:
            assert sum(1 for _ in fh) == json.loads(out)["samples"] + 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_orbit_sample_checks_sizes_before_start(capsys, example_config):
    # as equidist at every place: a bad size exits 3 even from the
    # exceptional start 0, and a good one meets the start's exit 4
    for sizes in (("--depth", "-1"), ("--samples", "0")):
        code, out, err = run_cli(capsys, "orbit-sample", "--config",
                                 example_config, "0", *sizes)
        assert (code, out) == (3, "")
        assert err == "error: ValueError: need n >= 0 and samples >= 1\n"
    code, out, err = run_cli(capsys, "orbit-sample", "--config",
                             example_config, "0", "--depth", "3",
                             "--samples", "10")
    assert (code, out) == (4, "")
    assert err.startswith("error: ExceptionalStart")


def test_orbit_sample_csv(capsys, tmp_path, example_config):
    out_csv = tmp_path / "orbit.csv"
    code, out, _ = run_cli(capsys, "orbit-sample", "--config", example_config,
                           "1", "--samples", "50", "--depth", "5",
                           "--out", str(out_csv))
    assert code == 0
    record = json.loads(out)
    assert record["csv"] == str(out_csv)
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 51
    assert rows[0][0] == "index"
    for row in rows[1:]:
        assert len(row) == 5
        for cell in row:
            float(cell)


def test_orbit_sample_stdout(capsys, example_config):
    code, out, _ = run_cli(capsys, "orbit-sample", "--config", example_config,
                           "1", "--samples", "5", "--depth", "2")
    assert code == 0
    assert out.startswith("index,")
    assert len(out.strip().splitlines()) == 6


@pytest.mark.parametrize("alpha", ["0", "inf"])
def test_orbit_sample_out_at_zero_and_infinity(capsys, tmp_path, alpha):
    # from 0 and from infinity some samples of general sit at 0 and some at
    # infinity, so log|z| has no finite mean: the record says null, and no
    # numpy warning reaches stderr
    path = tmp_path / "orbit.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "orbit-sample", "--config",
                                 str(GENERAL_CONFIG), alpha, "--depth", "2",
                                 "--samples", "200", "--out", str(path))
    assert code == 0 and err == "" and caught == []
    assert json.loads(out)["mean_log_abs"] is None
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 201 and [r[0] for r in rows[1:]] == [
        str(i) for i in range(200)]


_SMALL = ("--samples", "200", "--depth", "6")
_SMOKE = [("validate",), ("radii",), ("suite",)] + [
    (cmd, alpha, *extra)
    for cmd, extra in (("height", ()), ("stoch-height", ()),
                       ("green-eval", ()), ("orbit-sample", _SMALL),
                       ("orbit-sample", _SMALL + ("--out",)),
                       ("equidist", _SMALL),
                       ("equidist", _SMALL + ("--place", "2")))
    for alpha in ("0", "1", "inf")]


@pytest.mark.parametrize("config", [REPO_CONFIG, GENERAL_CONFIG],
                         ids=["example", "general"])
@pytest.mark.parametrize("argv", _SMOKE, ids=" ".join)
def test_cli_smoke(capsys, tmp_path, config, argv):
    # every command at small sizes ends in a documented exit code (suite's
    # 1 is a failed criterion); a success prints nothing to stderr, and a
    # failure prints its one error line, with no warning either way
    if argv[-1] == "--out":
        argv += (str(tmp_path / "out.csv"),)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, argv[0], "--config", str(config),
                               *argv[1:])
    assert caught == []
    assert code in {0, 2, 3, 4} | ({1} if argv[0] == "suite" else set())
    if code in (0, 1):
        assert err == ""
    else:
        assert re.fullmatch(r"error: \w+: [^\n]*\n", err), err


_SCRIPT_SMOKE = [("backward_tree_stats.py", "--depth", "3"),
                 ("equidist_report.py", "--depths", "2", "4", "--samples",
                  "200"),
                 ("height_convergence.py", "--tols", "1e-2")]


@pytest.mark.parametrize("config", [REPO_CONFIG, GENERAL_CONFIG],
                         ids=["example", "general"])
@pytest.mark.parametrize("alpha", ["0", "1", "inf"])
@pytest.mark.parametrize("argv", _SCRIPT_SMOKE, ids=lambda a: a[0])
def test_script_smoke(capsys, monkeypatch, config, alpha, argv):
    # the scripts end as the CLI commands do: a documented exit code, an
    # empty stderr on success and one error line otherwise, and no warning
    script, *extra = argv
    if script == "equidist_report.py" and config == REPO_CONFIG:
        extra += ["--primes", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_script(monkeypatch, SCRIPTS / script, "--config",
                          str(config), alpha, *extra)
    err = capsys.readouterr().err
    assert caught == []
    assert code in {0, 2, 3, 4}
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(r"error: \w+: [^\n]*\n", err), err


def test_equidist_with_mass_at_infinity(capsys, tmp_path):
    # on general, infinity is not exceptional but keeps mass (5/6)^n at
    # level n: the samples there have no finite potential, so the residual
    # is null, and the radial score falls as that mass shrinks
    path = tmp_path / "cdf.csv"
    records = []
    for sizes in (("--samples", "200", "--depth", "6", "--out", str(path)),
                  ()):
        with warnings_as_errors():
            code, out, err = run_cli(capsys, "equidist", "--config",
                                     str(GENERAL_CONFIG), "inf", *sizes)
        assert (code, err) == (0, "")
        records.append(json.loads(out))
        assert records[-1]["potential_residual"] is None
        assert math.isfinite(records[-1]["ks_radial"])
        assert math.isfinite(records[-1]["ks_angular"])
    assert records[1]["ks_radial"] < records[0]["ks_radial"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 200 and rows[-1][0] == "inf"
    assert all(isinstance(float(c), float) for row in rows for c in row if c)


@pytest.mark.parametrize("place, json_place, scores, column", [
    ("arch", "arch", {"ks_radial", "ks_angular", "potential_residual",
                      "reference"}, "r"),
    ("2", 2, {"ks"}, "v"),
], ids=["arch", "2"])
def test_equidist_record_shape(capsys, tmp_path, example_config, place,
                               json_place, scores, column):
    # one record shape at every place: the run's fields plus that place's
    # scores, and one CSV writer labelled by the place's coordinate
    path = tmp_path / "cdf.csv"
    code, out, _ = run_cli(capsys, "equidist", "--config", example_config,
                           "1", "--place", place, "--samples", "500",
                           "--depth", "10", "--out", str(path))
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"config_sha256", "seed", "version", "place",
                           "alpha", "depth", "samples", "csv"} | scores
    assert record["place"] == json_place
    assert type(record["place"]) is type(json_place)
    assert path.read_text().startswith(f"{column},empirical_cdf,reference_cdf")
    assert all(record[k] <= 0.2 for k in scores - {"reference"})


def test_equidist_out_draws_once(capsys, tmp_path, example_config,
                                 monkeypatch):
    calls = []
    draw = stochdyn.archpotential.backward_sample

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(stochdyn.archpotential, "backward_sample", counted)
    monkeypatch.setattr(stochdyn.cli, "backward_sample", counted)
    code, _, _ = run_cli(capsys, "equidist", "--config", example_config,
                         "1", "--samples", "200", "--depth", "8",
                         "--out", str(tmp_path / "arch.csv"))
    assert code == 0
    assert len(calls) == 1


def test_equidist_padic_out_draws_once(capsys, tmp_path, example_config,
                                       monkeypatch):
    calls = []
    draw = stochdyn.padicmodel.sample_backward_valuations

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(stochdyn.archpotential, "sample_backward_valuations",
                        counted)
    path = tmp_path / "val2.csv"
    code, out, _ = run_cli(capsys, "equidist", "--config", example_config,
                           "1", "--place", "2", "--samples", "200",
                           "--depth", "8", "--out", str(path))
    assert code == 0
    assert len(calls) == 1
    assert len(path.read_text().splitlines()) == 201


@pytest.mark.parametrize("argv, builds", [
    (("radii",), 1),
    (("equidist", "1", "--place", "arch"), 1),
    (("equidist", "1", "--place", "2"), 1),
    (("validate",), 0),
    (("stoch-height", "1"), 0),
    (("orbit-sample", "1"), 0),
    (("green-eval", "0"), 0),
], ids=["radii", "equidist-arch", "equidist-2", "validate", "stoch-height",
        "orbit-sample", "green-eval"])
def test_law_builds_per_command(capsys, tmp_path, monkeypatch, argv, builds):
    # from an empty law cache each command builds the stationary law at
    # most once: radii reads its whole record off one law, and the equidist
    # CSV's reference column is the law that was scored
    calls = _count_law_builds(monkeypatch)
    if argv[0] in ("equidist", "orbit-sample"):
        argv += ("--samples", "200", "--depth", "8",
                 "--out", str(tmp_path / "out.csv"))
    code, _, err = run_cli(capsys, argv[0], "--config", str(REPO_CONFIG),
                           *argv[1:])
    assert code == 0, err
    assert len(calls) == builds


def _count_law_builds(monkeypatch) -> list:
    """Empties the law cache; the list gets one entry per law built."""
    stochdyn.archpotential.radial_law.cache_clear()
    calls = []
    build = stochdyn.ifs.stationary_law

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(stochdyn.archpotential, "stationary_law", counted)
    return calls


def test_law_builds_per_process(capsys, monkeypatch):
    # one law per (system, place): radii reuses the law equidist scored
    # against at infinity
    calls = _count_law_builds(monkeypatch)
    small = ("--samples", "200", "--depth", "8")
    for argv in (("equidist", "1", "--place", "arch", *small),
                 ("equidist", "1", "--place", "2", *small), ("radii",)):
        code, _, err = run_cli(capsys, argv[0], "--config", str(REPO_CONFIG),
                               *argv[1:])
        assert code == 0, err
    assert len(calls) == 2


def _big_config(tmp_path, name, maps):
    path = tmp_path / name
    path.write_text(json.dumps({"maps": [
        {"num_coeffs": num, "den_coeffs": den, "prob": "1/2"}
        for num, den in maps]}))
    return str(path)


def _finite(record, *keys):
    return all(math.isfinite(record[k]) for k in keys)


def test_orbit_sample_huge_start(capsys):
    # the fiber forms of 3^700 have coefficients far above 1e308; the
    # fiber of z^3 - 2 3^700 z + 1 under (z^3 + 1)/(2z) holds a root near
    # 1/(2 3^700), once written as log_abs = -inf
    code, out, _ = run_cli(capsys, "orbit-sample", "--config",
                           str(GENERAL_CONFIG), str(3**700), "--samples",
                           "20", "--depth", "1")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "index" and len(rows) == 21
    for row in rows[1:]:
        for cell in row:
            float(cell)
    log_abs = [float(row[3]) for row in rows[1:]]
    assert all(math.isfinite(x) for x in log_abs)
    small = [x for x in log_abs if x < 0.0]
    assert small and small == [pytest.approx(
        -(700 * math.log(3.0) + math.log(2.0)), rel=1e-9)] * len(small)


def test_huge_coefficients_at_infinity(capsys, tmp_path):
    # 3^700 > 1e308: the escape sums at infinity evaluate the forms scaled
    # by a power of 2
    mono = _big_config(tmp_path, "mono.json",
                       [([0, 0, 3**700], [1]), ([0, 0, 1], [1])])
    code, out, _ = run_cli(capsys, "green-eval", "--config", mono, "3")
    assert code == 0 and _finite(json.loads(out), "green", "potential")
    code, out, _ = run_cli(capsys, "equidist", "--config", mono, "3",
                           "--samples", "200", "--depth", "10")
    assert code == 0
    assert _finite(json.loads(out), "ks_radial", "ks_angular",
                   "potential_residual")
    general = _big_config(tmp_path, "general.json",
                          [([-3**700, 0, 1], [1]), ([1, 0, 0, 1], [0, 2])])
    code, out, _ = run_cli(capsys, "validate", "--config", general)
    assert code == 0
    assert _finite(json.loads(out), "stochastic_degree", "distortion_budget")


def test_huge_numeric_points(capsys, monkeypatch):
    # 10^30 pulls back to points far above 1e13, whose fibers under
    # (z^3 + 1)/(2z) are solved in the chart t = 1/w
    code, out, _ = run_cli(capsys, "orbit-sample", "--config",
                           str(GENERAL_CONFIG), str(10**30), "--samples", "5",
                           "--depth", "3")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 6
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
    assert run_script(monkeypatch, TREE_SCRIPT, "--config",
                      str(GENERAL_CONFIG), str(10**30), "--depth", "3") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:5]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    assert all(math.isfinite(float(r[4])) for r in rows)


def test_tree_script_points_near_float_max(capsys, tmp_path, monkeypatch):
    # z^2/10^300 pulls 10^305 back to +-10^302.5, whose merge cells are
    # taken from log|z|, not from z * 1e8, which overflows; so does no
    # residual bound of the roots of their fibers
    cfg = _big_config(tmp_path, "near_max.json",
                      [([0, 0, 1], [10**300]), ([1, 0, 1], [0, 1])])
    with warnings_as_errors():
        assert run_script(monkeypatch, TREE_SCRIPT, "--config", cfg,
                          str(10**305), "--depth", "2") == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[:3] for r in rows[:2]] == [["0", "1", "1"], ["1", "4", "1/4"]]
    assert rows[2][0] == "2"


def test_scripts_keep_exit_codes(capsys, tmp_path, monkeypatch):
    # the scripts end as the CLI does: `error: <type>: ...` on stderr and
    # the error's exit code, never a traceback
    missing = str(tmp_path / "missing.json")
    for script in (TREE_SCRIPT, SCRIPTS / "equidist_report.py",
                   SCRIPTS / "height_convergence.py"):
        assert run_script(monkeypatch, script, "--config", missing, "1") == 2
        assert capsys.readouterr().err.startswith("error: ConfigParseError")
    # a negative seed is refused before any output, as the CLI refuses it
    for script in (SCRIPTS / "equidist_report.py",
                   SCRIPTS / "height_convergence.py"):
        assert run_script(monkeypatch, script, "--config", str(REPO_CONFIG),
                          "1", "--seed", "-1") == 3
        assert capsys.readouterr() == (
            "", "error: InvariantViolation: seed must be nonnegative\n")
    # a negative depth is rejected as the CLI rejects one, not answered
    # with level 0
    assert run_script(monkeypatch, TREE_SCRIPT, "--config", str(REPO_CONFIG),
                      "1", "--depth", "-1") == 3
    assert capsys.readouterr() == ("", "error: ValueError: need n >= 0\n")
    # the tree keeps points as (log|z|, arg z), so the start 10^400 needs
    # no complex embedding: level 1 holds +-10^200 and +-(5 10^399)^(1/2)
    assert run_script(monkeypatch, TREE_SCRIPT, "--config", str(REPO_CONFIG),
                      str(10**400), "--depth", "1") == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2].split() == ["1", "4", "1/4", "2.500e-01",
                                           "460.343732"]
    # 10^800 pulls back to +-10^400 and +-(5 10^799)^(1/2), so level 1 has
    # mean log|z| (x0/2 + (x0 - log 2)/2)/2 with x0 = 800 log 10; their
    # fibers would need lifts below float range, so level 2 exits 3
    x0 = 800 * math.log(10)
    mean = (x0 / 2 + (x0 - math.log(2)) / 2) / 2
    assert run_script(monkeypatch, TREE_SCRIPT, "--config", str(REPO_CONFIG),
                      str(10**800), "--depth", "1") == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2].split() == ["1", "4", "1/4", "2.500e-01",
                                           f"{mean:.6f}"]
    assert run_script(monkeypatch, TREE_SCRIPT, "--config", str(REPO_CONFIG),
                      str(10**800), "--depth", "2") == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: OverflowError")

    def fail(*args, **kwargs):
        raise NodeBudgetExceeded("budget exhausted")
    monkeypatch.setattr(stochdyn.orbits, "backward_tree", fail)
    assert run_script(monkeypatch, TREE_SCRIPT, "--config", str(REPO_CONFIG),
                      "1") == 3
    assert capsys.readouterr().err.startswith("error: NodeBudgetExceeded")


def test_height_convergence_seeds_from_config(capsys, monkeypatch):
    # the config's seed, as `stochdyn stoch-height` takes it, unless
    # --seed overrides it
    seeds = []

    def record(system, alpha, tol, seed):
        seeds.append(seed)
        return types.SimpleNamespace(value=0.5)

    monkeypatch.setattr(stochdyn.stochheight, "stoch_height", record)
    script = SCRIPTS / "height_convergence.py"
    for extra, seed in (((), 20260823), (("--seed", "5"), 5)):
        seeds.clear()
        assert run_script(monkeypatch, script, "--config", str(REPO_CONFIG),
                          "--tols", "1e-6", *extra, "--", "2") == 0
        assert seeds == [seed] and capsys.readouterr().err == ""


def test_huge_starts_leave_stderr_empty(capsys, monkeypatch):
    # fiber roots near 10^100 and 10^200 have residual bounds far above
    # float range; they are checked in a form that does not overflow
    general = str(GENERAL_CONFIG)
    for argv in (("--config", str(REPO_CONFIG), str(10**200), "--depth", "1"),
                 ("--config", str(REPO_CONFIG), str(10**400), "--depth", "3")):
        with warnings_as_errors():
            assert run_script(monkeypatch, TREE_SCRIPT, *argv) == 0
        assert capsys.readouterr().err == ""
    for start, depth in ((10**200, "1"), (10**400, "2")):
        with warnings_as_errors():
            code, out, err = run_cli(capsys, "orbit-sample", "--config",
                                     general, str(start), "--depth", depth,
                                     "--samples", "4")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5
    # a sample above float range is written with infinite coordinates, and
    # with 0.0 where the sine of its angle is exactly 0, never with nan
    with warnings_as_errors():
        code, out, err = run_cli(capsys, "orbit-sample", "--config",
                                 str(REPO_CONFIG), str(10**400), "--depth",
                                 "0", "--samples", "2")
    assert (code, err) == (0, "")
    rows = list(csv.reader(out.splitlines()))[1:]
    assert [row[1:3] for row in rows] == [["inf", "0.0"]] * 2
    assert [float(row[3]) for row in rows] == [
        pytest.approx(400 * math.log(10))] * 2


def test_orbit_sample_keeps_small_roots(capsys, tmp_path):
    # from 10^60, the second step's fibers under (z^3 + 1)/(2z) hold roots
    # near 1/(2z), far below 1; they were lost to 0 and written as
    # 0.0,0.0,-inf, and the record's mean log|z| then failed as -inf (exit 3)
    out_csv = tmp_path / "samples.csv"
    with warnings_as_errors():
        code, out, err = run_cli(capsys, "orbit-sample", "--config",
                                 str(GENERAL_CONFIG), str(10**60), "--depth",
                                 "2", "--samples", "200", "--out",
                                 str(out_csv))
    assert (code, err) == (0, "")
    rows = list(csv.reader(out_csv.read_text().splitlines()))[1:]
    assert len(rows) == 200
    assert all(math.isfinite(float(row[3])) for row in rows)
    assert math.isfinite(json.loads(out)["mean_log_abs"])


# the tables of the two backward_tree operations of perfbench's `exact`
# workload, as the complex-valued tree printed them
FROZEN_TREE_TABLES = {
    ("configs/example.json", "1", "7"): """\
 level   atoms     sup mass      sum w^2  mean log|z|
     0       1            1    1.000e+00     0.000000
     1       4          1/4    2.500e-01    -0.173287
     2      16         1/16    6.250e-02    -0.259930
     3      64         1/64    1.562e-02    -0.303252
     4     256        1/256    3.906e-03    -0.324913
     5    1024       1/1024    9.766e-04    -0.335743
     6    4096       1/4096    2.441e-04    -0.341158
     7   16384      1/16384    6.104e-05    -0.343866

sup-mass per 3 levels: 3k=0: 1, 3k=3: 1/64, 3k=6: 1/4096
certified 3-level contraction ratio: 1/64 (= 0.0156)
sup mass decays geometrically along triples of levels
""",
    ("perfbench/general.json", "3", "5"): """\
 level   atoms     sup mass      sum w^2  mean log|z|
     0       1            1    1.000e+00     1.098612
     1       5          1/4    2.083e-01     0.346574
     2      25         1/16    4.340e-02     0.143320
     3     125         1/64    9.042e-03     0.064983
     4     625        1/256    1.884e-03     0.043810
     5    3125       1/1024    3.925e-04     0.035650

sup-mass per 3 levels: 3k=0: 1, 3k=3: 1/64
certified 3-level contraction ratio: 1/64 (= 0.0156)
sup mass decays geometrically along triples of levels
""",
}


def test_tree_script_tables_frozen(capsys, monkeypatch):
    for (config, alpha, depth), table in FROZEN_TREE_TABLES.items():
        assert run_script(monkeypatch, TREE_SCRIPT, "--config",
                          str(ROOT / config), alpha, "--depth", depth) == 0
        assert capsys.readouterr().out == table


def test_tree_script_mean_at_zero_and_infinity(capsys, monkeypatch):
    # a level with mass at infinity or at 0 has an infinite mean log|z|,
    # and nan when both carry mass: from infinity, level 1 holds infinity
    # with mass 5/6 and 0 with 1/6
    general = str(GENERAL_CONFIG)
    for alpha, means in (("inf", ["inf", "nan"]), ("0", ["-inf"])):
        assert run_script(monkeypatch, TREE_SCRIPT, "--config", general,
                          alpha, "--depth", "3") == 0
        rows = [line.split()
                for line in capsys.readouterr().out.splitlines()[1:5]]
        assert [r[4] for r in rows[:len(means)]] == means
    assert rows[1][4] == "0.000000"  # from 0, level 1 lies on |z| = 1


def test_equidist_above_float_range(capsys, tmp_path, example_config):
    # a sample with |z| above 1.8e308 has no CDF label and no probe
    # distance: exit 3 before any output, the CSV file never created
    out_csv = tmp_path / "cdf.csv"
    for extra in (("--out", str(out_csv)), ()):
        code, out, err = run_cli(capsys, "equidist", "--config",
                                 example_config, str(10**400), "--depth", "0",
                                 "--samples", "10", *extra)
        assert (code, out) == (3, "")
        assert err.startswith("error: OverflowError")
    assert not out_csv.exists()


def test_equidist_report_script_matches_cli(capsys, tmp_path, monkeypatch):
    # the script's CDF CSVs are the bytes of `equidist --out` at each place
    assert run_script(monkeypatch, SCRIPTS / "equidist_report.py", "--config",
                      str(REPO_CONFIG), "1", "--depths", "5", "--primes", "2",
                      "--samples", "2000", "--out-dir", str(tmp_path)) == 0
    for place, name in (("arch", "radial_depth5.csv"),
                        ("2", "val2_depth5.csv")):
        out = tmp_path / f"cli_{place}.csv"
        code, _, _ = run_cli(capsys, "equidist", "--config", str(REPO_CONFIG),
                             "1", "--place", place, "--depth", "5",
                             "--samples", "2000", "--out", str(out))
        assert code == 0
        assert (tmp_path / name).read_bytes() == out.read_bytes()


def test_height_convergence_script(capsys, monkeypatch):
    assert run_script(monkeypatch, SCRIPTS / "height_convergence.py",
                      "--config", str(REPO_CONFIG), "--", "1", "3/2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"distortion budget sum: {math.log(2) / 2:.6f}"
    assert [line.split()[0] for line in lines[2:]] == ["1", "3/2"]


def test_out_of_float_range_exit(capsys, example_config, monkeypatch):
    # g_S is evaluated through the point's lift, so 10^400 > 1.8e308 works
    code, out, _ = run_cli(capsys, "green-eval", "--config", example_config,
                           str(10**400))
    assert code == 0
    record = json.loads(out)
    assert record["potential"] == pytest.approx(400 * math.log(10),
                                                abs=record["tol"])
    # a value outside float range still exits 3

    def fail(*args, **kwargs):
        raise OverflowError("integer division result too large for a float")
    monkeypatch.setattr(stochdyn.cli, "gS_eval", fail)
    code, out, err = run_cli(capsys, "green-eval", "--config", example_config,
                             "3")
    assert code == 3 and "OverflowError" in err and out == ""


def test_unsupported_place_exit(capsys, monkeypatch, example_config):
    # a malformed --place exits 2; a non-prime, or a prime without valuation
    # dynamics, exits 3, and is rejected before the start point is examined
    general = str(GENERAL_CONFIG)
    for config, alpha, place, want_code, want_err in (
            (example_config, "1", "x", 2, "ConfigParseError"),
            (example_config, "1", "4", 3, "ValueError: 4 is not prime"),
            (example_config, "1", "1", 3, "ValueError: 1 is not prime"),
            (example_config, "1", "-2", 3, "ValueError: -2 is not prime"),
            (general, "3", "2", 3, "UnsupportedStructure"),
            (example_config, "0", "2", 4, "ExceptionalStart"),
            (example_config, "0", "4", 3, "ValueError: 4 is not prime")):
        code, out, err = run_cli(capsys, "equidist", "--config", config,
                                 alpha, "--place", place, "--samples", "10",
                                 "--depth", "3")
        assert (code, out) == (want_code, "")
        assert err.startswith(f"error: {want_err}")
    assert run_script(monkeypatch, SCRIPTS / "equidist_report.py", "--config",
                      str(REPO_CONFIG), "1", "--primes", "4") == 3
    assert capsys.readouterr().err == "error: ValueError: 4 is not prime\n"


def test_equidist_report_prints_nothing_before_it_fails(capsys, monkeypatch):
    # the script guards its start, its sample count, its smallest depth and
    # its primes before the header: an exceptional start, a negative depth
    # after a good one, or a prime without valuation dynamics ends with
    # empty stdout
    for config, argv, code, want in (
            (REPO_CONFIG, ("0",), 4, "error: ExceptionalStart"),
            (REPO_CONFIG, ("1", "--depths", "5", "-1"), 3,
             "error: ValueError: need n >= 0 and samples >= 1"),
            (REPO_CONFIG, ("1", "--samples", "0"), 3, "error: ValueError"),
            (GENERAL_CONFIG, ("3", "--primes", "2", "--depths", "2",
                              "--samples", "10"), 3,
             "error: UnsupportedStructure")):
        assert run_script(monkeypatch, SCRIPTS / "equidist_report.py",
                          "--config", str(config), *argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(want)


@pytest.mark.parametrize("argv, code, want", [
    (("--tols", "0", "--", "1"), 3,
     "error: ValueError: tol must be positive, got 0.0\n"),
    (("--tols", "1e-2", "--", "1", "x"), 2, "error: ConfigParseError")],
    ids=["zero-tol", "bad-point"])
def test_height_convergence_prints_nothing_before_it_fails(
        capsys, monkeypatch, argv, code, want):
    # every point is parsed and every tol checked before the budget line
    assert run_script(monkeypatch, SCRIPTS / "height_convergence.py",
                      "--config", str(REPO_CONFIG), *argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(want)


# every CLI command on both committed configs, validate and orbit-sample on
# a degree-4 config, and the tree script on all three, in one fresh
# process; prints the exit codes and the sympy modules loaded
_NO_SYMPY_RUN = """
import contextlib, io, runpy, sys
out, quartic = sys.argv[1:]
from stochdyn.cli import main
everything = (["validate"], ["stoch-height"], ["orbit-sample"], ["equidist"],
              ["equidist", "--place", "2"], ["green-eval", "0"], ["radii"],
              ["suite"])
codes = []
for config, alpha, commands in (
        ("configs/example.json", "1", everything),
        ("perfbench/general.json", "3", everything),
        (quartic, "0", (["validate"], ["orbit-sample"]))):
    for argv in commands:
        argv = [argv[0], "--config", config] + argv[1:]
        if argv[0] in ("stoch-height", "orbit-sample", "equidist"):
            argv.insert(3, alpha)
        if argv[0] in ("orbit-sample", "equidist"):
            argv += ["--samples", "100", "--depth", "8",
                     "--out", f"{out}/{len(codes)}.csv"]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    sys.argv = ["scripts/backward_tree_stats.py", "--config", config, alpha,
                "--depth", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as stop:
            codes.append(stop.code)
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_cli_paths_do_not_import_sympy(tmp_path):
    # no command or script loads sympy, not even where the fibers of
    # degree-4 maps have square-free rests of degree 4:
    # (z^2 + 1)(z^2 + 2) and (z^4 + 1)/(2z) over 0
    quartic = tmp_path / "quartic.json"
    quartic.write_text(json.dumps({"maps": [
        {"num_coeffs": [2, 0, 3, 0, 1], "den_coeffs": [1], "prob": "1/2"},
        {"num_coeffs": [1, 0, 0, 0, 1], "den_coeffs": [0, 2], "prob": "1/2"},
    ]}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY_RUN, str(tmp_path),
                           str(quartic)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    # suite exits 1 on the example (criterion 05) and 3 on general, which
    # also has no valuation dynamics at 2
    codes = [0] * 7 + [1, 0] + [0] * 4 + [3, 0, 0, 3, 0] + [0, 0, 0]
    assert proc.stdout == f"{codes} []\n"


_ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "stochdyn"}


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency: every import in the package's
    # modules, at any depth, is of the standard library, numpy or stochdyn
    found = set()
    for path in (ROOT / "src" / "stochdyn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module))
    assert found
    assert [(name, module) for name, module in sorted(found)
            if module.split(".")[0] not in _ALLOWED_IMPORTS] == []


def _unused_imports(path):
    """Names that a module imports (from __future__ aside) and never
    reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # with no linter at hand, an ast pass: every name imported by a module
    # of the package or a script is read somewhere in it
    paths = [*(ROOT / "src" / "stochdyn").glob("*.py"),
             *SCRIPTS.glob("*.py")]
    assert len(paths) > 3
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def test_traced_layers_import():
    # perfbench --trace imports stochdyn.<layer> for every name in LAYERS
    layers = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["LAYERS"]
    assert layers
    for layer in layers:
        importlib.import_module(f"stochdyn.{layer}")


def test_readme_layout_lists_every_module():
    # the README's library-layout table names each module of the package
    # once, and no other
    text = (ROOT / "README.md").read_text()
    table = text.split("## library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `stochdyn\.(\w+)` \|", table, re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "stochdyn").glob("*.py")
               if path.stem != "__init__"}
    assert sorted(listed) == sorted(modules)


def test_suite_requires_reference_system(capsys, tmp_path):
    cfg = tmp_path / "z2.json"
    cfg.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "1"}]}))
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3 and "reference system" in err
