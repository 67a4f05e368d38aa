import csv
import json
import math
import pathlib

import pytest

import stochdyn.archpotential
import stochdyn.cli
import stochdyn.ifs
import stochdyn.padicmodel
from stochdyn.archpotential import QuadratureFailure
from stochdyn.cli import (
    ConfigParseError,
    SystemConfig,
    build_system,
    load_config,
    main,
    parse_alpha,
)
from stochdyn.exactnum import INFINITY, ConvergenceFailure, normalize_point
from stochdyn.orbits import NodeBudgetExceeded

REPO_CONFIG = pathlib.Path(__file__).parent.parent / "configs" / "example.json"
GENERAL_CONFIG = (pathlib.Path(__file__).parent.parent / "perfbench"
                  / "general.json")

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

    code, _, _ = run_cli(capsys, "equidist", "--config", example_config,
                         "1", "--place", "xyz")
    assert code == 2

    code, out, err = run_cli(capsys, "orbit-sample", "--config",
                             example_config, "0", "--samples", "10")
    assert code == 4 and "ExceptionalStart" in err and out == ""

    # 101 maps give 101^3 > 10^6 length-3 words for the exceptional test
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "1/101"}] * 101}))
    code, _, err = run_cli(capsys, "validate", "--config", str(many))
    assert code == 3 and "WordCapExceeded" in err

    # no CLI input reaches these budgets cheaply; check the mapping itself
    for exc in (NodeBudgetExceeded, ConvergenceFailure, QuadratureFailure):
        def fail(*args, exc=exc, **kwargs):
            raise exc("budget exhausted")
        monkeypatch.setattr(stochdyn.cli, "stoch_height", fail)
        code, _, err = run_cli(capsys, "stoch-height", "--config",
                               example_config, "1")
        assert code == 3 and exc.__name__ in err


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
    assert record["depth"] == 10


def test_radii_command(capsys, example_config):
    code, out, _ = run_cli(capsys, "radii", "--config", example_config)
    assert code == 0
    record = json.loads(out)
    assert record["r_in"] == pytest.approx(2 ** (-1 / 6), rel=0.01)
    assert record["r_out"] == pytest.approx(2 ** (1 / 3), rel=0.01)


def test_equidist_byte_identical(capsys, example_config):
    args = ("equidist", "--config", example_config, "1",
            "--samples", "2000", "--depth", "15")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["ks_radial"] <= 0.05


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


def test_equidist_csv_outputs(capsys, tmp_path, example_config):
    arch_csv = tmp_path / "arch.csv"
    code, out, _ = run_cli(capsys, "equidist", "--config", example_config,
                           "1", "--samples", "500", "--depth", "10",
                           "--out", str(arch_csv))
    assert code == 0
    assert arch_csv.read_text().startswith("r,empirical_cdf,reference_cdf")

    p_csv = tmp_path / "p2.csv"
    code, out, _ = run_cli(capsys, "equidist", "--config", example_config,
                           "1", "--place", "2", "--samples", "500",
                           "--depth", "10", "--out", str(p_csv))
    assert code == 0
    record = json.loads(out)
    assert record["ks"] <= 0.2
    assert p_csv.read_text().startswith("v,empirical_cdf,reference_cdf")


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

    monkeypatch.setattr(stochdyn.padicmodel, "sample_backward_valuations",
                        counted)
    monkeypatch.setattr(stochdyn.cli, "sample_backward_valuations", counted,
                        raising=False)
    path = tmp_path / "val2.csv"
    code, out, _ = run_cli(capsys, "equidist", "--config", example_config,
                           "1", "--place", "2", "--samples", "200",
                           "--depth", "8", "--out", str(path))
    assert code == 0
    assert len(calls) == 1
    assert len(path.read_text().splitlines()) == 201


@pytest.mark.parametrize("place", ["arch", "2"])
def test_equidist_out_builds_law_once(capsys, tmp_path, example_config,
                                      monkeypatch, place):
    # the CSV's reference column is the stationary law that was scored
    calls = []
    build = stochdyn.ifs.stationary_law

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(stochdyn.archpotential, "stationary_law", counted)
    monkeypatch.setattr(stochdyn.padicmodel, "stationary_law", counted)
    code, _, _ = run_cli(capsys, "equidist", "--config", example_config,
                         "1", "--place", place, "--samples", "200",
                         "--depth", "8", "--out", str(tmp_path / "cdf.csv"))
    assert code == 0
    assert len(calls) == 1


def _big_config(tmp_path, name, maps):
    path = tmp_path / name
    path.write_text(json.dumps({"maps": [
        {"num_coeffs": num, "den_coeffs": den, "prob": "1/2"}
        for num, den in maps]}))
    return str(path)


def _finite(record, *keys):
    return all(math.isfinite(record[k]) for k in keys)


def test_orbit_sample_huge_start(capsys):
    # the fiber forms of 3^700 have coefficients far above 1e308
    code, out, _ = run_cli(capsys, "orbit-sample", "--config",
                           str(GENERAL_CONFIG), str(3**700), "--samples", "5",
                           "--depth", "1")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "index" and len(rows) == 6
    for row in rows[1:]:
        for cell in row:
            float(cell)


def test_huge_coefficients_at_infinity(capsys, tmp_path):
    # 3^700 > 1e308: the escape sums and the grid potential at infinity
    # evaluate the forms scaled by a power of 2
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


def test_out_of_float_range_exit(capsys, example_config):
    code, out, err = run_cli(capsys, "green-eval", "--config", example_config,
                             str(10**400))
    assert code == 3 and "OverflowError" in err and out == ""


def test_unsupported_place_exit(capsys, tmp_path):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({"maps": [
        {"num_coeffs": [1, 0, 1], "den_coeffs": [2], "prob": "1"}]}))
    code, _, err = run_cli(capsys, "equidist", "--config", str(cfg), "3",
                           "--place", "2", "--samples", "10", "--depth", "3")
    assert code == 3 and "UnsupportedStructure" in err


def test_suite_requires_reference_system(capsys, tmp_path):
    cfg = tmp_path / "z2.json"
    cfg.write_text(json.dumps({"maps": [
        {"num_coeffs": [0, 0, 1], "den_coeffs": [1], "prob": "1"}]}))
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 3 and "reference system" in err
