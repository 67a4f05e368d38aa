"""The block CSV writers against the csv.writer row loops they replace."""

import csv
import io
import math
import os
import pathlib
import warnings

import numpy as np
import pytest

from stochdyn.cli import build_system, load_config, main, parse_alpha
from stochdyn.ifs import ROW_BLOCK, StationaryLaw, write_cdf_csv
from stochdyn.orbits import OrbitSampleBatch, backward_sample, write_samples_csv

ROOT = pathlib.Path(__file__).parent.parent
REPO_CONFIG = ROOT / "configs" / "example.json"
GENERAL_CONFIG = ROOT / "perfbench" / "general.json"


def oracle_samples_csv(batch, fileobj):
    writer = csv.writer(fileobj)
    writer.writerow(["index", "re", "im", "log_abs", "depth"])
    pts = batch.points
    for i in range(batch.samples):
        writer.writerow(
            [i, repr(float(pts[i].real)), repr(float(pts[i].imag)),
             repr(float(batch.log_abs[i])), batch.depth]
        )


def oracle_cdf_csv(xs, law, column, fileobj, label=float):
    emp = np.sort(np.asarray(xs, dtype=float))
    ref = None if law is None else law.cdf_at(emp)
    writer = csv.writer(fileobj)
    writer.writerow([column, "empirical_cdf", "reference_cdf"])
    for i, x in enumerate(emp):
        writer.writerow([f"{label(x):.12g}", f"{(i + 1) / len(emp):.12g}",
                         "" if ref is None else f"{ref[i]:.12g}"])


def written(writer, *args, **kwargs):
    buf = io.StringIO(newline="")
    writer(*args, buf, **kwargs)
    return buf.getvalue()


def awkward_values(n, seed):
    """n log-radii and angles that start with -0.0, +-inf and 0, then
    spread over several scales."""
    rng = np.random.default_rng(seed)
    log_abs = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    head = [(-0.0, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
            (0.0, -0.0), (-math.inf, np.pi), (1e-300, 3.0)]
    for i, (r, t) in enumerate(head[:n]):
        log_abs[i], angle[i] = r, t
    return log_abs, angle


ROWS = [1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]


def forked_and_one_cpu(monkeypatch, forks, writer, *args, **kwargs):
    """What writer writes on two CPUs, after checking that it forked
    exactly when it wrote more than one block, and that it writes the same
    text on one CPU."""
    text = written(writer, *args, **kwargs)
    assert len(forks) == (text.count("\r\n") > ROW_BLOCK + 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert written(writer, *args, **kwargs) == text
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks.clear()
    return text


@pytest.mark.parametrize("n", ROWS)
def test_samples_csv_matches_row_writer(n, monkeypatch, forks):
    log_abs, angle = awkward_values(n, n)
    batch = OrbitSampleBatch(log_abs, angle, 7, 0, n)
    text = forked_and_one_cpu(monkeypatch, forks, write_samples_csv, batch)
    assert text == written(oracle_samples_csv, batch)
    assert text.count("\r\n") == n + 1
    assert "nan" not in text


def test_points_at_infinity():
    batch = OrbitSampleBatch(np.array([math.inf, -math.inf, 0.0]),
                             np.zeros(3), 1, 0, 3)
    pts = batch.points
    assert pts[0] == complex(math.inf, 0.0) and pts[1] == 0 and pts[2] == 1


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("label", [float, math.exp])
def test_cdf_csv_matches_row_writer(n, label, monkeypatch, forks):
    xs, _ = awkward_values(n, n + 1)
    xs[np.isinf(xs)] = -0.0  # samples are finite
    grid = np.linspace(-5.0, 5.0, 257)
    law = StationaryLaw(grid=grid, cdf=np.clip((grid + 5.0) / 10.0, 0, 1))
    for ref in (law, StationaryLaw(atom=0.5), None):
        text = forked_and_one_cpu(monkeypatch, forks, write_cdf_csv, xs, ref,
                                  "r", label=label)
        assert text == written(oracle_cdf_csv, xs, ref, "r", label=label)
        assert text.count("\r\n") == n + 1


def test_orbit_sample_stdout_matches_row_writer(capsys):
    # without --out the CSV goes to stdout
    argv = ["--config", str(REPO_CONFIG), "3/2", "--samples", "9000",
            "--depth", "5", "--seed", "4"]
    assert main(["orbit-sample"] + argv) == 0
    out = capsys.readouterr().out
    batch = backward_sample(build_system(load_config(str(REPO_CONFIG))),
                            parse_alpha("3/2"), 5, 9000, 4)
    assert out == written(oracle_samples_csv, batch)


def test_orbit_sample_at_infinity(capsys):
    # most paths from infinity stay there under (z^3 + 1)/(2z); a numpy
    # warning would reach stderr through the warnings module
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["orbit-sample", "--config", str(GENERAL_CONFIG), "inf",
                     "--samples", "4", "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "" and caught == []
    rows = list(csv.reader(captured.out.splitlines()))
    assert len(rows) == 5
    cells = [cell for row in rows[1:] for cell in row]
    assert "nan" not in cells and "inf" in cells
    assert all(not math.isnan(float(cell)) for cell in cells)
