"""End-to-end and per-layer benchmark of stochdyn.

    python3 perfbench/run.py --workload {dyadic,general,exact} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs the workload as a closed
loop: each pass is a fresh process (so lru_caches and cached properties start
cold, as a CLI user finds them) that runs the workload's commands one after
another.  Passes repeat while another one fits in S seconds; every pass runs
with the same seed, so each pass repeats the same work.  Every pass process
also times its own set-up, and extra fresh processes time the set-up alone
until there are five set-up times.  Every output is checked and every
failure counted.

With --trace 0 the result holds the end-to-end metrics, medians over the
passes.  With --trace 1 untraced and traced passes alternate; the result
holds the per-layer metrics of the traced passes, the per-command times of
the untraced ones and the tracing overhead, and a traced pass must print the
same bytes as an untraced one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when the benchmark ran, whatever the
program's failures; it is 2, with no result, when the checkout holds no
stochdyn sources or a pass process dies.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import KINDS, WORK_DIR, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "passrun.py")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
REQUIRED = ("src/stochdyn/cli.py", "configs/example.json",
            "scripts/backward_tree_stats.py")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _child_env(seed):
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    # fixed per run, so that two passes of one run hash strings alike
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    return env


def _child(wl, seed, env, index, *flags):
    path = os.path.join(WORK_DIR, f"{wl}-{seed}-{index}.json")
    cmd = [sys.executable, PASS, "--workload", wl, "--seed", str(seed),
           "--result", path, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"pass process failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def _kind_seconds(result, kind):
    return sum(op["seconds"] for op in result["ops"] if op["kind"] == kind)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(wl, seed, seconds, trace):
    """Runs passes while another fits in `seconds`, at least one; then
    set-up probes until there are SETUP_SAMPLES set-up times, counting
    those of the passes."""
    os.makedirs(WORK_DIR, exist_ok=True)
    env = _child_env(seed)
    plain, traced = [], []
    index = 0
    start = time.perf_counter()
    while True:
        # with tracing, a round is an untraced pass followed by a traced one
        for tracing in ((False, True) if trace else (False,)):
            flags = ("--trace",) if tracing else ()
            (traced if tracing else plain).append(
                _child(wl, seed, env, index, *flags))
            index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(wl, seed, env, index, "--setup-only")["setup_s"])
        index += 1
    return setups, plain, traced


def summarize(wl, seed, setups, plain, traced):
    end_to_end, per_layer = _declared()
    passes = plain + traced
    attempted = sum(len(r["ops"]) for r in passes)
    failures = [(op["label"], reason, known)
                for r in passes for op in r["ops"]
                for reason, known in op["failures"]]
    failed = sum(1 for r in passes for op in r["ops"] if op["failures"])
    # a traced pass must print what the untraced pass printed
    reference = [op["digest"] for op in plain[0]["ops"]]
    for r in traced:
        for op, digest in zip(r["ops"], reference):
            if op["digest"] != digest:
                attempted += 1
                failed += 1
                failures.append((op["label"],
                                 "traced output differs from untraced", None))

    command = {f"{k}_s": [_kind_seconds(r, k) for r in plain] for k in KINDS}
    values = {
        "setup_s": _median(setups),
        "pass_ref_s": _median([r["pass_ref_s"] for r in plain]),
        "pass_s": _median([r["pass_s"] for r in plain]),
        "host.kernel_ms": _median([r["kernel_ms"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "ok_frac": (attempted - failed) / attempted,
    }
    values.update({k: _median(v) for k, v in command.items()})
    if traced:
        layer = {}
        keys = set().union(*(r["trace"] for r in traced))
        for key in keys:
            layer[key] = _median([r["trace"].get(key, 0.0) for r in traced])
        layer["trace.overhead_s"] = (
            _median([r["pass_ref_s"] for r in traced]) - values["pass_ref_s"])
        values.update(layer)

    print(f"workload {wl}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-up samples")
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.4f}")
    for label, reason, known in sorted(set(failures)):
        tag = f" [known defect, {known}]" if known else ""
        print(f"  FAILED {label}: {reason[:300]}{tag}")
    for i, op in enumerate(plain[0]["ops"]):
        seconds = _median([r["ops"][i]["seconds"] for r in plain])
        print(f"  {op['label']:<48} {seconds:>16.6g} s (median)")
    shown = per_layer if traced else end_to_end
    metrics = {}
    for m in shown:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value:>16.6g} {m['unit']}")
    correct = all(known for _, _, known in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # end by an exception, so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: not a stochdyn checkout, missing {missing}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        setups, plain, traced = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summarize(args.workload, args.seed, setups, plain, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
