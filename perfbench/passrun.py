"""One fresh process: either a set-up probe or one closed-loop pass.

    python3 perfbench/passrun.py --workload W --seed N --result FILE
        [--setup-only] [--trace]

Run from the root of a checkout.  The set-up probe times importing stochdyn
plus load_config and build_system, which every CLI call pays.  A pass then
runs the workload's operations one after another, each starting when the
previous one has returned, timing each and capturing its stdout, while a
Speedometer samples the host's speed.  Outputs
are checked after the last operation, outside the timed region.  The result
goes to FILE as JSON.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import runpy
import sys
import time

from speed import Speedometer
from tracing import Tracer
from workloads import known_defect, workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_op(cli, op):
    """Runs one operation in this process; returns (exit code, exception,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    saved_argv = sys.argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.script is None:
                rc = cli.main(list(op.argv))
            else:
                sys.argv = [op.script] + list(op.argv)
                runpy.run_path(op.script, run_name="__main__")
                rc = 0
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 1
    except Exception as raised:  # the CLI would end in a traceback
        exc = f"raised {type(raised).__name__}: {raised}"
    finally:
        sys.argv = saved_argv
    return rc, exc, out.getvalue(), err.getvalue()


def _digest(op, text, paths):
    if op.clock_fields is not None:
        text = re.sub(op.clock_fields, "<clock>", text)
    h = hashlib.sha256(text.encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    wl = workload(args.workload, args.seed)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from stochdyn import cli
    cli.build_system(cli.load_config(wl.setup_config))
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = Tracer() if args.trace else None
    speed = Speedometer()
    raw = []
    if tracer is not None:
        tracer.install()
    speed.start()
    try:
        start = time.perf_counter()
        for op in wl.ops:
            t0 = time.perf_counter()
            if tracer is None:
                outcome = _run_op(cli, op)
            else:
                outcome = tracer.operation(f"op:{op.label}", _run_op,
                                           cli, op)
            raw.append((op, t0, time.perf_counter()) + outcome)
        end = time.perf_counter()
    finally:
        speed.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops = []
    for op, t0, t1, rc, exc, stdout, stderr in raw:
        if exc is not None:
            failures = [exc]
        elif rc != op.expect_rc:
            failures = [f"exit code {rc}, documented outcome {op.expect_rc}: "
                        f"{stderr.strip()[-300:]}"]
        else:
            failures = op.check(stdout, op.outputs)
        present = [p for p in op.outputs if os.path.exists(p)]
        ops.append({
            "label": op.label,
            "kind": op.kind,
            "seconds": t1 - t0,
            "failures": [[f, known_defect(f)] for f in failures],
            "digest": _digest(op, stdout, present),
        })
        for path in present:
            os.remove(path)
    result.update(pass_s=end - start,
                  pass_ref_s=speed.reference_seconds(start, end),
                  kernel_ms=speed.median_kernel_s() * 1e3,
                  peak_rss_mb=peak_kb / 1024.0, ops=ops)
    if tracer is not None:
        result["trace"] = tracer.metrics()
        spans = os.path.splitext(args.result)[0] + ".spans.json"
        with open(spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
