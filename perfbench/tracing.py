"""Span tracing at the boundaries of the nine stochdyn layers.

The tracer wraps the public module-level functions of each layer and
installs each wrapper in every other `stochdyn` namespace that imported the
original (`from .x import f`), so every call from one layer into another is
traced.  Calls inside a layer are traced only for the functions in NAMED,
whose own metrics the benchmark reports; tracing every small helper inside a
layer would cost more than the work it measures.  `uninstall` restores the
originals.  Wrappers only read the clock: they never touch the program's
random generators or arguments, so traced and untraced passes print the
same bytes.

Each call records a span (operation, id, parent id, name, start, end) in
memory.  Leaves called very often are aggregated per parent instead of
recorded one by one.  A layer's self time is the time of its spans minus
the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exactnum", "dynsys", "heights", "stochheight", "orbits",
          "archpotential", "padicmodel", "acceptance", "cli")

# called tens of thousands of times per pass: aggregated per parent, with
# no span of their own
HOT = frozenset({"exactnum.normalize_point", "dynsys.eval_map",
                 "heights.weil_height"})

# traced inside their own layer too
NAMED = HOT | frozenset({
    "exactnum.rational_roots", "exactnum.poly_roots_complex",
    "dynsys.is_exceptional_system", "dynsys.exceptional_report",
    "heights.l1_height_control_total",
    "stochheight.stoch_height_exact", "stochheight.stoch_height_mc",
    "orbits.backward_sample", "orbits.backward_tree",
    "orbits.write_samples_csv",
    "archpotential.gS_eval_many", "archpotential.canonical_sample",
    "archpotential.rho_self_energy", "archpotential.reference_radial_cdf",
    "archpotential.ks_one_sample", "archpotential.ks_vs_grid_cdf",
    "archpotential.ks_two_sample", "archpotential.write_radial_cdf_csv",
    "padicmodel.sample_backward_valuations", "padicmodel.stationary_segment",
    "padicmodel.write_valuation_cdf_csv",
    "acceptance.run_all",
    "cli.load_config", "cli.main",
})


def _count_batch(key):
    def hook(counts, result, args, kwargs):
        counts[key] += result.samples * result.depth
    return hook


def _count_tree(counts, tree, args, kwargs):
    for level in tree.levels:
        counts["orbits.tree_nodes"] += len(level.points)
        counts["orbits.tolerance_merges"] += level.tolerance_merges


def _count_csv_rows(counts, result, args, kwargs):
    batch = args[0] if args else kwargs["batch"]
    counts["orbits.write_samples_csv.rows"] += batch.samples


def _count_green_points(counts, result, args, kwargs):
    counts["archpotential.green_points"] += len(result)


def _count_height(counts, est, args, kwargs):
    counts["stochheight.depth"] = max(counts["stochheight.depth"], est.depth)
    counts["stochheight.mc_samples"] += est.samples


def _criterion_seconds(counts, results, args, kwargs):
    for r in results:
        counts[f"acceptance.c{r.index:02d}_s"] += r.seconds


# Counts taken from the calls themselves or from the objects they return.
HOOKS = {
    "orbits.backward_sample": _count_batch("orbits.draw_steps"),
    "archpotential.canonical_sample":
        _count_batch("archpotential.canonical_draw_steps"),
    "orbits.backward_tree": _count_tree,
    "orbits.write_samples_csv": _count_csv_rows,
    "archpotential.gS_eval_many": _count_green_points,
    "stochheight.stoch_height_exact": _count_height,
    "stochheight.stoch_height_mc": _count_height,
    "acceptance.run_all": _criterion_seconds,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, id, parent id, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        # (parent, name) -> [calls, seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.op = -1
        # frames: [span id, name, time covered by children]
        self._stack = [[None, None, 0.0]]
        self._next_id = 0
        self._patched = []

    def _enter(self, name, hot):
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, hot, start, end):
        self._stack.pop()
        parent = self._stack[-1]
        span_id, name, covered = frame
        duration = end - start
        parent[2] += duration
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration - covered
        if hot:
            leaf = self.leaves[(parent[1], name)]
            leaf[0] += 1
            leaf[1] += duration
        else:
            self.spans.append((self.op, span_id, parent[0], name, start, end))

    def _wrap(self, name, fn):
        hot = name in HOT
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, hot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, hot, start, clock())
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result
        return traced

    def operation(self, name, fn, *args):
        """Runs one benchmark operation as a root span."""
        self.op += 1
        frame = self._enter(name, False)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, False, start, time.perf_counter())

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stochdyn.{layer}")
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn), name)
        for modname, module in list(sys.modules.items()):
            if modname != "stochdyn" and not modname.startswith("stochdyn."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                original, traced, name = hit
                if original.__module__ == modname and name not in NAMED:
                    continue
                setattr(module, attr, traced)
                self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per function and layer,
        plus the counts the hooks collected."""
        out = dict(self.counts)
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                key = f"{layer}.self_s"
                out[key] = out.get(key, 0.0) + self_s
            if name.startswith("archpotential.ks_"):
                key = "archpotential.ks.self_s"
                out[key] = out.get(key, 0.0) + self_s
        nodes = out.get("orbits.tree_nodes", 0)
        if nodes:
            out["orbits.merge_ratio"] = out["orbits.tolerance_merges"] / nodes
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, calls, total]
                       for (parent, name), (calls, total)
                       in sorted(self.leaves.items(), key=str)],
        }
