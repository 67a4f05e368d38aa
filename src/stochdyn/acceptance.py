"""Acceptance battery for the reference dyadic system {z^2 (1/2), 2z^2 (1/2)}.

Fourteen numbered checks cover the sampling laws at the archimedean and
2-adic places, exact height identities, Green's function spot values,
radii, exceptional points, and tree statistics.  Each check returns a
pass flag plus a one-line detail string; `run_all` never raises, it
converts criterion exceptions into failures.

Criterion 5 (geometric decay of the heights of backward-orbit measures)
is implemented exactly as stated and measured honestly.  The measured
sequence h_S(level n) does not decay like 2^-n for this system.  The
level-n atoms from alpha = 1 are zeta * 2^q with q = -B/2^n, B uniform
on {0, ..., 2^n - 1}, and each has h_S = (log 2)((1+q)^2 + q^2)/2 >=
(log 2)/4, so averaging gives exactly

    h_S(Delta_{n,1}) = (log 2)(1/3 + 4^-n/6),

which converges to (log 2)/3 > 0 and exceeds the bound
(log 2)/2 * 2^-n + 1e-3 at every level.  The check therefore fails by a
wide, stable margin.  See the detail string it emits for the measured
values; nothing in this module masks that outcome.  The bound is exactly
h_S(1)/2^n + 1e-3, the height of every level-n atom taken along its own
word of maps; which of the two heights the backward-orbit theorem
bounds is an open question (ROADMAP D3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .dynsys import (
    is_exceptional_system,
    make_map,
    make_system,
    word_ramification,
    words,
)
from .exactnum import INFINITY, normalize_point
from .heights import (
    ARCH,
    dirac,
    make_measure,
    measure_height_exact,
    mix,
    prime_place,
    product_formula_sum,
    standard_energy_defect,
)
from .archpotential import gS_eval_many, pullback_invariance_residual, radii
from .exactnum import point_from_rational
from .ifs import ks_one_sample
from .orbits import backward_sample, backward_tree, well_distributed_stat
from .padicmodel import sample_backward_valuations
from .stochheight import stoch_height_exact, weil_comparison_residual

LOG2 = math.log(2.0)
SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion-{self.index:02d} {status} {self.name}: {self.detail}"


def reference_dyadic_system():
    half = Fraction(1, 2)
    return make_system([make_map([0, 0, 1], [1]), make_map([0, 0, 2], [1])],
                       [half, half])


def _c01_radial_law(ctx):
    t0 = time.perf_counter()
    batch = backward_sample(ctx["system"], normalize_point(1, 1), 30, 100000,
                            SEED)
    ks = ks_one_sample(batch.log_abs,
                       lambda u: np.clip(1.0 + u / LOG2, 0.0, 1.0))
    elapsed = time.perf_counter() - t0
    ctx["batch"] = batch
    ok = ks <= 0.02 and elapsed < 60.0
    return ok, f"ks_radial={ks:.4f} (<=0.02), run {elapsed:.1f}s (<60s)"


def _c02_angular_uniformity(ctx):
    ks = ks_one_sample(ctx["batch"].angle, lambda t: t / (2.0 * np.pi))
    return ks <= 0.02, f"ks_angular={ks:.4f} (<=0.02)"


def _c03_dyadic_segment_law(ctx):
    vals = sample_backward_valuations(ctx["system"], 2, normalize_point(1, 1),
                                      30, 100000, SEED)
    ks = ks_one_sample(vals, lambda v: np.clip(v + 1.0, 0.0, 1.0))
    return ks <= 0.02, f"ks_valuation={ks:.4f} (<=0.02) vs uniform[-1,0]"


def _c04_height_closed_forms(ctx):
    system = ctx["system"]
    e1 = stoch_height_exact(system, normalize_point(1, 1), 12).value
    w1 = (1.0 - 2.0 ** -12) * LOG2 / 2.0
    e2 = stoch_height_exact(system, normalize_point(2, 1), 12).value
    w2 = (1.5 - 2.0 ** -13) * LOG2
    r1 = abs(e1 - w1) / w1
    r2 = abs(e2 - w2) / w2
    ok = r1 <= 1e-12 and r2 <= 1e-12
    return ok, f"rel errors {r1:.2e}, {r2:.2e} (<=1e-12)"


def _c05_backward_height_decay(ctx):
    tree = backward_tree(ctx["system"], normalize_point(1, 1), 6)
    ctx["tree"] = tree
    rows = []
    ok = True
    for n in range(1, 7):
        level = tree.levels[n]
        # atoms zeta * 2^q, q in [-1, 0], have h_S = log 2 * E|q + U| with U
        # uniform on [0, 1] (archimedean plus 2-adic escape)
        q = np.log2(np.abs(np.array(level.points)))
        if not np.all((q >= -1.0 - 1e-9) & (q <= 1e-9)):
            raise ValueError(f"level-{n} atom exponents leave [-1, 0]: {q}")
        heights = LOG2 * ((1.0 + q) ** 2 + q**2) / 2.0
        value = float(np.dot(heights, np.array([float(w) for w in level.weights])))
        bound = LOG2 / 2.0 * 2.0 ** -n + 1e-3
        if value > bound:
            ok = False
        rows.append(f"n={n}: {value:.4f} vs bound {bound:.4f}")
    return ok, "; ".join(rows)


def _c06_product_formula(ctx):
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(100):
        pair = []
        for _ in range(2):
            k = int(rng.integers(1, 4))
            pts = set()
            while len(pts) < k:
                num = int(rng.integers(-30, 31))
                den = int(rng.integers(1, 12))
                pts.add(point_from_rational(Fraction(num, den)))
            raw = [int(rng.integers(1, 6)) for _ in range(k)]
            tot = sum(raw)
            pair.append(make_measure(sorted(pts),
                                     [Fraction(r, tot) for r in raw]))
        if product_formula_sum(pair[0], pair[1]) != 0.0:
            failures += 1
    return failures == 0, f"{100 - failures}/100 pairs summed to exactly 0"


def _c07_height_linearity(ctx):
    rng = np.random.default_rng(SEED + 1)
    failures = 0
    for _ in range(100):
        measures = []
        for _ in range(2):
            k = int(rng.integers(1, 4))
            pts = set()
            while len(pts) < k:
                pts.add(point_from_rational(
                    Fraction(int(rng.integers(-40, 41)),
                             int(rng.integers(1, 15)))))
            raw = [int(rng.integers(1, 7)) for _ in range(k)]
            tot = sum(raw)
            measures.append(make_measure(sorted(pts),
                                         [Fraction(r, tot) for r in raw]))
        t = Fraction(int(rng.integers(1, 10)), 10)
        combined = measure_height_exact(mix([(t, measures[0]),
                                             (1 - t, measures[1])]))
        split = measure_height_exact(measures[0]).scaled(t) + \
            measure_height_exact(measures[1]).scaled(1 - t)
        if combined != split:
            failures += 1
    return failures == 0, f"{100 - failures}/100 combinations exactly linear"


def _c08_pairing_lower_bounds(ctx):
    rng = np.random.default_rng(SEED + 2)
    places = [ARCH, prime_place(2), prime_place(3), prime_place(5)]
    worst_fin, worst_arch = math.inf, math.inf
    ok = True
    for i in range(1000):
        k = int(rng.integers(1, 4))
        pts = set()
        while len(pts) < k:
            pts.add(point_from_rational(
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))))
        raw = [int(rng.integers(1, 5)) for _ in range(k)]
        tot = sum(raw)
        measure = make_measure(sorted(pts), [Fraction(r, tot) for r in raw])
        place = places[i % len(places)]
        d = standard_energy_defect(measure, place)
        if place.p is None:
            worst_arch = min(worst_arch, d)
            if d < -LOG2 + 1e-12:
                ok = False
        else:
            worst_fin = min(worst_fin, d)
            if d < -1e-14:  # exact bound is 0; slack covers float rounding
                ok = False
    return ok, (f"min finite defect {worst_fin:.3e} (>=0), "
                f"min arch defect {worst_arch:.4f} (>=-log2)")


def _c09_exceptional_points(ctx):
    from .dynsys import exceptional_set

    system = ctx["system"]
    exc = exceptional_set(system)
    want = [normalize_point(0, 1), INFINITY]
    ok = exc == want

    inv_sq = make_map([1], [0, 0, 1])
    shift_sq = make_map([1, 0, 1], [1])
    pair = make_system([inv_sq, shift_sq], [Fraction(1, 2), Fraction(1, 2)])
    not_exc = not is_exceptional_system(pair, INFINITY)
    rams = [word_ramification(pair, w.indices, INFINITY) for w in words(pair, 2)]
    fully_ramified = all(r == 4 for r in rams)
    ok = ok and not_exc and fully_ramified
    return ok, (f"E_S={{{', '.join(str(p) for p in exc)}}}, "
                f"depth-2 ramifications {rams}, system exceptional at inf: "
                f"{not not_exc}")


def _c10_green_spot_values(ctx):
    t0 = time.perf_counter()
    vals = gS_eval_many(ctx["system"], [0.0, 1.0, 2.0, 10.0])
    elapsed = time.perf_counter() - t0
    err0 = abs(vals[0] + LOG2 / 2.0)
    errs = np.abs(vals[1:])
    ok = err0 <= 1e-3 and np.max(errs) <= 1e-3 and elapsed < 30.0
    return ok, (f"|g(0)+log2/2|={err0:.2e}, max |g| on |z| in {{1,2,10}} = "
                f"{np.max(errs):.2e} (<=1e-3), run {elapsed:.1f}s (<30s)")


def _c11_radii(ctx):
    r_in, r_out = radii(ctx["system"])
    want_in, want_out = 2.0 ** (-1 / 6), 2.0 ** (1 / 3)
    rel_in = abs(r_in / want_in - 1.0)
    rel_out = abs(r_out / want_out - 1.0)
    one = make_system([make_map([0, 0, 1], [1])], [Fraction(1)])
    u_in, u_out = radii(one)
    unit_err = max(abs(u_in - 1.0), abs(u_out - 1.0))
    ok = rel_in <= 0.01 and rel_out <= 0.01 and unit_err <= 1e-9
    return ok, (f"example ({r_in:.4f}, {r_out:.4f}) rel errs "
                f"{rel_in:.4f}/{rel_out:.4f} (<=0.01); unit system err "
                f"{unit_err:.1e}")


def _c12_weil_comparison(ctx):
    rng = np.random.default_rng(SEED + 3)
    system = ctx["system"]
    cap = int(math.exp(10.0))  # Weil height <= 10
    worst = 0.0
    budget = None
    for _ in range(50):
        a = int(rng.integers(-cap, cap + 1))
        b = int(rng.integers(1, cap + 1))
        if a == 0:
            a = 1
        alpha = normalize_point(a, b)
        diff, budget = weil_comparison_residual(system, alpha)
        worst = max(worst, diff)
        if diff > budget:
            return False, f"|h_S - h| = {diff:.4f} exceeds budget {budget:.4f}"
    return True, f"max |h_S - h| = {worst:.4f} <= 3 log 2 = {budget:.4f}"


def _c13_well_distributed(ctx):
    tree = ctx["tree"]
    stats = [well_distributed_stat(tree, k) for k in range(7)]
    monotone = all(stats[i + 1] <= stats[i] for i in range(6))
    geo = all(stats[3 * k] <= Fraction(1, 4) ** k * stats[0] for k in (1, 2))
    ok = monotone and geo
    return ok, (f"stats at levels 0,3,6: {stats[0]}, {stats[3]}, {stats[6]}; "
                f"monotone={monotone}, 4^-k decay={geo}")


def _c14_pullback_invariance(ctx):
    res = pullback_invariance_residual(ctx["system"], 30, 100000, SEED)
    return res <= 0.01, f"radial KS between depths 30 and 31: {res:.4f} (<=0.01)"


_CRITERIA = [
    (1, "example radial law", _c01_radial_law),
    (2, "angular uniformity", _c02_angular_uniformity),
    (3, "2-adic segment law", _c03_dyadic_segment_law),
    (4, "stochastic height closed forms", _c04_height_closed_forms),
    (5, "backward height decay", _c05_backward_height_decay),
    (6, "product formula", _c06_product_formula),
    (7, "height linearity", _c07_height_linearity),
    (8, "pairing lower bounds", _c08_pairing_lower_bounds),
    (9, "exceptional points", _c09_exceptional_points),
    (10, "Green spot values", _c10_green_spot_values),
    (11, "inner and outer radii", _c11_radii),
    (12, "Weil comparison", _c12_weil_comparison),
    (13, "well-distributedness", _c13_well_distributed),
    (14, "pullback invariance", _c14_pullback_invariance),
]


def run_all(progress: Optional[Callable[[CriterionResult], None]] = None):
    """Run every criterion in order; exceptions become failures."""
    ctx = {"system": reference_dyadic_system()}
    results = []
    for index, name, fn in _CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # keep the battery running
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(index, name, passed, detail,
                                       time.perf_counter() - t0))
        if progress is not None:
            progress(results[-1])
    return results
