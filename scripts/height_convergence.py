"""Compare stochastic heights against naive Weil heights point by point.

Prints, for each start point, the Weil height, the stochastic height
estimate at a few tolerances, and the gap h_S - h.  The gap is bounded
by the system's summed distortion budget; the last column shows how
much of that budget the point actually uses.

Usage (the -- keeps negative points out of option parsing):
    python3 scripts/height_convergence.py --config configs/example.json \
        -- 1 2 3/2 -5/7 inf
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stochdyn.cli import (build_system, check_seed, exit_code_of, load_config,
                          parse_alpha)
from stochdyn.heights import l1_height_control_total, weil_height
from stochdyn.stochheight import stoch_height, tail_budget


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("points", nargs="+", help="points 'a/b' or 'inf'")
    ap.add_argument("--tols", type=float, nargs="+",
                    default=[1e-1, 1e-2, 1e-3])
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    cfg = load_config(args.config)
    seed = check_seed(args.seed if args.seed is not None else cfg.seed)
    system = build_system(cfg)
    # every point's parse and every tol's check, before any output
    alphas = [parse_alpha(text) for text in args.points]
    for tol in args.tols:
        tail_budget(system).depth(tol)
    budget = l1_height_control_total(system)
    print(f"distortion budget sum: {budget:.6f}")
    print(f"{'point':>8} {'h':>10} " +
          " ".join(f"{'h_S@' + format(t, '.0e'):>12}" for t in args.tols) +
          f" {'gap':>10} {'gap/budget':>11}")
    for text, alpha in zip(args.points, alphas):
        h = weil_height(alpha)
        cells = []
        last = None
        for tol in args.tols:
            est = stoch_height(system, alpha, tol, seed=seed)
            cells.append(f"{est.value:>12.6f}")
            last = est.value
        gap = last - h
        frac = abs(gap) / budget if budget > 0 else 0.0
        print(f"{text:>8} {h:>10.6f} " + " ".join(cells) +
              f" {gap:>10.6f} {frac:>11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code_of(main))
