"""Sweep equidistribution diagnostics over sampling depth.

For a configured system and start point, samples the random backward
orbit at several depths and prints the KS distances against the
stationary radial/angular laws at the archimedean place, plus the
valuation-law KS at any requested primes.  Optionally dumps the CDF
pairs to CSV for plotting.

Usage:
    python3 scripts/equidist_report.py --config configs/example.json 1 \
        --depths 5 10 20 30 --primes 2 --out-dir /tmp/cdfs
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stochdyn.archpotential import equidist, write_equidist_csv
from stochdyn.cli import (build_system, check_seed, exit_code_of, load_config,
                          parse_alpha)
from stochdyn.dynsys import walk_start
from stochdyn.heights import ARCH, PlaceQ
from stochdyn.padicmodel import valuation_ifs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("alpha")
    ap.add_argument("--depths", type=int, nargs="+", default=[5, 10, 20, 30])
    ap.add_argument("--primes", type=int, nargs="*", default=[])
    ap.add_argument("--samples", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    cfg = load_config(args.config)
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    samples = args.samples if args.samples is not None else cfg.samples
    seed = check_seed(args.seed if args.seed is not None else cfg.seed)

    places = [ARCH] + [PlaceQ(p) for p in args.primes]
    # every walk's guards, before any output
    walk_start(system, alpha, min(args.depths), samples)
    for place in places[1:]:
        valuation_ifs(system, place)
    header = f"{'depth':>6} {'ks_radial':>10} {'ks_angular':>11} {'residual':>10}"
    for p in args.primes:
        header += f" {'ks@' + str(p):>8}"
    print(header)
    for depth in args.depths:
        results = [equidist(system, place, alpha, depth, samples, seed, cfg.tol)
                   for place in places]
        arch = results[0].scores
        # a null residual is +inf: samples at infinity
        residual = arch["potential_residual"]
        row = (f"{depth:>6} {arch['ks_radial']:>10.4f} "
               f"{arch['ks_angular']:>11.4f} "
               f"{math.inf if residual is None else residual:>10.4f}")
        for res in results[1:]:
            row += f" {res.scores['ks']:>8.4f}"
        print(row)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            for res in results:
                name = "radial" if res.place.is_arch else f"val{res.place.p}"
                path = os.path.join(args.out_dir, f"{name}_depth{depth}.csv")
                with open(path, "w") as fh:
                    write_equidist_csv(res, fh)
    if args.out_dir:
        print(f"CDF CSVs written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code_of(main))
