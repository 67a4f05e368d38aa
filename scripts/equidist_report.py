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
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stochdyn.archpotential import (
    GreenConfig,
    equidist_test_arch,
    write_radial_cdf_csv,
)
from stochdyn.cli import build_system, load_config, parse_alpha
from stochdyn.padicmodel import equidist_test_padic, write_valuation_cdf_csv


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
    seed = args.seed if args.seed is not None else cfg.seed
    gcfg = GreenConfig(samples=max(cfg.samples // 64, 256), tol=cfg.tol)

    header = f"{'depth':>6} {'ks_radial':>10} {'ks_angular':>11} {'residual':>10}"
    for p in args.primes:
        header += f" {'ks@' + str(p):>8}"
    print(header)
    for depth in args.depths:
        res = equidist_test_arch(system, alpha, depth, samples, seed, gcfg)
        row = (f"{depth:>6} {res.ks_radial:>10.4f} {res.ks_angular:>11.4f} "
               f"{res.potential_residual:>10.4f}")
        valuations = {}
        for p in args.primes:
            ks, vals, law = equidist_test_padic(system, p, alpha, depth,
                                                samples, seed)
            valuations[p] = (vals, law)
            row += f" {ks:>8.4f}"
        print(row)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"radial_depth{depth}.csv")
            with open(path, "w") as fh:
                write_radial_cdf_csv(res.batch, res.law, fh)
            for p, (vals, ref) in valuations.items():
                path = os.path.join(args.out_dir, f"val{p}_depth{depth}.csv")
                with open(path, "w") as fh:
                    write_valuation_cdf_csv(vals, ref, fh)
    if args.out_dir:
        print(f"CDF CSVs written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
