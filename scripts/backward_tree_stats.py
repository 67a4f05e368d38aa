"""Exact statistics of the backward orbit tree at small depths.

Builds the level measures Delta_{n,alpha} exactly and prints, per
level: the number of distinct atoms, the largest atom mass, the sum of
squared masses (the well-distributedness statistic), and the weighted
mean of log|z| over the level.  Also reports the certified sup-mass
contraction ratio over triples of levels when the depth allows it.

Usage:
    python3 scripts/backward_tree_stats.py --config configs/example.json 1 \
        --depth 6
"""

import argparse
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stochdyn.cli import build_system, exit_code_of, load_config, parse_alpha
from stochdyn.orbits import (
    backward_tree,
    sup_mass_certificate,
    sup_mass_decay,
    well_distributed_stat,
)


def _mean_log_abs(level):
    """The weighted mean of log|z| over the level: inf or -inf when
    infinity or 0 carries mass, nan when both do."""
    total = 0.0
    for log_r, w in zip(level.points[:, 0].tolist(), level.numerators):
        total += w / level.denominator * log_r
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("alpha")
    ap.add_argument("--depth", type=int, default=6)
    args = ap.parse_args()

    cfg = load_config(args.config)
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    tree = backward_tree(system, alpha, args.depth)

    print(f"{'level':>6} {'atoms':>7} {'sup mass':>12} {'sum w^2':>12} "
          f"{'mean log|z|':>12}")
    for k, level in enumerate(tree.levels):
        sup = Fraction(max(level.numerators), level.denominator)
        wd = well_distributed_stat(tree, k)
        print(f"{k:>6} {len(level.points):>7} {str(sup):>12} "
              f"{float(wd):>12.3e} {_mean_log_abs(level):>12.6f}")

    if tree.depth >= 3:
        cert = sup_mass_certificate(tree)
        print(f"\nsup-mass per 3 levels: "
              + ", ".join(f"3k={3 * k}: {m}" for k, m in sup_mass_decay(tree)))
        print(f"certified 3-level contraction ratio: {cert} "
              f"(= {float(cert):.4f})")
        if cert < Fraction(1):
            print("sup mass decays geometrically along triples of levels")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code_of(main))
