#!/usr/bin/env python3
"""Fit the ceiling constant c with rho_hat(t) <= c * t / sqrt(ln t) on
sampled binary trees of growing depth and print the drift table. A stable
c across depths is the expected signature; a climbing c would indicate a
profile growing faster than the ceiling allows.

Usage: python scripts/ceiling_drift.py [--depths 50,100,150,200]
       python scripts/ceiling_drift.py --depths 250,500,1000

The exhaustive profiles come from the trees' depth triples, so depth 1000
(about 40,000 vertices at 40 rays) runs in seconds.
"""

import argparse
import time

from medembed import (
    PairSampler,
    TreeSpec,
    bourgain_consistency,
    gen_tree,
    parse_weight,
    profile,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--depths", default="50,100,150,200")
    ap.add_argument("--rays", type=int, default=40)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--weight", default="paper:18")
    args = ap.parse_args()
    w = parse_weight(args.weight)
    depths = [int(d) for d in args.depths.split(",")]
    print(f"weight {w.label()}, {args.rays} rays, seed {args.seed}")
    print(f"{'depth':>6} {'vertices':>9} {'fitted c':>9} {'argmax t':>9} "
          f"{'max t':>6} {'drift?':>7} {'time':>7}")
    results = []
    for depth in depths:
        t0 = time.perf_counter()
        tree = gen_tree(TreeSpec.binary_sample(depth, args.rays, args.seed))
        prof = profile(tree, w, PairSampler.exhaustive())
        v = bourgain_consistency(prof)
        results.append(v)
        print(f"{depth:>6} {tree.vertex_count:>9} {v.fitted_c:>9.4f} "
              f"{v.argmax_t:>9} {v.max_t:>6} "
              f"{'no' if v.passed else 'YES':>7} "
              f"{time.perf_counter() - t0:>6.1f}s")
    cs = [v.fitted_c for v in results if v.fitted_c > 0]
    if len(cs) >= 2:
        print(f"spread across depths: x{max(cs) / min(cs):.3f}")


if __name__ == "__main__":
    main()
