#!/usr/bin/env python3
"""Measure compression/dilatation curves for a deep tree and a square grid
under the truncated sqrt(t)/(sqrt(ln t) ln ln t) weight, write the profile
CSVs, and print the bound checks.

Each profile's line ends with its wall time and the process's peak
resident set so far (``resource.getrusage``), in MB.

Usage: python scripts/compression_curves.py [--out-dir out] [--grid 120]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from medembed import (
    CubeSpec,
    PairSampler,
    TreeSpec,
    WeightFunction,
    check_profile_against,
    default_bound_curves,
    gen_cube,
    gen_tree,
    profile,
)
from medembed.cli import format_profile_csv, profile_rows


def run_space(name, space, dim, sampler, t_min, out_dir):
    w = WeightFunction.paper(18)
    t0 = time.perf_counter()
    prof = profile(space, w, sampler,
                   metadata={"space": name, "weight": w.label()})
    lower, upper = default_bound_curves(w, dim)
    check = check_profile_against(prof, lower, upper, t_min=t_min)
    out = Path(out_dir) / f"{name}.csv"
    out.write_text(format_profile_csv(profile_rows(prof, lower, upper)))
    status = "PASS" if check.passed else "FAIL"
    print(f"{name:<24} rows={len(prof.entries):<5} "
          f"[{status}] min slack {check.min_slack:8.4f} at t={check.at_t}  "
          f"({time.perf_counter() - t0:5.1f}s, peak {peak_rss_mb():.1f} MB)"
          f"  -> {out}")


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (2^20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # Linux: KiB


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--grid", type=int, default=120, help="grid side length")
    ap.add_argument("--depth", type=int, default=200, help="tree ray depth")
    ap.add_argument("--rays", type=int, default=50)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)

    tree = gen_tree(TreeSpec.binary_sample(args.depth, args.rays, args.seed))
    print(f"binary sample: {tree.vertex_count} vertices, depth {args.depth}")
    run_space("tree-profile", tree, tree.dimension,
              PairSampler.exhaustive(), t_min=36, out_dir=args.out_dir)

    grid = gen_cube(CubeSpec.grid(args.grid, args.grid))
    print(f"grid: {grid.vertex_count} vertices, "
          f"{grid.forest().key_count} hyperplanes")
    run_space("grid-profile", grid, grid.dimension,
              PairSampler.stratified(1000, seed=11), t_min=36,
              out_dir=args.out_dir)


if __name__ == "__main__":
    main()
