"""Command-line surface: generate spaces, embed vertices, measure profiles,
run verification suites, merge result tables.

Exit codes: 0 success (and all asserted checks passed), 1 a requested
check failed, 2 bad input (malformed file, invalid flags, budget) or an
allocation the process could not get.
All commands are deterministic given their flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cube import (
    CubeSpec,
    gen_cube,
    key_property,
    median_from_tree,
)
from .errors import MedEmbedError
from .metrics import (
    EXHAUSTIVE_DEFAULT_PAIR_LIMIT,
    PairSampler,
    ProductSpace,
    check_profile_against,
    default_bound_curves,
    l1_l2_compare,
    oracle_deviations,
    profile,
)
from .spacefile import (
    build_space,
    load_spacefile,
    save_spacefile,
    to_spacefile,
)
from .sparse import vec_distance, vectors
from .tree import RootedTree, TreeSpec, gen_tree
from .weights import build_weight_report, deficit_bound, parse_weight

CSV_HEADER = "t,rho_hat,delta_hat,bound_lower,bound_upper,pairs"


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def format_profile_csv(rows) -> str:
    """Profile CSV text: the header, then one line per
    (t, rho_hat, delta_hat, bound_lower, bound_upper, pairs) row."""
    lines = [CSV_HEADER]
    for t, rho, delta, lo, up, pairs in rows:
        lines.append(
            f"{t},{_fmt(rho)},{_fmt(delta)},{_fmt(lo)},{_fmt(up)},{pairs}")
    return "\n".join(lines) + "\n"


def profile_rows(prof, lower, upper):
    """CSV rows of a profile next to the two bound curves."""
    ts = prof.ts()
    return [
        (e.t, e.rho_hat, e.delta_hat, lo, up, e.pair_count)
        for e, lo, up in zip(prof.entries, lower.values(ts), upper.values(ts))
    ]


def parse_tree_spec(text: str, seed=None) -> TreeSpec:
    """Parse compact tree specs: path:5, spider:3,100,
    binary-sample:200,50 (seed separate), caterpillar:10,3."""
    name, _, rest = text.partition(":")
    try:
        args = [int(a) for a in rest.split(",") if a != ""]
    except ValueError:
        args = []  # no kind takes zero numbers: ends at the error below
    if name == "path" and len(args) == 1:
        return TreeSpec.path(args[0])
    if name == "spider" and len(args) == 2:
        return TreeSpec.spider(args[0], args[1])
    if name == "binary-sample" and len(args) == 2:
        if seed is None:
            raise ValueError("binary-sample requires --seed")
        return TreeSpec.binary_sample(args[0], args[1], seed)
    if name == "caterpillar" and len(args) == 2:
        return TreeSpec.caterpillar(args[0], args[1])
    raise ValueError(f"cannot parse tree spec {text!r}")


def parse_sampler(text: str, seed=None) -> PairSampler:
    name, _, arg = text.partition(":")
    if name == "exhaustive" and arg:
        raise ValueError(f"cannot parse sampler {text!r}")
    if name == "exhaustive":
        return PairSampler.exhaustive()
    if name not in ("uniform", "stratified"):
        raise ValueError(f"unknown sampler {text!r}")
    if seed is None:
        raise ValueError(f"{name} sampler requires --seed")
    default = 10000 if name == "uniform" else 1000
    try:
        count = int(arg or default)
    except ValueError:
        raise ValueError(f"cannot parse sampler {text!r}") from None
    return getattr(PairSampler, name)(count, seed)  # uniform or stratified


def _ints(flag: str, text: str, sep: str) -> list[int]:
    """The integers of ``text`` split at ``sep``, or a ValueError naming ``flag``."""
    try:
        return [int(a) for a in text.lower().split(sep)]
    except ValueError:
        raise ValueError(f"cannot parse {flag} {text!r}") from None


# -- generate -------------------------------------------------------------------


def _build_generated_space(args):
    kind = args.space
    if kind in ("path", "spider", "binary-sample", "caterpillar"):
        if kind == "path":
            spec = TreeSpec.path(args.len)
        elif kind == "spider":
            spec = TreeSpec.spider(args.legs, args.leg_len)
        elif kind == "caterpillar":
            spec = TreeSpec.caterpillar(args.spine, args.hair)
        else:
            if args.seed is None:
                raise ValueError("binary-sample requires --seed")
            spec = TreeSpec.binary_sample(args.depth, args.rays, args.seed)
        return gen_tree(spec, args.max_vertices), {"spec": spec.label()}
    if kind == "grid":
        if not args.dims:
            raise ValueError("grid requires --dims, e.g. 20x20")
        spec = CubeSpec.grid(*_ints("--dims", args.dims, "x"))
    elif kind == "staircase":
        if args.heights:
            spec = CubeSpec.staircase_heights(_ints("--heights", args.heights, ","))
        elif args.cols:
            spec = CubeSpec.staircase(args.cols)
        else:
            raise ValueError("staircase requires --cols or --heights")
    elif kind == "from-tree":
        if not args.tree:
            raise ValueError("from-tree requires --tree")
        spec = CubeSpec.from_tree(parse_tree_spec(args.tree, args.seed))
    elif kind == "tree-product":
        if not (args.left and args.right):
            raise ValueError("tree-product requires --left and --right")
        spec = CubeSpec.tree_product(
            parse_tree_spec(args.left, args.seed),
            parse_tree_spec(args.right, args.seed),
        )
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return gen_cube(spec, args.max_vertices), {"spec": spec.label()}


def cmd_generate(args) -> int:
    space, provenance = _build_generated_space(args)
    if args.seed is not None:
        provenance["seed"] = args.seed
    save_spacefile(to_spacefile(space, generator=provenance), args.out)
    if isinstance(space, RootedTree):
        print(f"tree: {space.vertex_count} vertices, {space.edge_count} edges")
    else:
        print(
            f"median graph: {space.vertex_count} vertices, "
            f"{space.edge_count} edges, {space.forest().key_count} hyperplanes, "
            f"dimension {space.dimension}"
        )
    return 0


# -- embed ----------------------------------------------------------------------


def _load_space(path):
    if not Path(path).exists():
        raise FileNotFoundError(f"no such space file: {path}")
    return build_space(load_spacefile(path))


def cmd_embed(args) -> int:
    space = _load_space(args.space)
    w = parse_weight(args.weight)
    indptr, indices, (data,) = space.embedding_rows([w], [args.vertex])
    vec, = vectors((indptr, indices, data))
    keys, vals = vec.as_arrays()
    doc = {
        "vertex": args.vertex,
        "weight": w.label(),
        "norm": vec.norm(),
        "coords": [[int(k), float(v)] for k, v in zip(keys, vals)],
    }
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# -- measure --------------------------------------------------------------------


def cmd_measure(args) -> int:
    if args.assert_bounds and args.t_min and args.t_min < 2:
        raise ValueError("t_min must be >= 2")  # before any output is written
    space = _load_space(args.space)
    w = parse_weight(args.weight)
    spec = args.sampler
    if spec == "auto":
        n_pairs = space.vertex_count * (space.vertex_count - 1) // 2
        spec = ("exhaustive" if n_pairs <= EXHAUSTIVE_DEFAULT_PAIR_LIMIT
                else "stratified:1000")
    sampler = parse_sampler(spec, args.seed)
    dim = space.dimension  # builds the forest, which accepts exactly the median graphs
    prof = profile(
        space, w, sampler,
        metadata={"space": space.label or str(args.space), "weight": w.label()},
    )
    lower, upper = default_bound_curves(w, dim)
    t_min = args.t_min if args.t_min else max(2, 2 * w.cutoff)
    Path(args.out).write_text(format_profile_csv(profile_rows(prof, lower, upper)))
    print(f"profile: {len(prof.entries)} rows -> {args.out}")
    if args.assert_bounds:
        check = check_profile_against(prof, lower, upper, t_min)
        status = "PASS" if check.passed else "FAIL"
        print(
            f"bounds[{status}] min slack {check.min_slack:.6g} at t={check.at_t} "
            f"({check.side} side, {check.points_checked} points, t_min={t_min})"
        )
        return 0 if check.passed else 1
    return 0


# -- verify ---------------------------------------------------------------------


def _verify_lemma(args) -> int:
    w = parse_weight(args.weight or "paper:18")
    if w.kind == "paper" and args.n_max < w.m - 1:
        raise ValueError(f"--N-max must be at least {w.m - 1} for weight "
                         f"{w.label()}, got {args.n_max}")
    report = build_weight_report(w, n_max=args.n_max)
    for n, s in report.partial_sums:
        print(f"  increment sum to {n}: {s:.9f}")
    print(f"  tail bound: {report.tail_bound:.9f}")
    print(f"  deficit constant: {report.deficit_constant:.9f} "
          f"(attained at N={report.deficit_argmax}, "
          f"stabilized={report.stabilized})")
    print(f"  monotone past cutoff: {report.monotone_ok}")
    # measure takes its constant in closed form; once the scan reaches the
    # cutoff M, the two must agree bit for bit, with the maximum at M
    closed = deficit_bound(w)
    closed_ok = args.n_max < w.m or (closed == report.deficit_constant
                                     and report.deficit_argmax == w.m)
    if not closed_ok:
        print(f"  closed-form deficit constant: {closed!r} "
              f"(scan {report.deficit_constant!r} at N={report.deficit_argmax})")
    passed = report.passed and closed_ok
    status = "PASS" if passed else "FAIL"
    print(f"lemma[{status}] margin={report.margin:.6g}")
    return 0 if passed else 1


def _verify_oracle(args) -> int:
    if not args.space:
        raise ValueError("oracle suite requires --space")
    space = _load_space(args.space)
    err, sep_dev = oracle_deviations(space)
    ok = err <= 1e-9
    print(f"  unit-weight identity max relative error: {err:.3e}")
    if sep_dev is not None:
        print(f"  distance vs separating-hyperplane count: max deviation {sep_dev}")
        ok = ok and sep_dev == 0
    status = "PASS" if ok else "FAIL"
    print(f"oracle[{status}]")
    return 0 if ok else 1


def _verify_normalpath(args) -> int:
    if not args.space:
        raise ValueError("normalpath suite requires --space")
    space = _load_space(args.space)
    if isinstance(space, RootedTree):
        space = median_from_tree(space)
    n_dim = space.dimension
    keys = key_property(space)
    max_dev = int(keys.index_deltas.max(initial=0))
    mult_ok = keys.max_step_size <= n_dim
    print(f"  max index deviation over edges: {max_dev}")
    print(f"  step sizes within dimension {n_dim}: {mult_ok}")
    print(f"  crossed sets partition the separators: {keys.partition_ok}")
    print(f"  each edge's own hyperplane crossed first from its deeper end: {keys.own_key_ok}")
    ok = max_dev <= 1 and mult_ok and keys.partition_ok and keys.own_key_ok
    status = "PASS" if ok else "FAIL"
    print(f"normalpath[{status}]")
    return 0 if ok else 1


def _verify_product(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    count = args.count
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    worst_gap = 0.0
    for _ in range(count):
        k = int(rng.integers(1, 6))
        d = rng.uniform(0.0, 100.0, size=k)
        d1, d2 = l1_l2_compare(k, d)
        if not (d2 <= d1 + 1e-9 and d1 <= np.sqrt(k) * d2 + 1e-9):
            worst_gap = max(worst_gap, 1.0)
    t1 = gen_tree(TreeSpec.path(12))
    t2 = gen_tree(TreeSpec.spider(3, 4))
    prod = ProductSpace([t1, t2])
    w = parse_weight(args.weight or "unit")
    # 2,000 pairs (a, b), drawn one scalar at a time, a before b
    ends = [int(rng.integers(0, prod.vertex_count)) for _ in range(4000)]
    rows = [space.embedding_rows([w], c) for space, c in
            zip((prod, t1, t2), (ends, *np.unravel_index(ends, prod.sizes)))]
    vec, x, y = (vectors((indptr, indices, data)) for indptr, indices, (data,) in rows)
    max_err = 0.0
    for a, b in zip(range(0, 4000, 2), range(1, 4000, 2)):
        lhs = vec_distance(vec[a], vec[b]) ** 2
        rhs = vec_distance(x[a], x[b]) ** 2 + vec_distance(y[a], y[b]) ** 2
        max_err = max(max_err, abs(lhs - rhs) / max(1.0, rhs))
    ok = worst_gap == 0.0 and max_err <= 1e-9
    print(f"  l1/l2 bounds on {count} tuples: {'ok' if worst_gap == 0 else 'violated'}")
    print(f"  product distance identity max relative error: {max_err:.3e}")
    status = "PASS" if ok else "FAIL"
    print(f"product[{status}]")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    suites = {
        "lemma": _verify_lemma,
        "oracle": _verify_oracle,
        "normalpath": _verify_normalpath,
        "product": _verify_product,
    }
    if args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(suites)}")
    return suites[args.suite](args)


# -- report ---------------------------------------------------------------------


def cmd_report(args) -> int:
    merged: dict[int, list] = {}
    for path in args.inputs:
        raw = Path(path).read_text()
        text = raw.strip().splitlines()
        if not text or text[0] != CSV_HEADER:
            raise MedEmbedError(f"{path}: unexpected CSV header")
        header_line = raw[:len(raw) - len(raw.lstrip())].count("\n") + 1
        for lineno, line in enumerate(text[1:], start=header_line + 1):
            try:
                t_s, rho, delta, lo, up, pairs = line.split(",")
                t = int(t_s)
                row = [float(rho), float(delta), float(lo), float(up), int(pairs)]
            except ValueError:
                raise MedEmbedError(
                    f"{path}: line {lineno}: malformed row {line!r}") from None
            cur = merged.setdefault(t, row)
            if cur is not row:
                merged[t] = [min(cur[0], row[0]), max(cur[1], row[1]),
                             min(cur[2], row[2]), max(cur[3], row[3]),
                             cur[4] + row[4]]
    rows = [(t, *merged[t]) for t in sorted(merged)]
    Path(args.out).write_text(format_profile_csv(rows))
    print(f"merged {len(args.inputs)} tables, {len(merged)} rows -> {args.out}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="medembed",
        description="Embeddings of trees and median graphs into sparse "
                    "Hilbert-space vectors, with compression measurement.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a space file")
    g.add_argument("--space", required=True,
                   choices=["path", "spider", "binary-sample", "caterpillar",
                            "grid", "staircase", "from-tree", "tree-product"])
    g.add_argument("--len", type=int, default=0, help="path edge count")
    g.add_argument("--legs", type=int, default=0)
    g.add_argument("--leg-len", dest="leg_len", type=int, default=0)
    g.add_argument("--depth", type=int, default=0)
    g.add_argument("--rays", type=int, default=0)
    g.add_argument("--spine", type=int, default=0)
    g.add_argument("--hair", type=int, default=0)
    g.add_argument("--dims", default="", help="grid sides, e.g. 20x20")
    g.add_argument("--cols", type=int, default=0,
                   help="staircase with heights cols..1")
    g.add_argument("--heights", default="",
                   help="explicit staircase heights, e.g. 5,4,2")
    g.add_argument("--tree", default="", help="tree spec for from-tree")
    g.add_argument("--left", default="", help="first tree-product factor")
    g.add_argument("--right", default="", help="second tree-product factor")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--max-vertices", dest="max_vertices", type=int,
                   default=5_000_000)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("embed", help="dump one vertex's sparse vector")
    e.add_argument("--space", required=True)
    e.add_argument("--weight", default="paper:18")
    e.add_argument("--vertex", type=int, required=True)
    e.add_argument("-o", "--out", default="")
    e.set_defaults(func=cmd_embed)

    m = sub.add_parser("measure", help="compute a compression profile CSV")
    m.add_argument("--space", required=True)
    m.add_argument("--weight", default="paper:18")
    m.add_argument("--sampler", default="auto",
                   help="exhaustive, uniform:N, stratified:N, or auto")
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--t-min", dest="t_min", type=int, default=0)
    m.add_argument("--assert", dest="assert_bounds", action="store_true",
                   help="exit nonzero unless bound checks pass")
    m.add_argument("-o", "--out", required=True)
    m.set_defaults(func=cmd_measure)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--space", default="")
    v.add_argument("--weight", default="")
    v.add_argument("--N-max", dest="n_max", type=int, default=10**6)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--count", type=int, default=10_000)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="merge profile CSVs")
    r.add_argument("-o", "--out", required=True)
    r.add_argument("inputs", nargs="+")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (MedEmbedError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's sort buffers raise a MemoryError with no message
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
