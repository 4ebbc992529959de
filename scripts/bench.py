#!/usr/bin/env python3
"""Record a checkout's benchmark numbers in a BENCH JSON file.

Usage: python scripts/bench.py --label NAME --out FILE [--checkout DIR]
                               [--seconds S] [--smoke]
       python scripts/bench.py --alternate NAME=DIR NAME=DIR --out FILE
                               [--smoke]

Seven parts, each run in child processes against the checkout's own code:

* ``perfbench/run.py --trace 0`` of the checkout, once per workload at its
  default seed, for ``--seconds`` seconds: the medians of ``setup_s``,
  ``run_s`` and ``peak_rss_mb``;
* the stratified profile's stages, timed in process (paper:18,
  stratified:1000, seed 11) on grid 100x100, grid 300x300 (W1) and grid
  1000x1000: building the space and its forest, the draw of the pairs,
  their embedded distances (the pair kernel, or the factor route where the
  checkout has one; both are wrapped with timers) and the whole
  ``profile`` call, with the child's peak RSS;
* the exhaustive profile (paper:18), timed in process on the from-tree
  path:2000, staircase 60, grid 45x45, the trees path:20000 and
  path:100000 (one run) and binary-sample 12,4096 (seed 1): building the
  space and its forest, the ``profile`` call and its route, named after
  the functions the checkout has (``ROUTES``): ``fold``, the factor trees'
  folds (``metrics._tree_entries``) convolved, or ``kernel``, the pair
  kernel over blocks of sources (``metrics._kernel_entries``); in a
  checkout with the Gram route, ``tree``, the tree fold, or ``gram``, the
  Gram blocks (``metrics._exhaustive_entries``). A profile that runs
  none of them fails the script. With the child's peak RSS;
* two deep CLI commands, each in its own child with its peak RSS:
  ``generate`` of from-tree path:100000, and ``verify --suite oracle`` on
  from-tree path:2000 (its ``generate`` is not timed);
* ``measure --sampler exhaustive --assert`` (paper:18) of grid 1000x1000
  in its own child, with its wall time and peak RSS (its ``generate`` is
  not timed). A checkout with the Gram route is not timed: its Gram
  would face 5·10^11 pairs;
* the space file of grid 1000x1000, in process: ``load_spacefile`` +
  ``build_space``, timed and then traced (tracemalloc), and ``forest()``
  of the built graph, timed and then traced, per vertex;
* ``measure --sampler stratified:1000 --seed 11 --assert`` (paper:18) of
  grid 1000x1000 in its own child, with its wall time and peak RSS (its
  ``generate`` is not timed).

``--alternate`` times only the exhaustive profiles of staircase 60 and
grid 45x45 (``ALTERNATE``), one child per checkout and space in turn
(each the median of 3 runs in process), for 5 rounds, and writes the
times and their medians per checkout under ``alternating`` of ``--out``;
``--smoke`` takes staircase 6 and grid 6x6, one round.

The results go under ``runs[NAME]`` of ``--out``, next to the runs already
there, with the machine facts: cores and the Python, numpy and scipy
versions. Run it once per checkout on the same machine to compare them.
``--smoke`` passes ``--smoke`` to perfbench and times grids 10x10, 20x20
and 30x30, the exhaustive profiles of from-tree path:30, staircase 6,
grid 6x6, path:300 and binary-sample 6,64, both deep commands on one
from-tree path:30, and the space file and both ``measure`` commands of
grid 10x10 instead, in seconds.
"""

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-stratified", "tree-exhaustive", "verify-suites")
GRIDS = {False: (("100x100", 5), ("300x300", 3), ("1000x1000", 1)),
         True: (("10x10", 1), ("20x20", 1), ("30x30", 1))}
EXHAUSTIVE = {False: (("from-tree:2000", 3), ("staircase:60", 3), ("grid:45x45", 3),
                     ("path:20000", 3), ("path:100000", 1), ("binary-sample:12,4096", 3)),
              True: (("from-tree:30", 1), ("staircase:6", 1), ("grid:6x6", 1),
                     ("path:300", 1), ("binary-sample:6,64", 1))}
# the from-tree path lengths of the deep generate and the deep oracle run
DEEP = {False: (100000, 2000), True: (30, 30)}
# the grid of the space file and of both measure commands
MEASURE = {False: "1000x1000", True: "10x10"}
ALTERNATE = {False: ("staircase:60", "grid:45x45"), True: ("staircase:6", "grid:6x6")}
ROUNDS = {False: 5, True: 1}
# the exhaustive routes by the metrics functions of a checkout: the first
# table whose names it all has tags them
ROUTES = ({"_exhaustive_entries": "gram", "_tree_entries": "tree"},
          {"_kernel_entries": "kernel", "_tree_entries": "fold"})


def machine_facts() -> dict:
    facts = {"cores": os.cpu_count(), "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            facts[pkg] = "not installed"
    return facts


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def perfbench(checkout: Path, workload: str, seconds: float, smoke: bool) -> dict:
    """The end-to-end metrics of one perfbench run, from its last line."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
            workload, "--trace", "0", "--seconds", str(seconds)]
    res = subprocess.run(argv + ["--smoke"] * smoke, cwd=checkout,
                         env=child_env(checkout), capture_output=True, text=True)
    if not res.stdout.strip():
        raise SystemExit(f"perfbench {workload} printed nothing: {res.stderr}")
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    out = {name: m["value"] for name, m in summary["metrics"].items()}
    out.update(correct=summary["correct"], runs=summary["attempted"])
    return out


def stages(dims: str, reps: int) -> dict:
    """The stratified profile's stage times on grid ``dims``: medians over
    ``reps`` runs in this process, which imports the checkout's code."""
    import resource

    from medembed import metrics
    from medembed.cube import CubeSpec, gen_cube
    from medembed.metrics import PairSampler, profile
    from medembed.weights import WeightFunction

    spent = {}

    def timed(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] = spent.get(key, 0.0) + time.perf_counter() - start
        setattr(owner, name, wrapper)

    timed(metrics, "_pair_sq_distances", "kernel")
    try:
        from medembed import factors
    except ImportError:  # a checkout without the factor route
        pass
    else:
        timed(factors, "tree_factors", "factors")
        # the factor route's embedder: FactorPairs, or TreeFactors before it
        timed(getattr(factors, "FactorPairs", factors.TreeFactors), "sq_distances", "factors")
    start = time.perf_counter()
    grid = gen_cube(CubeSpec.grid(*(int(d) for d in dims.split("x"))))
    grid.forest()
    build = time.perf_counter() - start
    w, sampler = WeightFunction.paper(18), PairSampler.stratified(1000, 11)
    samples = []
    for _ in range(reps):
        spent.clear()
        start = time.perf_counter()
        pairs = len(metrics._stratified_pairs(grid, w, sampler)[0])
        total = time.perf_counter() - start
        embed = spent.get("kernel", 0.0) + spent.get("factors", 0.0)
        route = "factors" if "factors" in spent else "kernel"
        start = time.perf_counter()
        profile(grid, w, sampler)
        samples.append({"draw_s": total - embed, "embed_s": embed,
                        "profile_s": time.perf_counter() - start})
    out = {"space": f"grid {dims}", "vertices": grid.vertex_count, "pairs": pairs,
           "route": route, "reps": reps, "build_s": build}
    for key in samples[0]:
        out[key] = statistics.median(s[key] for s in samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def exhaustive(name: str, reps: int) -> dict:
    """The exhaustive profile's time on the space ``name``: the median
    graphs from-tree:L (a path of L edges), staircase:C and grid:AxB, or
    the trees path:L and binary-sample:D,R (seed 1). Medians over ``reps``
    runs in this process, which imports the checkout's code."""
    import resource

    from medembed import metrics
    from medembed.cube import CubeSpec, gen_cube
    from medembed.metrics import PairSampler, profile
    from medembed.tree import TreeSpec, gen_tree
    from medembed.weights import WeightFunction

    kind, arg = name.split(":")
    build = {"from-tree": lambda: gen_cube(CubeSpec.from_tree(TreeSpec.path(int(arg)))),
             "staircase": lambda: gen_cube(CubeSpec.staircase(int(arg))),
             "grid": lambda: gen_cube(CubeSpec.grid(*(int(d) for d in arg.split("x")))),
             "path": lambda: gen_tree(TreeSpec.path(int(arg))),
             "binary-sample": lambda: gen_tree(TreeSpec.binary_sample(
                 *(int(d) for d in arg.split(",")), seed=1))}[kind]
    routes = []

    def tagged(attr, route):
        fn = getattr(metrics, attr)

        def wrapper(*args):
            routes.append(route)
            return fn(*args)
        setattr(metrics, attr, wrapper)

    for attr, route in route_names(metrics).items():
        tagged(attr, route)
    start = time.perf_counter()
    space = build()
    space.forest()
    build_s = time.perf_counter() - start
    w, times = WeightFunction.paper(18), []
    for _ in range(reps):
        start = time.perf_counter()
        profile(space, w, PairSampler.exhaustive())
        times.append(time.perf_counter() - start)
    if not routes:
        raise SystemExit(f"the exhaustive profile of {name} ran no tagged route")
    return {"space": name, "vertices": space.vertex_count, "route": routes[0],
            "reps": reps, "build_s": build_s, "profile_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def route_names(metrics) -> dict:
    """The ``ROUTES`` table of the checkout's ``metrics`` module."""
    for names in ROUTES:
        if all(hasattr(metrics, attr) for attr in names):
            return names
    raise SystemExit("the checkout has none of the exhaustive routes of ROUTES")


def run_cli(*argv) -> dict:
    """``medembed.cli`` with ``argv``, in a child of this process: its wall
    time and its own peak RSS."""
    import tempfile

    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "medembed.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status):
            err.seek(0)
            raise SystemExit(f"{' '.join(argv)} failed: {err.read()}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def measure(dims: str) -> dict:
    """``measure --sampler exhaustive --assert`` of grid ``dims`` at
    paper:18 by the checkout's CLI, after an untimed ``generate``; a
    checkout with the Gram route is not timed."""
    import tempfile

    from medembed import metrics

    out = {"space": f"grid {dims}", "route": "fold"}
    if route_names(metrics) is ROUTES[0]:
        return {**out, "route": "gram",
                "skipped": "the Gram would face n(n-1)/2 pairs (5·10^11 at 1000x1000)"}
    with tempfile.TemporaryDirectory() as tmp:
        space, csv = str(Path(tmp) / "grid.json"), str(Path(tmp) / "grid.csv")
        run_cli("generate", "--space", "grid", "--dims", dims, "-o", space)
        out.update(run_cli("measure", "--space", space, "--weight", "paper:18",
                           "--sampler", "exhaustive", "--assert", "-o", csv))
    return out


def stratified_measure(dims: str) -> dict:
    """``measure --sampler stratified:1000 --seed 11 --assert`` of grid
    ``dims`` at paper:18 by the checkout's CLI, after an untimed
    ``generate``."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        space, csv = str(Path(tmp) / "grid.json"), str(Path(tmp) / "grid.csv")
        run_cli("generate", "--space", "grid", "--dims", dims, "-o", space)
        return {"space": f"grid {dims}", **run_cli(
            "measure", "--space", space, "--weight", "paper:18", "--sampler",
            "stratified:1000", "--seed", "11", "--assert", "-o", csv)}


def space_file(dims: str) -> dict:
    """The space file of grid ``dims``, written untimed, then read in this
    process, which imports the checkout's code: ``load_spacefile`` +
    ``build_space`` timed, then again under tracemalloc for its traced
    peak; ``forest()`` of the graph built untraced, timed, and of the one
    built traced, traced, per vertex."""
    import tempfile
    import tracemalloc

    from medembed.cube import CubeSpec, gen_cube
    from medembed.spacefile import build_space, load_spacefile, save_spacefile, to_spacefile

    def traced(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        save_spacefile(to_spacefile(gen_cube(CubeSpec.grid(*(int(d) for d in dims.split("x"))))),
                       path)
        start = time.perf_counter()
        graph = build_space(load_spacefile(path))
        load_build = time.perf_counter() - start
        start = time.perf_counter()
        graph.forest()
        forest_s = time.perf_counter() - start
        del graph
        graph, load_peak = traced(lambda: build_space(load_spacefile(path)))
        _, forest_peak = traced(graph.forest)
        return {"space": f"grid {dims}", "bytes": path.stat().st_size,
                "vertices": graph.vertex_count, "load_build_s": load_build,
                "load_build_traced_mib": load_peak / 2**20, "forest_s": forest_s,
                "forest_traced_b_per_vertex": forest_peak / graph.vertex_count}


def deep(generate_len: int, oracle_len: int) -> dict:
    """Two deep CLI commands, each run by the checkout's ``medembed.cli`` in
    a child of this process, with its wall time and its own peak RSS:
    ``generate`` of from-tree path:``generate_len``, and ``verify --suite
    oracle`` on from-tree path:``oracle_len``, whose file is generated
    first, untimed, unless the two lengths are equal."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = {n: str(Path(tmp) / f"path{n}.json") for n in (generate_len, oracle_len)}

        def generate(n):
            return run_cli("generate", "--space", "from-tree", "--tree", f"path:{n}",
                           "-o", files[n])

        out = {"generate": {"space": f"from-tree path:{generate_len}",
                            **generate(generate_len)}}
        if oracle_len != generate_len:
            generate(oracle_len)
        out["oracle"] = {"space": f"from-tree path:{oracle_len}",
                         **run_cli("verify", "--suite", "oracle", "--space", files[oracle_len])}
    return out


def child(checkout: Path, *argv) -> dict:
    """The JSON line printed by this script run with ``argv`` against the
    checkout's code."""
    res = subprocess.run([sys.executable, __file__, *argv], cwd=checkout,
                         env=child_env(checkout), capture_output=True, text=True,
                         check=True)
    return json.loads(res.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="name of this run in the BENCH file")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="source checkout to measure (default: this one)")
    ap.add_argument("--out", type=Path, help="BENCH JSON file to add the run to")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="perfbench --seconds per workload")
    ap.add_argument("--smoke", action="store_true", help="tiny spaces")
    ap.add_argument("--stage", nargs=2, metavar=("DIMS", "REPS"), help=argparse.SUPPRESS)
    ap.add_argument("--exhaustive", nargs=2, metavar=("SPACE", "REPS"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--deep", nargs=2, metavar=("GENERATE_LEN", "ORACLE_LEN"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--measure", metavar="DIMS", help=argparse.SUPPRESS)
    ap.add_argument("--stratified-measure", metavar="DIMS", help=argparse.SUPPRESS)
    ap.add_argument("--space-file", metavar="DIMS", help=argparse.SUPPRESS)
    ap.add_argument("--alternate", nargs=2, metavar=("NAME=DIR", "NAME=DIR"),
                    help="time the ALTERNATE exhaustive profiles on two checkouts in turn")
    args = ap.parse_args()
    if args.stage:  # the child of one stage timing
        print(json.dumps(stages(args.stage[0], int(args.stage[1]))))
        return
    if args.exhaustive:  # the child of one exhaustive timing
        print(json.dumps(exhaustive(args.exhaustive[0], int(args.exhaustive[1]))))
        return
    if args.deep:  # the child of the deep commands
        print(json.dumps(deep(*(int(n) for n in args.deep))))
        return
    if args.measure:  # the child of the exhaustive measure command
        print(json.dumps(measure(args.measure)))
        return
    if args.stratified_measure:  # the child of the stratified measure command
        print(json.dumps(stratified_measure(args.stratified_measure)))
        return
    if args.space_file:  # the child of the space file timing
        print(json.dumps(space_file(args.space_file)))
        return
    if args.alternate and args.out:
        alternate(args.alternate, args.smoke, args.out)
        return
    if not args.label or not args.out:
        ap.error("--label and --out are required")
    checkout = args.checkout.resolve()
    run = {"machine": machine_facts(), "seconds": args.seconds, "smoke": args.smoke,
           "workloads": {}, "stages": {}, "exhaustive": {}, "deep": {}}
    for workload in WORKLOADS:
        run["workloads"][workload] = perfbench(checkout, workload, args.seconds, args.smoke)
        print(workload, run["workloads"][workload], flush=True)
    for dims, reps in GRIDS[args.smoke]:
        run["stages"][dims] = child(checkout, "--stage", dims, str(reps))
        print(dims, run["stages"][dims], flush=True)
    for name, reps in EXHAUSTIVE[args.smoke]:
        run["exhaustive"][name] = child(checkout, "--exhaustive", name, str(reps))
        print(name, run["exhaustive"][name], flush=True)
    run["deep"] = child(checkout, "--deep", *map(str, DEEP[args.smoke]))
    print("deep", run["deep"], flush=True)
    run["measure"] = child(checkout, "--measure", MEASURE[args.smoke])
    print("measure", run["measure"], flush=True)
    run["space_file"] = child(checkout, "--space-file", MEASURE[args.smoke])
    print("space_file", run["space_file"], flush=True)
    run["stratified_measure"] = child(checkout, "--stratified-measure", MEASURE[args.smoke])
    print("stratified_measure", run["stratified_measure"], flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = "python scripts/bench.py --label NAME --out FILE --checkout DIR"
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote runs[{args.label!r}] -> {args.out}")


def alternate(pairs, smoke: bool, out: Path):
    """The exhaustive profiles of ``ALTERNATE``, one child per space on
    each of the two NAME=DIR checkouts in turn, ``ROUNDS`` times: each
    child's ``profile_s`` (the median of 3 runs in process, so the first
    call's imports do not count) and route, with the medians over the
    rounds, under ``alternating`` of ``out``."""
    checkouts = dict(pair.split("=", 1) for pair in pairs)
    times = {name: {label: [] for label in checkouts} for name in ALTERNATE[smoke]}
    routes = {name: {} for name in ALTERNATE[smoke]}
    rounds = ROUNDS[smoke]
    for _ in range(rounds):
        for name in ALTERNATE[smoke]:
            for label, checkout in checkouts.items():
                got = child(Path(checkout).resolve(), "--exhaustive", name, "3")
                times[name][label].append(got["profile_s"])
                routes[name][label] = got["route"]
        print("round", {name: {label: ts[-1] for label, ts in by.items()}
                        for name, by in times.items()}, flush=True)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["alternating"] = {
        "command": "python scripts/bench.py --alternate NAME=DIR NAME=DIR --out FILE",
        "machine": machine_facts(), "rounds": rounds,
        "spaces": {name: {label: {"route": routes[name][label], "profile_s": ts,
                                  "median_s": statistics.median(ts)}
                          for label, ts in by.items()}
                   for name, by in times.items()}}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote alternating -> {out}")


if __name__ == "__main__":
    main()
