import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from medembed import cli
from medembed.cli import CSV_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_path(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "generate", "--space", "path",
                          "--len", "5", "-o", str(out))
    assert code == 0
    assert "6 vertices" in stdout
    doc = json.loads(out.read_text())
    assert doc["type"] == "tree"
    assert doc["n"] == 6
    assert doc["generator"]["spec"] == "path:5"


def test_generate_grid_reports_hyperplanes(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "generate", "--space", "grid",
                          "--dims", "2x3", "-o", str(out))
    assert code == 0
    assert "12 vertices" in stdout
    assert "5 hyperplanes" in stdout
    assert "dimension 2" in stdout


def test_generate_grid_20x20_counts(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "generate", "--space", "grid",
                          "--dims", "20x20", "-o", str(out))
    assert code == 0
    assert "441 vertices" in stdout
    assert "40 hyperplanes" in stdout


def test_generate_binary_sample_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(capsys, "generate", "--space", "binary-sample",
                         "--depth", "30", "--rays", "6", "--seed", "42",
                         "-o", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_binary_sample_needs_seed(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--space", "binary-sample",
                       "--depth", "5", "--rays", "2",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "seed" in err


def test_generate_budget_exceeded(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--space", "grid",
                       "--dims", "1000x1000", "--max-vertices", "1000",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "budget" in err


def test_embed_stable_output(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "25", "-o", str(space))
    code, stdout, _ = run(capsys, "embed", "--space", str(space),
                          "--weight", "paper:18", "--vertex", "20")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["weight"] == "paper:18"
    assert len(doc["coords"]) == 3  # depth 20 leaves indices 18..20
    keys = [k for k, _ in doc["coords"]]
    assert keys == sorted(keys)


def test_generate_staircase(tmp_path, capsys):
    out = tmp_path / "st.json"
    code, stdout, _ = run(capsys, "generate", "--space", "staircase",
                          "--cols", "4", "-o", str(out))
    assert code == 0
    assert "19 vertices" in stdout
    code, stdout, _ = run(capsys, "generate", "--space", "staircase",
                          "--heights", "3,2", "-o", str(out))
    assert code == 0
    assert "dimension 2" in stdout


def test_embed_byte_identical_across_processes(tmp_path):
    space = tmp_path / "g.json"
    argv = [sys.executable, "-m", "medembed.cli"]
    subprocess.run(argv + ["generate", "--space", "grid", "--dims", "5x4",
                           "-o", str(space)], check=True, capture_output=True)
    outs = []
    for _ in range(2):
        res = subprocess.run(
            argv + ["embed", "--space", str(space), "--weight", "unit",
                    "--vertex", "17"],
            check=True, capture_output=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert len(doc["coords"]) > 0


def test_embed_rejects_unknown_vertex(tmp_path, capsys):
    path, grid = tmp_path / "p.json", tmp_path / "g.json"
    run(capsys, "generate", "--space", "path", "--len", "5", "-o", str(path))
    run(capsys, "generate", "--space", "grid", "--dims", "2x2", "-o", str(grid))
    for space, vertex in ((path, "-1"), (path, "6"), (grid, "-1"), (grid, "9")):
        code, stdout, err = run(capsys, "embed", "--space", str(space),
                                "--vertex", vertex)
        assert code == 2
        assert "unknown vertex" in err
        assert stdout == ""


def test_embed_rejects_graph_that_is_not_median(tmp_path, capsys):
    # an induced subgraph of Q5 that is not a partial cube (see test_cube)
    labels = [3, 11, 7, 23, 22, 2, 19, 31, 10, 6, 18, 29, 25, 17, 5, 24, 28,
              27, 4, 26, 16, 14]
    ids = {v: i for i, v in enumerate(labels)}
    edges = [[ids[u], ids[u ^ 1 << b]] for u in labels for b in range(5)
             if u < u ^ 1 << b and u ^ 1 << b in ids]
    space = tmp_path / "q5.json"
    space.write_text(json.dumps({"type": "median_graph", "n": len(labels),
                                 "root": 0, "edges": edges}))
    code, stdout, err = run(capsys, "embed", "--space", str(space), "--vertex", "5")
    assert code == 2 and stdout == ""
    assert err == "error: three squares at vertex 6 lie in no cube\n"


# Imports medembed.cli, runs the command given in argv, if any, and prints
# the medembed modules then loaded, less the package, cli and errors, and
# the scipy and numpy.ma modules, on its last two stdout lines.
SCIPY_GUARD = (
    "import sys, medembed.cli; "
    "code = medembed.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
    "print(*sorted(m.split('.')[1] for m in sys.modules if m.split('.')[0] == 'medembed'"
    " and m not in ('medembed', 'medembed.cli', 'medembed.errors'))); "
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
    " or m.split('.')[:2] == ['numpy', 'ma'])); "
    "sys.exit(code)")

# The medembed modules a command loads besides cli and errors: cli imports
# the graph, profile and weight modules, only the oracle and normalpath
# suites import the key-set comparisons of keysets, and only the stratified
# sampler and the exhaustive profile import the tree factors of factors.
MODULES = ("cube", "metrics", "spacefile", "sparse", "tree", "weights")
KEYSETS = ("keysets", *MODULES)
FACTORS = ("factors", *MODULES)


@pytest.mark.parametrize("argv, modules", [
    ((), MODULES),
    (("generate", "--space", "binary-sample", "--depth", "30", "--rays", "6",
      "--seed", "42", "-o", "new.json"), MODULES),
    (("measure", "--space", "tree.json", "--sampler", "exhaustive",
      "-o", "tree.csv"), FACTORS),
    (("verify", "--suite", "lemma", "--N-max", "1000"), MODULES),
    (("verify", "--suite", "lemma", "--N-max", "100000"), MODULES),
    (("report", "-o", "merged.csv", "profile.csv"), MODULES),
    (("generate", "--space", "grid", "--dims", "30x30", "-o", "new.json"), MODULES),
    (("generate", "--space", "staircase", "--cols", "12", "-o", "new.json"), MODULES),
    (("generate", "--space", "from-tree", "--tree", "binary-sample:12,6",
      "--seed", "5", "-o", "new.json"), MODULES),
    (("generate", "--space", "tree-product", "--left", "spider:3,4",
      "--right", "path:6", "-o", "new.json"), MODULES),
    (("measure", "--space", "grid.json", "--sampler", "exhaustive",
      "-o", "grid.csv"), FACTORS),
    (("measure", "--space", "staircase.json", "--sampler", "exhaustive",
      "-o", "staircase.csv"), FACTORS),
    (("verify", "--suite", "normalpath", "--space", "grid.json"), KEYSETS),
    (("verify", "--suite", "oracle", "--space", "grid.json"), KEYSETS),
    (("verify", "--suite", "oracle", "--space", "tree.json"), KEYSETS),
    (("verify", "--suite", "oracle", "--space", "from-tree.json"), KEYSETS),
    (("measure", "--space", "grid.json", "--sampler", "stratified:5",
      "--seed", "1", "-o", "grid.csv"), FACTORS),
    (("measure", "--space", "tree.json", "--sampler", "stratified:5",
      "--seed", "1", "-o", "tree.csv"), FACTORS),
    (("measure", "--space", "grid.json", "--sampler", "uniform:50",
      "--seed", "1", "-o", "grid.csv"), MODULES),
    (("measure", "--space", "tree.json", "--sampler", "uniform:50",
      "--seed", "1", "-o", "tree.csv"), MODULES),
    (("embed", "--space", "grid.json", "--vertex", "7"), MODULES),
    (("embed", "--space", "tree-edges.json", "--vertex", "7"), MODULES),
    (("verify", "--suite", "product", "--count", "10"), MODULES),
], ids=["import", "generate-tree", "measure-tree", "verify-lemma",
        "verify-lemma-chunked", "report",
        "generate-grid", "generate-staircase", "generate-from-tree",
        "generate-tree-product", "measure-grid", "measure-staircase", "verify-normalpath",
        "verify-oracle", "verify-oracle-tree", "verify-oracle-from-tree",
        "measure-grid-stratified", "measure-tree-stratified",
        "measure-grid-uniform", "measure-tree-uniform", "embed-grid",
        "embed-tree-edges", "verify-product"])
def test_cli_loads_scipy_only_where_used(tmp_path, capsys, argv, modules):
    # scipy takes most of a CLI process's start-up; no command builds a
    # sparse matrix: tree commands (tree files that list edges too), the
    # median-graph generators, the samplers, both exhaustive routes (the
    # fold of a product of trees, such as the grid, and the pair kernel of
    # any other space, such as the staircase), embed and the oracle,
    # normalpath and product suites, and every BFS is numpy (the base
    # vertex's row, the oracles' rows, a tree's parents from its edges),
    # so no command loads scipy. No command loads numpy.ma either, which a
    # plain np.unique imports. Only the oracle and normalpath suites
    # compile keysets, and only the stratified and exhaustive measure rows
    # compile factors, whose tree_factors decides the route
    run(capsys, "generate", "--space", "binary-sample", "--depth", "30",
        "--rays", "6", "--seed", "42", "-o", str(tmp_path / "tree.json"))
    run(capsys, "generate", "--space", "grid", "--dims", "4x4",
        "-o", str(tmp_path / "grid.json"))
    run(capsys, "generate", "--space", "from-tree", "--tree", "binary-sample:12,6",
        "--seed", "5", "-o", str(tmp_path / "from-tree.json"))
    run(capsys, "generate", "--space", "staircase", "--cols", "6",
        "-o", str(tmp_path / "staircase.json"))
    run(capsys, "measure", "--space", str(tmp_path / "tree.json"),
        "--sampler", "exhaustive", "-o", str(tmp_path / "profile.csv"))
    tree = json.loads((tmp_path / "tree.json").read_text())
    parent = tree.pop("parent")
    tree["edges"] = [[v, p] for v, p in enumerate(parent) if v != tree["root"]]
    (tmp_path / "tree-edges.json").write_text(json.dumps(tree))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", SCIPY_GUARD, *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2].split() == sorted(modules)
    assert res.stdout.splitlines()[-1].split() == []


PRODUCT_SCIPY_GUARD = (
    "import sys\n"
    "from medembed import (CubeSpec, PairSampler, ProductSpace, TreeSpec, WeightFunction,\n"
    "                      gen_cube, gen_tree, profile)\n"
    "space = ProductSpace([gen_tree(TreeSpec.spider(3, 4)), gen_cube(CubeSpec.grid(2, 3))])\n"
    "sampler = getattr(PairSampler, sys.argv[1])(int(sys.argv[2]), seed=1)\n"
    "profile(space, WeightFunction.paper(18), sampler)\n"
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")


@pytest.mark.parametrize("mode, count", [("stratified", 5), ("uniform", 50)])
def test_product_samplers_load_no_scipy(tmp_path, mode, count):
    # a product is a Graph with a cube-path forest, so its sampled profiles
    # take the numpy route of trees and median graphs
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", PRODUCT_SCIPY_GUARD, mode, str(count)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1].split() == []


def test_measure_stratified_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    from medembed import metrics

    space = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "4x4", "-o", str(space))
    monkeypatch.setattr(metrics, "SAMPLER_BUDGET", 1000)
    out = tmp_path / "p.csv"
    code, stdout, err = run(capsys, "measure", "--space", str(space),
                            "--sampler", "stratified:5", "--seed", "1",
                            "-o", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == ("error: stratified:5 needs 3677408 bytes for 16 sources x 25 "
                   "vertices, over the budget of 1000 bytes\n")


def test_measure_out_of_memory_exits_2(tmp_path, capsys):
    # stratified:26500000 on grid 150x150 takes 10,295 sources and keeps
    # every pair of a source with a later vertex, 182M picks: it plans 2.57
    # GB, within the sampler's budget; capped at 700 MB of address space, the
    # process cannot allocate the picks
    resource = pytest.importorskip("resource")
    run(capsys, "generate", "--space", "grid", "--dims", "150x150",
        "-o", str(tmp_path / "g.json"))
    limit = 700 * 10**6

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one BLAS thread: its buffers count against the cap
    res = subprocess.run(
        [sys.executable, "-m", "medembed.cli", "measure", "--space", "g.json",
         "--sampler", "stratified:26500000", "--seed", "1", "-o", "p.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        preexec_fn=cap_address_space)
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: out of memory: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert not (tmp_path / "p.csv").exists()


def test_measure_unit_profile(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    out = tmp_path / "out.csv"
    code, _, _ = run(capsys, "measure", "--space", str(space),
                     "--weight", "unit", "--sampler", "exhaustive",
                     "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10  # distances 1..9
    for line in lines[1:]:
        t, rho, delta, lo, up, pairs = line.split(",")
        assert float(rho) == pytest.approx(math.sqrt(int(t)), rel=1e-8)
        assert float(rho) == float(delta)
        assert int(pairs) == 10 - int(t)


def test_measure_uniform_count_above_all_pairs(tmp_path, capsys):
    # path:9 has 45 pairs; a count far beyond that must not size a draw
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    csvs = []
    for sampler in ("uniform:100000000000", "exhaustive"):
        out = tmp_path / f"{sampler.partition(':')[0]}.csv"
        code, _, err = run(capsys, "measure", "--space", str(space),
                           "--sampler", sampler, "--seed", "1", "-o", str(out))
        assert code == 0, err
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_measure_assert_passes(tmp_path, capsys):
    space = tmp_path / "s.json"
    run(capsys, "generate", "--space", "spider", "--legs", "3",
        "--leg-len", "40", "-o", str(space))
    out = tmp_path / "out.csv"
    code, stdout, _ = run(capsys, "measure", "--space", str(space),
                          "--weight", "paper:18", "--sampler", "exhaustive",
                          "--assert", "-o", str(out))
    assert code == 0
    assert "PASS" in stdout


def test_measure_assert_rejects_t_min_before_writing(tmp_path, capsys):
    space = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "3x3", "-o", str(space))
    out = tmp_path / "x.csv"
    for t_min in ("1", "-3"):
        code, stdout, err = run(capsys, "measure", "--space", str(space),
                                "--sampler", "uniform:5", "--seed", "1",
                                "--t-min", t_min, "--assert", "-o", str(out))
        assert code == 2
        assert stdout == ""
        assert not out.exists()
        assert err == "error: t_min must be >= 2\n"
    # without --assert t_min is not used; 0 means automatic
    for extra in (("--t-min", "1"), ("--t-min", "0", "--assert")):
        code, stdout, _ = run(capsys, "measure", "--space", str(space),
                              "--sampler", "uniform:5", "--seed", "1",
                              *extra, "-o", str(out))
        assert code == 0
        assert "profile: 3 rows" in stdout


def test_measure_missing_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "measure", "--space",
                       str(tmp_path / "nope.json"), "-o", str(out))
    assert code == 2
    assert not out.exists()  # no partial CSV
    assert "no such space file" in err


@pytest.mark.parametrize("case", ["nested", "directory", "latin-1"])
def test_measure_rejects_unreadable_space_files(tmp_path, capsys, case):
    # bad input exits 2 with a message naming the file, never a traceback
    # and exit 1, which would read as a failed check
    path = tmp_path / "space.json"
    if case == "nested":
        path.write_text("[" * 200_000 + "]" * 200_000)
        message = f"error: {path}: JSON nested too deeply\n"
    elif case == "directory":
        path.mkdir()
        message = f"error: {path}: is a directory\n"
    else:
        path.write_bytes(b'{"type":"tree","n":1,"root":0,"parent":[0],'
                         b'"generator":{"spec":"\xe9"}}')
        message = (f"error: {path}: not UTF-8 text ('utf-8' codec can't decode "
                   "byte 0xe9 in position 64: invalid continuation byte)\n")
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, "measure", "--space", str(path), "-o", str(out))
    assert (code, stdout, err) == (2, "", message)
    assert not out.exists()


def test_measure_rejects_nonmedian(tmp_path, capsys):
    # the checks of forest() reject each graph before any pair
    # is drawn, whatever the sampler
    q5 = [3, 11, 7, 23, 22, 2, 19, 31, 10, 6, 18, 29, 25, 17, 5, 24, 28,
          27, 4, 26, 16, 14]  # the Q5 subgraph of the embed test above
    grid = tmp_path / "grid.json"
    run(capsys, "generate", "--space", "grid", "--dims", "30x30", "-o", str(grid))
    doc = json.loads(grid.read_text())
    doc["edges"].append([928, 960])  # a diagonal in the far corner square
    cases = (
        ("k3", 3, [[0, 1], [1, 2], [0, 2]],
         "graph has an edge between equal levels; not bipartite"),
        ("c6", 6, [[i, (i + 1) % 6] for i in range(6)],
         "down-neighbours 2 and 4 of vertex 3 have 0 common lower "
         "neighbours; not a median graph"),
        ("k23", 5, [[a, b] for a in (0, 1) for b in (2, 3, 4)],
         "downward edges at vertex 1 do not span a cube"),
        ("q3-minus-top", 7, [[u, u ^ 1 << b] for u in range(7) for b in range(3)
                             if u < u ^ 1 << b < 7],
         "three squares at vertex 0 lie in no cube"),
        ("q5-subgraph", len(q5),
         [[q5.index(u), q5.index(u ^ 1 << b)] for u in q5 for b in range(5)
          if u < u ^ 1 << b and u ^ 1 << b in q5],
         "three squares at vertex 6 lie in no cube"),
        ("grid-diagonal", doc["n"], doc["edges"],
         "graph has an edge between equal levels; not bipartite"),
    )
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    for name, n, edges, message in cases:
        bad.write_text(json.dumps({"type": "median_graph", "n": n, "root": 0,
                                   "edges": edges}))
        for sampler in ("exhaustive", "uniform:50", "stratified:5"):
            code, stdout, err = run(capsys, "measure", "--space", str(bad),
                                    "--sampler", sampler, "--seed", "1",
                                    "-o", str(out))
            assert (code, stdout, err) == (2, "", f"error: {message}\n"), (name, sampler)
            assert not out.exists()
    # malformed fields are bad input too, not a failed check
    for doc in ('{"type":"median_graph","n":null,"root":0,"edges":[[0,1]]}',
                '{"type":"median_graph","n":2,"root":0,"edges":[[0,null]]}'):
        bad.write_text(doc + "\n")
        code, _, err = run(capsys, "measure", "--space", str(bad),
                           "-o", str(out))
        assert code == 2
        assert "malformed" in err
        assert not out.exists()


def test_measure_sampler_needs_seed(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    code, _, err = run(capsys, "measure", "--space", str(space),
                       "--sampler", "stratified:10",
                       "-o", str(tmp_path / "x.csv"))
    assert code == 2
    assert "seed" in err


def test_measure_rejects_bad_uniform_count(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    for sampler in ("uniform:0", "uniform:-3"):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "measure", "--space", str(space),
                           "--sampler", sampler, "--seed", "1", "-o", str(out))
        assert code == 2
        assert "pair count" in err
        assert not out.exists()


def test_measure_rejects_bad_stratified_count(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    # the hexagon C6 is not median: the sampler is checked before the sweep
    c6 = tmp_path / "c6.json"
    c6.write_text('{"type":"median_graph","n":6,"root":0,"edges":'
                  '[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}\n')
    for path, sampler in ((space, "stratified:0"), (space, "stratified:-1"),
                          (c6, "stratified:0")):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "measure", "--space", str(path),
                           "--sampler", sampler, "--seed", "1", "-o", str(out))
        assert code == 2
        assert "stratified sampler" in err
        assert "median" not in err
        assert not out.exists()
    code, _, err = run(capsys, "measure", "--space", str(c6), "--sampler",
                       "stratified:3", "--seed", "1", "-o", str(out))
    assert (code, err) == (2, "error: down-neighbours 2 and 4 of vertex 3 have 0 "
                              "common lower neighbours; not a median graph\n")


def test_malformed_numbers_name_the_spec(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    out = tmp_path / "x.csv"
    for flags, message in (
            (("--sampler", "uniform:abc"), "cannot parse sampler 'uniform:abc'"),
            (("--sampler", "stratified:1.5"),
             "cannot parse sampler 'stratified:1.5'"),
            (("--weight", "paper:abc"), "cannot parse weight spec 'paper:abc'"),
            (("--weight", "power:x"), "cannot parse weight spec 'power:x'"),
            (("--sampler", "exhaustive:7"), "cannot parse sampler 'exhaustive:7'"),
            (("--weight", "unit:9"), "cannot parse weight spec 'unit:9'")):
        code, _, err = run(capsys, "measure", "--space", str(space), *flags,
                           "--seed", "1", "-o", str(out))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()
    for flags, message in (
            (("from-tree", "--tree", "spider:3,x"),
             "cannot parse tree spec 'spider:3,x'"),
            (("grid", "--dims", "10xA"), "cannot parse --dims '10xA'"),
            (("staircase", "--heights", "3,a"), "cannot parse --heights '3,a'")):
        code, _, err = run(capsys, "generate", "--space", *flags,
                           "-o", str(tmp_path / "x.json"))
        assert (code, err) == (2, f"error: {message}\n")


def test_disconnected_median_graph_exits_2(tmp_path, capsys):
    # n - 1 edges, enough to pass the edge count, and still two parts:
    # the base vertex's BFS leaves vertex 4 unreached
    bad = tmp_path / "split.json"
    bad.write_text('{"type":"median_graph","n":5,"root":0,'
                   '"edges":[[0,1],[1,2],[2,3],[3,0]]}')
    for argv in (("embed", "--space", str(bad), "--vertex", "1"),
                 ("measure", "--space", str(bad), "--sampler", "exhaustive",
                  "-o", str(tmp_path / "out.csv"))):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, err) == (2, "", "error: graph is not connected\n")
    assert not (tmp_path / "out.csv").exists()


def test_measure_rejects_too_few_edges_for_n(tmp_path, capsys):
    # 2,000,000 declared vertices and one edge: rejected before anything
    # sized by n is allocated
    bad = tmp_path / "big.json"
    bad.write_text('{"type":"median_graph","n":2000000,"root":0,"edges":[[0,1]]}')
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "measure", "--space", str(bad),
                       "--sampler", "exhaustive", "-o", str(out))
    assert (code, err) == (2, "error: graph is not connected\n")
    assert not out.exists()


def test_measure_rejects_malformed_space_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    for doc in ('{"type":"tree","n":3,"root":3,"edges":[[0,1],[1,2]]}',
                '{"type":"tree","n":2,"root":0,"parent":[0,0],"generator":5}'):
        bad.write_text(doc + "\n")
        code, _, err = run(capsys, "measure", "--space", str(bad), "-o", str(out))
        assert code == 2
        assert err.startswith("error:")
        assert not out.exists()


def test_measure_rejects_non_integer_numbers(tmp_path, capsys):
    # ids and counts must be JSON integers: nothing is truncated or coerced
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    graph = '"edges":[[0,1],[1,2],[2,3]]'
    for doc, shown in (
            ('{"type":"median_graph","n":4,"root":0,"edges":[[0,1],[1,2.9],[2,3]]}', "2.9"),
            ('{"type":"median_graph","n":4.7,"root":0,' + graph + '}', "4.7"),
            ('{"type":"median_graph","n":4,"root":true,' + graph + '}', "true"),
            ('{"type":"median_graph","n":"4","root":0,' + graph + '}', '"4"'),
            ('{"type":"median_graph","n":4.0,"root":0,' + graph + '}', "4.0"),
            ('{"type":"tree","n":3,"root":0,"edges":[[0,1],[1,2.5]]}', "2.5"),
            ('{"type":"tree","n":3,"root":0,"parent":[0,0,1.0]}', "1.0")):
        bad.write_text(doc + "\n")
        code, _, err = run(capsys, "measure", "--space", str(bad), "-o", str(out))
        assert (code, err) == (
            2, f"error: {bad}: malformed field ({shown} is not an integer)\n")
        assert not out.exists()


def test_tree_parent_ids_beyond_int64_exit_2(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    out = tmp_path / "out.csv"
    huge = "99999999999999999999999"
    for parent, message in ((f"[0,{huge}]", "parent ids out of range"),
                            (f"[0,-{huge}]", "parent ids out of range"),
                            (f"[{huge},0]", "root must be its own parent")):
        bad.write_text('{"type":"tree","n":2,"root":0,"parent":' + parent + "}\n")
        code, _, err = run(capsys, "measure", "--space", str(bad), "-o", str(out))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()


def test_measure_deterministic_given_seed(tmp_path, capsys):
    space = tmp_path / "s.json"
    run(capsys, "generate", "--space", "spider", "--legs", "4",
        "--leg-len", "10", "-o", str(space))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run(capsys, "measure", "--space", str(space),
                         "--weight", "unit", "--sampler", "stratified:5",
                         "--seed", "11", "-o", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_lemma_pass(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "lemma",
                          "--N-max", "100000")
    assert code == 0
    assert "lemma[PASS]" in stdout
    assert "deficit constant" in stdout


def test_verify_lemma_fails_below_monotone_cutoff(capsys):
    with pytest.warns(UserWarning):
        code, stdout, _ = run(capsys, "verify", "--suite", "lemma",
                              "--weight", "paper:16", "--N-max", "10000")
    assert code == 1
    assert "lemma[FAIL]" in stdout


def test_verify_lemma_n_max_below_cutoff(capsys):
    code, stdout, err = run(capsys, "verify", "--suite", "lemma", "--N-max", "10")
    assert code == 2 and stdout == ""
    assert err == "error: --N-max must be at least 17 for weight paper:18, got 10\n"
    # from M - 1 on the report runs; at 17 its deficit scan is one point short
    code, stdout, _ = run(capsys, "verify", "--suite", "lemma", "--N-max", "17")
    assert code == 1
    assert "lemma[FAIL]" in stdout


def test_verify_lemma_cross_checks_the_closed_form(capsys, monkeypatch):
    from medembed import cli

    code, passing, _ = run(capsys, "verify", "--suite", "lemma", "--N-max", "1000")
    assert code == 0 and "lemma[PASS]" in passing
    closed = cli.deficit_bound

    def one_ulp_up(w):
        return math.nextafter(closed(w), math.inf)

    monkeypatch.setattr(cli, "deficit_bound", one_ulp_up)
    code, stdout, _ = run(capsys, "verify", "--suite", "lemma", "--N-max", "1000")
    assert code == 1
    assert "lemma[FAIL]" in stdout and "closed-form deficit constant" in stdout
    # below the cutoff the scan never reaches M, so there is nothing to match
    code, stdout, _ = run(capsys, "verify", "--suite", "lemma", "--N-max", "17")
    assert code == 1 and "closed-form" not in stdout


def test_measure_runs_no_deficit_scan(tmp_path, capsys, monkeypatch):
    # measure's lower curve takes the closed-form constant: with the scan
    # disabled, every bound column is the one the scan's constant gives
    from medembed import weights
    from medembed.cli import format_profile_csv, profile_rows
    from medembed.metrics import (
        BoundCurve, PairSampler, default_bound_curves, edge_dilatation_bound,
        profile)
    from medembed.spacefile import build_space, load_spacefile
    from oracles import deficit_constant

    tree, grid = tmp_path / "tree.json", tmp_path / "grid.json"
    run(capsys, "generate", "--space", "spider", "--legs", "3", "--leg-len", "40",
        "-o", str(tree))
    run(capsys, "generate", "--space", "grid", "--dims", "20x20", "-o", str(grid))
    labels = ("paper:18", "unit", "power:0.25")
    scanned = {w: deficit_constant(weights.parse_weight(w), 10**6)
               for w in labels}

    def no_scan(*args, **kwargs):
        raise AssertionError("the deficit scan ran")

    monkeypatch.setattr(weights, "_deficit_maxima", no_scan)
    for path in (tree, grid):
        space = build_space(load_spacefile(path))
        n = space.dimension
        for label in labels:
            w = weights.parse_weight(label)
            lower = BoundCurve.paper_lower(w, n, scanned[label])
            upper = BoundCurve.linear_upper(edge_dilatation_bound(w, n))
            assert default_bound_curves(w, n) == (lower, upper)
            out = tmp_path / "profile.csv"
            code, stdout, _ = run(capsys, "measure", "--space", str(path),
                                  "--weight", label, "--sampler", "exhaustive",
                                  "--assert", "-o", str(out))
            assert code == 0 and "bounds[PASS]" in stdout, (path.name, label)
            want = profile_rows(profile(space, w, PairSampler.exhaustive()),
                                lower, upper)
            assert out.read_text() == format_profile_csv(want), (path.name, label)


def test_negative_counts_exit_2(capsys):
    code, stdout, err = run(capsys, "verify", "--suite", "product", "--count", "-3")
    assert code == 2 and stdout == ""
    assert err == "error: --count must be >= 0, got -3\n"


@pytest.mark.parametrize("argv", [
    ("generate", "--space", "binary-sample", "--depth", "5", "--rays", "2"),
    ("generate", "--space", "from-tree", "--tree", "binary-sample:5,2"),
    ("generate", "--space", "tree-product", "--left", "binary-sample:5,2",
     "--right", "path:3"),
    ("measure", "--space", "{space}", "--sampler", "uniform:10"),
    ("measure", "--space", "{space}", "--sampler", "stratified:10"),
    ("verify", "--suite", "product"),
], ids=["binary-sample", "from-tree", "tree-product", "uniform", "stratified",
        "product"])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # refused before any work, with the flag and the value named; numpy's
    # own message ("expected non-negative integer") names neither
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "4", "-o", str(space))
    out = tmp_path / "out"
    argv = [a.format(space=space) for a in argv] + ["--seed", "-3"]
    if argv[0] != "verify":
        argv += ["-o", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: --seed must be >= 0, got -3\n"


def test_verify_oracle_tree_and_grid(tmp_path, capsys):
    space = tmp_path / "t.json"
    run(capsys, "generate", "--space", "caterpillar", "--spine", "6",
        "--hair", "2", "-o", str(space))
    code, stdout, _ = run(capsys, "verify", "--suite", "oracle",
                          "--space", str(space))
    assert code == 0 and "oracle[PASS]" in stdout
    grid = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "4x4",
        "-o", str(grid))
    code, stdout, _ = run(capsys, "verify", "--suite", "oracle",
                          "--space", str(grid))
    assert code == 0 and "oracle[PASS]" in stdout
    assert "max deviation 0" in stdout


def test_verify_normalpath(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "5x5", "-o", str(grid))
    code, stdout, _ = run(capsys, "verify", "--suite", "normalpath",
                          "--space", str(grid))
    assert code == 0
    assert "max index deviation over edges: 1" in stdout
    assert "normalpath[PASS]" in stdout


def test_verify_normalpath_fails_on_own_key(tmp_path, capsys, monkeypatch):
    # the suite's verdict includes each edge's own-hyperplane check
    grid = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "3x3", "-o", str(grid))
    real = cli.key_property
    monkeypatch.setattr(cli, "key_property", lambda g: dataclasses.replace(
        real(g), own_key_ok=False))
    code, stdout, _ = run(capsys, "verify", "--suite", "normalpath",
                          "--space", str(grid))
    assert code == 1
    assert "from its deeper end: False" in stdout
    assert "normalpath[FAIL]" in stdout


def test_verify_product(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "product",
                          "--seed", "0", "--count", "2000")
    assert code == 0
    assert "product[PASS]" in stdout


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_report_merges(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(CSV_HEADER + "\n2,1.5,2.5,1,4,10\n3,2,3,1.5,6,5\n")
    b.write_text(CSV_HEADER + "\n2,1.2,2.8,0.9,4.5,7\n4,2.5,3.5,2,8,2\n")
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "report", "-o", str(out), str(a), str(b))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,1.2,2.8,0.9,4.5,17"
    assert lines[2] == "3,2,3,1.5,6,5"
    assert lines[3] == "4,2.5,3.5,2,8,2"


def test_report_rejects_foreign_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    code, _, err = run(capsys, "report", "-o", str(tmp_path / "m.csv"),
                       str(bad))
    assert code == 2
    assert "header" in err


def test_report_names_the_malformed_row(tmp_path, capsys):
    short, word = tmp_path / "short.csv", tmp_path / "word.csv"
    short.write_text(CSV_HEADER + "\n2,1.5,2.5,1,4,10\n3,2,3\n")
    word.write_text("\n" + CSV_HEADER + "\n2,abc,2.5,1,4,10\n")
    for path, want in ((short, "line 3: malformed row '3,2,3'"),
                       (word, "line 3: malformed row '2,abc,2.5,1,4,10'")):
        code, stdout, err = run(capsys, "report", "-o", str(tmp_path / "m.csv"),
                                str(path))
        assert code == 2 and stdout == ""
        assert err == f"error: {path}: {want}\n"
