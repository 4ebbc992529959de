import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_skips_scipy_optimize():
    # scipy.optimize takes a noticeable share of a CLI process's start-up
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, medembed.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr or "scipy.optimize was imported"


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


def test_measure_missing_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "measure", "--space",
                       str(tmp_path / "nope.json"), "-o", str(out))
    assert code == 2
    assert not out.exists()  # no partial CSV
    assert "no such space file" in err


def test_measure_rejects_nonmedian(tmp_path, capsys):
    bad = tmp_path / "k3.json"
    bad.write_text('{"type":"median_graph","n":3,"root":0,'
                   '"edges":[[0,1],[1,2],[0,2]]}\n')
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, "measure", "--space", str(bad), "-o", str(out))
    assert code == 2
    assert "median" in err
    assert "triple" in err
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
    # the hexagon C6 is not median: the sampler is checked before the triples
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
    assert code == 2
    assert "median validation failed" in err


def test_malformed_numbers_name_the_spec(tmp_path, capsys):
    space = tmp_path / "p.json"
    run(capsys, "generate", "--space", "path", "--len", "9", "-o", str(space))
    out = tmp_path / "x.csv"
    for flags, message in (
            (("--sampler", "uniform:abc"), "cannot parse sampler 'uniform:abc'"),
            (("--sampler", "stratified:1.5"),
             "cannot parse sampler 'stratified:1.5'"),
            (("--weight", "paper:abc"), "cannot parse weight spec 'paper:abc'"),
            (("--weight", "power:x"), "cannot parse weight spec 'power:x'")):
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


def test_negative_counts_exit_2(tmp_path, capsys):
    grid = tmp_path / "g.json"
    run(capsys, "generate", "--space", "grid", "--dims", "3x3", "-o", str(grid))
    code, stdout, err = run(capsys, "measure", "--space", str(grid),
                            "--triple-budget", "-1", "-o", str(tmp_path / "p.csv"))
    assert code == 2 and stdout == ""
    assert err == "error: --triple-budget must be >= 0, got -1\n"
    code, stdout, err = run(capsys, "verify", "--suite", "product", "--count", "-3")
    assert code == 2 and stdout == ""
    assert err == "error: --count must be >= 0, got -3\n"


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
