"""Self-tests of the benchmark, on tiny spaces (``--smoke``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def smoke_bench(name, tmp_path, seed=None, reference=None) -> run.Bench:
    if seed is None:
        seed = run.WORKLOADS[name].default_seed
    return run.Bench(name, seed, smoke=True, work=tmp_path, reference=reference)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_matches_reference(name):
    out = bench_cli("--workload", name, "--smoke", "--seconds", "0")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "(reference outputs)" in out.stdout
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# Per-layer metrics each workload must move, even on its tiny space.
CALLED_LAYERS = {
    "grid-stratified": ["cube.gen_cube_s", "cube.hyperplanes_s", "cube.classes",
                        "cube.validate_median_s", "cube.embed_calls",
                        "metrics.pairs", "spacefile.bytes"],
    "tree-exhaustive": ["tree.gen_tree_s", "tree.distances_from_sources",
                        "tree.embed_nnz", "metrics.embedding_matrix_s",
                        "metrics.profile.self_s"],
    "verify-suites": ["cube.separating_counts_calls", "cube.path_index_map_calls",
                      "cube.normal_cube_path_calls",
                      "metrics.unit_identity_max_rel_error.self_s",
                      "weights.build_weight_report_s"],
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    out = bench_cli("--workload", name, "--smoke", "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stdout + out.stderr
    metrics = last_json(out.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for key in CALLED_LAYERS[name] + ["cli.startup_s", "cli.main.self_s"]:
        assert metrics[key]["value"] > 0, key


def test_spans_nest_and_self_times_add_up(tmp_path):
    env = run.child_env(1)
    cli = [sys.executable, "-m", "medembed.cli"]
    gen = run.run_child(cli + ["generate", "--space", "grid", "--dims", "4x4",
                               "-o", "g.json"], tmp_path, env)
    assert gen.exit_code == 0, gen.stderr
    spans_file = tmp_path / "spans.json"
    res = run.run_child(
        [sys.executable, str(run.BENCH_DIR / "trace_child.py"), str(spans_file), "r1",
         "--", "verify", "--suite", "oracle", "--space", "g.json"], tmp_path, env)
    assert res.exit_code == 0, res.stderr
    trace = json.loads(spans_file.read_text())
    assert trace["module"].startswith(str(run.ROOT / "src"))
    spans = trace["spans"]
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < i
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    totals = run.layer_totals(trace, res)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(totals["cli.main_s"], abs=1e-9)
    accounted = totals["bench.interpreter_s"] + totals["cli.startup_s"] + totals["cli.main_s"]
    assert accounted == pytest.approx(res.wall_s, abs=0.05)
    assert totals["cube.separating_counts_calls"] > 0


def test_doctored_reference_row_fails(tmp_path):
    name = "tree-exhaustive"
    reference = copy.deepcopy(smoke_bench(name, tmp_path).reference)
    profile = reference[1]["profile"]
    fields = profile[-1].split(",")
    fields[2] = repr(float(fields[2]) * 1.001)
    profile[-1] = ",".join(fields)
    result = run.run_benchmark(smoke_bench(name, tmp_path, reference=reference),
                               seconds=0, trace=False)
    assert result["failed"] == result["attempted"] == 1
    assert f"profile row t={fields[0]}: delta_hat" in result["failures"][0]


def test_other_seed_checks_invariants(tmp_path):
    bench = smoke_bench("grid-stratified", tmp_path, seed=5)
    assert bench.reference is None
    result = run.run_benchmark(bench, seconds=0, trace=False)
    assert result["failed"] == 0 and not result["failures"]


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_changes_only_generated_inputs(name, smoke):
    a = run.WORKLOADS[name].commands(1, smoke)
    b = run.WORKLOADS[name].commands(2, smoke)
    assert a == run.WORKLOADS[name].commands(1, smoke)
    assert [len(argv) for argv in a] == [len(argv) for argv in b]
    for argv_a, argv_b in zip(a, b):
        for i, (x, y) in enumerate(zip(argv_a, argv_b)):
            if x != y:
                assert argv_a[i - 1] == "--seed"


def test_profile_invariants():
    header = run.CSV_HEADER
    good = [header, "1,0,0.5,0,1,3", "2,0.4,0.9,0,2,2", "3,0.7,0.9,0,3,1"]
    assert run.profile_error(good, 6) is None
    assert "exhaustive needs 10" in run.profile_error(good, 10)
    assert "rho_hat decreases" in run.profile_error(good[:3] + ["3,0.1,0.9,0,3,1"], None)
    assert "delta_hat decreases" in run.profile_error(good[:3] + ["3,0.7,0.8,0,3,1"], None)
    assert "t not ascending" in run.profile_error([header, "2,0,1,0,1,1", "2,0,1,0,1,1"], None)
    assert "header" in run.profile_error(["t,rho"] + good[1:], None)
    assert "delta_hat nan" in run.profile_error(good[:3] + ["3,0.7,nan,0,3,1"], None)


def test_verdict_lines_compare_numbers_with_tolerance():
    ref = "bounds[PASS] min slack 6.66088 at t=36 (lower side, 260 points, t_min=36)"
    assert run.same_line(ref, ref.replace("6.66088", "6.66089"))
    assert not run.same_line(ref, ref.replace("6.66088", "6.6612"))
    assert not run.same_line(ref, ref.replace("t=36", "t=37"))
    assert not run.same_line(ref, ref.replace("PASS", "FAIL"))
    assert not run.same_number("0.5", "nan")


def test_peak_rss_is_per_child(tmp_path):
    env = run.child_env(1)
    big = run.run_child([sys.executable, "-c", "b = bytearray(300 * 2**20)"], tmp_path, env)
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path, env)
    assert big.peak_rss_mb > 300
    assert small.peak_rss_mb < 100


def test_checkout_without_source_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench_cli("--workload", "grid-stratified", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
