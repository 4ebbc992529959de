"""Smoke runs of the experiment scripts under ``scripts/`` on tiny inputs,
each as its own process with this checkout's ``src`` on the path."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from medembed.cli import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_compression_curves_smoke(tmp_path):
    out = run_script("compression_curves.py", "--grid", "6", "--depth", "20",
                     "--rays", "4", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert out.count("[PASS]") == 2
    # each profile's line reports its time and the process's peak RSS
    peaks = re.findall(r"\(\s*\d+\.\ds, peak (\d+\.\d) MB\)", out)
    assert len(peaks) == 2 and 0 < float(peaks[0]) <= float(peaks[1])
    for name in ("tree-profile.csv", "grid-profile.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1


def test_ceiling_drift_smoke(tmp_path):
    out = run_script("ceiling_drift.py", "--depths", "20,30", "--rays", "4",
                     cwd=tmp_path)
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert [row[0] for row in rows] == ["20", "30"]
    assert "spread across depths" in out


def test_bench_smoke(tmp_path):
    # perfbench's --smoke spaces for every workload, the stage timings on
    # tiny grids, the exhaustive profiles of tiny median graphs and trees,
    # the deep commands on tiny from-tree paths, and the space file and the
    # exhaustive and stratified measures of a tiny grid, written under the
    # run's label
    out = tmp_path / "bench.json"
    run_script("bench.py", "--smoke", "--seconds", "0.1", "--label", "smoke",
               "--out", str(out), cwd=tmp_path)
    doc = json.loads(out.read_text())
    run = doc["runs"]["smoke"]
    assert set(run["machine"]) == {"cores", "python", "numpy", "scipy"}
    assert run["smoke"] is True
    for workload in ("grid-stratified", "tree-exhaustive", "verify-suites"):
        result = run["workloads"][workload]
        assert result["correct"] is True
        assert {"setup_s", "run_s", "peak_rss_mb"} <= set(result)
    assert list(run["stages"]) == ["10x10", "20x20", "30x30"]
    for stage in run["stages"].values():
        assert stage["route"] == "factors" and stage["pairs"] > 0
        assert stage["draw_s"] > 0 and stage["embed_s"] > 0
    assert list(run["exhaustive"]) == ["from-tree:30", "staircase:6", "grid:6x6",
                                       "path:300", "binary-sample:6,64"]
    routes = [stage["route"] for stage in run["exhaustive"].values()]
    assert routes == ["fold", "kernel", "fold", "fold", "fold"]
    for stage in run["exhaustive"].values():
        assert stage["profile_s"] > 0 and stage["peak_rss_mb"] > 0
    assert list(run["deep"]) == ["generate", "oracle"]
    for stage in [*run["deep"].values(), run["measure"]]:
        assert stage["wall_s"] > 0 and stage["peak_rss_mb"] > 0
    assert run["measure"]["space"] == "grid 10x10"
    stratified, space_file = run["stratified_measure"], run["space_file"]
    assert stratified["space"] == space_file["space"] == "grid 10x10"
    assert stratified["wall_s"] > 0 and stratified["peak_rss_mb"] > 0
    assert space_file["vertices"] == 121 and space_file["bytes"] > 0
    for key in ("load_build_s", "load_build_traced_mib", "forest_s",
                "forest_traced_b_per_vertex"):
        assert space_file[key] > 0


def test_bench_alternates_two_checkouts(tmp_path):
    # the exhaustive profiles of a tiny staircase and grid, on two
    # checkouts in turn, a child per checkout and space
    out = tmp_path / "bench.json"
    run_script("bench.py", "--smoke", "--alternate", f"a={ROOT}", f"b={ROOT}",
               "--out", str(out), cwd=tmp_path)
    alt = json.loads(out.read_text())["alternating"]
    assert alt["rounds"] == 1
    assert list(alt["spaces"]) == ["staircase:6", "grid:6x6"]
    for space, route in zip(alt["spaces"].values(), ("kernel", "fold")):
        assert list(space) == ["a", "b"]
        for side in space.values():
            assert side["route"] == route and len(side["profile_s"]) == 1
            assert side["median_s"] > 0


def test_bench_needs_an_out_file(tmp_path):
    # a run never falls back to an earlier change's BENCH file
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"),
                          "--label", "x"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and "--out are required" in res.stderr
