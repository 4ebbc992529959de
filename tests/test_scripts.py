"""Smoke runs of the experiment scripts under ``scripts/`` on tiny inputs,
each as its own process with this checkout's ``src`` on the path."""

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
