"""End-to-end benchmark of the medembed command-line tool.

    python3 perfbench/run.py --workload grid-stratified --seed 11 --seconds 25 --trace 0

Run from the root of a source checkout. Every CLI command is one fresh child
process (``python -m medembed.cli`` with the checkout's ``src`` first on
PYTHONPATH), launched one at a time from this process. A workload is a set-up
command (``generate``) and a run of one or more commands on the space it
wrote. With ``--trace 0`` the set-up runs SETUP_REPS times, then the run
repeats for ``--seconds`` seconds; the end-to-end metrics named in
BENCHMARK.json are medians over those repetitions. With ``--trace 1`` each
repetition runs every command, set-up included, through ``trace_child.py``
and then the run untraced; the per-layer metrics are medians over the traced
repetitions.

Every output is checked: exit codes, the ``name[PASS]`` verdict lines and the
profile CSV. For the commands recorded in ``reference/`` (the default seeds)
they must match the recorded outputs; for any other seed they must satisfy
the invariants in ``profile_error``. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A result file with the
machine facts and every sample goes to ``.perfbench/results/``.

``--smoke`` swaps in tiny spaces (seconds per workload; used by the
self-tests). ``--record`` runs the workload once and stores its outputs as the
reference for its commands, after checking the invariants.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench"

SPACE = "space.json"
PROFILE = "profile.csv"
CSV_HEADER = "t,rho_hat,delta_hat,bound_lower,bound_upper,pairs"
# Set-up runs per benchmark run; setup_s is their median.
SETUP_REPS = 3
# A child still running after this long is killed and counts as failed, so a
# run stays inside its 180 s budget.
CHILD_TIMEOUT_S = 120
# Reals in checked outputs may differ from the reference by this share, or by
# one unit in the last digit the reference printed, whichever is larger:
# a faster summation order must not fail the gate, a wrong value must.
REL_TOL = 1e-7

VERDICT = re.compile(r"\b(\w+)\[(PASS|FAIL)\]")
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """A generate command's space flags and the commands run on its output.
    ``{seed}`` in any argument is replaced by the benchmark seed."""

    default_seed: int
    space: tuple[str, ...]
    smoke_space: tuple[str, ...]
    runs: tuple[tuple[str, ...], ...]

    def commands(self, seed: int, smoke: bool = False) -> list[list[str]]:
        """The set-up command followed by the run commands."""
        setup = ("generate", *(self.smoke_space if smoke else self.space), "-o", SPACE)
        return [[a.replace("{seed}", str(seed)) for a in argv]
                for argv in (setup, *self.runs)]


# Why each workload exists, and how the roadmap's W1-W5 map onto them, is in
# NOTES.md. Sizes keep one run (all run commands) at about 5 s on 2 cores.
WORKLOADS = {
    "grid-stratified": Workload(
        default_seed=11,
        space=("--space", "grid", "--dims", "100x100"),
        smoke_space=("--space", "grid", "--dims", "4x4"),
        runs=(("measure", "--space", SPACE, "--weight", "paper:18",
               "--sampler", "stratified:1000", "--seed", "{seed}",
               "--assert", "-o", PROFILE),),
    ),
    "tree-exhaustive": Workload(
        default_seed=42,
        space=("--space", "binary-sample", "--depth", "200", "--rays", "32",
               "--seed", "{seed}"),
        smoke_space=("--space", "path", "--len", "30"),
        runs=(("measure", "--space", SPACE, "--weight", "paper:18",
               "--sampler", "exhaustive", "--assert", "-o", PROFILE),),
    ),
    "verify-suites": Workload(
        default_seed=0,
        space=("--space", "grid", "--dims", "45x45"),
        smoke_space=("--space", "grid", "--dims", "4x4"),
        runs=(("verify", "--suite", "oracle", "--space", SPACE),
              ("verify", "--suite", "normalpath", "--space", SPACE),
              ("verify", "--suite", "lemma", "--N-max", "1000000")),
    ),
}


# -- child processes -----------------------------------------------------------


@dataclass
class ChildResult:
    exit_code: int
    started_at: float  # wall clock, to compare with a traced child's stamps
    ended_at: float
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> ChildResult:
    """Run one child to completion. Peak RSS is the child's own, from
    wait4; getrusage(RUSAGE_CHILDREN) would report the largest child so far."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started_at, start = time.time(), time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s, ended_at = time.perf_counter() - start, time.time()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode,
        started_at=started_at,
        ended_at=ended_at,
        wall_s=wall_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# -- output checks ---------------------------------------------------------------


def observe(argv: list[str], res: ChildResult, work: Path) -> dict:
    """The parts of a command's output the gate compares: exit code, the
    verdict lines (every line, for generate) and the profile CSV lines."""
    lines = [line for line in res.stdout.splitlines()
             if argv[0] == "generate" or VERDICT.search(line)]
    profile = None
    if argv[0] == "measure" and res.exit_code == 0:
        path = work / argv[argv.index("-o") + 1]
        profile = path.read_text().splitlines() if path.exists() else []
    return {"exit": res.exit_code, "lines": lines, "profile": profile}


def same_number(ref: str, got: str) -> bool:
    """Integers must be equal; reals within REL_TOL or one printed unit."""
    if not re.search(r"[.eE]", ref):
        return ref == got
    try:
        r, g = Decimal(ref), Decimal(got)
        last_digit = Decimal(1).scaleb(r.as_tuple().exponent)
        return abs(r - g) <= max(Decimal(REL_TOL) * abs(r), last_digit)
    except InvalidOperation:  # got is not a number, or is NaN
        return False


def same_line(ref: str, got: str) -> bool:
    """Equal text between numbers, and numbers equal by ``same_number``."""
    rp, gp = NUMBER.split(ref), NUMBER.split(got)
    return len(rp) == len(gp) and all(
        same_number(r, g) if i % 2 else r == g
        for i, (r, g) in enumerate(zip(rp, gp)))


def profile_error(lines: list[str], total_pairs: int | None) -> str | None:
    """Invariants of any profile CSV: header, ascending t, monotone rho_hat
    and delta_hat, positive pair counts and, for an exhaustive sampler,
    n(n-1)/2 pairs in total."""
    if not lines or lines[0] != CSV_HEADER:
        return f"profile header {lines[:1]} is not {CSV_HEADER!r}"
    if len(lines) < 2:
        return "profile has no rows"
    prev = None
    total = 0
    for line in lines[1:]:
        try:
            t_s, rho_s, delta_s, _, _, pairs_s = line.split(",")
            t, rho, delta, pairs = int(t_s), float(rho_s), float(delta_s), int(pairs_s)
        except ValueError:
            return f"profile row {line!r} is malformed"
        if pairs < 1:
            return f"profile row t={t}: {pairs} pairs"
        if not (math.isfinite(rho) and math.isfinite(delta)):
            return f"profile row t={t}: rho_hat {rho}, delta_hat {delta}"
        if prev is not None:
            if t <= prev[0]:
                return f"profile row t={t}: t not ascending after t={prev[0]}"
            if rho < prev[1]:
                return f"profile row t={t}: rho_hat decreases"
            if delta < prev[2]:
                return f"profile row t={t}: delta_hat decreases"
        prev = (t, rho, delta)
        total += pairs
    if total_pairs is not None and total != total_pairs:
        return f"profile covers {total} pairs, exhaustive needs {total_pairs}"
    return None


def profile_mismatch(got: list[str], ref: list[str]) -> str | None:
    """First profile row that differs from the reference."""
    cols = CSV_HEADER.split(",")
    for g_line, r_line in zip(got[1:], ref[1:]):
        g, r = g_line.split(","), r_line.split(",")
        for col, gv, rv in zip(cols, g, r):
            ok = gv == rv if col in ("t", "pairs") else same_number(rv, gv)
            if not ok:
                return f"profile row t={r[0]}: {col} {gv} vs reference {rv}"
    if len(got) != len(ref):
        return f"profile has {len(got) - 1} rows, reference {len(ref) - 1}"
    return None


def output_error(argv: list[str], obs: dict, n_vertices: int | None,
                 expected: dict | None) -> str | None:
    """None when a command's output is right, else its first fault."""
    want_exit = expected["exit"] if expected else 0
    if obs["exit"] != want_exit:
        return f"exit code {obs['exit']}, expected {want_exit}"
    verdicts = [v for line in obs["lines"] for v in VERDICT.findall(line)]
    if argv[0] != "generate" and not verdicts:
        return "no verdict line"
    for name, status in verdicts:
        if status != "PASS":
            return f"{name}[{status}]"
    if obs["profile"] is not None:
        total = None
        if "exhaustive" in argv:
            if n_vertices is None:
                return "exhaustive profile, but generate reported no vertex count"
            total = n_vertices * (n_vertices - 1) // 2
        err = profile_error(obs["profile"], total)
        if err:
            return err
    if expected is None:
        return None
    for got, ref in zip(obs["lines"], expected["lines"]):
        if not same_line(ref, got):
            return f"line {got!r} differs from reference {ref!r}"
    if len(obs["lines"]) != len(expected["lines"]):
        return f"{len(obs['lines'])} checked lines, reference {len(expected['lines'])}"
    if expected["profile"] is not None:
        return profile_mismatch(obs["profile"], expected["profile"])
    return None


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, commands: list[list[str]]) -> list[dict] | None:
    """Recorded outputs for exactly these commands, or None."""
    path = reference_path(name)
    if not path.exists():
        return None
    for entry in json.loads(path.read_text()):
        if entry["commands"] == commands:
            return entry["outputs"]
    return None


# -- traces ------------------------------------------------------------------------


def layer_totals(trace: dict, res: ChildResult) -> dict[str, float]:
    """Inclusive (``_s``) and self (``.self_s``) time per span name, plus
    the child's counters; self time is the span minus its direct children.
    ``bench.interpreter_s`` is the child's wall time before the traced
    script started and after it wrote its spans."""
    out: dict[str, float] = {
        "cli.startup_s": trace["startup_s"],
        "bench.interpreter_s": (trace["entered_at"] - res.started_at)
        + (res.ended_at - trace["dumped_at"]),
    }
    spans = trace["spans"]
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    for (name, start, end, _), covered in zip(spans, inner):
        out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - covered)
    for key, value in trace["counters"].items():
        out[key] = out.get(key, 0) + value
    return out


# -- the benchmark -------------------------------------------------------------------


@dataclass
class Batch:
    """One pass over a list of commands."""

    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    observed: list[dict] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)  # summed layer_totals
    error: str | None = None


class Bench:
    """One workload at one seed: its commands, the children's environment
    and the reference outputs for these commands (loaded when not given)."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path, reference=None):
        self.name = name
        self.seed = seed
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env(self.nproc)
        self.work = work
        self.commands = WORKLOADS[name].commands(seed, smoke)
        self.reference = (load_reference(name, self.commands)
                          if reference is None else reference)
        self.n_vertices: int | None = None
        self.runs = 0

    def batch(self, indices: list[int], traced: bool = False) -> Batch:
        """Run the commands at ``indices`` (0 is the set-up) in order and
        check each output; stops at the first fault."""
        out = Batch()
        self.runs += 1
        for i in indices:
            cli = self.commands[i]
            if traced:
                spans = self.work / "spans.json"
                run_id = f"{self.name}-{self.seed}-{self.runs}-{i}"
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                        str(spans), run_id, "--", *cli]
            else:
                argv = [sys.executable, "-m", "medembed.cli", *cli]
            res = run_child(argv, self.work, self.env)
            out.walls.append(res.wall_s)
            out.rss.append(res.peak_rss_mb)
            if traced and spans.exists():
                for key, value in layer_totals(json.loads(spans.read_text()), res).items():
                    out.layers[key] = out.layers.get(key, 0) + value
                spans.unlink()
            obs = observe(cli, res, self.work)
            out.observed.append(obs)
            if cli[0] == "generate" and res.exit_code == 0:
                found = re.search(r"(\d+) vertices", res.stdout)
                self.n_vertices = int(found.group(1)) if found else None
            expected = self.reference[i] if self.reference else None
            err = output_error(cli, obs, self.n_vertices, expected)
            if err:
                if res.exit_code and res.stderr.strip():
                    err += f" ({res.stderr.strip().splitlines()[-1]})"
                out.error = f"{' '.join(cli[:3])}: {err}"
                break
        return out


def run_benchmark(bench: Bench, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns every sample and the summary metrics."""
    setup, runs = [0], list(range(1, len(bench.commands)))
    failures: list[str] = []
    setup_batches: list[Batch] = []
    run_batches: list[Batch] = []
    traced_batches: list[Batch] = []
    if not trace:
        for _ in range(SETUP_REPS):
            setup_batches.append(bench.batch(setup))
    setup_error = next((b.error for b in setup_batches if b.error), None)
    if setup_error:
        failures.append(f"set-up: {setup_error}")
    start = time.perf_counter()
    while not run_batches or time.perf_counter() - start < seconds:
        if trace:
            traced_batches.append(bench.batch(setup + runs, traced=True))
        run_batches.append(bench.batch(runs))
    attempted = len(run_batches) + len(traced_batches)
    failed = 0
    for b in traced_batches + run_batches:
        if b.error or setup_error:
            failed += 1
        if b.error:
            failures.append(b.error)

    run_s = [sum(b.walls) for b in run_batches]
    metrics = {"run_s": statistics.median(run_s),
               "peak_rss_mb": statistics.median(max(b.rss) for b in run_batches)}
    samples = {"run_s": run_s, "peak_rss_mb": [max(b.rss) for b in run_batches]}
    if setup_batches:
        samples["setup_s"] = [b.walls[0] for b in setup_batches]
        metrics["setup_s"] = statistics.median(samples["setup_s"])
    if traced_batches:
        per_batch = []
        for b in traced_batches:
            totals = dict(b.layers)
            totals["bench.unaccounted_s"] = sum(b.walls) - sum(
                totals.get(k, 0.0)
                for k in ("bench.interpreter_s", "cli.startup_s", "cli.main_s"))
            totals["bench.traced_run_s"] = sum(b.walls[1:])
            per_batch.append(totals)
        keys = sorted({k for totals in per_batch for k in totals})
        for key in keys:
            metrics[key] = statistics.median(t.get(key, 0) for t in per_batch)
        metrics["bench.trace_overhead_s"] = metrics["bench.traced_run_s"] - metrics["run_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "metrics": metrics,
    }


def machine_facts(nproc: int) -> dict:
    facts = {"nproc": nproc, "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            facts[pkg] = "not installed"
    return facts


def record_reference(bench: Bench) -> None:
    """Run every command once and store the outputs for these commands."""
    bench.reference = None
    b = bench.batch(list(range(len(bench.commands))))
    if b.error:
        raise SystemExit(f"not recording {bench.name}: {b.error}")
    outputs = b.observed
    path = reference_path(bench.name)
    entries = json.loads(path.read_text()) if path.exists() else []
    entries = [e for e in entries if e["commands"] != bench.commands]
    entries.append({"commands": bench.commands, "outputs": outputs})
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(outputs)} outputs -> {path.relative_to(ROOT)}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny spaces")
    p.add_argument("--record", action="store_true",
                   help="store this run's outputs as the reference")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "medembed" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a medembed checkout with BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        bench = Bench(args.workload, seed, args.smoke, work)
        if args.record:
            record_reference(bench)
            return 0
        result = run_benchmark(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts(bench.nproc)
    attempted, failed = result["attempted"], result["failed"]
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{seed}-trace{args.trace}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    result_file = results_dir / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, **facts,
        "commands": bench.commands, "reference": bench.reference is not None,
        "fail_ratio": failed / attempted, **result,
    }, indent=1) + "\n")

    print(f"workload {args.workload} seed {seed} "
          f"({'reference outputs' if bench.reference else 'invariant checks'}); "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for key, values in result["samples"].items():
        print(f"  {key:<12} median {statistics.median(values):.4f} over "
              f"{len(values)} runs (min {min(values):.4f}, max {max(values):.4f})")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.3g}")
    for msg in result["failures"][:5]:
        print(f"  FAILED {msg}")
    print(f"  result file {result_file.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in reported}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
