"""rootsums benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload {verify,weyl-large,sums} --seed N --seconds S --trace {0,1}

It measures the source tree it sits in (the directory above perfbench/),
from any working directory, and imports the package from that tree only.  Each iteration is a fresh
interpreter (``child.py``), because every CLI call starts with cold caches.
BLAS runs at its default thread count: thread-count variables inherited from
the environment are removed.

--trace 0  repeats the workload while a next iteration still fits in S
           seconds (always at least once), with SETUP_SPAWNS set-up-only
           interpreters before each iteration and after the last.  It
           reports set-up time as the minimum over those interpreters and
           the iterations, and the other end-to-end metrics as medians over
           the iterations.
--trace 1  runs the workload untraced, then traced, then untraced with BLAS
           pinned to one thread, and reports the per-layer metrics: span
           aggregates of the traced run, the tracing overhead and the number
           of output rows that change with the BLAS thread count.  It makes
           these three iterations whatever S is.

The workloads have fixed inputs: --seed names the run and its record but
does not change what is run.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is the result object; the full record (every sample, provenance and
lru_cache counters) goes to .perfbench_runs/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, rows_differing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"

SETUP_SPAWNS = 10
# Whole invocation, child processes included, must end within this.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Runner:
    """Spawns child interpreters for one invocation and keeps their samples."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def env(self, blas_threads: int | None) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(ROOT / "src")
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
        return env

    def spawn(self, flags: list[str], cli_args: list[str], blas_threads: int | None = None) -> dict:
        """Run child.py once; returns its result plus ``setup_s`` and ``ok``."""
        self.count += 1
        result_path = self.tmp / f"{self.count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), *flags, "--", *cli_args]
        with open(self.tmp / f"{self.count}.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env(blas_threads), stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            elapsed = time.monotonic() - start
        try:
            result = json.loads(result_path.read_text())
        except FileNotFoundError:
            result = {}
        result["process_s"] = elapsed
        result["ok"] = code == 0 and result.get("exit_code", 0) == 0 and "setup_end" in result
        if "setup_end" in result:
            result["setup_s"] = result.pop("setup_end") - start
        return result


def run_iteration(runner: Runner, workload, flags=(), blas_threads=None) -> dict:
    out = runner.tmp / f"out-{runner.count + 1}"
    sample = runner.spawn(list(flags), workload.argv(out), blas_threads)
    sample["attempted"], sample["failed"] = workload.check(out)
    if not sample["ok"]:
        sample["failed"] = sample["attempted"]
    sample["records"] = workload.records(out)
    sample.setdefault("wall_s", sample["process_s"])
    return sample


def timed_run(runner: Runner, workload, seconds: float) -> tuple[dict, list]:
    # The host's speed drifts over seconds, so set-up is sampled before every
    # iteration and after the last rather than in one burst.  Set-up samples
    # fall into a fast group and a slow one, whose share changes from run to
    # run with the load on the host's cores; the minimum reads the fast group.
    setups, samples = [], []
    start = time.monotonic()
    while True:
        setups += [runner.spawn(["--setup-only"], []) for _ in range(SETUP_SPAWNS)]
        samples.append(run_iteration(runner, workload))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    setups += [runner.spawn(["--setup-only"], []) for _ in range(SETUP_SPAWNS)]
    setup_values = [s["setup_s"] for s in setups + samples if "setup_s" in s]
    metrics = {
        "setup_s": min(setup_values, default=0.0),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s.get("cpu_s", 0.0) for s in samples),
        "peak_rss_mb": statistics.median(s.get("maxrss_kb", 0) / 1024 for s in samples),
    }
    return metrics, setups + samples


def layer_value(name: str, trace: dict, caches: dict, extras: dict) -> float:
    """Resolve one per-layer metric name against a traced child's results."""
    if name in extras:
        return extras[name]
    if name in trace["work_metrics"]:
        return trace["work"].get(name, 0)
    base, _, kind = name.rpartition(".")
    if kind in ("misses", "hit_ratio"):
        info = caches[base]
        if kind == "misses":
            return info["misses"]
        calls = info["hits"] + info["misses"]
        return info["hits"] / calls if calls else 0.0
    func = trace["functions"][base]
    return {"s": func.get("total_s"), "self_s": func.get("self_s"), "calls": func["calls"]}[kind]


def traced_run(runner: Runner, workload, names: list[str]) -> tuple[dict, list]:
    plain = run_iteration(runner, workload)
    traced = run_iteration(runner, workload, flags=["--trace"])
    single = run_iteration(runner, workload, blas_threads=1)
    # the one-thread rerun is reported, never gated on
    single["attempted"] = single["failed"] = 0
    extras = {
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "csv_rows_thread_variant": rows_differing(plain["records"], single["records"]),
    }
    if "trace" not in traced:
        return {name: 0.0 for name in names}, [plain, traced, single]
    metrics = {name: layer_value(name, traced["trace"], traced["caches"], extras) for name in names}
    return metrics, [plain, traced, single]


def provenance(samples: list) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    child = next((s for s in samples if "blas" in s), {})
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "blas": child.get("blas"),
        "blas_version": child.get("blas_version"),
        "blas_threads": child.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rootsums" / "__init__.py").is_file():
        print(f"no rootsums source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    tmp = RUNS / tag
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = Runner(tmp, deadline)
    workload = WORKLOADS[args.workload]
    if args.trace:
        values, samples = traced_run(runner, workload, list(units))
    else:
        values, samples = timed_run(runner, workload, args.seconds)

    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    correct = failed == 0 and all(s["ok"] for s in samples)
    for s in samples:
        s.pop("records", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": workload.argv(Path("OUT")),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": values, "provenance": provenance(samples), "samples": samples,
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for spans in tmp.glob("*.spans.json"):
        spans.replace(RUNS / f"{tag}.spans.json")
    shutil.rmtree(tmp, ignore_errors=True)

    iterations = sum(1 for s in samples if "attempted" in s)
    print(f"{tag}: {iterations} iteration(s), {failed}/{attempted} operations failed; record in {(RUNS / tag).relative_to(ROOT)}.json")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
