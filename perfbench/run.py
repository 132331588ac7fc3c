"""Benchmark of doubleeis: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tables|queries|catalog --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every set-up and every job runs in a new
interpreter (``worker.py``) with its own empty cache directory and HOME
inside ``.bench_work/``, so nothing is read from or written to
``~/.cache/doubleeis`` and in-process caches start empty.  Jobs repeat
until ``--seconds`` have passed (at least one job).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run makes one traced set-up, then the same job three
times: untraced, traced and under cProfile; it reports the per-layer
metrics, the tracing overhead (traced minus untraced wall time), and
writes the spans to ``.bench_work/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
TIME_LIMIT_S = 170  # the whole run, every child included
WORKLOADS = ("tables", "queries", "catalog")


class WorkerFailed(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        from workloads import WORKLOADS as SPECS

        self.workload = workload
        self.spec = SPECS[workload]
        self.seed = seed
        self.dir = run_dir
        self.home = run_dir / "home"
        self.home.mkdir()
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.children = 0
        self.results: list[dict] = []
        self.cache: str | None = None

    def new_cache(self) -> str:
        return tempfile.mkdtemp(dir=self.dir, prefix="cache-")

    def spawn(self, role: str, mode: str, cache_dir: str) -> tuple[float, dict]:
        """Run one worker to completion; returns its wall time and result."""
        self.children += 1
        result_path = self.dir / f"result-{self.children}.json"
        config = {"root": str(ROOT), "workload": self.workload, "seed": self.seed,
                  "role": role, "mode": mode, "cache_dir": cache_dir,
                  "result": str(result_path)}
        env = dict(os.environ, DOUBLEEIS_CACHE_DIR=cache_dir, HOME=str(self.home),
                   PYTHONHASHSEED="0")
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise WorkerFailed("out of time before starting a worker")
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{role} worker ran past the {TIME_LIMIT_S} s limit") from None
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise WorkerFailed(f"{role} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result["role"] = role
        self.results.append(result)
        return wall, result

    def setups(self, count: int, mode: str = "plain") -> list[float]:
        """Set up ``count`` times, each into a new cache; jobs use the last."""
        walls = []
        for _ in range(count):
            self.cache = self.new_cache()
            walls.append(self.spawn("setup", mode, self.cache)[0])
        return walls

    def job(self, mode: str = "plain") -> tuple[float, dict]:
        return self.spawn("job", mode, self.cache if self.spec.shares_cache else self.new_cache())

    def checks(self) -> tuple[int, list[str]]:
        """Checks attempted and failed over all workers, plus the run's own:
        every job checked something, and no worker fell back to HOME."""
        attempted = sum(r["attempted"] for r in self.results)
        failed = [name for r in self.results for name in r["failed"]]
        for r in self.results:
            if r["role"] == "job":
                attempted += 1
                if r["attempted"] == 0:
                    failed.append("a job checked nothing")
        attempted += 1
        if any(self.home.iterdir()):
            failed.append("nothing written under HOME")
        return attempted, failed


def end_to_end(run: Run, seconds: float) -> dict:
    setup_walls = run.setups(run.spec.setups)
    walls, jobs = [], []
    start = perf_counter()
    while True:
        wall, job = run.job()
        walls.append(wall)
        jobs.append(job)
        elapsed = perf_counter() - start
        if elapsed >= seconds or perf_counter() + 2 * wall > run.deadline:
            break
    latencies = [x for job in jobs for x in job["latencies"]]
    attempted, failed = run.checks()
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "queries_per_s": len(latencies) / sum(job["stream_s"] for job in jobs),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p99_ms": 1000 * percentile(latencies, 99),
        "peak_rss_mb": max(r["rss_kb"] for r in run.results) / 1024,
        "pass_ratio": (attempted - len(failed)) / attempted,
    }


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_layer(run: Run) -> dict:
    from tracing import layer_metrics
    from worker import PROFILED_MODULES

    run.setups(1, mode="trace")
    setup_spans = run.results[-1]["spans"]
    plain_wall, _ = run.job()
    traced_wall, traced = run.job("trace")
    _, profiled = run.job("profile")
    metrics = layer_metrics([setup_spans, traced["spans"]])
    metrics["cli.stdout_bytes"] = traced["counters"].get("cli.stdout_bytes", 0)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    prof = profiled["profile"]
    for module in PROFILED_MODULES:
        metrics[f"prof.{module}.self_s"] = prof["self_s"][module]
    metrics["prof.fractions.self_share"] = prof["self_s"]["fractions"] / prof["total_s"]
    trace_file = WORK_DIR / f"trace-{run.workload}.json"
    trace_file.write_text(json.dumps({"setup": setup_spans, "job": traced["spans"]}))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "doubleeis" / "__init__.py").is_file():
        print(f"error: no doubleeis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{args.workload}-"))
    try:
        run = Run(args.workload, args.seed, run_dir)
        values = per_layer(run) if args.trace else end_to_end(run, args.seconds)
        attempted, failed = run.checks()
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for name in failed[:20]:
        print(f"check failed: {name}", file=sys.stderr)
    result = {
        "correct": attempted > 0 and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
