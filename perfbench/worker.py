"""One fresh interpreter of a benchmark run: one set-up or one job.

    python3 perfbench/worker.py '<config as JSON>'

The config names the checkout root, the workload, the seed, the cache
directory, the role (``setup`` or ``job``), the mode (``plain``, ``trace``
or ``profile``) and the file the result is written to.  Starting each job
in a new interpreter means in-process caches start empty.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
from pathlib import Path

PROFILED_MODULES = ("series", "multipoly", "action", "kronecker", "spaces", "elements",
                    "eisenstein", "identities", "fractions")


def _profile_by_module(profiler: cProfile.Profile, package: Path) -> dict:
    """Self time per module; everything else counts only toward the total."""
    by_module = dict.fromkeys(PROFILED_MODULES, 0.0)
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        total += tottime
        path = Path(filename)
        if path.parent == package or path.name == "fractions.py":
            if path.stem in by_module:
                by_module[path.stem] += tottime
    return {"self_s": by_module, "total_s": total}


def main(config: dict) -> int:
    root = Path(config["root"])
    sys.path.insert(0, str(root / "src"))
    import doubleeis

    package = Path(doubleeis.__file__).resolve().parent
    if package != (root / "src" / "doubleeis").resolve():
        print(f"doubleeis imported from {package}, not from this checkout", file=sys.stderr)
        return 3

    import tracing
    import workloads

    tracer = None
    if config["mode"] == "trace":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    workload = workloads.WORKLOADS[config["workload"]]
    expected = workloads.load_expected()
    checks = workloads.Checks()
    stream = workloads.Stream()
    inputs = workload.inputs(config["seed"])
    cache_dir = config["cache_dir"]
    profile = None
    if config["role"] == "setup":
        counters = workload.setup(cache_dir, checks, expected) if workload.setup else {}
    else:
        profiler = cProfile.Profile() if config["mode"] == "profile" else None
        if profiler:
            profiler.enable()
        counters = workload.job(inputs, cache_dir, checks, stream, expected)
        if profiler:
            profiler.disable()
            profile = _profile_by_module(profiler, package)
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "latencies": stream.latencies,
        "stream_s": stream.seconds,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": counters,
        "profile": profile,
        "spans": tracer.to_json() if tracer else None,
    }
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
