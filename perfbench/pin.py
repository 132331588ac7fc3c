"""Record the pinned outputs the benchmark checks into ``expected.json``.

    python3 perfbench/pin.py [SEED ...]

Builds every relation system of ``tables`` and records a digest of each
reduced system, then runs the ``catalog`` commands of each seed (default:
the default seed) and records a digest of each command's standard output.
Run it only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from doubleeis import spaces  # noqa: E402


def main(seeds: list[int]) -> int:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(dir=work, prefix="pin-")
    os.environ[spaces.CACHE_ENV_VAR] = cache
    try:
        systems = {f"{s}{w}": workloads.system_digest(spaces.relation_system(s, w))
                   for s, w in workloads.tables_inputs(workloads.DEFAULT_SEED)}
        stdout = {}
        for seed in seeds:
            for argv in workloads.catalog_inputs(seed):
                code, out = workloads.run_cli(argv)
                if code != 0:
                    print(f"error: {' '.join(argv)} exited with {code}", file=sys.stderr)
                    return 1
                stdout[" ".join(argv)] = workloads.stdout_digest(out)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    expected = {"systems": dict(sorted(systems.items())), "catalog_stdout": dict(sorted(stdout.items()))}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [workloads.DEFAULT_SEED]))
