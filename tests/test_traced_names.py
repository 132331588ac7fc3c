"""Every package name that the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` replaces named functions and methods of
``doubleeis`` with timing wrappers; one that is renamed or removed makes
``instrument`` raise, so a traced benchmark run would fail.  This runs
``instrument`` in a fresh interpreter, as the benchmark's worker does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTRUMENT = "import tracing; tracing.instrument(tracing.Tracer())"


def _run(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
               DOUBLEEIS_CACHE_DIR=str(tmp_path))
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)


def test_the_tracer_finds_every_name_it_wraps(tmp_path):
    run = _run(INSTRUMENT, tmp_path)
    assert run.returncode == 0, run.stderr
    # the control: a traced name that is gone stops the tracer
    run = _run("import doubleeis.kronecker; del doubleeis.kronecker.kronecker_b1; " + INSTRUMENT, tmp_path)
    assert run.returncode != 0
    assert "AttributeError" in run.stderr and "kronecker_b1" in run.stderr
