"""Every package name that the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` replaces named functions and methods of
``doubleeis`` with timing wrappers; one that is renamed or removed makes
``instrument`` raise, so a traced benchmark run would fail.  This runs
``instrument`` in a fresh interpreter, as the benchmark's worker does.  An
annotation runs only when its wrapped name is called, so the interpreter
also generates the relation rows of one weight, whose annotation measures
each row with ``len``, as only a traced ``queries`` run does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTRUMENT = "import tracing; tracing.instrument(tracing.Tracer())"
ANNOTATE = "; import doubleeis.spaces; doubleeis.spaces.eisenstein_relations(3)"


def _run(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
               DOUBLEEIS_CACHE_DIR=str(tmp_path))
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True)


def test_the_tracer_finds_every_name_it_wraps(tmp_path):
    run = _run(INSTRUMENT + ANNOTATE, tmp_path)
    assert run.returncode == 0, run.stderr
    # the control: a traced name that is gone stops the tracer
    run = _run("import doubleeis.kronecker; del doubleeis.kronecker.kronecker_b1; " + INSTRUMENT, tmp_path)
    assert run.returncode != 0
    assert "AttributeError" in run.stderr and "kronecker_b1" in run.stderr
    # the control: rows without a length stop the annotation
    run = _run("import doubleeis.elements; del doubleeis.elements.FormalElement.__len__; "
               + INSTRUMENT + ANNOTATE, tmp_path)
    assert run.returncode != 0
    assert "TypeError" in run.stderr and "len()" in run.stderr
