"""The demo scripts print the same bytes as when their outputs were pinned.

Each demo runs in a fresh interpreter with its own HOME and relation cache,
with every warning an error, and the sha256 of its standard output is
compared with the recorded value.
A change that alters a demo's output must re-record the digest here and say
why the output changed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_spaces_and_dimensions.py": "a306fc4ee1b8206f6d6dc007e9ae4fb6fcf64f46a0dbfa16a9fa843d88d97263",
    "02_structural_maps.py": "89ebf532f12752c4bbd87e72862c67eba5c6f68c8f742caa87bf4b5a9b87dc67",
    "03_kronecker_realization.py": "c9d93043cf4ede1308ec40aa5e3db278692a894135c118b8e9d467b31410d5df",
    "04_group_action_and_fay.py": "3267888f31351c07c360bc7a06e1037a3fd98339859bc759fdd4762399c2e154",
    "05_identity_families.py": "d2c482fddb5d298b0be5acbc49e47e3bd014ede1431b1ef6fa7dbbde3b21f517",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_unchanged(tmp_path, name):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        HOME=str(tmp_path),
        DOUBLEEIS_CACHE_DIR=str(tmp_path / "cache"),
    )
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        env=env, cwd=tmp_path, capture_output=True, check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
