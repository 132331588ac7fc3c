"""Negative controls: a wrong expected value, or a run that checks nothing,
must count as a failure.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from doubleeis import spaces  # noqa: E402

SMALL = {"E": range(1, 7), "Z": range(1, 7)}


class TempDirTest(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.dir)
        spaces._MEMO.clear()
        self.addCleanup(spaces._MEMO.clear)
        self.expected = workloads.load_expected()


class TablesChecks(TempDirTest):
    def tables(self, expected) -> workloads.Checks:
        checks = workloads.Checks()
        order = workloads._weights(SMALL)
        workloads.tables_job(order, str(self.dir), checks, workloads.Stream(), expected)
        return checks

    def test_pinned_outputs_pass(self):
        checks = self.tables(self.expected)
        self.assertTrue(checks.passed(), checks.failed)
        self.assertEqual(checks.attempted, 2 * 12 + 1)

    def test_wrong_digest_fails(self):
        wrong = {**self.expected, "systems": {**self.expected["systems"], "E5": "0" * 16}}
        self.assertEqual(self.tables(wrong).failed, ["reduced rows E5"])

    def test_wrong_dimension_fails(self):
        dims = list(workloads.E_DIMENSIONS)
        dims[3] += 1
        with mock.patch.object(workloads, "E_DIMENSIONS", tuple(dims)):
            self.assertEqual(self.tables(self.expected).failed, ["dimension E4"])


class QueriesChecks(TempDirTest):
    def test_foreign_cache_file_fails(self):
        # a weight-4 system stored under weight 5 is read without complaint
        # by the cache; the dimension and the map checks must catch it
        with mock.patch.object(workloads, "CACHED_WEIGHTS", SMALL), \
                mock.patch.object(workloads, "QUERY_WEIGHTS", range(2, 7)), \
                mock.patch.object(workloads, "RANDOM_GROUPS", 20):
            workloads.build_cache(str(self.dir), workloads.Checks(), self.expected)
            good = workloads.Checks()
            items = workloads.queries_inputs(3)
            spaces._MEMO.clear()
            workloads.queries_job(items, str(self.dir), good, workloads.Stream(), self.expected)
            self.assertTrue(good.passed(), good.failed)

            shutil.copy(self.dir / "relations_E_4.json", self.dir / "relations_E_5.json")
            spaces._MEMO.clear()
            bad = workloads.Checks()
            workloads.queries_job(items, str(self.dir), bad, workloads.Stream(), self.expected)
        self.assertIn("dimension E5", bad.failed)
        self.assertGreater(len(bad.failed), 1)


class CatalogChecks(unittest.TestCase):
    ARGV = ["fay-check", "--degree", "4", "--q-order", "5"]

    def check(self, argv, code, out, pinned=None) -> workloads.Checks:
        checks = workloads.Checks()
        expected = {"catalog_stdout": {} if pinned is None else {" ".join(argv): pinned}}
        workloads.check_command(checks, argv, code, out, expected)
        return checks

    def test_pinned_stdout(self):
        code, out = workloads.run_cli(self.ARGV)
        self.assertTrue(self.check(self.ARGV, code, out, workloads.stdout_digest(out)).passed())
        wrong = self.check(self.ARGV, code, out, "0" * 16)
        self.assertEqual(wrong.failed, ["stdout digest: " + " ".join(self.ARGV)])

    def test_failed_exit_code(self):
        self.assertFalse(self.check(self.ARGV, 1, "Fay identity ...: FAILED\n").passed())

    def test_verify_over_zero_instances_fails(self):
        argv = ["verify", "--identity", "sum-formula", "--q-order", "50"]
        self.assertFalse(self.check(argv, 0, "0 instances, all verified\n").passed())
        ok = "sum-formula k=2 d=0: ok\n1 instances, all verified\n"
        self.assertTrue(self.check(argv, 0, ok).passed())


class RunChecks(unittest.TestCase):
    def make_run(self) -> run.Run:
        d = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, d)
        return run.Run("tables", 0, d)

    def test_checks_nothing_fails(self):
        self.assertFalse(workloads.Checks().passed())
        r = self.make_run()
        r.results = [{"role": "setup", "attempted": 0, "failed": []},
                     {"role": "job", "attempted": 0, "failed": []}]
        attempted, failed = r.checks()
        self.assertEqual(failed, ["a job checked nothing"])
        self.assertGreater(attempted, 0)

    def test_write_under_home_fails(self):
        r = self.make_run()
        r.results = [{"role": "job", "attempted": 3, "failed": []}]
        self.assertEqual(r.checks(), (5, []))
        (r.home / ".cache").mkdir()
        self.assertEqual(r.checks()[1], ["nothing written under HOME"])


if __name__ == "__main__":
    unittest.main()
