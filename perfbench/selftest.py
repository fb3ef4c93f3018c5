"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a perronkit checkout.  Checks that every metric named
in BENCHMARK.json is emitted with its unit, that a wrong root is counted as
a failed op, that --seed changes the inputs but not the op count, and that
the benchmark refuses to run without the perronkit source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quiet(*args, **kwargs):
    pass


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(WORKLOADS))
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    out = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace,
                                "--scale", "tiny")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    res = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in res["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), k)

    def test_wrong_root_is_a_failed_op(self):
        def tamper(workload, records):
            for rec in records:
                if rec and "root" in rec.get("result", {}):
                    res = rec["result"]
                    for k in ("root", "root_lo", "root_hi"):
                        res[k] *= 1 + 1e-6
        for name in ("tridiag_slow", "dense_roundtrip"):
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    res = run.run(name, 3, 1, trace, "tiny", ROOT, tamper=tamper, log=quiet)
                    self.assertFalse(res["correct"])
                    self.assertEqual(res["failed"], res["attempted"])

    def test_seed_changes_inputs_not_op_count(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                a = run.run(name, 1, 2, 0, "tiny", ROOT, log=quiet)
                b = run.run(name, 2, 2, 0, "tiny", ROOT, log=quiet)
                self.assertNotEqual(a["inputs_digest"], b["inputs_digest"])
                self.assertEqual(a["attempted"], b["attempted"])
                self.assertEqual(a["failed"] + b["failed"], 0)

    def test_refuses_to_run_without_the_source(self):
        bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = bench("--workload", "tridiag_slow", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("{", out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
