"""Self-tests of the benchmark itself.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

* every site the per-layer wrappers patch holds the original object
  again after they are uninstalled;
* two traced runs at one seed give identical counts;
* a smoke run of each workload (sweeps cut to two grid points) finishes
  in seconds with every check passing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from workload import WORKLOADS  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
COUNT_UNITS = {"count", "bit", "B"}


def per_layer_counts() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]


class WrapperRestoreTest(unittest.TestCase):
    def test_uninstall_restores_every_patched_site(self):
        from repro.analysis import table1  # noqa: F401  (loads the program)
        from repro.comm.randomness import SharedRandomness
        from repro.obs.metrics import MetricsRegistry

        rank = SharedRandomness.__dict__["permutation_rank"]
        probe = layers.Layers(MetricsRegistry())
        probe.install()
        sites = probe.patched_sites()
        try:
            self.assertGreater(len(sites), 100)
            self.assertIsNot(SharedRandomness.__dict__["permutation_rank"],
                             rank)
            for owner, name, original in sites:
                self.assertIsNot(getattr(owner, name), original, name)
        finally:
            probe.uninstall()
        self.assertIs(SharedRandomness.__dict__["permutation_rank"], rank)
        for owner, name, original in sites:
            self.assertIs(getattr(owner, name), original,
                          f"{getattr(owner, '__name__', owner)}.{name}")


def traced_smoke(workload: str, tag: str) -> dict:
    out = OUT / f"{workload}-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "trace").mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload,
         "--seed", "4", "--smoke", "--trace-dir", str(out / "trace"),
         "--out", str(out / "result.json")],
        cwd=ROOT, env=ENV, check=True, capture_output=True, timeout=120,
    )
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


class TracedCountsTest(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        names = per_layer_counts()
        for workload in ("table1_quick", "table1_quick_w2"):
            first = traced_smoke(workload, "a")
            second = traced_smoke(workload, "b")
            self.assertEqual(first["reports"], second["reports"])
            for name in names:
                self.assertEqual(first["layers"].get(name, 0),
                                 second["layers"].get(name, 0),
                                 f"{workload}: {name}")
            self.assertGreater(first["layers"]["randomness.rank_evals"], 0)


class SmokeRunTest(unittest.TestCase):
    def test_each_workload_smoke_run_finishes_in_seconds(self):
        for workload in WORKLOADS:
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            elapsed = time.monotonic() - started
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            self.assertLess(elapsed, 60.0, workload)


if __name__ == "__main__":
    unittest.main(verbosity=2)
