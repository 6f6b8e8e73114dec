"""Self-tests of the benchmark: ``python3 perfbench/selftest.py`` from the
repository root (about two minutes).

* a smoke-size run of every workload, untraced and traced, prints every
  metric named in ``BENCHMARK.json`` with its unit and passes its check;
* negative controls: a tampered, dropped or duplicated result fails the
  output check;
* a different seed gives different traffic, the same seed the same.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# The in-process checks run with the BLAS thread pinning of the command.
for word in BENCHMARK["command"]:
    name, assigned, value = word.partition("=")
    if assigned:
        os.environ[name] = value

import numpy as np  # noqa: E402

from check import check_phases  # noqa: E402
from loadgen import Target, Traffic, closed_loop  # noqa: E402
from traffic import (  # noqa: E402
    make_pool_arrays,
    cache_dir,
    load_classifier,
    load_pool,
    prepare,
    source_digest,
)
from workloads import WORKLOADS  # noqa: E402

SMOKE_SEED = 3
SMOKE_SECONDS = "2"


def _command() -> list:
    """``BENCHMARK.json``'s command, with this interpreter for ``python3``."""
    command = list(BENCHMARK["command"])
    command[command.index("python3")] = sys.executable
    return command


class SmokeRuns(unittest.TestCase):
    def run_benchmark(self, workload: str, trace: int) -> list:
        process = subprocess.run(
            _command()
            + ["--workload", workload, "--seed", str(SMOKE_SEED),
               "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=180,
        )
        self.assertEqual(process.returncode, 0, process.stderr[-3000:])
        return process.stdout.splitlines()

    def test_every_metric_prints_with_its_unit(self) -> None:
        for workload in BENCHMARK["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    lines = self.run_benchmark(workload["name"], trace)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    printed = {}
                    for line in lines:
                        if line.startswith("metric "):
                            name, _, value_unit = line[len("metric "):].partition(" = ")
                            printed[name] = value_unit.split()[1]
                    self.assertEqual(printed, expected)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(lines[:-1]))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: entry["unit"] for name, entry in result["metrics"].items()},
                        expected,
                    )


class OutputCheck(unittest.TestCase):
    """A short closed-loop phase, then tampered copies of its results."""

    def phase_of(self, name: str):
        workload = WORKLOADS[name]
        cache = cache_dir(ROOT / ".perfbench_work", workload, SMOKE_SEED, source_digest(ROOT / "src"))
        prepare(workload, SMOKE_SEED, cache)
        pool = load_pool(cache, workload)
        target = Target(workload, cache)
        try:
            target.warm_up(pool)
            phase = closed_loop(target, Traffic(pool), workload, seconds=0.0)
        finally:
            target.close()
        reference = load_classifier(cache, workload)
        return workload, pool, phase, reference

    def assert_passes(self, workload, pool, phase, reference) -> None:
        report = check_phases(workload, pool, [phase], reference)
        self.assertTrue(report.passed(workload), report.mismatches)

    def assert_fails(self, workload, pool, phase, reference) -> None:
        report = check_phases(workload, pool, [phase], reference)
        self.assertFalse(report.passed(workload))

    def test_exact_tampering_is_caught(self) -> None:
        workload, pool, phase, reference = self.phase_of("observer-frames")
        self.assert_passes(workload, pool, phase, reference)

        confidence = phase.confidences[5]
        phase.confidences[5] = float(np.nextafter(confidence, 2.0))
        self.assert_fails(workload, pool, phase, reference)
        phase.confidences[5] = confidence

        phase.returned[7] = 0
        report = check_phases(workload, pool, [phase], reference)
        self.assertEqual(report.failed, 1)
        self.assertFalse(report.passed(workload))
        phase.returned[7] = 1

        phase.duplicates = 1
        self.assert_fails(workload, pool, phase, reference)
        phase.duplicates = 0

        phase.wrong_sources = 1
        self.assert_fails(workload, pool, phase, reference)

    def test_fast_tampering_is_caught(self) -> None:
        workload, pool, phase, reference = self.phase_of("engine-codewords")
        self.assert_passes(workload, pool, phase, reference)

        confidence = phase.confidences[3]
        phase.confidences[3] = confidence - 0.01
        self.assert_fails(workload, pool, phase, reference)
        phase.confidences[3] = confidence

        for position in range(phase.sent):
            phase.modules[position] = (phase.modules[position] + 1) % 3
        self.assert_fails(workload, pool, phase, reference)


class SeededTraffic(unittest.TestCase):
    def test_seed_changes_traffic(self) -> None:
        workload = dataclasses.replace(WORKLOADS["observer-frames"], pool_frames=3)
        first = make_pool_arrays(workload, 1)
        again = make_pool_arrays(workload, 1)
        other = make_pool_arrays(workload, 2)
        for name in ("q_phi", "q_psi", "payloads"):
            np.testing.assert_array_equal(first[name], again[name])
            self.assertFalse(np.array_equal(first[name], other[name]), name)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
