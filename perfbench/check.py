"""Output check: every phase against an in-process ``exact`` reference.

* Failure accounting: a missing, duplicate or extra sequence counts as a
  failed frame; a phase stopped by an error leaves its unreturned frames
  missing.
* ``exact`` workloads are replayed through single ``exact`` engines, one per
  shard, fed the shard's routed sub-stream with the same batch size,
  ``max_latency_frames`` and flush points as the system under test.  That
  reproduces the exact batch contents, so module id, confidence and every
  source's verdict must match bitwise.  The reference is fed the generated
  codewords, not the packed frames, so it also checks the frame parser.
* ``fast`` workloads are compared frame by frame with one ``exact`` engine
  run over the distinct pool frames: ``agreement`` is the share of returned
  frames with the reference's module, and the confidence of an agreeing
  frame may differ from the reference's by at most ``FAST_CONFIDENCE_TOL``.
* For every workload each verdict's window holds exactly the frames the
  phase had sent that source (up to the vote window), and every result
  names the source its frame was sent from (checked as it comes back).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.classifier import DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.service import shard_for_source

from loadgen import Phase
from traffic import Pool
from workloads import BATCH_SIZE, MIN_FAST_AGREEMENT, Workload

#: Largest |confidence - exact confidence| allowed on a ``fast`` frame.
FAST_CONFIDENCE_TOL = 1e-3
#: Vote window of the engines under test (the library default).
VOTE_WINDOW = 16


@dataclass
class CheckReport:
    sent: int = 0
    failed: int = 0
    returned: int = 0
    agreeing: int = 0
    mismatches: List[str] = field(default_factory=list)
    per_phase: List[Dict[str, int]] = field(default_factory=list)

    @property
    def agreement(self) -> float:
        return self.agreeing / self.returned if self.returned else 0.0

    def passed(self, workload: Workload) -> bool:
        if self.mismatches or self.failed:
            return False
        return workload.numerics == "exact" or self.agreement >= MIN_FAST_AGREEMENT

    def mismatch(self, text: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(text)
        else:
            self.mismatches[-1] = f"... and more (last: {text})"


def check_phases(
    workload: Workload,
    pool: Pool,
    phases: Sequence[Phase],
    reference: DeepCsiClassifier,
) -> CheckReport:
    """Check every phase; ``reference`` must be an fp64 (``exact``) classifier."""
    report = CheckReport()
    pool_reference = None
    if workload.numerics != "exact":
        results = InferenceEngine(reference, batch_size=BATCH_SIZE).drain(pool.codewords)
        pool_reference = [(r.predicted_module_id, r.confidence) for r in results]
    for phase in phases:
        returned = phase.returned_count
        missing = phase.sent - returned
        failed = missing + phase.duplicates + phase.extras
        report.per_phase.append(
            {
                "sent": phase.sent,
                "succeeded": returned,
                "failed": failed,
                "missing": missing,
                "duplicates": phase.duplicates,
                "extras": phase.extras,
            }
        )
        report.sent += phase.sent
        report.failed += failed
        report.returned += returned
        if phase.wrong_sources:
            report.mismatch(f"{phase.kind}: {phase.wrong_sources} results name another source")
        _check_windows(report, pool, phase)
        if pool_reference is None:
            _check_exact(report, workload, pool, phase, reference)
        else:
            _check_fast(report, phase, pool_reference)
    return report


def _check_windows(report: CheckReport, pool: Pool, phase: Phase) -> None:
    sent_per_source = Counter(pool.sources[entry] for entry in phase.pool_entries)
    for source, verdict in phase.verdicts.items():
        expected = min(VOTE_WINDOW, sent_per_source[source])
        if verdict.window_size != expected:
            report.mismatch(
                f"{phase.kind}: {source} window {verdict.window_size} != {expected}"
            )


def _check_fast(report: CheckReport, phase: Phase, pool_reference) -> None:
    for position in phase.returned_positions():
        module, confidence = pool_reference[phase.pool_entries[position]]
        if phase.modules[position] != module:
            continue
        report.agreeing += 1
        if abs(phase.confidences[position] - confidence) > FAST_CONFIDENCE_TOL:
            report.mismatch(
                f"{phase.kind}[{position}]: confidence {phase.confidences[position]} "
                f"vs exact {confidence}"
            )


def _check_exact(
    report: CheckReport,
    workload: Workload,
    pool: Pool,
    phase: Phase,
    reference: DeepCsiClassifier,
) -> None:
    shards = 1 if workload.runner == "engine" else workload.workers
    engines = [
        InferenceEngine(
            reference,
            batch_size=BATCH_SIZE,
            max_latency_frames=phase.max_latency_frames,
        )
        for _ in range(shards)
    ]
    # Engine-local sequence -> phase position, per shard.
    positions: List[List[int]] = [[] for _ in range(shards)]
    expected = {}

    def take(shard: int, results) -> None:
        for result in results:
            expected[positions[shard][result.sequence]] = result

    def shard_of(source: str) -> int:
        return 0 if shards == 1 else shard_for_source(source, shards)

    flush_points = set(phase.flush_points)
    for position in range(phase.sent + 1):
        if position in flush_points:
            for shard, engine in enumerate(engines):
                take(shard, engine.flush())
        if position == phase.sent:
            break
        entry = phase.pool_entries[position]
        source = pool.sources[entry]
        shard = shard_of(source)
        positions[shard].append(position)
        take(shard, engines[shard].submit(pool.codewords[entry], source=source))
    for source, verdict in phase.verdicts.items():
        want = engines[shard_of(source)].verdict(source)
        if verdict != want:
            report.mismatch(f"{phase.kind}: verdict of {source} {verdict} != {want}")

    for position in phase.returned_positions():
        want = expected.get(position)
        if want is None:
            report.mismatch(f"{phase.kind}[{position}]: no reference result")
            continue
        got = (phase.modules[position], phase.confidences[position])
        if got[0] == want.predicted_module_id:
            report.agreeing += 1
        if got != (want.predicted_module_id, want.confidence):
            report.mismatch(
                f"{phase.kind}[{position}]: {got!r} != exact "
                f"({want.predicted_module_id}, {want.confidence!r})"
            )
