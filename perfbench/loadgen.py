"""The system under test behind one interface, and the two load generators.

Load comes from one process and one thread.  The closed loop replays the
traffic in rounds: it submits ``round_frames`` frames, then flushes and
collects every result before the next round (``round_frames`` clients that
each wait for their reply); at the end it reads every source's verdict.
The open loop sends at a fixed rate and times each frame from when it was
due to when its result was collected, polling for results while it waits
for the next due time.  Each loop runs in slices that can be resumed, so
the benchmark can alternate the two on two live targets.

Every submission is logged in a :class:`Phase` (pool entry, flush points,
verdicts, the results that came back) so the output check can replay it.
"""

from __future__ import annotations

import copy
import math
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import EngineResult, InferenceEngine, MajorityVerdict
from repro.core.service import StreamingService

from traffic import Pool, load_classifier
from workloads import BATCH_SIZE, MIN_CLOSED_FRAMES, NUMERICS, Workload

#: Longest sleep between result polls [s].
POLL_S = 0.0005


class Target:
    """An InferenceEngine or a StreamingService, driven the same way."""

    def __init__(
        self,
        workload: Workload,
        cache,
        max_latency_frames: Optional[int] = None,
        profile: bool = False,
    ) -> None:
        classifier = load_classifier(cache, workload)
        compute, precision = NUMERICS[workload.numerics]
        self.engine: Optional[InferenceEngine] = None
        self.service: Optional[StreamingService] = None
        if workload.runner == "engine":
            self.engine = InferenceEngine(
                classifier,
                batch_size=BATCH_SIZE,
                max_latency_frames=max_latency_frames,
                compute=compute,
                precision=precision,
                profile=profile,
            )
        else:
            self.service = StreamingService(
                classifier,
                num_workers=workload.workers,
                backend=workload.runner,
                batch_size=BATCH_SIZE,
                max_latency_frames=max_latency_frames,
                compute=compute,
                precision=precision,
            )
        self.frames_in = 0

    def submit(self, observation, source: str) -> List[EngineResult]:
        self.frames_in += 1
        if self.engine is not None:
            return self.engine.submit(observation, source=source)
        self.service.submit(observation, source=source)
        return []

    def collect(self) -> List[EngineResult]:
        if self.engine is not None:
            return []
        return self.service.collect()

    def flush(self) -> List[EngineResult]:
        if self.engine is not None:
            return self.engine.flush()
        self.service.flush()
        return self.service.collect()

    def verdict(self, source: str) -> MajorityVerdict:
        if self.engine is not None:
            return self.engine.verdict(source)
        return self.service.verdict(source)

    def counters(self) -> Dict[str, float]:
        """Batches, frames out, batch-processing seconds and backpressure waits."""
        stats = self.engine.stats if self.engine is not None else self.service.stats
        return {
            "batches": stats.batches,
            "frames_out": stats.frames_out,
            "inference_s": stats.inference_seconds,
            "backpressure_waits": 0 if self.engine is not None else stats.queue_full_waits,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def warm_up(self, pool: Pool) -> None:
        """Classify one batch from dedicated sources and wait for all of it."""
        returned = 0
        for index in range(BATCH_SIZE):
            observation = pool.observation(index % len(pool))
            returned += len(self.submit(observation, f"warmup-{index}"))
        returned += len(self.flush())
        if returned != BATCH_SIZE:
            raise RuntimeError(f"warm-up returned {returned} of {BATCH_SIZE} results")


@dataclass
class Phase:
    """Everything one phase sent and got back, for the output check.

    Per-frame records are compact arrays indexed by the frame's position in
    the phase (about 20 bytes a frame), so the benchmark's own memory hardly
    grows with throughput and ``peak_rss_mb`` stays the system's.
    """

    kind: str
    max_latency_frames: Optional[int]
    #: ``EngineResult.sequence`` of the phase's first submission.
    base_sequence: int
    #: Traffic index of the phase's first submission.
    first_index: int
    #: Source address of every pool entry.
    pool_sources: List[str]
    pool_entries: array = field(default_factory=lambda: array("H"))
    #: 1 once the frame's result came back.
    returned: bytearray = field(default_factory=bytearray)
    modules: array = field(default_factory=lambda: array("h"))
    confidences: array = field(default_factory=lambda: array("d"))
    done_s: array = field(default_factory=lambda: array("d"))
    due_s: array = field(default_factory=lambda: array("d"))
    lag_s: array = field(default_factory=lambda: array("d"))
    #: Submission counts at which the phase flushed.
    flush_points: List[int] = field(default_factory=list)
    #: Every source's verdict, read after the last flush.
    verdicts: Dict[str, MajorityVerdict] = field(default_factory=dict)
    duplicates: int = 0
    extras: int = 0
    #: Results that named another source than their frame was sent from.
    wrong_sources: int = 0
    error: Optional[str] = None
    wall_s: float = 0.0
    #: Duration of every closed-loop round.
    round_s: array = field(default_factory=lambda: array("d"))

    @property
    def sent(self) -> int:
        return len(self.pool_entries)

    @property
    def returned_count(self) -> int:
        return self.returned.count(1)

    def submitted(self, entry: int) -> None:
        self.pool_entries.append(entry)
        self.returned.append(0)
        self.modules.append(-1)
        self.confidences.append(math.nan)
        self.done_s.append(math.nan)

    def absorb(self, results: List[EngineResult], now: float) -> None:
        for result in results:
            position = result.sequence - self.base_sequence
            if not 0 <= position < self.sent:
                self.extras += 1
            elif self.returned[position]:
                self.duplicates += 1
            else:
                self.returned[position] = 1
                self.modules[position] = result.predicted_module_id
                self.confidences[position] = result.confidence
                self.done_s[position] = now
                if result.source != self.pool_sources[self.pool_entries[position]]:
                    self.wrong_sources += 1

    def returned_positions(self) -> List[int]:
        return [p for p, flag in enumerate(self.returned) if flag]

    def flush(self, target: "Target") -> None:
        self.absorb(target.flush(), time.perf_counter())
        self.flush_points.append(self.sent)

    def read_verdicts(self, target: "Target", sources: List[str]) -> None:
        self.verdicts = {source: target.verdict(source) for source in sources}

    def latencies_s(self) -> List[float]:
        return [self.done_s[p] - self.due_s[p] for p in self.returned_positions()]


class Traffic:
    """Replays the pool in order; the traffic index runs on across phases."""

    def __init__(self, pool: Pool) -> None:
        self.pool = pool
        self.next_index = 0

    def start(self, kind: str, target: Target, max_latency_frames: Optional[int]) -> Phase:
        return Phase(
            kind=kind,
            max_latency_frames=max_latency_frames,
            base_sequence=target.frames_in,
            first_index=self.next_index,
            pool_sources=self.pool.sources,
        )

    def send(self, phase: Phase, target: Target, tracer=None) -> List[EngineResult]:
        index = self.next_index
        self.next_index += 1
        entry = index % len(self.pool)
        phase.submitted(entry)
        observation = self.pool.observation(entry)
        if tracer is None:
            return target.submit(observation, self.pool.sources[entry])
        # A distinct object per submission lets worker-side spans find it.
        observation = copy.copy(observation)
        tracer.tag(index, observation)
        tracer.current_sequence = index
        try:
            return target.submit(observation, self.pool.sources[entry])
        finally:
            tracer.current_sequence = -1


def _fail(phase: Phase) -> None:
    phase.error = traceback.format_exc()
    print(f"{phase.kind} phase stopped by an error:\n{phase.error}", file=sys.stderr)


def closed_slice(
    phase: Phase, target: Target, traffic: Traffic, workload: Workload, seconds: float,
    tracer=None,
) -> None:
    """Rounds of ``round_frames`` submissions, each ended by a flush that
    waits for every result, until ``seconds`` have passed (and the phase has
    sent at least ``MIN_CLOSED_FRAMES``)."""
    if phase.error is not None:
        return
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    try:
        while phase.sent < MIN_CLOSED_FRAMES or clock() < deadline:
            round_started = clock()
            for _ in range(workload.round_frames):
                phase.absorb(traffic.send(phase, target, tracer), clock())
            phase.flush(target)
            phase.round_s.append(clock() - round_started)
    except Exception:  # noqa: BLE001 - reported; unreturned frames count as failed
        _fail(phase)
    phase.wall_s += clock() - started


def open_slice(
    phase: Phase, target: Target, traffic: Traffic, workload: Workload, seconds: float,
    tracer=None,
) -> None:
    """``open_rate_fps * seconds`` frames sent on a fixed schedule, then a
    flush, so no frame waits for the next slice."""
    if phase.error is not None:
        return
    rate = workload.open_rate_fps
    clock = time.perf_counter
    started = clock() + POLL_S
    # Waiting by sleeping lets an idle CPU be descheduled, and waking it
    # costs the next frame up to several milliseconds; spinning avoids that.
    # A spinning sender would hold the GIL the thread shards need or take a
    # core from the process shards, so a service is waited for by sleeping
    # between result polls.
    sleep = workload.runner != "engine"
    try:
        for k in range(max(1, int(rate * seconds))):
            due = started + k / rate
            now = clock()
            while now < due:
                phase.absorb(target.collect(), now)
                if sleep:
                    time.sleep(min(POLL_S, max(0.0, due - clock())))
                now = clock()
            phase.due_s.append(due)
            phase.lag_s.append(now - due)
            phase.absorb(traffic.send(phase, target, tracer), clock())
            phase.absorb(target.collect(), clock())
        phase.flush(target)
    except Exception:  # noqa: BLE001 - reported; unreturned frames count as failed
        _fail(phase)
    phase.wall_s += clock() - started


def finish(phase: Phase, target: Target, traffic: Traffic) -> None:
    """Read every source's verdict; the phase's time includes it."""
    if phase.error is not None:
        return
    started = time.perf_counter()
    try:
        phase.read_verdicts(target, sorted(set(traffic.pool.sources)))
    except Exception:  # noqa: BLE001 - reported; unreturned frames count as failed
        _fail(phase)
    phase.wall_s += time.perf_counter() - started


def closed_loop(
    target: Target, traffic: Traffic, workload: Workload, seconds: float, tracer=None
) -> Phase:
    """One closed-loop slice of ``seconds``, then every source's verdict."""
    phase = traffic.start("closed", target, None)
    closed_slice(phase, target, traffic, workload, seconds, tracer)
    finish(phase, target, traffic)
    return phase


def open_loop(
    target: Target, traffic: Traffic, workload: Workload, seconds: float, tracer=None
) -> Phase:
    """One open-loop slice of ``seconds``, then every source's verdict."""
    phase = traffic.start("open", target, workload.open_max_latency_frames)
    open_slice(phase, target, traffic, workload, seconds, tracer)
    finish(phase, target, traffic)
    return phase


def interleaved(
    closed_target: Target,
    open_target: Target,
    traffic: Traffic,
    workload: Workload,
    seconds: float,
    slices: int,
    open_share: float,
) -> Tuple[Phase, Phase]:
    """A closed-loop and an open-loop phase on two live targets, alternating
    in ``slices`` slices each over ``seconds``.

    The host's speed drifts over seconds; alternating short slices lets both
    phases sample the whole run instead of one half each, so a slow stretch
    moves both a little rather than one a lot.
    """
    closed = traffic.start("closed", closed_target, None)
    opened = traffic.start("open", open_target, workload.open_max_latency_frames)
    for _ in range(slices):
        closed_slice(closed, closed_target, traffic, workload,
                     seconds * (1 - open_share) / slices)
        open_slice(opened, open_target, traffic, workload, seconds * open_share / slices)
    finish(closed, closed_target, traffic)
    finish(opened, open_target, traffic)
    return closed, opened
