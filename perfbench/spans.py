"""Spans around the public entry points of each layer, for the traced run.

:class:`Tracer` replaces the entry points listed in :data:`TARGETS` with
wrappers while it is installed and puts the originals back when it is
removed, so the untraced phases run the unmodified program.  Each call
records one span ``(id, name, start_ns, end_ns, parent_id, thread,
sequence, frames, nbytes)`` in memory; :meth:`Tracer.write` stores them as
JSON lines at the end of the run.

* ``sequence`` is the traffic index of the frame the span serves: set by
  the load generator for its own calls, looked up by observation identity
  on the service's worker threads, and inherited by child spans (a batch
  span carries the frame whose submission triggered the batch).
* ``frames`` is the batch size of batch-level spans (Givens
  reconstruction, feature extraction, classifier forward).
* ``nbytes`` is the size of the record a transport pack call returned.

Process shards are not traced: their workers are forked before the tracer
is installed and ship no stage profile, so on a processes service the
worker side is seen only through the ``inference_seconds`` they ship.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.backends as backends_module
import repro.core.engine as engine_module
from repro.core.classifier import DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.service import StreamingService
from repro.datasets.features import FeatureExtractor

#: (owner, attribute, span name, wrapper options) of every traced entry point.
TARGETS = (
    (engine_module, "parse_feedback_frame", "feedback.frames.parse", {}),
    (
        engine_module,
        "reconstruct_accumulator_quantized",
        "feedback.givens.reconstruct",
        {"frames_arg": 0},
    ),
    (
        FeatureExtractor,
        "transform_accumulator",
        "datasets.features.transform",
        {"frames_arg": 1},
    ),
    (
        DeepCsiClassifier,
        "predict_features",
        "core.classifier.predict",
        {"frames_arg": 1, "classifier_arg": 0},
    ),
    (InferenceEngine, "submit", "core.engine.submit", {"observation_arg": 1}),
    (InferenceEngine, "flush", "core.engine.flush", {}),
    (InferenceEngine, "verdict", "core.engine.verdict", {}),
    (StreamingService, "submit", "core.service.submit", {}),
    (StreamingService, "collect", "core.service.collect", {}),
    (StreamingService, "flush", "core.service.flush", {}),
    (StreamingService, "verdict", "core.service.verdict", {}),
    (backends_module, "pack_frame_record", "core.transport.pack", {"sized": True}),
    (backends_module, "pack_codeword_record", "core.transport.pack", {"sized": True}),
    (backends_module, "pack_array_record", "core.transport.pack", {"sized": True}),
)

#: Layers of the paper-size model (the 16-filter model has a subset); the
#: unnamed ``selu`` and ``flatten`` layers are summed under one name.
MODEL_LAYERS = (
    "conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "pool4",
    "conv5", "pool5", "selu", "attention", "flatten", "dense1",
    "alpha_dropout1", "dense2", "alpha_dropout2", "classifier",
)

#: Every per-layer metric of the traced run, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "feedback.frames.parse_ns": "ns",
    "feedback.frames.parse_share": "ratio",
    "feedback.givens.reconstruct_ns": "ns",
    "feedback.givens.reconstruct_share": "ratio",
    "datasets.features.transform_ns": "ns",
    "core.classifier.predict_ns": "ns",
    "core.classifier.predict_share": "ratio",
    **{f"nn.model.{layer}_ns": "ns" for layer in MODEL_LAYERS},
    "core.engine.submit_self_ns": "ns",
    "core.engine.mean_batch_size": "frames",
    "core.engine.batches": "count",
    "core.engine.verdict_ns": "ns",
    "core.service.submit_ns": "ns",
    "core.service.collect_ns": "ns",
    "core.service.flush_ms": "ms",
    "core.service.queue_wait_p50_ms": "ms",
    "core.service.backpressure_waits": "count",
    "core.transport.pack_ns": "ns",
    "core.transport.record_bytes": "bytes",
    "core.backends.parent_busy_share": "ratio",
    "core.backends.worker_busy_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}

Span = Tuple[int, str, int, int, int, int, int, int, int]


class Tracer:
    """In-memory span recorder; a context manager that installs the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Traffic index of the load generator's current call (-1: none).
        self.current_sequence = -1
        self.loadgen_thread = threading.get_ident()
        #: id(observation) -> (traffic index, observation); the observation
        #: is kept alive so its id is not reused while the tracer runs.
        self.sequence_of: Dict[int, Tuple[int, object]] = {}
        #: Classifiers that ran a traced forward (their LayerProfile is read).
        self.classifiers: Dict[int, DeepCsiClassifier] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, options in TARGETS:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, **options))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def tag(self, sequence: int, observation: object) -> None:
        """Remember which traffic index a distinct observation object carries."""
        self.sequence_of[id(observation)] = (sequence, observation)

    def _wrap(
        self,
        name: str,
        function: Callable,
        frames_arg: Optional[int] = None,
        observation_arg: Optional[int] = None,
        classifier_arg: Optional[int] = None,
        sized: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            thread = threading.get_ident()
            if stack:
                parent, sequence = stack[-1]
            else:
                parent = -1
                sequence = (
                    tracer.current_sequence if thread == tracer.loadgen_thread else -1
                )
                if sequence < 0 and observation_arg is not None:
                    entry = tracer.sequence_of.get(id(args[observation_arg]))
                    sequence = entry[0] if entry is not None else -1
            if classifier_arg is not None:
                classifier = args[classifier_arg]
                if id(classifier) not in tracer.classifiers:
                    # Count only forwards made under the tracer.
                    if classifier.model is not None:
                        classifier.model.reset_profile()
                    tracer.classifiers[id(classifier)] = classifier
            frames = len(args[frames_arg]) if frames_arg is not None else 0
            span_id = next(tracer._ids)
            stack.append((span_id, sequence))
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            nbytes = len(result) if sized else 0
            tracer.spans.append(
                (span_id, name, start, end, parent, thread, sequence, frames, nbytes)
            )
            return result

        return traced

    def write(self, path: Path) -> None:
        """Store the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start_ns", "end_ns", "parent", "thread", "sequence", "frames", "nbytes")
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda span: span[2]):
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


class _Totals:
    __slots__ = ("calls", "duration_ns", "self_ns", "frames", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.duration_ns = 0
        self.self_ns = 0
        self.frames = 0
        self.nbytes = 0

    def mean_ns(self) -> float:
        return self.duration_ns / self.calls if self.calls else 0.0

    def per_frame_ns(self) -> float:
        return self.duration_ns / self.frames if self.frames else 0.0


def _totals(spans: Sequence[Span]) -> Dict[str, _Totals]:
    child_ns: Dict[int, int] = {}
    for span_id, _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals: Dict[str, _Totals] = {}
    for span_id, name, start, end, _, _, _, frames, nbytes in spans:
        entry = totals.setdefault(name, _Totals())
        entry.calls += 1
        entry.duration_ns += end - start
        entry.self_ns += end - start - child_ns.get(span_id, 0)
        entry.frames += frames
        entry.nbytes += nbytes
    return totals


def layer_metrics(
    tracer: Tracer,
    *,
    wall_s: float,
    workers: int,
    batches: int,
    frames_out: int,
    inference_s: float,
    backpressure_waits: int,
    open_sequences: range,
    lag_s: Sequence[float],
    untraced_fps: float,
    traced_fps: float,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run (see ``PER_LAYER_UNITS``), except
    the load generator's ``loadgen.sent`` and ``loadgen.failed``.

    ``wall_s`` is the traced phases' wall time; the stats counters are the
    change of the system's own counters over those phases.
    """
    totals = _totals(tracer.spans)
    empty = _Totals()

    def get(name: str) -> _Totals:
        return totals.get(name, empty)

    wall_ns = wall_s * 1e9
    metrics: Dict[str, float] = {
        "feedback.frames.parse_ns": get("feedback.frames.parse").mean_ns(),
        "feedback.frames.parse_share": get("feedback.frames.parse").self_ns / wall_ns,
        "feedback.givens.reconstruct_ns": get("feedback.givens.reconstruct").per_frame_ns(),
        "feedback.givens.reconstruct_share": get("feedback.givens.reconstruct").self_ns / wall_ns,
        "datasets.features.transform_ns": get("datasets.features.transform").per_frame_ns(),
        "core.classifier.predict_ns": get("core.classifier.predict").per_frame_ns(),
        "core.classifier.predict_share": get("core.classifier.predict").self_ns / wall_ns,
    }

    layer_ns = dict.fromkeys(MODEL_LAYERS, 0)
    for classifier in tracer.classifiers.values():
        for entry in classifier.model.profile():
            if entry.name in layer_ns:
                layer_ns[entry.name] += entry.total_ns
    predicted = get("core.classifier.predict").frames
    for layer, total_ns in layer_ns.items():
        metrics[f"nn.model.{layer}_ns"] = total_ns / predicted if predicted else 0.0

    verdict = get("core.service.verdict") if "core.service.verdict" in totals else get("core.engine.verdict")
    metrics.update(
        {
            "core.engine.submit_self_ns": (
                get("core.engine.submit").self_ns / get("core.engine.submit").calls
                if get("core.engine.submit").calls
                else 0.0
            ),
            "core.engine.mean_batch_size": frames_out / batches if batches else 0.0,
            "core.engine.batches": batches,
            "core.engine.verdict_ns": verdict.mean_ns(),
            "core.service.submit_ns": get("core.service.submit").mean_ns(),
            "core.service.collect_ns": get("core.service.collect").mean_ns(),
            "core.service.flush_ms": get("core.service.flush").mean_ns() / 1e6,
            "core.service.queue_wait_p50_ms": _queue_wait_p50_ms(tracer.spans, open_sequences),
            "core.service.backpressure_waits": backpressure_waits,
            "core.transport.pack_ns": get("core.transport.pack").mean_ns(),
            "core.transport.record_bytes": (
                get("core.transport.pack").nbytes / get("core.transport.pack").calls
                if get("core.transport.pack").calls
                else 0.0
            ),
        }
    )

    service_ns = sum(
        end - start
        for _, name, start, end, parent, thread, *_ in tracer.spans
        if parent < 0 and thread == tracer.loadgen_thread and name.startswith("core.service.")
    )
    stage_ns = sum(
        get(name).duration_ns
        for name in (
            "feedback.givens.reconstruct",
            "datasets.features.transform",
            "core.classifier.predict",
        )
    )
    metrics.update(
        {
            "core.backends.parent_busy_share": service_ns / wall_ns,
            "core.backends.worker_busy_share": inference_s / (wall_s * workers),
            "loadgen.lag_p99_ms": float(np.percentile(lag_s, 99)) * 1e3 if len(lag_s) else 0.0,
            "trace.overhead_pct": (untraced_fps / traced_fps - 1.0) * 100.0,
            "trace.coverage": stage_ns / (inference_s * 1e9) if inference_s > 0 else 0.0,
        }
    )
    return metrics


def _queue_wait_p50_ms(spans: Sequence[Span], sequences: range) -> float:
    """Median wait from a service submit returning to a worker thread's
    engine submit of the same frame (0 when no worker thread is traced)."""
    handed: Dict[int, int] = {}
    started: Dict[int, int] = {}
    for _, name, start, end, parent, _, sequence, *_ in spans:
        if sequence not in sequences or parent >= 0:
            continue
        if name == "core.service.submit":
            handed[sequence] = end
        elif name == "core.engine.submit":
            started[sequence] = start
    waits = [started[s] - handed[s] for s in handed.keys() & started.keys()]
    return float(np.median(waits)) / 1e6 if waits else 0.0
