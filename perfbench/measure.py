"""Measure one workload in this process (started by ``run.py``).

Usage: ``python3 perfbench/measure.py --workload NAME --seed N --seconds S
--trace 0|1 --cache DIR``, where ``DIR`` holds the stored model and traffic
pool that ``run.py`` prepared.  Prints one ``metric`` line per metric and,
as its last line, the result JSON.  Running in its own process keeps the
model fit out of ``peak_rss_mb``.

* ``--trace 0``: setup (``SETUP_REPEATS`` times), then a closed-loop phase
  (``1 - OPEN_SHARE`` of ``--seconds``) and an open-loop phase (the rest) on
  two live targets, alternating in ``SLICES`` slices each; prints the
  end-to-end metrics.
* ``--trace 1``: an untraced and a traced closed-loop phase (half of the
  closed-loop time each) and a traced open-loop phase; prints the
  per-layer metrics and writes the spans to ``.perfbench_work/traces``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from check import CheckReport, check_phases  # noqa: E402
from loadgen import Phase, Target, Traffic, closed_loop, interleaved, open_loop  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from traffic import load_classifier, load_pool  # noqa: E402
from workloads import OPEN_SHARE, SETUP_REPEATS, SLICES, WORKLOADS, Workload  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"

#: Every end-to-end metric, with its unit.
END_TO_END_UNITS: Dict[str, str] = {
    "frames_per_s_p10": "frames/s",
    "latency_p95_ms": "ms",
    "success_rate": "ratio",
    "agreement": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Frames per open-loop latency window: p95 leaves 10 frames beyond it.
LATENCY_WINDOW = 200

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its joined children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(workload: Workload, cache: Path, pool) -> Tuple[Target, List[float]]:
    """Load + construct + one warm-up batch, ``SETUP_REPEATS`` times.

    Returns the last target (left open for the first phase) and every time.
    """
    times = []
    target = None
    for _ in range(SETUP_REPEATS):
        if target is not None:
            target.close()
        started = time.perf_counter()
        target = Target(workload, cache)
        target.warm_up(pool)
        times.append(time.perf_counter() - started)
    return target, times


def ready(workload: Workload, cache: Path, pool, **options) -> Target:
    target = Target(workload, cache, **options)
    target.warm_up(pool)
    settle()
    return target


def settle() -> None:
    """Collect garbage left by set-up and exempt what survives from later
    collections, so a timed phase pays only for the garbage it makes."""
    gc.collect()
    gc.freeze()


def finite(value: float) -> float:
    """JSON-safe value: a metric with no samples (only after failures) reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def latency_windows(latencies: List[float]) -> List[List[float]]:
    """Consecutive windows of at least ``LATENCY_WINDOW`` frames (one window
    when the phase has fewer), so each window's p95 has 10 frames beyond it
    and a second of host noise moves one window, not the median."""
    count = max(1, len(latencies) // LATENCY_WINDOW)
    bounds = [len(latencies) * i // count for i in range(count + 1)]
    return [latencies[a:b] for a, b in zip(bounds, bounds[1:])]


def closed_fps(phase: Phase) -> float:
    """Frames sent over the time from the first submit to the last verdict."""
    return phase.sent / phase.wall_s if phase.error is None else 0.0


def round_fps(phase: Phase, workload: Workload) -> List[float]:
    """Each closed-loop round's throughput: ``round_frames`` over its time."""
    return [workload.round_frames / t for t in phase.round_s] if phase.error is None else []


def percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else float("nan")


def end_to_end(
    workload: Workload, cache: Path, pool, seconds: float
) -> Tuple[Dict[str, float], List[Phase], dict]:
    traffic = Traffic(pool)
    closed_target, setups = timed_setups(workload, cache, pool)
    try:
        open_target = ready(
            workload, cache, pool, max_latency_frames=workload.open_max_latency_frames
        )
        try:
            closed, opened = interleaved(
                closed_target, open_target, traffic, workload, seconds, SLICES, OPEN_SHARE
            )
        finally:
            open_target.close()
    finally:
        closed_target.close()
    rss = peak_rss_mb()
    latencies = opened.latencies_s()
    windows = latency_windows(latencies)
    rounds = round_fps(closed, workload)
    metrics = {
        "frames_per_s_p10": float(np.percentile(rounds, 10)) if rounds else 0.0,
        "latency_p95_ms": statistics.median(percentile_ms(w, 95) for w in windows),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    details = {
        "setup_s_all": setups,
        "closed_frames": closed.sent,
        "frames_per_s": closed_fps(closed),
        "round_fps": rounds,
        "open_frames": opened.sent,
        "open_latency_samples": len(latencies),
        "latency_windows": len(windows),
        "latency_window_p95_ms": [percentile_ms(w, 95) for w in windows],
        "latency_p50_ms": statistics.median(percentile_ms(w, 50) for w in windows),
        "latency_pooled_p99_ms": percentile_ms(latencies, 99),
        "loadgen_lag_p99_ms": percentile_ms(opened.lag_s, 99),
    }
    return metrics, [closed, opened], details


def traced(
    workload: Workload, cache: Path, pool, seconds: float
) -> Tuple[Dict[str, float], List[Phase], dict, Tracer]:
    traffic = Traffic(pool)
    target = ready(workload, cache, pool)
    try:
        untraced = closed_loop(target, traffic, workload, seconds * (1 - OPEN_SHARE) / 2)
    finally:
        target.close()

    tracer = Tracer()
    phases = [untraced]
    counters = []
    for kind, max_latency_frames, share in (
        ("closed", None, (1 - OPEN_SHARE) / 2),
        ("open", workload.open_max_latency_frames, OPEN_SHARE),
    ):
        target = ready(
            workload, cache, pool, max_latency_frames=max_latency_frames, profile=True
        )
        try:
            before = target.counters()
            with tracer:
                if kind == "closed":
                    phases.append(closed_loop(target, traffic, workload, seconds * share, tracer))
                else:
                    phases.append(open_loop(target, traffic, workload, seconds * share, tracer))
            after = target.counters()
        finally:
            target.close()
        counters.append({key: after[key] - before[key] for key in after})

    traced_closed, traced_open = phases[1], phases[2]
    total = {key: sum(delta[key] for delta in counters) for key in counters[0]}
    untraced_fps = closed_fps(untraced)
    traced_fps = closed_fps(traced_closed)
    open_start = traced_open.first_index
    metrics = layer_metrics(
        tracer,
        wall_s=traced_closed.wall_s + traced_open.wall_s,
        workers=workload.workers,
        batches=int(total["batches"]),
        frames_out=int(total["frames_out"]),
        inference_s=float(total["inference_s"]),
        backpressure_waits=int(total["backpressure_waits"]),
        open_sequences=range(open_start, open_start + traced_open.sent),
        lag_s=traced_open.lag_s,
        untraced_fps=untraced_fps,
        traced_fps=traced_fps if traced_fps > 0 else float("nan"),
    )
    details = {
        "untraced_fps": untraced_fps,
        "traced_fps": traced_fps,
        "spans": len(tracer.spans),
        "worker_spans": "not recorded: process shards are forked untraced"
        if workload.runner == "processes"
        else "recorded",
    }
    return metrics, phases, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cache", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pool = load_pool(args.cache, workload)

    if args.trace:
        metrics, phases, details, tracer = traced(workload, args.cache, pool, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, phases, details = end_to_end(workload, args.cache, pool, args.seconds)
        units = END_TO_END_UNITS

    report: CheckReport = check_phases(
        workload, pool, phases, load_classifier(args.cache, workload)
    )
    error_rate = report.failed / report.sent if report.sent else 1.0
    if args.trace:
        metrics["loadgen.sent"] = report.sent
        metrics["loadgen.failed"] = report.failed
        trace_path = WORK_DIR / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics["success_rate"] = 1.0 - error_rate
        metrics["agreement"] = report.agreement
    correct = report.passed(workload)

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "phases": [
            dict(kind=phase.kind, **counts)
            for phase, counts in zip(phases, report.per_phase)
        ],
        "error_rate": error_rate,
        "agreement": report.agreement,
        "mismatches": report.mismatches,
        "details": details,
    }
    results_path = (
        WORK_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps({**summary, "metrics": metrics}, indent=2) + "\n")

    print(f"host {json.dumps(summary['host'], sort_keys=True)}")
    for phase in summary["phases"]:
        print(f"phase {json.dumps(phase)}")
    for text in report.mismatches:
        print(f"mismatch {text}")
    print(f"check {'passed' if correct else 'FAILED'}: error_rate = {error_rate:.6g} ratio, "
          f"agreement = {report.agreement:.6g} ratio")
    if not args.trace:
        rounds = details["round_fps"]
        print(f"closed loop: {details['closed_frames']} frames in {len(rounds)} rounds, "
              f"{details['frames_per_s']:.6g} frames/s overall, round median "
              f"{statistics.median(rounds) if rounds else 0.0:.6g} frames/s")
        print(f"open loop: {details['open_latency_samples']} frames, windowed p50 = "
              f"{details['latency_p50_ms']:.6g} ms, pooled p99 = "
              f"{details['latency_pooled_p99_ms']:.6g} ms")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.sent,
                "failed": report.failed,
                "metrics": {
                    name: {"value": finite(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
