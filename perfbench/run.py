"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Fits the seeded model and generates the seeded traffic pool (cached under
``.perfbench_work/cache``), then measures the workload in a child process
(``measure.py``) and relays its output.  The last line of standard output is
the result JSON: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``.  Exits non-zero without a result when the package sources
(``src/repro``) are missing or the measurement fails.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from traffic import cache_dir, prepare, source_digest
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cache = cache_dir(WORK_DIR, workload, args.seed, source_digest(SRC))
    prepare(workload, args.seed, cache)

    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload.name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cache", str(cache),
    ]
    # A session of its own, so a timeout also stops the worker processes.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print("perfbench: measurement timed out", file=sys.stderr)
        return 3
    lines = output.splitlines()
    result = None
    if child.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(output)
        print(f"perfbench: measurement failed (exit code {child.returncode})", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
