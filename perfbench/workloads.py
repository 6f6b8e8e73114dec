"""The benchmark's workloads and the fixed geometry they share.

Every workload sends K=234 sub-carrier, M=3 antenna, N_SS=2 stream
compressed-beamforming feedback (codebook 1: 9-bit phi, 7-bit psi), extracts
features on every 4th sub-carrier and classifies in micro-batches of 64.
A workload runs a closed-loop phase (replay as fast as the system accepts)
and then an open-loop phase (a fixed arrival rate with a small
``max_latency_frames``, so the same layers run with small batches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

NUM_SUBCARRIERS = 234
NUM_TX = 3
NUM_STREAMS = 2
CODEBOOK = 1
BANDWIDTH_MHZ = 80
STRIDE = 4
BATCH_SIZE = 64
NUM_CLASSES = 3

#: Setups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` given to the open-loop phase (the rest is closed).
OPEN_SHARE = 0.5
#: Slices each phase is cut into; the phases alternate slice by slice.
SLICES = 6
#: Frames the closed loop sends at least, whatever ``--seconds`` says.
MIN_CLOSED_FRAMES = 3 * BATCH_SIZE
#: Lowest share of frames a ``fast`` workload must classify like the
#: ``exact`` reference for its output check to pass.
MIN_FAST_AGREEMENT = 0.95

#: numerics name -> (compute backend, preprocessing precision).
NUMERICS: Dict[str, Tuple[Optional[str], str]] = {
    "exact": (None, "exact"),
    "fast": ("fp32", "fast"),
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the system configuration it is served by."""

    name: str
    why: str
    #: "paper" (``DeepCsiModelConfig()`` defaults) or "bench" (16 filters).
    model: str
    #: "exact" or "fast", see :data:`NUMERICS`.
    numerics: str
    #: "engine" (one in-process InferenceEngine), "threads" or "processes".
    runner: str
    workers: int
    sources: int
    #: "frames" (raw FeedbackFrame payloads) or "codewords" (QuantizedAngles).
    payload: str
    #: Distinct frames generated per seed; the phases replay them in order.
    pool_frames: int
    #: Frames per closed-loop round (at most the shard queue depth).
    round_frames: int
    #: Open-loop arrival rate, well under the workload's capacity.
    open_rate_fps: float
    open_max_latency_frames: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="observer-frames",
            why=(
                "raw bit-packed frames from 64 sources through one in-process "
                "engine, paper model, exact numerics: the deployment input, "
                "dominated by frame parsing"
            ),
            model="paper",
            numerics="exact",
            runner="engine",
            workers=1,
            sources=64,
            payload="frames",
            pool_frames=192,
            round_frames=64,
            open_rate_fps=40.0,
            open_max_latency_frames=1,
        ),
        Workload(
            name="engine-codewords",
            why=(
                "codewords from 64 sources through one in-process engine, "
                "paper model, fast numerics: no parsing or transport, so CNN "
                "and Givens changes show first"
            ),
            model="paper",
            numerics="fast",
            runner="engine",
            workers=1,
            sources=64,
            payload="codewords",
            pool_frames=512,
            round_frames=256,
            open_rate_fps=600.0,
            open_max_latency_frames=4,
        ),
        Workload(
            name="fleet-codewords",
            why=(
                "codewords from 256 sources through the processes service, "
                "16-filter model, fast numerics: cheap frames, so the parent's "
                "pack, ring and result costs dominate"
            ),
            model="bench",
            numerics="fast",
            runner="processes",
            workers=2,
            sources=256,
            payload="codewords",
            pool_frames=1024,
            round_frames=512,
            open_rate_fps=1000.0,
            open_max_latency_frames=4,
        ),
    )
}
