"""Seeded traffic and model for the benchmark, generated once and cached.

Each seed draws one complex channel template per module (3 modules).  A
frame of module ``m`` is ``QR(template_m + noise)`` truncated to ``N_SS``
columns (an orthonormal ``V~``), decomposed with ``compress_v_matrix`` and
quantised with ``quantize_angles`` (codebook 1, 9/7 bits); raw-frame
workloads additionally pack it with ``pack_feedback_frame``.  Source ``i``
sends module ``i % 3``.  The model is a short fit of the workload's
architecture on 3 classes drawn from the same templates.

Generation (about 6 ms per packed frame) happens before any timed phase;
the pool and the stored model are cached per seed and source tree under
``.perfbench_work/cache`` so a repeated seed reuses them.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.model import DeepCsiModelConfig
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.feedback import (
    FeedbackFrame,
    QuantizedAngles,
    VhtMimoControl,
    compress_v_matrix,
    dequantize_angles,
    pack_feedback_frame,
    quantize_angles,
    reconstruct_v_matrix,
)
from repro.nn.training import TrainingConfig

from workloads import (
    BANDWIDTH_MHZ,
    CODEBOOK,
    NUM_CLASSES,
    NUM_STREAMS,
    NUM_SUBCARRIERS,
    NUM_TX,
    STRIDE,
    Workload,
)

#: Amplitude of the per-frame noise added to a module's channel template.
NOISE = 0.4
#: Training frames per module and epochs of the per-seed fit.
TRAIN_PER_MODULE = 24
TRAIN_EPOCHS = {"paper": 4, "bench": 6}
DESTINATION = "02:00:00:00:ff:00"

BENCH_MODEL = DeepCsiModelConfig(
    num_filters=16,
    kernel_widths=(7, 5),
    pool_width=2,
    dense_units=(32,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)
MODELS = {"paper": DeepCsiModelConfig(), "bench": BENCH_MODEL}


def classifier_config(model: str) -> ClassifierConfig:
    """The classifier configuration a stored benchmark model is loaded with."""
    return ClassifierConfig(
        num_classes=NUM_CLASSES,
        feature=FeatureConfig(
            stream_indices=(0,),
            subcarrier_positions=strided_subcarriers(NUM_SUBCARRIERS, STRIDE),
        ),
        model=MODELS[model],
        training=TrainingConfig(
            epochs=TRAIN_EPOCHS[model], batch_size=16, early_stopping_patience=None
        ),
    )


def source_address(index: int) -> str:
    return f"02:00:00:00:{index // 256:02x}:{index % 256:02x}"


CONTROL = VhtMimoControl(
    num_columns=NUM_STREAMS,
    num_rows=NUM_TX,
    bandwidth_mhz=BANDWIDTH_MHZ,
    codebook=CODEBOOK,
    num_subcarriers=NUM_SUBCARRIERS,
)


def _templates(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    shape = (NUM_CLASSES, NUM_SUBCARRIERS, NUM_TX, NUM_TX)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _codewords(
    rng: np.random.Generator, templates: np.ndarray, modules: np.ndarray
) -> List[QuantizedAngles]:
    """One quantised feedback per entry of ``modules``."""
    shape = (len(modules), NUM_SUBCARRIERS, NUM_TX, NUM_TX)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, _ = np.linalg.qr(templates[modules] + NOISE * noise)
    v_tilde = q[..., :NUM_STREAMS].reshape(-1, NUM_TX, NUM_STREAMS)
    # compress_v_matrix works per sub-carrier, so the whole pool is one call.
    angles = quantize_angles(compress_v_matrix(v_tilde), CONTROL.quantization)
    return [
        QuantizedAngles(
            q_phi=angles.q_phi[rows],
            q_psi=angles.q_psi[rows],
            config=angles.config,
            num_tx=NUM_TX,
            num_streams=NUM_STREAMS,
        )
        for rows in (
            slice(i * NUM_SUBCARRIERS, (i + 1) * NUM_SUBCARRIERS)
            for i in range(len(modules))
        )
    ]


@dataclass
class Pool:
    """The distinct frames of one seed; the phases replay them in order."""

    sources: List[str]
    modules: np.ndarray
    codewords: List[QuantizedAngles]
    #: Raw frames for "frames" workloads, else ``None``.
    frames: Optional[List[FeedbackFrame]]

    def __len__(self) -> int:
        return len(self.codewords)

    def observation(self, index: int):
        """What the system under test is given for pool entry ``index``."""
        if self.frames is not None:
            return self.frames[index]
        return self.codewords[index]


def _fit_model(workload: Workload, seed: int, directory: Path) -> None:
    rng = np.random.default_rng([seed, 2])
    modules = np.repeat(np.arange(NUM_CLASSES), TRAIN_PER_MODULE)
    samples = [
        FeedbackSample(
            v_tilde=reconstruct_v_matrix(dequantize_angles(codeword)),
            module_id=int(module),
            beamformee_id=1,
        )
        for codeword, module in zip(_codewords(rng, _templates(seed), modules), modules)
    ]
    classifier = DeepCsiClassifier(classifier_config(workload.model))
    classifier.fit(samples)
    classifier.save(directory)


def make_pool_arrays(workload: Workload, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    source_index = np.arange(workload.pool_frames) % workload.sources
    modules = source_index % NUM_CLASSES
    codewords = _codewords(rng, _templates(seed), modules)
    arrays = {
        "source_index": source_index,
        "modules": modules,
        "q_phi": np.stack([c.q_phi for c in codewords]),
        "q_psi": np.stack([c.q_psi for c in codewords]),
    }
    if workload.payload == "frames":
        arrays["payloads"] = np.stack(
            [
                np.frombuffer(pack_feedback_frame(c, CONTROL), dtype=np.uint8)
                for c in codewords
            ]
        )
    return arrays


def source_digest(src_root: Path) -> str:
    """Hash of the package sources, so a cache never outlives the code."""
    digest = hashlib.sha256()
    for path in sorted(src_root.rglob("*.py")):
        digest.update(str(path.relative_to(src_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir(work_dir: Path, workload: Workload, seed: int, digest: str) -> Path:
    key = (
        f"{workload.model}-{workload.payload}-s{workload.sources}"
        f"-p{workload.pool_frames}-seed{seed}-{digest}"
    )
    return work_dir / "cache" / key


def prepare(workload: Workload, seed: int, directory: Path) -> None:
    """Fit and store the model and the traffic pool unless already cached."""
    if (directory / "pool.npz").exists():
        return
    partial = directory.with_name(directory.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    _fit_model(workload, seed, partial / "model")
    np.savez(partial / "pool.npz", **make_pool_arrays(workload, seed))
    partial.rename(directory)


def load_pool(directory: Path, workload: Workload) -> Pool:
    with np.load(directory / "pool.npz") as archive:
        arrays = {name: archive[name] for name in archive.files}
    config = CONTROL.quantization
    codewords = [
        QuantizedAngles(
            q_phi=q_phi, q_psi=q_psi, config=config, num_tx=NUM_TX, num_streams=NUM_STREAMS
        )
        for q_phi, q_psi in zip(arrays["q_phi"], arrays["q_psi"])
    ]
    sources = [source_address(int(i)) for i in arrays["source_index"]]
    frames = None
    if "payloads" in arrays:
        frames = [
            FeedbackFrame(
                source_address=source,
                destination_address=DESTINATION,
                timestamp_s=index * 1e-3,
                payload=payload.tobytes(),
            )
            for index, (source, payload) in enumerate(zip(sources, arrays["payloads"]))
        ]
    return Pool(
        sources=sources, modules=arrays["modules"], codewords=codewords, frames=frames
    )


def load_classifier(directory: Path, workload: Workload) -> DeepCsiClassifier:
    """Load the stored model: the only model cost inside ``setup_s``."""
    return DeepCsiClassifier(classifier_config(workload.model)).load(directory / "model")
