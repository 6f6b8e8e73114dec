"""Pluggable compute backends for the inference forward pass.

Training always runs through the layers' own fp64 ``forward``/``backward``
methods.  *Inference* additionally dispatches through a
:class:`ComputeBackend` attached to the model
(:meth:`repro.nn.model.Sequential.set_compute`), so the always-on streaming
hot path can trade numerics for throughput without touching the layer code:

* ``exact`` (:class:`ExactBackend`) -- delegates to ``layer.forward``;
  bitwise identical to the historical fp64 path.
* ``fp32`` (:class:`Fp32ArenaBackend`) -- float32 weights and activations.
  Every intermediate tensor (padded inputs, im2col patch matrices, GEMM
  outputs, activation maps) lives in a grow-only per-shape *arena* that is
  reused across batches, so steady-state inference performs zero large
  allocations.  Pooling and SELU share the fp64 layers' kernels
  (``strided_max_pool``, ``fused_selu``), writing into arena buffers.
* ``int8`` (:class:`Int8Backend`) -- post-training quantisation, the
  thematic twin of the paper's Fig. 13 result that the fingerprints survive
  aggressive quantisation of the beamforming feedback itself.  ``Conv2D``
  and ``Dense`` weights are quantised per *output channel* with symmetric
  int8 scales; activation scales come from a calibration pass over a
  training split.  The im2col matmul runs on the integer-valued quantised
  operands (held in float32 so NumPy can use its BLAS sgemm -- NumPy has no
  int8 GEMM kernel; every product and accumulated sum of the paper's
  geometry stays below 2^24, so the arithmetic is exact integer math), and
  the accumulators are dequantised in fp32 before bias + SELU.  The tiny
  spatial-attention convolution (2 -> 1 channels) deliberately stays fp32,
  the usual mixed-precision treatment of sensitivity-critical layers.

Backends are picklable and deepcopy-able: arenas are dropped from the state
(they are rebuilt lazily), while the prepared weights -- including the int8
tensors and their scales -- travel with the model.  That is how the process
execution backend (:mod:`repro.core.backends`) ships the compute choice and
the quantised weights to its shard workers inside the one-time classifier
startup payload.
"""

from __future__ import annotations

# lint: dtype-strict

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.annotations import hot_path
from repro.arena import ArenaPool
from repro.nn.attention import SpatialAttention
from repro.nn.layers import (
    AlphaDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Relu,
    Selu,
    Sigmoid,
    Softmax,
    _pad_same,
    fused_selu,
    strided_max_pool,
)

#: Quantised integer range of the int8 backend (symmetric, zero-point free).
INT8_LEVELS = 127.0


class ComputeError(ValueError):
    """Raised for invalid compute-backend configurations or usage."""


# ``ArenaPool`` started life here and was promoted to :mod:`repro.arena` so
# the pre-NN preprocessing stages can share it; re-exported for back-compat.


# --------------------------------------------------------------------------- #
# Prepared per-layer states
# --------------------------------------------------------------------------- #
@dataclass
class _DenseState:
    """Float32 copy of a Dense layer's parameters."""

    weight: np.ndarray  # (in_features, out_features) float32
    bias: np.ndarray  # (out_features,) float32

    def gemm_input(self, backend: "Fp32ArenaBackend", key: tuple, x: np.ndarray) -> np.ndarray:
        return x

    def finish(self, accumulator: np.ndarray) -> np.ndarray:
        accumulator += self.bias
        return accumulator


@dataclass
class _QuantDenseState(_DenseState):
    """Int8 per-output-channel quantised Dense parameters.

    ``weight`` holds the *quantised levels* as float32 (integer-valued) so
    the matmul runs on BLAS; ``weight_q``/``weight_scale`` are the canonical
    int8 tensors used for serialisation, ``act_scale`` comes from
    calibration and ``dequant`` is the fused per-channel output factor
    ``act_scale * weight_scale``.
    """

    weight_q: np.ndarray = None  # int8, original parameter shape
    weight_scale: np.ndarray = None  # (out_features,) float32
    act_scale: Optional[float] = None
    dequant: Optional[np.ndarray] = None  # (out_features,) float32

    def set_act_scale(self, act_scale: float) -> None:
        self.act_scale = float(act_scale)
        self.dequant = (self.act_scale * self.weight_scale).astype(np.float32)

    def gemm_input(self, backend: "Fp32ArenaBackend", key: tuple, x: np.ndarray) -> np.ndarray:
        if self.act_scale is None:
            raise ComputeError(
                "the int8 backend has not been calibrated; run "
                "Int8Backend.calibrate() (or pass calibration data to "
                "DeepCsiClassifier.set_compute('int8', calibration=...))"
            )
        quantized = backend._arena.get(key + ("quant",), x.shape)
        np.multiply(x, np.float32(1.0 / self.act_scale), out=quantized)
        np.rint(quantized, out=quantized)
        np.clip(quantized, -INT8_LEVELS, INT8_LEVELS, out=quantized)
        return quantized

    def finish(self, accumulator: np.ndarray) -> np.ndarray:
        accumulator *= self.dequant
        accumulator += self.bias
        return accumulator


@dataclass
class _ConvState:
    """Float32 copy of a Conv2D layer, reshaped for the im2col GEMM."""

    weight2d: np.ndarray  # (kh * kw * in_channels, out_channels) float32
    bias: np.ndarray  # (out_channels,) float32
    kernel: Tuple[int, int]
    padding: str
    in_channels: int
    out_channels: int

    gemm_input = _DenseState.gemm_input
    finish = _DenseState.finish

    def fill_padded(self, interior: np.ndarray, x: np.ndarray) -> None:
        """Write the GEMM input into the interior of the padding arena."""
        np.copyto(interior, x)


@dataclass
class _QuantConvState(_ConvState):
    """Int8 per-output-channel quantised Conv2D parameters."""

    weight_q: np.ndarray = None  # int8, (out_channels, in_channels, kh, kw)
    weight_scale: np.ndarray = None  # (out_channels,) float32
    act_scale: Optional[float] = None
    dequant: Optional[np.ndarray] = None

    set_act_scale = _QuantDenseState.set_act_scale
    gemm_input = _QuantDenseState.gemm_input
    finish = _QuantDenseState.finish

    def fill_padded(self, interior: np.ndarray, x: np.ndarray) -> None:
        # Quantise straight into the padding arena: one multiply replaces
        # the separate quantisation buffer plus its copy (the zero margins
        # quantise to zero, so they need no rescaling).
        if self.act_scale is None:
            raise ComputeError(
                "the int8 backend has not been calibrated; run "
                "Int8Backend.calibrate() (or pass calibration data to "
                "DeepCsiClassifier.set_compute('int8', calibration=...))"
            )
        np.multiply(x, np.float32(1.0 / self.act_scale), out=interior)
        np.rint(interior, out=interior)
        np.clip(interior, -INT8_LEVELS, INT8_LEVELS, out=interior)


@dataclass
class _AttentionState:
    """Prepared state of a SpatialAttention block (its conv stays fp32)."""

    conv: _ConvState


def _per_channel_scales(weight: np.ndarray, channel_axis: int) -> np.ndarray:
    """Symmetric per-output-channel int8 scales (zero channels get scale 1)."""
    reduce_axes = tuple(a for a in range(weight.ndim) if a != channel_axis)
    magnitudes = np.max(np.abs(weight), axis=reduce_axes)
    scales = magnitudes / INT8_LEVELS
    scales[scales == 0.0] = 1.0
    return scales.astype(np.float32)


def _quantize_weight(weight: np.ndarray, channel_axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Quantise ``weight`` to int8 levels along ``channel_axis``."""
    scales = _per_channel_scales(weight, channel_axis)
    broadcast = [1] * weight.ndim
    broadcast[channel_axis] = -1
    levels = np.clip(
        np.rint(weight / scales.reshape(broadcast)), -INT8_LEVELS, INT8_LEVELS
    )
    return levels.astype(np.int8), scales


def _conv_weight2d(weight: np.ndarray) -> np.ndarray:
    """Reshape a (cout, cin, kh, kw) kernel to the (kh*kw*cin, cout) GEMM form.

    The row order matches the backend's internal NHWC activation layout, so
    the im2col gather copies near-contiguous (kw, cin) blocks.
    """
    cout = weight.shape[0]
    return np.ascontiguousarray(
        weight.transpose(2, 3, 1, 0).reshape(-1, cout), dtype=np.float32
    )


# --------------------------------------------------------------------------- #
# Fused element-wise kernels
# --------------------------------------------------------------------------- #
def _fused_sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid computed in place on ``x``."""
    np.clip(x, -60.0, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


# --------------------------------------------------------------------------- #
# Backend base + registry
# --------------------------------------------------------------------------- #
class ComputeBackend:
    """Base class of the pluggable inference compute backends."""

    #: Registry name of the backend.
    name: str = "base"
    #: Whether the backend is the bitwise-exact fp64 delegate.
    is_exact: bool = False

    def prepare(self, model) -> None:
        """One-time preparation for ``model`` (cast/quantise weights)."""

    def forward_layer(self, index: int, layer, x: np.ndarray) -> np.ndarray:
        """Inference forward of one layer."""
        raise NotImplementedError

    def finalize(self, out: np.ndarray) -> np.ndarray:
        """Detach the final output from any internal buffer."""
        return out

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serialisable backend state (empty for stateless backends)."""
        return {}

    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if arrays:
            raise ComputeError(
                f"the {self.name!r} backend has no serialisable state, got "
                f"{sorted(arrays)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ExactBackend(ComputeBackend):
    """Delegates to the layers' own fp64 forwards (bitwise-preserved)."""

    name = "exact"
    is_exact = True

    def forward_layer(self, index: int, layer, x: np.ndarray) -> np.ndarray:
        return layer.forward(x, training=False)


class Fp32ArenaBackend(ComputeBackend):
    """Float32 forward with preallocated, batch-reusable arenas.

    Internally, 4-d activations flow in NHWC layout: the im2col gather then
    copies near-contiguous ``(kw, channels)`` blocks and the conv GEMM output
    *is* the next layer's input, with no NCHW transpose copy per layer.  The
    model input (NCHW, the reference layout of the fp64 layers) is transposed
    once on ingest and the ``Flatten`` boundary restores the fp64 NCHW
    flattening order, so results stay comparable with the exact backend.
    """

    name = "fp32"
    dtype = np.float32

    def __init__(self) -> None:
        self.model = None
        self._states: List[object] = []
        self._arena = ArenaPool()
        #: Optional hook ``observer(state, x)`` called with every GEMM layer's
        #: fp32 input (used by the int8 calibration pass).
        self.observer: Optional[Callable[[object, np.ndarray], None]] = None

    # -- pickling / deepcopy: arenas are scratch, rebuild them lazily ---- #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_arena"] = None
        state["observer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._arena = ArenaPool()

    @property
    def arena_allocations(self) -> int:
        """Number of arena buffer (re)allocations performed so far."""
        return self._arena.allocations

    # -- preparation ----------------------------------------------------- #
    def prepare(self, model) -> None:
        self.model = model
        self._states = [self._prepare_layer(layer) for layer in model.layers]

    def _prepare_layer(self, layer) -> Optional[object]:
        if isinstance(layer, Dense):
            return self._make_dense_state(layer)
        if isinstance(layer, Conv2D):
            return self._make_conv_state(layer)
        if isinstance(layer, SpatialAttention):
            return _AttentionState(conv=self._fp32_conv_state(layer.conv))
        return None

    @staticmethod
    def _fp32_dense_state(layer: Dense) -> _DenseState:
        return _DenseState(
            weight=np.ascontiguousarray(layer.weight, dtype=np.float32),
            bias=layer.bias.astype(np.float32),
        )

    @staticmethod
    def _fp32_conv_state(layer: Conv2D) -> _ConvState:
        return _ConvState(
            weight2d=_conv_weight2d(layer.weight),
            bias=layer.bias.astype(np.float32),
            kernel=layer.kernel_size,
            padding=layer.padding,
            in_channels=layer.weight.shape[1],
            out_channels=layer.weight.shape[0],
        )

    # Overridden by the int8 backend to build quantised states.
    def _make_dense_state(self, layer: Dense) -> _DenseState:
        return self._fp32_dense_state(layer)

    def _make_conv_state(self, layer: Conv2D) -> _ConvState:
        return self._fp32_conv_state(layer)

    @hot_path
    # -- dispatch --------------------------------------------------------- #
    def forward_layer(self, index: int, layer, x: np.ndarray) -> np.ndarray:
        if index == 0:
            x = self._ingest(index, x)
        elif x.dtype != self.dtype:
            cast = self._arena.get((index, "cast"), x.shape, dtype=self.dtype)
            np.copyto(cast, x)
            x = cast
        if isinstance(layer, Conv2D):
            return self._conv((index,), self._states[index], x)
        if isinstance(layer, Dense):
            return self._dense((index,), self._states[index], x)
        if isinstance(layer, Selu):
            return self._selu(index, x)
        if isinstance(layer, Relu):
            out = self._arena.get((index, "out"), x.shape)
            return np.maximum(x, 0.0, out=out)
        if isinstance(layer, Sigmoid):
            out = self._arena.get((index, "out"), x.shape)
            np.copyto(out, x)
            return _fused_sigmoid_inplace(out)
        if isinstance(layer, Softmax) and x.ndim == 2:
            return self._softmax(index, x)
        if isinstance(layer, MaxPool2D):
            return self._maxpool(index, layer, x)
        if isinstance(layer, Flatten):
            return self._flatten(index, x)
        if isinstance(layer, (Dropout, AlphaDropout)):
            return x
        if isinstance(layer, SpatialAttention):
            return self._attention(index, self._states[index], x)
        # Unknown layer types (and axis-sensitive ops on 4-d activations,
        # e.g. a spatial Softmax) fall back to the layer's own fp64 forward
        # in the reference NCHW layout.
        return self._reference_forward(layer, x)

    @hot_path
    def _ingest(self, index: int, x: np.ndarray) -> np.ndarray:
        """Cast the model input to fp32; 4-d NCHW inputs become NHWC."""
        if x.ndim == 4:
            batch, channels, height, width = x.shape
            cast = self._arena.get(
                (index, "ingest"), (batch, height, width, channels)
            )
            np.copyto(cast, x.transpose(0, 2, 3, 1))
            return cast
        if x.dtype != self.dtype:
            cast = self._arena.get((index, "ingest"), x.shape, dtype=self.dtype)
            np.copyto(cast, x)
            return cast
        return x

    def _reference_forward(self, layer, x: np.ndarray) -> np.ndarray:
        reference = x.transpose(0, 3, 1, 2) if x.ndim == 4 else x
        # lint: disable=dtype/float64 -- deliberate exact-fp64 fallback for unsupported layer types
        out = layer.forward(np.asarray(reference, dtype=np.float64), training=False)
        out = np.asarray(out, dtype=self.dtype)
        if out.ndim == 4:
            out = np.ascontiguousarray(out.transpose(0, 2, 3, 1))
        return out

    @hot_path
    def finalize(self, out: np.ndarray) -> np.ndarray:
        # The output aliases an arena buffer that the next batch overwrites.
        return np.array(out, copy=True)  # lint: disable=hot-path/banned-alloc -- the result must escape the arena; one (B, C) copy per batch

    # -- kernels ---------------------------------------------------------- #
    @hot_path
    def _dense(self, key: tuple, state: _DenseState, x: np.ndarray) -> np.ndarray:
        if self.observer is not None:
            self.observer(state, x)
        gemm_in = state.gemm_input(self, key, x)
        out = self._arena.get(key + ("mm",), (x.shape[0], state.weight.shape[1]))
        np.matmul(gemm_in, state.weight, out=out)
        return state.finish(out)

    @hot_path
    def _conv(self, key: tuple, state: _ConvState, x: np.ndarray) -> np.ndarray:
        if self.observer is not None:
            self.observer(state, x)
        batch, height, width, channels = x.shape
        kh, kw = state.kernel
        if state.padding == "same":
            top, bottom, left, right = _pad_same(height, width, state.kernel)
            padded = self._arena.get(
                key + ("pad",),
                (batch, height + top + bottom, width + left + right, channels),
                zero=True,
            )
            state.fill_padded(padded[:, top : top + height, left : left + width], x)
        else:
            padded = state.gemm_input(self, key, x)
        out_h = padded.shape[1] - kh + 1
        out_w = padded.shape[2] - kw + 1
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (kh, kw), axis=(1, 2)
        )  # (batch, out_h, out_w, c, kh, kw) -- a view, no copy
        col = self._arena.get(
            key + ("col",), (batch, out_h, out_w, kh, kw, channels)
        )
        np.copyto(col, windows.transpose(0, 1, 2, 4, 5, 3))
        rows = batch * out_h * out_w
        accumulator = self._arena.get(key + ("mm",), (rows, state.out_channels))
        np.matmul(
            col.reshape(rows, kh * kw * channels), state.weight2d, out=accumulator
        )
        accumulator = state.finish(accumulator)
        # The GEMM output already is the NHWC activation: no transpose copy.
        return accumulator.reshape(batch, out_h, out_w, state.out_channels)

    @hot_path
    def _selu(self, index: int, x: np.ndarray) -> np.ndarray:
        out = self._arena.get((index, "out"), x.shape)
        scratch = self._arena.get((index, "scratch"), x.shape)
        return fused_selu(x, out, scratch)

    @hot_path
    def _softmax(self, index: int, x: np.ndarray) -> np.ndarray:
        out = self._arena.get((index, "out"), x.shape)
        np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= np.sum(out, axis=-1, keepdims=True)
        return out

    @hot_path
    def _maxpool(self, index: int, layer: MaxPool2D, x: np.ndarray) -> np.ndarray:
        ph, pw = layer.pool_size
        batch, channels = x.shape[0], x.shape[3]
        out_h = x.shape[1] // ph
        out_w = x.shape[2] // pw
        if out_h < 1 or out_w < 1:
            raise ComputeError(
                f"input spatial size {x.shape[1:3]} smaller than pool {layer.pool_size}"
            )
        out = self._arena.get((index, "out"), (batch, out_h, out_w, channels))
        return strided_max_pool(x, layer.pool_size, out=out, axis=1)

    @hot_path
    def _flatten(self, index: int, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            return x.reshape(x.shape[0], -1)
        # Restore the fp64 reference flattening order (channel-major NCHW).
        batch, height, width, channels = x.shape
        out = self._arena.get((index, "out"), (batch, channels * height * width))
        np.copyto(
            out.reshape(batch, channels, height, width), x.transpose(0, 3, 1, 2)
        )
        return out

    @hot_path
    def _attention(self, index: int, state: _AttentionState, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        stacked = self._arena.get((index, "att_in"), (batch, height, width, 2))
        np.max(x, axis=3, out=stacked[..., 0])
        np.mean(x, axis=3, out=stacked[..., 1])
        logits = self._conv((index, "att"), state.conv, stacked)
        weights = _fused_sigmoid_inplace(logits)  # in place on the conv arena
        out = self._arena.get((index, "out"), x.shape)
        np.multiply(x, weights, out=out)
        out += x  # skip connection
        return out


class Int8Backend(Fp32ArenaBackend):
    """Post-training int8 quantised inference (weights + activations).

    ``prepare`` quantises every ``Conv2D``/``Dense`` weight tensor
    per output channel; :meth:`calibrate` then runs a full-precision fp32
    pass over calibration batches, recording the absolute input range of
    each quantised GEMM to derive the symmetric activation scales.  Until
    calibration (or a restored serialised state) provides those scales, the
    backend refuses to run.

    Re-preparation (e.g. after ``set_weights``) re-quantises the weights but
    carries the existing activation scales over by layer position, so a
    fine-tuned model only needs re-calibration when its activation
    distributions actually changed.
    """

    name = "int8"

    def prepare(self, model) -> None:
        previous_scales: Dict[int, float] = {
            index: state.act_scale
            for index, state in enumerate(getattr(self, "_states", []))
            if isinstance(state, (_QuantDenseState, _QuantConvState))
            and state.act_scale is not None
        }
        super().prepare(model)
        for index, scale in previous_scales.items():
            state = self._states[index] if index < len(self._states) else None
            if isinstance(state, (_QuantDenseState, _QuantConvState)):
                state.set_act_scale(scale)

    def _make_dense_state(self, layer: Dense) -> _QuantDenseState:
        weight_q, scales = _quantize_weight(layer.weight, channel_axis=1)
        return _QuantDenseState(
            weight=np.ascontiguousarray(weight_q, dtype=np.float32),
            bias=layer.bias.astype(np.float32),
            weight_q=weight_q,
            weight_scale=scales,
        )

    def _make_conv_state(self, layer: Conv2D) -> _QuantConvState:
        weight_q, scales = _quantize_weight(layer.weight, channel_axis=0)
        return _QuantConvState(
            # lint: disable=dtype/float64 -- prepare-time im2col weights; int8 values round-trip fp64 exactly
            weight2d=_conv_weight2d(weight_q.astype(np.float64)),
            bias=layer.bias.astype(np.float32),
            kernel=layer.kernel_size,
            padding=layer.padding,
            in_channels=layer.weight.shape[1],
            out_channels=layer.weight.shape[0],
            weight_q=weight_q,
            weight_scale=scales,
        )

    @property
    def quantized_states(self) -> Dict[int, object]:
        """Per-layer-index quantised states (serialisation + tests)."""
        return {
            index: state
            for index, state in enumerate(self._states)
            if isinstance(state, (_QuantDenseState, _QuantConvState))
        }

    @property
    def calibrated(self) -> bool:
        """Whether every quantised layer has an activation scale."""
        states = self.quantized_states
        return bool(states) and all(
            state.act_scale is not None for state in states.values()
        )

    def calibrate(self, features: np.ndarray, batch_size: int = 256) -> "Int8Backend":
        """Derive activation scales from a calibration feature batch.

        ``features`` is a (normalised) model-input array, e.g. the training
        split of the Table-I dataset after feature extraction.  A throwaway
        fp32 backend replays it through the model, recording the max
        absolute input of every quantised GEMM; the symmetric activation
        scale of each layer is ``max_abs / 127``.
        """
        if self.model is None:
            raise ComputeError("prepare() must run before calibrate()")
        features = np.asarray(features)
        if features.shape[0] == 0:
            raise ComputeError("calibration requires at least one sample")
        reference = Fp32ArenaBackend()
        reference.prepare(self.model)
        max_abs: Dict[int, float] = {}
        fp32_to_index = {
            id(state): index for index, state in enumerate(reference._states)
        }

        def observe(state: object, x: np.ndarray) -> None:
            index = fp32_to_index.get(id(state))
            if index is not None and index in self.quantized_states:
                magnitude = float(np.max(np.abs(x))) if x.size else 0.0
                max_abs[index] = max(max_abs.get(index, 0.0), magnitude)

        reference.observer = observe
        for start in range(0, features.shape[0], batch_size):
            batch = features[start : start + batch_size]
            out = batch
            for index, layer in enumerate(self.model.layers):
                out = reference.forward_layer(index, layer, out)
        for index, state in self.quantized_states.items():
            magnitude = max_abs.get(index, 0.0)
            state.set_act_scale(magnitude / INT8_LEVELS if magnitude > 0.0 else 1.0)
        return self

    # -- serialisation of the quantised state ---------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Quantised weights, weight scales and activation scales by index."""
        arrays: Dict[str, np.ndarray] = {}
        for index, state in self.quantized_states.items():
            if state.act_scale is None:
                raise ComputeError(
                    "cannot serialise an uncalibrated int8 backend; run "
                    "calibrate() first"
                )
            prefix = f"{index:02d}"
            arrays[f"{prefix}/weight_q"] = state.weight_q
            arrays[f"{prefix}/weight_scale"] = state.weight_scale
            arrays[f"{prefix}/act_scale"] = np.asarray(state.act_scale)
        return arrays

    def load_state_dict(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore quantised weights and scales saved by :meth:`state_dict`."""
        stored = {int(key.split("/", 1)[0]) for key in arrays}
        expected = set(self.quantized_states)
        if stored != expected:
            raise ComputeError(
                f"int8 state does not match the model: stored layer indices "
                f"{sorted(stored)}, expected {sorted(expected)}"
            )
        for index, state in self.quantized_states.items():
            prefix = f"{index:02d}"
            weight_q = np.asarray(arrays[f"{prefix}/weight_q"], dtype=np.int8)
            if weight_q.shape != state.weight_q.shape:
                raise ComputeError(
                    f"int8 weight shape mismatch at layer {index}: stored "
                    f"{weight_q.shape}, expected {state.weight_q.shape}"
                )
            state.weight_q = weight_q
            state.weight_scale = np.asarray(
                arrays[f"{prefix}/weight_scale"], dtype=np.float32
            )
            if isinstance(state, _QuantConvState):
                # lint: disable=dtype/float64 -- prepare-time im2col weights; int8 values round-trip fp64 exactly
                state.weight2d = _conv_weight2d(weight_q.astype(np.float64))
            else:
                state.weight = np.ascontiguousarray(weight_q, dtype=np.float32)
            state.set_act_scale(float(arrays[f"{prefix}/act_scale"]))


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[], ComputeBackend]] = {}

#: Names accepted by ``--compute`` / ``set_compute`` (registration order).
COMPUTE_NAMES: Tuple[str, ...] = ()


def register_compute_backend(name: str, factory: Callable[[], ComputeBackend]) -> None:
    """Register a backend factory under ``name`` (latest registration wins)."""
    global COMPUTE_NAMES
    _REGISTRY[name] = factory
    if name not in COMPUTE_NAMES:
        COMPUTE_NAMES = COMPUTE_NAMES + (name,)


def compute_backend_names() -> Tuple[str, ...]:
    """Names of every registered compute backend.

    >>> compute_backend_names()
    ('exact', 'fp32', 'int8')
    """
    return COMPUTE_NAMES


def create_compute_backend(compute) -> ComputeBackend:
    """Instantiate a backend from a registry name (or pass one through)."""
    if isinstance(compute, ComputeBackend):
        return compute
    factory = _REGISTRY.get(compute)
    if factory is None:
        raise ComputeError(
            f"unknown compute backend {compute!r}; expected one of {COMPUTE_NAMES}"
        )
    return factory()


register_compute_backend("exact", ExactBackend)
register_compute_backend("fp32", Fp32ArenaBackend)
register_compute_backend("int8", Int8Backend)


__all__ = [
    "COMPUTE_NAMES",
    "ArenaPool",
    "ComputeBackend",
    "ComputeError",
    "ExactBackend",
    "Fp32ArenaBackend",
    "Int8Backend",
    "compute_backend_names",
    "create_compute_backend",
    "fused_selu",
    "register_compute_backend",
]
