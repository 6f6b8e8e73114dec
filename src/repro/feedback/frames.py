"""VHT compressed beamforming frame packing and parsing.

The beamformee packs the quantised feedback angles into a *VHT Compressed
Beamforming* action frame.  The frame is transmitted unencrypted, so a
monitor-mode observer (Wireshark in the paper) can read:

* the **VHT MIMO control field**: number of columns (``N_SS``), number of
  rows (``M``), channel bandwidth and the codebook (i.e. ``b_phi``/``b_psi``),
* the **beamforming report**: the angle codewords, ``b_phi``/``b_psi`` bits
  each, packed little-endian bit-first in the standard transmission order
  (per sub-carrier: all angles of that sub-carrier).

This module implements a faithful (if simplified) binary layout plus the
parser DeepCSI's observer uses, so the whole pipeline exercises a realistic
capture path: angles -> bytes on air -> parsed bytes -> reconstructed ``V~``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.feedback.givens import FeedbackAngles
from repro.feedback.quantization import (
    QuantizationConfig,
    QuantizedAngles,
    dequantize_angles,
)

#: Frame-format magic marker (not part of the standard; guards the parser).
_FRAME_MAGIC = 0xBF
#: Map bandwidth in MHz <-> 2-bit field value used in the control field.
_BANDWIDTH_CODES = {20: 0, 40: 1, 80: 2, 160: 3}
_BANDWIDTH_FROM_CODE = {code: mhz for mhz, code in _BANDWIDTH_CODES.items()}


class FrameError(ValueError):
    """Raised when a feedback frame cannot be packed or parsed."""


@dataclass(frozen=True)
class VhtMimoControl:
    """Subset of the VHT MIMO control field relevant to DeepCSI.

    Attributes
    ----------
    num_columns:
        ``N_SS`` - number of columns of the beamforming matrix.
    num_rows:
        ``M`` - number of rows of the beamforming matrix.
    bandwidth_mhz:
        Channel bandwidth the feedback refers to.
    codebook:
        ``0`` for (b_psi, b_phi) = (5, 7), ``1`` for (7, 9); MU-MIMO feedback
        uses codebook 1 in the paper's testbed.
    num_subcarriers:
        Number of sub-carriers carried in the report.
    """

    num_columns: int
    num_rows: int
    bandwidth_mhz: int
    codebook: int
    num_subcarriers: int

    def __post_init__(self) -> None:
        if not 1 <= self.num_columns <= 8:
            raise FrameError("num_columns must be in 1..8")
        if not 2 <= self.num_rows <= 8:
            raise FrameError("num_rows must be in 2..8")
        if self.num_columns > self.num_rows:
            raise FrameError("num_columns must not exceed num_rows")
        if self.bandwidth_mhz not in _BANDWIDTH_CODES:
            raise FrameError(f"unsupported bandwidth {self.bandwidth_mhz} MHz")
        if self.codebook not in (0, 1):
            raise FrameError("codebook must be 0 or 1")
        if self.num_subcarriers < 1:
            raise FrameError("num_subcarriers must be >= 1")

    @property
    def quantization(self) -> QuantizationConfig:
        """Quantisation configuration implied by the codebook bit."""
        if self.codebook == 0:
            return QuantizationConfig(b_phi=7, b_psi=5)
        return QuantizationConfig(b_phi=9, b_psi=7)


@dataclass(frozen=True)
class FeedbackFrame:
    """A captured compressed-beamforming frame.

    Attributes
    ----------
    source_address:
        MAC address of the beamformee that sent the feedback.
    destination_address:
        MAC address of the beamformer (the AP under authentication).
    timestamp_s:
        Capture timestamp.
    payload:
        Raw frame bytes (control field + angle report).
    """

    source_address: str
    destination_address: str
    timestamp_s: float
    payload: bytes


#: Header: magic (8 bits), N_SS - 1 (3), M - 1 (3), bandwidth code (2),
#: codebook (1), number of sub-carriers (12) and reserved padding (3).
_HEADER_BYTES = 4
_SUBCARRIER_FIELD_BITS = 12


@dataclass(frozen=True)
class _ReportLayout:
    """Bit layout of one sub-carrier of the angle report.

    Fields follow the standard transmission order; ``phi_fields[j]`` and
    ``psi_fields[j]`` are the field indices of angle column ``j``.  Per bit,
    ``shifts`` is the bit position inside its field and ``weights`` is
    ``2 ** shifts``.
    """

    bits_per_subcarrier: int
    widths: np.ndarray
    starts: np.ndarray
    phi_fields: np.ndarray
    psi_fields: np.ndarray
    field_of_bit: np.ndarray
    shifts: np.ndarray
    weights: np.ndarray


# The 3-bit/3-bit/1-bit header fields bound the keys to at most 112, so
# hostile frames cannot grow the cache and nothing is ever evicted.
@functools.lru_cache(maxsize=128)
def _report_layout(num_rows: int, num_columns: int, b_phi: int, b_psi: int) -> _ReportLayout:
    widths, phi_fields, psi_fields = [], [], []
    for i in range(min(num_columns, num_rows - 1)):
        for fields, width in ((phi_fields, b_phi), (psi_fields, b_psi)):
            fields.extend(range(len(widths), len(widths) + num_rows - 1 - i))
            widths.extend([width] * (num_rows - 1 - i))
    width_array = np.array(widths, dtype=np.intp)
    field_of_bit = np.repeat(np.arange(len(widths)), width_array)
    starts = np.concatenate(([0], np.cumsum(width_array)[:-1]))
    shifts = np.arange(field_of_bit.size) - starts[field_of_bit]
    layout = _ReportLayout(
        bits_per_subcarrier=int(width_array.sum()),
        widths=width_array,
        starts=starts,
        phi_fields=np.array(phi_fields, dtype=np.intp),
        psi_fields=np.array(psi_fields, dtype=np.intp),
        field_of_bit=field_of_bit,
        shifts=shifts,
        weights=(1 << shifts).astype(np.int16),
    )
    for value in vars(layout).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return layout


def _layout_for(control: VhtMimoControl) -> _ReportLayout:
    config = control.quantization
    return _report_layout(control.num_rows, control.num_columns, config.b_phi, config.b_psi)


def pack_feedback_frame(quantized: QuantizedAngles, control: VhtMimoControl) -> bytes:
    """Serialise a quantised feedback into frame bytes.

    The layout is: one magic byte, the control field (3 bytes), then the
    angle report: for every sub-carrier, the angles in standard transmission
    order, ``b_phi``/``b_psi`` bits each, little-endian bit-first.
    """
    if control.num_rows != quantized.num_tx:
        raise FrameError("control.num_rows must match the quantised feedback")
    if control.num_columns != quantized.num_streams:
        raise FrameError("control.num_columns must match the quantised feedback")
    if control.num_subcarriers != quantized.num_subcarriers:
        raise FrameError("control.num_subcarriers must match the quantised feedback")
    expected_cfg = control.quantization
    if (expected_cfg.b_phi, expected_cfg.b_psi) != (quantized.config.b_phi, quantized.config.b_psi):
        raise FrameError("codebook bit inconsistent with the quantisation config")
    num_subcarriers = control.num_subcarriers
    if num_subcarriers >= 1 << _SUBCARRIER_FIELD_BITS:
        raise FrameError(f"value {num_subcarriers} does not fit in {_SUBCARRIER_FIELD_BITS} bits")
    header = (
        _FRAME_MAGIC
        | (control.num_columns - 1) << 8
        | (control.num_rows - 1) << 11
        | _BANDWIDTH_CODES[control.bandwidth_mhz] << 14
        | control.codebook << 16
        | num_subcarriers << 17
    )
    layout = _layout_for(control)
    fields = np.empty((num_subcarriers, layout.widths.size), dtype=np.int64)
    fields[:, layout.phi_fields] = quantized.q_phi
    fields[:, layout.psi_fields] = quantized.q_psi
    out_of_range = (fields < 0) | (fields >= 1 << layout.widths)
    if out_of_range.any():
        k, field = np.argwhere(out_of_range)[0]
        raise FrameError(
            f"value {fields[k, field]} does not fit in {layout.widths[field]} bits"
        )
    bits = (fields[:, layout.field_of_bit] >> layout.shifts) & 1
    report = np.packbits(bits.astype(np.uint8).ravel(), bitorder="little")
    return header.to_bytes(_HEADER_BYTES, "little") + report.tobytes()


def parse_feedback_frame(payload: bytes) -> Tuple[VhtMimoControl, QuantizedAngles]:
    """Parse frame bytes back into the control field and ``int16`` codewords."""
    if len(payload) < _HEADER_BYTES:
        raise FrameError("frame truncated in header")
    header = int.from_bytes(payload[:_HEADER_BYTES], "little")
    if header & 0xFF != _FRAME_MAGIC:
        raise FrameError("not a compressed beamforming frame (bad magic)")
    control = VhtMimoControl(
        num_columns=(header >> 8 & 0b111) + 1,
        num_rows=(header >> 11 & 0b111) + 1,
        bandwidth_mhz=_BANDWIDTH_FROM_CODE[header >> 14 & 0b11],
        codebook=header >> 16 & 1,
        num_subcarriers=header >> 17 & (1 << _SUBCARRIER_FIELD_BITS) - 1,
    )
    layout = _layout_for(control)
    report_bits = control.num_subcarriers * layout.bits_per_subcarrier
    if len(payload) * 8 < _HEADER_BYTES * 8 + report_bits:
        raise FrameError("frame truncated while reading angle report")
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8, offset=_HEADER_BYTES),
        count=report_bits,
        bitorder="little",
    ).reshape(control.num_subcarriers, layout.bits_per_subcarrier)
    fields = np.add.reduceat(bits * layout.weights, layout.starts, axis=1, dtype=np.int16)
    quantized = QuantizedAngles(
        q_phi=fields[:, layout.phi_fields],
        q_psi=fields[:, layout.psi_fields],
        config=control.quantization,
        num_tx=control.num_rows,
        num_streams=control.num_columns,
    )
    return control, quantized


def frame_to_angles(payload: bytes) -> FeedbackAngles:
    """Parse a frame and de-quantise its angles in one step."""
    _, quantized = parse_feedback_frame(payload)
    return dequantize_angles(quantized)


def frame_size_bytes(control: VhtMimoControl) -> int:
    """Size of a packed frame for the given control configuration [bytes]."""
    report_bits = control.num_subcarriers * _layout_for(control).bits_per_subcarrier
    return _HEADER_BYTES + (report_bits + 7) // 8
