"""Shared-memory frame transport for the process execution backend.

When :class:`~repro.core.service.StreamingService` runs its shards in child
*processes*, every sniffed observation has to cross a process boundary on
the hot path.  Pickling a NumPy ``V~`` matrix per frame through a
``multiprocessing.Queue`` would pay serialisation, copy and pipe-write costs
per frame - exactly the per-frame dispatch overhead the batched engine was
built to avoid.

:class:`ShmRing` is a bounded single-producer/single-consumer ring buffer in
a ``multiprocessing.shared_memory`` segment:

* the ring is divided into fixed-size **slots**; one record occupies
  ``ceil(record_bytes / slot_bytes)`` *consecutive* slots, so arbitrarily
  large frames are supported without per-record allocation;
* each record is a compact binary layout (:data:`_HEADER` + UTF-8 source
  address + raw payload bytes): the angle/``V~`` payload is copied **once**
  from producer memory into the shared segment and **once** out on the
  consumer side - no pickling anywhere on the frame path;
* free/filled accounting uses two ``multiprocessing`` semaphores, which
  double as the backpressure mechanism: a full ring blocks the producer
  exactly like the bounded ``queue.Queue`` of the thread backend;
* the producer-side blocking wait takes a ``liveness`` callback so a dead
  consumer process surfaces as an error instead of a hang.

Record kinds:

========================  ====================================================
:data:`RECORD_VTILDE`     a ready ``V~`` array (dtype + shape + raw bytes)
:data:`RECORD_FRAME`      a raw VHT action-frame payload (quantised angles)
:data:`RECORD_FLUSH`      control: flush the shard engine, ack with the
                          echoed ``sequence`` (used as a flush generation id)
:data:`RECORD_STOP`       control: flush, ack and exit the worker loop
:data:`RECORD_CODEWORDS`  a train of one or more frames' integer angle
                          codewords sharing one quantisation config and
                          geometry
:data:`RECORD_MODEL_SWAP` control: install a serialised
                          :class:`~repro.core.lifecycle.ModelVersion`, ack
                          with the version number
========================  ====================================================

The payload of :data:`RECORD_FRAME` is the packed angle report exactly as it
was on the air, so the worker-side engine parses and de-quantises it through
the *same* batched Givens path as the thread backend - the bitwise
verdict-parity invariant holds by construction.

:data:`RECORD_CODEWORDS` is the codeword-native wire form, and the one
record kind that carries a *train* of frames: the process backend collects
one shard's same-geometry codeword frames and ships them together, so the
ring, its semaphores and the worker's decode are paid once per train rather
than once per frame (a single frame is simply a train of one).  Its payload
is a 12-byte subheader (:data:`_CODEWORD_HEADER`: frame ``count`` as
``u32``, ``b_phi``, ``b_psi``, ``strict``, ``num_tx``, ``num_streams`` as
``u8``, ``num_subcarriers`` as ``u16`` and one pad byte), then an entry
table of ``count`` 18-byte rows (:data:`_CODEWORD_ENTRY`: sequence ``u64``,
capture timestamp ``f64``, source-address length ``u16``), then the
stacked little-endian ``int16`` ``q_phi`` planes of every frame, the
stacked ``q_psi`` planes, and finally the concatenated UTF-8 source
addresses (their per-sub-carrier angle counts follow from the geometry via
:func:`repro.feedback.givens.angle_counts`).  The consumer decodes the
planes with one :func:`numpy.frombuffer` and hands out per-frame views.
For the paper's 80 MHz ``(K, M, N_SS) = (234, 3, 2)`` geometry one frame
costs 2 808 plane bytes against the 22 464 bytes of the equivalent
complex128 ``V~`` record - about 8x less ring traffic - and reconstruction
moves behind the ring onto the worker side, where the engine's codeword
fast path consumes the codewords without ever materialising the angles.

:func:`unpack_record` raises :class:`TransportError`, and nothing else, for
every malformed record: truncated, of an unknown kind, with a non-UTF-8
source, a non-numeric dtype, a payload or entry table that overruns or
misses bytes, an invalid codebook or geometry, or codewords outside their
codebook.

:data:`RECORD_MODEL_SWAP` rides the same ring as the frames it must be
ordered against: because the ring is strictly FIFO, every frame enqueued
*before* the swap record is classified by the old model version and every
frame after it by the new one -- the per-shard epoch barrier of the
zero-downtime swap needs no extra synchronisation.  Its payload is a small
subheader (:data:`_SWAP_HEADER`: version ``u32``, has-threshold flag ``u8``,
threshold ``f64``, blob length ``u32``) followed by the ``.npz`` blob of
:meth:`~repro.core.lifecycle.ModelVersion.to_bytes`; the blob (hundreds of
KB for the paper model) simply spans as many consecutive slots as it needs.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.feedback.givens import GivensError, angle_counts
from repro.feedback.quantization import (
    QuantizationConfig,
    QuantizationError,
    QuantizedAngles,
)


class TransportError(RuntimeError):
    """Raised for invalid transport configurations or records."""


#: Record kinds (see the module docstring).
RECORD_VTILDE = 0
RECORD_FRAME = 1
RECORD_FLUSH = 2
RECORD_STOP = 3
RECORD_CODEWORDS = 4
RECORD_MODEL_SWAP = 5

_CONTROL_KINDS = (RECORD_FLUSH, RECORD_STOP)
_RECORD_KINDS = (
    RECORD_VTILDE,
    RECORD_FRAME,
    RECORD_FLUSH,
    RECORD_STOP,
    RECORD_CODEWORDS,
    RECORD_MODEL_SWAP,
)

#: Fixed record header: kind (u8), ndim (u8), dtype string (8 bytes,
#: NUL-padded, e.g. ``<c16``), source length (u16), payload bytes (u32),
#: service-wide sequence (u64), capture timestamp (f64), shape (4 x u32).
#: ``<`` keeps the layout packed and platform-independent.
_HEADER = struct.Struct("<BB8sHIQd4I")

#: Largest ndarray rank the header's fixed shape field can carry.
MAX_NDIM = 4

#: Subheader of :data:`RECORD_CODEWORDS` payloads: frame count (u32),
#: b_phi (u8), b_psi (u8), strict flag (u8), num_tx (u8), num_streams (u8),
#: num_subcarriers (u16), pad byte (keeps the int16 planes 2-byte aligned).
_CODEWORD_HEADER = struct.Struct("<IBBBBBHx")

#: One row of the :data:`RECORD_CODEWORDS` entry table per frame.
_CODEWORD_ENTRY = np.dtype(
    [("sequence", "<u8"), ("timestamp_s", "<f8"), ("source_bytes", "<u2")]
)

#: Wire dtype of the codeword planes (matches ``quantize_phi``'s output).
_CODEWORD_DTYPE = np.dtype("<i2")

#: Subheader of :data:`RECORD_MODEL_SWAP` payloads: version (u32),
#: has-threshold flag (u8), open-set threshold (f64), blob length (u32).
_SWAP_HEADER = struct.Struct("<IBdI")


@dataclass(frozen=True)
class ModelSwap:
    """Decoded payload of one :data:`RECORD_MODEL_SWAP` record.

    The transport layer stays ignorant of the blob's structure: ``blob`` is
    the opaque :meth:`~repro.core.lifecycle.ModelVersion.to_bytes` archive,
    while ``version`` and ``open_set_threshold`` are lifted into the
    subheader so the consumer can ack (and the lifecycle layer cross-check)
    without decoding the weights first.
    """

    version: int
    blob: bytes
    open_set_threshold: Optional[float] = None


class CodewordFrame(NamedTuple):
    """One frame of a :data:`RECORD_CODEWORDS` train."""

    sequence: int
    source: str
    timestamp_s: float
    quantized: QuantizedAngles


#: Bytes of a :data:`RECORD_CODEWORDS` record besides its frames.
CODEWORD_RECORD_OVERHEAD = _HEADER.size + _CODEWORD_HEADER.size


def check_codeword_frame(frame: CodewordFrame) -> Tuple[Tuple[Any, ...], bytes, int]:
    """Check that ``frame`` fits a :data:`RECORD_CODEWORDS` record.

    Returns the geometry every frame of one record must share, the frame's
    UTF-8 source address, and the bytes the frame adds to a record (entry
    row, codeword planes and source).  Raises :class:`TransportError` when
    the codebook or geometry does not fit the subheader, or the source
    address does not fit the entry table.
    """
    quantized = frame[3]
    config = quantized.config
    num_sub = quantized.num_subcarriers
    if not (
        0 <= config.b_phi <= 0xFF
        and 0 <= config.b_psi <= 0xFF
        and 0 <= quantized.num_tx <= 0xFF
        and 0 <= quantized.num_streams <= 0xFF
        and 0 <= num_sub <= 0xFFFF
    ):
        raise TransportError(
            f"(b_phi, b_psi, M, N_SS, K) = ({config.b_phi}, {config.b_psi}, "
            f"{quantized.num_tx}, {quantized.num_streams}, {num_sub}) does "
            f"not fit the codeword record subheader"
        )
    source = _encode_source(frame[1])
    geometry = (
        config,
        quantized.num_tx,
        quantized.num_streams,
        quantized.q_phi.shape,
        quantized.q_psi.shape,
    )
    size = (
        _CODEWORD_ENTRY.itemsize
        + _CODEWORD_DTYPE.itemsize * (quantized.q_phi.size + quantized.q_psi.size)
        + len(source)
    )
    return geometry, source, size


@dataclass(frozen=True)
class Record:
    """One decoded transport record."""

    kind: int
    sequence: int
    source: str
    timestamp_s: float
    #: Raw frame payload for :data:`RECORD_FRAME` records.
    payload: bytes = b""
    #: Decoded array for :data:`RECORD_VTILDE` records.
    array: Optional[np.ndarray] = None
    #: Decoded frames of a :data:`RECORD_CODEWORDS` train, in ship order.
    codewords: Tuple[CodewordFrame, ...] = ()
    #: Decoded swap payload for :data:`RECORD_MODEL_SWAP` records.
    swap: Optional[ModelSwap] = None


def pack_array_record(
    sequence: int, source: str, timestamp_s: float, array: np.ndarray
) -> bytes:
    """Encode a ready ``V~`` array as one :data:`RECORD_VTILDE` record."""
    if array.ndim > MAX_NDIM:
        raise TransportError(
            f"cannot transport a {array.ndim}-dimensional array "
            f"(the record header carries at most {MAX_NDIM} dimensions)"
        )
    dtype_str = array.dtype.str.encode("ascii")
    if len(dtype_str) > 8:
        raise TransportError(f"unsupported dtype {array.dtype!r}")
    payload = np.ascontiguousarray(array).tobytes()
    return _pack(
        RECORD_VTILDE,
        array.ndim,
        dtype_str,
        source,
        payload,
        sequence,
        timestamp_s,
        array.shape,
    )


def pack_frame_record(
    sequence: int, source: str, timestamp_s: float, payload: bytes
) -> bytes:
    """Encode a raw feedback-frame payload as one :data:`RECORD_FRAME`."""
    return _pack(
        RECORD_FRAME, 0, b"", source, bytes(payload), sequence, timestamp_s, ()
    )


def pack_codeword_record(
    frames: Sequence[CodewordFrame], sources: Optional[Sequence[bytes]] = None
) -> bytearray:
    """Encode a train of quantised-codeword frames as one :data:`RECORD_CODEWORDS`.

    ``frames`` are ``(sequence, source, timestamp_s, quantized)`` tuples that
    all share one geometry.  The record carries their raw ``int16`` codeword
    planes plus the quantisation config and matrix geometry -- everything
    the worker-side engine needs to run the codeword-native reconstruction
    fast path.  Each plane is copied once, straight into the returned
    record buffer.

    ``sources`` are the frames' UTF-8 source addresses as
    :func:`check_codeword_frame` returned them, from a caller that checked
    every frame while it collected the train; without them each frame is
    checked here.
    """
    if not frames:
        raise TransportError("a codeword record carries at least one frame")
    if sources is None:
        checked = [check_codeword_frame(frame) for frame in frames]
        if any(geometry != checked[0][0] for geometry, _, _ in checked):
            raise TransportError(
                "the frames of one codeword record must share one "
                "quantisation config and geometry"
            )
        sources = [source for _, source, _ in checked]
    count = len(frames)
    head = frames[0][3]
    blob = b"".join(sources)
    phi_size, psi_size = head.q_phi.size, head.q_psi.size
    table_at = CODEWORD_RECORD_OVERHEAD
    phi_at = table_at + count * _CODEWORD_ENTRY.itemsize
    psi_at = phi_at + 2 * count * phi_size
    sources_at = psi_at + 2 * count * psi_size
    record = bytearray(sources_at + len(blob))
    _HEADER.pack_into(
        record, 0, RECORD_CODEWORDS, 0, b"", 0, len(record) - _HEADER.size,
        frames[0][0], 0.0, 0, 0, 0, 0,
    )
    _CODEWORD_HEADER.pack_into(
        record,
        _HEADER.size,
        count,
        head.config.b_phi,
        head.config.b_psi,
        1 if head.config.strict else 0,
        head.num_tx,
        head.num_streams,
        head.num_subcarriers,
    )
    table = np.frombuffer(record, dtype=_CODEWORD_ENTRY, count=count, offset=table_at)
    table["sequence"] = [frame[0] for frame in frames]
    table["timestamp_s"] = [frame[2] for frame in frames]
    table["source_bytes"] = [len(encoded) for encoded in sources]
    for at, size, planes in (
        (phi_at, phi_size, [frame[3].q_phi for frame in frames]),
        (psi_at, psi_size, [frame[3].q_psi for frame in frames]),
    ):
        out = np.frombuffer(record, dtype=_CODEWORD_DTYPE, count=count * size, offset=at)
        np.concatenate(planes, axis=None, out=out, casting="unsafe")
    record[sources_at:] = blob
    return record


def pack_model_swap_record(
    sequence: int,
    version: int,
    blob: bytes,
    open_set_threshold: Optional[float] = None,
) -> bytes:
    """Encode a model-version install as one :data:`RECORD_MODEL_SWAP`.

    ``version`` must fit the subheader's ``u32``; the blob is carried
    verbatim and may span as many ring slots as it needs.
    """
    if not 0 < version <= 0xFFFFFFFF:
        raise TransportError(
            f"model version {version} does not fit the swap record subheader"
        )
    subheader = _SWAP_HEADER.pack(
        version,
        0 if open_set_threshold is None else 1,
        0.0 if open_set_threshold is None else float(open_set_threshold),
        len(blob),
    )
    return _pack(
        RECORD_MODEL_SWAP, 0, b"", "", subheader + bytes(blob), sequence, 0.0, ()
    )


def pack_control_record(kind: int, sequence: int = 0) -> bytes:
    """Encode a flush/stop control token (``sequence`` echoes back in acks)."""
    if kind not in _CONTROL_KINDS:
        raise TransportError(f"not a control record kind: {kind}")
    return _pack(kind, 0, b"", "", b"", sequence, 0.0, ())


def _pack(
    kind: int,
    ndim: int,
    dtype_str: bytes,
    source: str,
    payload: bytes,
    sequence: int,
    timestamp_s: float,
    shape: Tuple[int, ...],
) -> bytes:
    source_bytes = _encode_source(source)
    padded_shape = tuple(shape) + (0,) * (MAX_NDIM - len(shape))
    header = _HEADER.pack(
        kind,
        ndim,
        dtype_str,
        len(source_bytes),
        len(payload),
        sequence,
        timestamp_s,
        *padded_shape,
    )
    return header + source_bytes + payload


def unpack_record(data: bytes) -> Record:
    """Decode one record produced by the ``pack_*`` helpers.

    Every malformed input raises :class:`TransportError`; nothing else
    escapes.  Decoded arrays are views into ``data`` when it is writable
    (the ring hands out a fresh ``bytearray`` per record) and into a private
    copy otherwise.
    """
    if not isinstance(data, bytearray):
        data = bytearray(data)
    if len(data) < _HEADER.size:
        raise TransportError(
            f"truncated record header ({len(data)} of {_HEADER.size} bytes)"
        )
    (
        kind,
        ndim,
        dtype_str,
        source_len,
        payload_len,
        sequence,
        timestamp_s,
        *shape,
    ) = _HEADER.unpack_from(data)
    if kind not in _RECORD_KINDS:
        raise TransportError(f"unknown record kind {kind}")
    offset = _HEADER.size
    if len(data) < offset + source_len:
        raise TransportError("record truncated inside its source address")
    source = _decode_source(data[offset : offset + source_len])
    offset += source_len
    # The kind-specific decoders below check the payload length (and name
    # what is missing); frames and control records check it here.
    payload = memoryview(data)[offset : offset + payload_len]
    if kind == RECORD_VTILDE:
        return Record(
            kind,
            sequence,
            source,
            timestamp_s,
            array=_unpack_array(payload, ndim, dtype_str, shape),
        )
    if kind == RECORD_CODEWORDS:
        return Record(
            kind,
            sequence,
            source,
            timestamp_s,
            codewords=_unpack_codewords(payload),
        )
    if kind == RECORD_MODEL_SWAP:
        return Record(
            kind,
            sequence,
            source,
            timestamp_s,
            swap=_unpack_model_swap(payload),
        )
    if len(payload) != payload_len:
        raise TransportError(
            f"record payload has {len(payload)} bytes, its header declares "
            f"{payload_len}"
        )
    return Record(kind, sequence, source, timestamp_s, payload=bytes(payload))


def _encode_source(source: str) -> bytes:
    try:
        encoded = source.encode("utf-8")
    except UnicodeEncodeError as error:
        raise TransportError(f"source address is not UTF-8: {error}") from None
    if len(encoded) > 0xFFFF:
        raise TransportError(
            f"a {len(encoded)}-byte source address does not fit the record "
            f"(at most {0xFFFF} bytes)"
        )
    return encoded


def _decode_source(raw: Any) -> str:
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as error:
        raise TransportError(f"source address is not UTF-8: {error}") from None


def _unpack_array(
    payload: memoryview, ndim: int, dtype_str: bytes, shape: Sequence[int]
) -> np.ndarray:
    if ndim > MAX_NDIM:
        raise TransportError(f"array record declares {ndim} > {MAX_NDIM} dimensions")
    try:
        dtype = np.dtype(dtype_str.rstrip(b"\x00").decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError):
        raise TransportError(f"array record declares bad dtype {dtype_str!r}") from None
    if dtype.kind not in "biufc":
        raise TransportError(f"array record declares non-numeric dtype {dtype}")
    shape = tuple(shape[:ndim])
    if len(payload) != dtype.itemsize * math.prod(shape):
        raise TransportError(
            f"array record payload has {len(payload)} bytes, expected "
            f"{shape} x {dtype.itemsize}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


def _unpack_model_swap(payload: bytes) -> ModelSwap:
    if len(payload) < _SWAP_HEADER.size:
        raise TransportError("truncated model-swap record subheader")
    version, has_threshold, threshold, blob_len = _SWAP_HEADER.unpack_from(payload)
    blob = payload[_SWAP_HEADER.size :]
    if len(blob) != blob_len:
        raise TransportError(
            f"model-swap record blob has {len(blob)} bytes, expected {blob_len}"
        )
    return ModelSwap(
        version=version,
        blob=bytes(blob),
        open_set_threshold=float(threshold) if has_threshold else None,
    )


def _unpack_codewords(payload: Any) -> Tuple[CodewordFrame, ...]:
    if len(payload) < _CODEWORD_HEADER.size:
        raise TransportError("truncated codeword record subheader")
    (
        count,
        b_phi,
        b_psi,
        strict,
        num_tx,
        num_streams,
        num_sub,
    ) = _CODEWORD_HEADER.unpack_from(payload)
    if count < 1 or num_sub < 1 or strict > 1:
        raise TransportError(
            f"codeword record declares count={count}, K={num_sub}, "
            f"strict={strict}"
        )
    try:
        config = QuantizationConfig(b_phi=b_phi, b_psi=b_psi, strict=bool(strict))
        n_phi, n_psi = angle_counts(num_tx, num_streams)
    except (QuantizationError, GivensError) as error:
        raise TransportError(f"codeword record subheader: {error}") from None
    planes_at = _CODEWORD_HEADER.size + count * _CODEWORD_ENTRY.itemsize
    if planes_at > len(payload):
        raise TransportError(
            f"codeword record entry table of {count} frames overruns its "
            f"{len(payload)}-byte payload"
        )
    table = np.frombuffer(
        payload, dtype=_CODEWORD_ENTRY, count=count, offset=_CODEWORD_HEADER.size
    )
    phi_size, psi_size = num_sub * n_phi, num_sub * n_psi
    sources_at = planes_at + 2 * count * (phi_size + psi_size)
    entries = table.tolist()
    source_ends = list(itertools.accumulate(entry[2] for entry in entries))
    expected = sources_at + source_ends[-1]
    if len(payload) != expected:
        raise TransportError(
            f"codeword record payload has {len(payload)} bytes, expected "
            f"{expected} for {count} frames of (K, M, N_SS) = "
            f"({num_sub}, {num_tx}, {num_streams})"
        )
    planes = np.frombuffer(
        payload,
        dtype=_CODEWORD_DTYPE,
        count=count * (phi_size + psi_size),
        offset=planes_at,
    ).astype(np.int16, copy=False)
    q_phi = planes[: count * phi_size].reshape(count, num_sub, n_phi)
    q_psi = planes[count * phi_size :].reshape(count, num_sub, n_psi)
    for plane, levels, what in (
        (q_phi, config.phi_levels, "phi"),
        (q_psi, config.psi_levels, "psi"),
    ):
        # Negative codewords read as >= 2**15 through the unsigned view.
        if int(plane.view(np.uint16).max()) >= min(levels, 1 << 15):
            raise TransportError(
                f"codeword record carries {what} codewords outside [0, {levels})"
            )
    blob = payload[sources_at:]
    frames = []
    start = 0
    for index, ((sequence, timestamp_s, _), end) in enumerate(
        zip(entries, source_ends)
    ):
        frames.append(
            CodewordFrame(
                sequence,
                _decode_source(blob[start:end]),
                timestamp_s,
                QuantizedAngles(
                    q_phi=q_phi[index],
                    q_psi=q_psi[index],
                    config=config,
                    num_tx=num_tx,
                    num_streams=num_streams,
                ),
            )
        )
        start = end
    return tuple(frames)


class ShmRing:
    """Bounded SPSC ring of fixed-size slots in shared memory.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context whose semaphores synchronise the two
        sides (must be the same context the worker process is spawned from).
    num_slots:
        Ring capacity in slots; doubles as the backpressure bound (the
        process-backend analogue of the thread backend's ``queue_depth``).
    slot_bytes:
        Slot size.  Records larger than one slot span consecutive slots; a
        record may use at most ``num_slots`` of them.

    Notes
    -----
    Exactly one producer (the service's router, serialised by a per-shard
    lock) and one consumer (the worker process) may use a ring.  The head
    and tail indices are private to their side; the semaphores carry all
    cross-process synchronisation, so no index ever needs to be shared.
    """

    def __init__(self, context: Any, num_slots: int, slot_bytes: int) -> None:
        if num_slots < 1:
            raise TransportError("num_slots must be >= 1")
        if slot_bytes < _HEADER.size:
            raise TransportError(
                f"slot_bytes must be >= the {_HEADER.size}-byte record header"
            )
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=num_slots * slot_bytes
        )
        try:
            self._free_slots = context.Semaphore(num_slots)
            self._filled_records = context.Semaphore(0)
        except BaseException:
            # Semaphore construction can fail (e.g. the host's named-semaphore
            # quota); without this the freshly created segment would outlive
            # the process under /dev/shm.
            self._shm.close()
            self._shm.unlink()
            raise
        self._head = 0
        self._tail = 0
        self._closed = False
        self._owner = True

    @property
    def name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self._shm.name

    def slots_needed(self, record_bytes: int) -> int:
        return max(1, -(-record_bytes // self.slot_bytes))

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(
        self,
        record: bytes,
        on_wait: Optional[Callable[[], None]] = None,
        liveness: Optional[Callable[[], None]] = None,
    ) -> None:
        """Write one record, blocking while the ring is full (backpressure).

        ``on_wait`` fires once if the call had to block (the service counts
        these as ``queue_full_waits``); ``liveness`` is polled while blocked
        so a dead consumer raises instead of deadlocking the producer.
        """
        needed = self.slots_needed(len(record))
        if needed > self.num_slots:
            raise TransportError(
                f"a {len(record)}-byte record needs {needed} slots but the "
                f"ring only has {self.num_slots}; raise queue_depth or "
                f"slot_bytes"
            )
        blocked = False
        for _ in range(needed):
            if self._free_slots.acquire(block=False):
                continue
            if not blocked:
                blocked = True
                if on_wait is not None:
                    on_wait()
            while not self._free_slots.acquire(timeout=0.1):
                if liveness is not None:
                    liveness()
        view = self._shm.buf
        source = memoryview(record)
        offset = 0
        for index in range(needed):
            slot = (self._head + index) % self.num_slots
            chunk = source[offset : offset + self.slot_bytes]
            start = slot * self.slot_bytes
            view[start : start + len(chunk)] = chunk
            offset += len(chunk)
        self._head = (self._head + needed) % self.num_slots
        self._filled_records.release()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def get(self) -> Record:
        """Read the next record (blocks until one is available)."""
        self._filled_records.acquire()
        view = self._shm.buf
        start = self._tail * self.slot_bytes
        _, _, _, source_len, payload_len, *_ = _HEADER.unpack_from(view, start)
        total = _HEADER.size + source_len + payload_len
        needed = self.slots_needed(total)
        data = bytearray(total)
        offset = 0
        for index in range(needed):
            slot = (self._tail + index) % self.num_slots
            take = min(self.slot_bytes, total - offset)
            begin = slot * self.slot_bytes
            data[offset : offset + take] = view[begin : begin + take]
            offset += take
        self._tail = (self._tail + needed) % self.num_slots
        for _ in range(needed):
            self._free_slots.release()
        return unpack_record(data)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the segment (either side; idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator side only; idempotent)."""
        self.close()
        if not self._owner:
            return
        self._owner = False
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------ #
    # Pickling (spawn start-method fallback)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {
            "num_slots": self.num_slots,
            "slot_bytes": self.slot_bytes,
            "shm_name": self._shm.name,
            "free_slots": self._free_slots,
            "filled_records": self._filled_records,
        }

    def __setstate__(self, state: dict) -> None:
        self.num_slots = state["num_slots"]
        self.slot_bytes = state["slot_bytes"]
        self._shm = shared_memory.SharedMemory(name=state["shm_name"])
        self._free_slots = state["free_slots"]
        self._filled_records = state["filled_records"]
        self._head = 0
        self._tail = 0
        self._closed = False
        self._owner = False


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with ``name`` still exists.

    Used by the leak tests: after :meth:`ShmRing.unlink` this must be
    ``False`` for every ring the service created.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


__all__ = [
    "CODEWORD_RECORD_OVERHEAD",
    "CodewordFrame",
    "MAX_NDIM",
    "ModelSwap",
    "RECORD_CODEWORDS",
    "RECORD_FLUSH",
    "RECORD_FRAME",
    "RECORD_MODEL_SWAP",
    "RECORD_STOP",
    "RECORD_VTILDE",
    "Record",
    "ShmRing",
    "TransportError",
    "check_codeword_frame",
    "pack_array_record",
    "pack_codeword_record",
    "pack_control_record",
    "pack_frame_record",
    "pack_model_swap_record",
    "segment_exists",
    "unpack_record",
]
