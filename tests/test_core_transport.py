"""Tests for the shared-memory frame transport of the process backend."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lifecycle import LifecycleError, ModelVersion
from repro.core.transport import (
    _CODEWORD_ENTRY,
    _CODEWORD_HEADER,
    _HEADER,
    CODEWORD_RECORD_OVERHEAD,
    RECORD_CODEWORDS,
    RECORD_FLUSH,
    RECORD_FRAME,
    RECORD_MODEL_SWAP,
    RECORD_STOP,
    RECORD_VTILDE,
    CodewordFrame,
    ShmRing,
    TransportError,
    check_codeword_frame,
    pack_array_record,
    pack_codeword_record,
    pack_control_record,
    pack_frame_record,
    pack_model_swap_record,
    segment_exists,
    unpack_record,
)
from repro.feedback.givens import angle_counts
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles


@pytest.fixture()
def context():
    return multiprocessing.get_context()


class TestRecordCodec:
    def test_array_record_roundtrip_preserves_bits(self):
        rng = np.random.default_rng(3)
        array = rng.standard_normal((17, 3, 2)) + 1j * rng.standard_normal((17, 3, 2))
        encoded = pack_array_record(42, "02:00:00:00:00:07", 12.5, array)
        record = unpack_record(encoded)
        assert record.kind == RECORD_VTILDE
        assert record.sequence == 42
        assert record.source == "02:00:00:00:00:07"
        assert record.timestamp_s == 12.5
        assert record.array.dtype == array.dtype
        assert record.array.shape == array.shape
        np.testing.assert_array_equal(record.array, array)

    def test_frame_record_roundtrip(self):
        payload = bytes(range(256)) * 3
        encoded = pack_frame_record(7, "aa:bb", 1.25, payload)
        record = unpack_record(encoded)
        assert record.kind == RECORD_FRAME
        assert record.sequence == 7
        assert record.source == "aa:bb"
        assert record.payload == payload

    def test_control_records(self):
        for kind in (RECORD_FLUSH, RECORD_STOP):
            record = unpack_record(pack_control_record(kind, sequence=9))
            assert record.kind == kind
            assert record.sequence == 9
        with pytest.raises(TransportError):
            pack_control_record(RECORD_VTILDE)

    def test_rejects_untransportable_arrays(self):
        with pytest.raises(TransportError):
            pack_array_record(0, "s", 0.0, np.zeros((2, 2, 2, 2, 2)))


class TestShmRing:
    def test_put_get_fifo(self, context):
        ring = ShmRing(context, num_slots=8, slot_bytes=256)
        try:
            for sequence in range(5):
                ring.put(pack_frame_record(sequence, "src", 0.0, b"x" * 32))
            for sequence in range(5):
                assert ring.get().sequence == sequence
        finally:
            ring.unlink()

    def test_large_record_spans_multiple_slots(self, context):
        """An oversize V~ frame must survive a tiny-slot ring bit for bit."""
        ring = ShmRing(context, num_slots=64, slot_bytes=128)
        rng = np.random.default_rng(5)
        array = rng.standard_normal((30, 3, 2)) + 1j * rng.standard_normal((30, 3, 2))
        try:
            assert ring.slots_needed(len(pack_array_record(0, "s", 0.0, array))) > 1
            ring.put(pack_array_record(3, "02:aa", 0.5, array))
            record = ring.get()
            np.testing.assert_array_equal(record.array, array)
            assert record.sequence == 3
        finally:
            ring.unlink()

    def test_record_larger_than_ring_rejected(self, context):
        ring = ShmRing(context, num_slots=2, slot_bytes=64)
        try:
            with pytest.raises(TransportError):
                ring.put(b"z" * 1024)
        finally:
            ring.unlink()

    def test_backpressure_invokes_on_wait(self, context):
        """A full ring blocks; draining in another thread unblocks the put."""
        import threading

        ring = ShmRing(context, num_slots=1, slot_bytes=256)
        waits = []
        try:
            ring.put(pack_control_record(RECORD_FLUSH))

            def drain_later():
                ring.get()

            drainer = threading.Timer(0.05, drain_later)
            drainer.start()
            ring.put(pack_control_record(RECORD_FLUSH), on_wait=lambda: waits.append(1))
            drainer.join()
            assert waits == [1]
        finally:
            ring.unlink()

    def test_unlink_destroys_segment(self, context):
        ring = ShmRing(context, num_slots=2, slot_bytes=128)
        name = ring.name
        assert segment_exists(name)
        ring.unlink()
        ring.unlink()  # idempotent
        assert not segment_exists(name)

    def test_invalid_configuration_rejected(self, context):
        with pytest.raises(TransportError):
            ShmRing(context, num_slots=0, slot_bytes=256)
        with pytest.raises(TransportError):
            ShmRing(context, num_slots=4, slot_bytes=8)

    def test_init_failure_after_create_releases_segment(self):
        """Regression (found by repro-lint shm/missing-cleanup): a semaphore
        construction failure after SharedMemory(create=True) must not leak
        the freshly created segment."""
        created_names = []
        original = ShmRing.__init__

        class FailingContext:
            def Semaphore(self, value):
                raise OSError("named-semaphore quota exhausted")

        def capturing_init(ring, context, num_slots, slot_bytes):
            try:
                original(ring, context, num_slots, slot_bytes)
            finally:
                shm = ring.__dict__.get("_shm")
                if shm is not None:
                    created_names.append(shm.name)

        ShmRing.__init__ = capturing_init
        try:
            with pytest.raises(OSError, match="quota"):
                ShmRing(FailingContext(), num_slots=2, slot_bytes=128)
        finally:
            ShmRing.__init__ = original
        assert len(created_names) == 1
        assert not segment_exists(created_names[0])


class TestModelSwapCodec:
    """RECORD_MODEL_SWAP mirrors the codeword-record codec guarantees."""

    @staticmethod
    def _version(version=3, threshold=0.75, size=4):
        rng = np.random.default_rng(11)
        return ModelVersion(
            version=version,
            weights={
                "00_conv/weight": rng.standard_normal((size, size)),
                "00_conv/bias": rng.standard_normal(size),
            },
            open_set_threshold=threshold,
        )

    def test_swap_record_roundtrip_preserves_bits(self):
        original = self._version()
        encoded = pack_model_swap_record(
            9, original.version, original.to_bytes(), original.open_set_threshold
        )
        record = unpack_record(encoded)
        assert record.kind == RECORD_MODEL_SWAP
        assert record.sequence == 9
        assert record.swap.version == 3
        assert record.swap.open_set_threshold == pytest.approx(0.75)
        decoded = ModelVersion.from_bytes(
            record.swap.blob, expected_version=record.swap.version
        )
        assert decoded.version == original.version
        assert set(decoded.weights) == set(original.weights)
        for name, value in original.weights.items():
            np.testing.assert_array_equal(decoded.weights[name], value)

    def test_swap_record_without_threshold(self):
        original = self._version(threshold=None)
        record = unpack_record(
            pack_model_swap_record(0, original.version, original.to_bytes())
        )
        assert record.swap.open_set_threshold is None

    def test_version_field_bounds(self):
        blob = self._version().to_bytes()
        for bad_version in (0, -1, 2**32):
            with pytest.raises(TransportError, match="swap record subheader"):
                pack_model_swap_record(0, bad_version, blob)

    def test_truncated_subheader_rejected(self):
        encoded = pack_model_swap_record(1, 2, self._version(version=2).to_bytes())
        with pytest.raises(TransportError, match="truncated model-swap"):
            unpack_record(encoded[: len(encoded) - len(self._version().to_bytes()) - 4])

    def test_truncated_blob_rejected(self):
        encoded = pack_model_swap_record(1, 3, self._version().to_bytes())
        with pytest.raises(TransportError, match="blob has"):
            unpack_record(encoded[:-7])

    def test_announced_version_mismatch_detected(self):
        """The transport ships the blob verbatim; the lifecycle decoder must
        catch a payload whose embedded version disagrees with the record."""
        swap = unpack_record(
            pack_model_swap_record(0, 5, self._version(version=4).to_bytes())
        ).swap
        with pytest.raises(LifecycleError, match="mismatch"):
            ModelVersion.from_bytes(swap.blob, expected_version=swap.version)

    def test_corrupt_blob_rejected(self):
        blob = self._version().to_bytes()
        with pytest.raises(LifecycleError, match="truncated or corrupt"):
            ModelVersion.from_bytes(blob[: len(blob) // 2])

    def test_oversized_swap_spans_multiple_ring_slots(self, context):
        """A multi-KB weight snapshot must survive a tiny-slot ring bit for
        bit, exactly like the oversized V~ records."""
        ring = ShmRing(context, num_slots=256, slot_bytes=128)
        original = self._version(version=6, size=32)
        encoded = pack_model_swap_record(
            6, original.version, original.to_bytes(), original.open_set_threshold
        )
        try:
            assert ring.slots_needed(len(encoded)) > 1
            ring.put(encoded)
            record = ring.get()
            assert record.kind == RECORD_MODEL_SWAP
            decoded = ModelVersion.from_bytes(
                record.swap.blob, expected_version=record.swap.version
            )
            for name, value in original.weights.items():
                np.testing.assert_array_equal(decoded.weights[name], value)
        finally:
            ring.unlink()


def _codewords(seed, num_sub=4, num_tx=3, num_streams=2, config=None):
    config = config or QuantizationConfig()
    n_phi, n_psi = angle_counts(num_tx, num_streams)
    rng = np.random.default_rng(seed)
    return QuantizedAngles(
        q_phi=rng.integers(0, config.phi_levels, (num_sub, n_phi)).astype(np.int16),
        q_psi=rng.integers(0, config.psi_levels, (num_sub, n_psi)).astype(np.int16),
        config=config,
        num_tx=num_tx,
        num_streams=num_streams,
    )


def _train_payload(count, b_phi=9, b_psi=7, strict=1, num_tx=3, num_streams=2,
                   num_sub=4, source_bytes=0, plane_bytes=None):
    """A hand-built RECORD_CODEWORDS payload (codewords all zero)."""
    # Invalid geometries get the planes of (M, N_SS) = (3, 2).
    valid = 2 <= num_tx and 1 <= num_streams <= num_tx
    n_phi, n_psi = angle_counts(num_tx, num_streams) if valid else (3, 3)
    if plane_bytes is None:
        plane_bytes = 2 * count * num_sub * (n_phi + n_psi)
    table = np.zeros(count, dtype=_CODEWORD_ENTRY)
    table["source_bytes"] = source_bytes
    return (
        _CODEWORD_HEADER.pack(count, b_phi, b_psi, strict, num_tx, num_streams, num_sub)
        + table.tobytes()
        + b"\x00" * plane_bytes
        + b"s" * (count * source_bytes)
    )


def _record(payload):
    return _HEADER.pack(RECORD_CODEWORDS, 0, b"", 0, len(payload), 0, 0.0, 0, 0, 0, 0) + payload


class TestCodewordTrainCodec:
    def test_train_roundtrip_keeps_every_frame(self):
        frames = [
            (11, "02:00:00:00:00:01", 0.5, _codewords(1)),
            (12, "b\u00e9ta", 1.5, _codewords(2)),  # non-ASCII address
            (40, "", 2.5, _codewords(3)),
        ]
        record = unpack_record(pack_codeword_record(frames))
        assert record.kind == RECORD_CODEWORDS
        assert len(record.codewords) == len(frames)
        for (sequence, source, timestamp_s, quantized), frame in zip(
            frames, record.codewords
        ):
            assert frame.sequence == sequence
            assert frame.source == source
            assert frame.timestamp_s == timestamp_s
            decoded = frame.quantized
            assert decoded.config == quantized.config
            assert (decoded.num_tx, decoded.num_streams) == (3, 2)
            assert decoded.q_phi.dtype == np.int16
            np.testing.assert_array_equal(decoded.q_phi, quantized.q_phi)
            np.testing.assert_array_equal(decoded.q_psi, quantized.q_psi)

    def test_single_frame_record_is_a_train_of_one(self):
        one = pack_codeword_record([(0, "a", 0.0, _codewords(0))])
        two = pack_codeword_record(
            [(0, "a", 0.0, _codewords(0)), (1, "a", 0.0, _codewords(1))]
        )
        assert len(two) - len(one) == len(one) - _HEADER.size - _CODEWORD_HEADER.size

    def test_pack_rejects_empty_and_mixed_trains(self):
        with pytest.raises(TransportError, match="at least one"):
            pack_codeword_record([])
        low = QuantizationConfig(b_phi=7, b_psi=5)
        for other in (_codewords(1, config=low), _codewords(1, num_sub=5),
                      _codewords(1, num_tx=4)):
            with pytest.raises(TransportError, match="share one"):
                pack_codeword_record([(0, "a", 0.0, _codewords(0)), (1, "a", 0.0, other)])

    @pytest.mark.parametrize(
        "source, match",
        [("x" * 70_000, "does not fit the record"), ("\ud800", "not UTF-8")],
        ids=["too-long", "lone-surrogate"],
    )
    def test_unencodable_sources_rejected(self, source, match):
        frame = CodewordFrame(0, source, 0.0, _codewords(0))
        with pytest.raises(TransportError, match=match):
            check_codeword_frame(frame)
        with pytest.raises(TransportError, match=match):
            pack_codeword_record([frame])
        with pytest.raises(TransportError, match=match):
            pack_frame_record(0, source, 0.0, b"payload")

    def test_checked_frame_size_is_its_share_of_the_record(self):
        frames = [
            CodewordFrame(index, "b\u00e9ta" * index, 0.0, _codewords(index))
            for index in range(3)
        ]
        checked = [check_codeword_frame(frame) for frame in frames]
        record = pack_codeword_record(frames, [source for _, source, _ in checked])
        assert record == pack_codeword_record(frames)
        assert len(record) == CODEWORD_RECORD_OVERHEAD + sum(
            size for _, _, size in checked
        )

    def test_valid_hand_built_payload_decodes(self):
        record = unpack_record(_record(_train_payload(2, source_bytes=1)))
        assert [frame.source for frame in record.codewords] == ["s", "s"]

    def test_entry_table_overrun_rejected(self):
        payload = _train_payload(1)
        with pytest.raises(TransportError, match="overruns"):
            unpack_record(_record(_CODEWORD_HEADER.pack(1000, 9, 7, 1, 3, 2, 4) + payload[12:]))

    def test_source_lengths_overrun_rejected(self):
        payload = bytearray(_train_payload(1))
        payload[_CODEWORD_HEADER.size + 16] = 200  # source_bytes, low byte
        with pytest.raises(TransportError, match="expected"):
            unpack_record(_record(bytes(payload)))

    def test_plane_length_mismatch_rejected(self):
        with pytest.raises(TransportError, match="expected"):
            unpack_record(_record(_train_payload(3, plane_bytes=2 * 3 * 4 * 6 - 2)))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(b_phi=8, b_psi=7),  # not a standard codebook
            dict(b_phi=0, b_psi=0, strict=0),  # zero-width codewords
            dict(num_tx=2, num_streams=3),  # N_SS > M
            dict(num_tx=1, num_streams=1),  # no rotation to feed back
            dict(strict=2),
            dict(num_sub=0),
        ],
    )
    def test_bad_subheader_rejected(self, fields):
        with pytest.raises(TransportError):
            unpack_record(_record(_train_payload(1, **fields)))

    def test_out_of_range_codewords_rejected(self):
        for value in (512, -1):
            quantized = _codewords(0)
            quantized.q_phi[0, 0] = value
            data = pack_codeword_record([(0, "a", 0.0, quantized)])
            with pytest.raises(TransportError, match="outside"):
                unpack_record(data)


def _valid_records():
    rng = np.random.default_rng(5)
    return [
        pack_codeword_record(
            [(index, f"src-{index}", float(index), _codewords(index)) for index in range(3)]
        ),
        pack_array_record(3, "aa:bb", 1.0, rng.standard_normal((4, 3, 2))),
        pack_frame_record(4, "aa:cc", 2.0, bytes(range(40))),
        pack_control_record(RECORD_FLUSH, 5),
        pack_model_swap_record(6, 2, b"blob" * 8, 0.5),
    ]


VALID_RECORDS = _valid_records()


def _assert_decodes_in_range(data):
    """``unpack_record`` either raises TransportError or returns a record
    whose arrays have the shapes and ranges its header declares."""
    try:
        record = unpack_record(data)
    except TransportError:
        return
    assert isinstance(record.source, str)
    if record.kind == RECORD_CODEWORDS:
        assert record.codewords
        for frame in record.codewords:
            assert isinstance(frame.source, str)
            quantized = frame.quantized
            n_phi, n_psi = angle_counts(quantized.num_tx, quantized.num_streams)
            num_sub = quantized.num_subcarriers
            assert num_sub >= 1
            assert quantized.q_phi.shape == (num_sub, n_phi)
            assert quantized.q_psi.shape == (num_sub, n_psi)
            assert quantized.q_phi.dtype == quantized.q_psi.dtype == np.int16
            for plane, levels in (
                (quantized.q_phi, quantized.config.phi_levels),
                (quantized.q_psi, quantized.config.psi_levels),
            ):
                assert 0 <= plane.min() and plane.max() < levels
    elif record.kind == RECORD_VTILDE:
        assert record.array.ndim <= 4
        assert record.array.dtype.kind in "biufc"
    elif record.kind == RECORD_MODEL_SWAP:
        assert isinstance(record.swap.blob, bytes)


class TestUnpackRecordFuzz:
    """Malformed records raise TransportError and nothing else."""

    def test_valid_records_decode(self):
        for data in VALID_RECORDS:
            unpack_record(data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=600))
    def test_random_bytes(self, data):
        _assert_decodes_in_range(data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(range(len(VALID_RECORDS))),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=8),
    )
    def test_byte_flips(self, which, flips):
        data = bytearray(VALID_RECORDS[which])
        for position, value in flips:
            data[position % len(data)] = value
        _assert_decodes_in_range(bytes(data))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(VALID_RECORDS))), st.integers(0, 10**6))
    def test_truncations(self, which, cut):
        data = VALID_RECORDS[which]
        _assert_decodes_in_range(data[: cut % len(data)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(
            st.integers(0, 3) | st.integers(0, 2**32 - 1),  # count
            st.sampled_from([0, 5, 7, 9, 255]),  # b_phi
            st.sampled_from([0, 5, 7, 9, 255]),  # b_psi
            st.integers(0, 2),  # strict
            st.integers(0, 4),  # num_tx
            st.integers(0, 4),  # num_streams
            st.integers(0, 3) | st.integers(0, 2**16 - 1),  # num_subcarriers
        ),
        st.binary(max_size=400),
    )
    def test_arbitrary_codeword_subheaders(self, subheader, rest):
        _assert_decodes_in_range(_record(_CODEWORD_HEADER.pack(*subheader) + rest))
