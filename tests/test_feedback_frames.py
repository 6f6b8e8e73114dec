"""Unit tests for the VHT compressed-beamforming frame packing/parsing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.feedback.frames import (
    FeedbackFrame,
    FrameError,
    VhtMimoControl,
    frame_size_bytes,
    frame_to_angles,
    pack_feedback_frame,
    parse_feedback_frame,
)
from repro.feedback.givens import angle_counts, compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles, quantize_angles
from tests.conftest import random_unitary_columns

_BANDWIDTH_CODES = {20: 0, 40: 1, 80: 2, 160: 3}


class _BitWriter:
    """Reference oracle: append integers as fixed-width little-endian bit fields."""

    def __init__(self):
        self._bits = []

    def write(self, value, width):
        if value < 0 or value >= (1 << width):
            raise FrameError(f"value {value} does not fit in {width} bits")
        for bit in range(width):
            self._bits.append((value >> bit) & 1)

    def to_bytes(self):
        data = bytearray()
        for start in range(0, len(self._bits), 8):
            byte = 0
            for offset, bit in enumerate(self._bits[start : start + 8]):
                byte |= bit << offset
            data.append(byte)
        return bytes(data)


class _BitReader:
    """Reference oracle: read fixed-width little-endian bit fields from bytes."""

    def __init__(self, data):
        self._data = data
        self._cursor = 0

    def read(self, width):
        value = 0
        for bit in range(width):
            byte_index, bit_index = divmod(self._cursor + bit, 8)
            if byte_index >= len(self._data):
                raise FrameError("frame truncated while reading angle report")
            value |= ((self._data[byte_index] >> bit_index) & 1) << bit
        self._cursor += width
        return value


def _report_order(control):
    """``(is_psi, column)`` of every report field in transmission order."""
    order, phi, psi = [], 0, 0
    for i in range(min(control.num_columns, control.num_rows - 1)):
        run = control.num_rows - 1 - i
        order += [(False, phi + j) for j in range(run)] + [(True, psi + j) for j in range(run)]
        phi, psi = phi + run, psi + run
    return order


def oracle_pack(quantized, control):
    """Bit-at-a-time frame packer the vectorised one must match byte for byte."""
    writer = _BitWriter()
    writer.write(0xBF, 8)
    writer.write(control.num_columns - 1, 3)
    writer.write(control.num_rows - 1, 3)
    writer.write(_BANDWIDTH_CODES[control.bandwidth_mhz], 2)
    writer.write(control.codebook, 1)
    writer.write(control.num_subcarriers, 12)
    writer.write(0, 3)
    config = control.quantization
    for k in range(control.num_subcarriers):
        for is_psi, column in _report_order(control):
            if is_psi:
                writer.write(int(quantized.q_psi[k, column]), config.b_psi)
            else:
                writer.write(int(quantized.q_phi[k, column]), config.b_phi)
    return writer.to_bytes()


def oracle_parse(payload):
    """Bit-at-a-time frame parser the vectorised one must match field for field."""
    reader = _BitReader(payload)
    if reader.read(8) != 0xBF:
        raise FrameError("not a compressed beamforming frame (bad magic)")
    num_columns = reader.read(3) + 1
    num_rows = reader.read(3) + 1
    bandwidth_mhz = {code: mhz for mhz, code in _BANDWIDTH_CODES.items()}[reader.read(2)]
    codebook = reader.read(1)
    num_subcarriers = reader.read(12)
    reader.read(3)
    control = VhtMimoControl(num_columns, num_rows, bandwidth_mhz, codebook, num_subcarriers)
    config = control.quantization
    n_phi, n_psi = angle_counts(num_rows, num_columns)
    q_phi = np.zeros((num_subcarriers, n_phi), dtype=np.int16)
    q_psi = np.zeros((num_subcarriers, n_psi), dtype=np.int16)
    for k in range(num_subcarriers):
        for is_psi, column in _report_order(control):
            if is_psi:
                q_psi[k, column] = reader.read(config.b_psi)
            else:
                q_phi[k, column] = reader.read(config.b_phi)
    return control, q_phi, q_psi


def make_quantized(rng, num_sub=16, num_tx=3, num_streams=2, b_phi=9, b_psi=7):
    v = random_unitary_columns(rng, num_sub, num_tx, num_streams)
    angles = compress_v_matrix(v)
    return quantize_angles(angles, QuantizationConfig(b_phi=b_phi, b_psi=b_psi))


def make_control(quantized, bandwidth_mhz=80):
    return VhtMimoControl(
        num_columns=quantized.num_streams,
        num_rows=quantized.num_tx,
        bandwidth_mhz=bandwidth_mhz,
        codebook=1 if quantized.config.b_phi == 9 else 0,
        num_subcarriers=quantized.num_subcarriers,
    )


class TestVhtMimoControl:
    def test_codebook_implies_quantization(self):
        control = VhtMimoControl(2, 3, 80, 1, 234)
        assert control.quantization.b_phi == 9
        control = VhtMimoControl(2, 3, 80, 0, 234)
        assert control.quantization.b_phi == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_columns=0, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=1, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=30, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=80, codebook=2, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=0),
            dict(num_columns=4, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(FrameError):
            VhtMimoControl(**kwargs)


class TestFramePacking:
    def test_roundtrip_recovers_codewords_and_control(self, rng):
        quantized = make_quantized(rng)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        parsed_control, parsed = parse_feedback_frame(payload)
        assert parsed_control == control
        np.testing.assert_array_equal(parsed.q_phi, quantized.q_phi)
        np.testing.assert_array_equal(parsed.q_psi, quantized.q_psi)
        assert parsed.q_phi.dtype == parsed.q_psi.dtype == quantized.q_phi.dtype == np.int16

    def test_roundtrip_with_low_codebook(self, rng):
        quantized = make_quantized(rng, b_phi=7, b_psi=5)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        _, parsed = parse_feedback_frame(payload)
        np.testing.assert_array_equal(parsed.q_phi, quantized.q_phi)
        assert parsed.config.b_phi == 7

    def test_roundtrip_single_stream(self, rng):
        quantized = make_quantized(rng, num_streams=1)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        _, parsed = parse_feedback_frame(payload)
        np.testing.assert_array_equal(parsed.q_psi, quantized.q_psi)

    def test_payload_size_matches_prediction(self, rng):
        quantized = make_quantized(rng, num_sub=30)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        assert len(payload) == frame_size_bytes(control)

    def test_frame_to_angles_dequantises(self, rng):
        quantized = make_quantized(rng)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        angles = frame_to_angles(payload)
        assert angles.phi.shape == quantized.q_phi.shape
        assert np.all(angles.phi >= 0) and np.all(angles.phi < 2 * np.pi)

    def test_mismatched_control_rejected(self, rng):
        quantized = make_quantized(rng)
        bad_control = VhtMimoControl(
            num_columns=1,  # quantized feedback has 2 streams
            num_rows=quantized.num_tx,
            bandwidth_mhz=80,
            codebook=1,
            num_subcarriers=quantized.num_subcarriers,
        )
        with pytest.raises(FrameError):
            pack_feedback_frame(quantized, bad_control)

    def test_codebook_mismatch_rejected(self, rng):
        quantized = make_quantized(rng, b_phi=9, b_psi=7)
        control = VhtMimoControl(
            num_columns=quantized.num_streams,
            num_rows=quantized.num_tx,
            bandwidth_mhz=80,
            codebook=0,  # implies b_phi = 7
            num_subcarriers=quantized.num_subcarriers,
        )
        with pytest.raises(FrameError):
            pack_feedback_frame(quantized, control)

    def test_bad_magic_rejected(self, rng):
        quantized = make_quantized(rng)
        payload = pack_feedback_frame(quantized, make_control(quantized))
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        with pytest.raises(FrameError):
            parse_feedback_frame(corrupted)

    def test_truncated_frame_rejected(self, rng):
        quantized = make_quantized(rng)
        payload = pack_feedback_frame(quantized, make_control(quantized))
        with pytest.raises(FrameError):
            parse_feedback_frame(payload[: len(payload) // 2])

    def test_header_truncation_has_its_own_message(self, rng):
        quantized = make_quantized(rng)
        payload = pack_feedback_frame(quantized, make_control(quantized))
        for length in range(4):
            with pytest.raises(FrameError, match="frame truncated in header"):
                parse_feedback_frame(payload[:length])
        with pytest.raises(FrameError, match="while reading angle report"):
            parse_feedback_frame(payload[:4])

    @pytest.mark.parametrize("value", [-1, 512])
    def test_out_of_range_codeword_rejected_like_the_oracle(self, rng, value):
        quantized = make_quantized(rng)
        quantized.q_phi[5, 1] = value
        control = make_control(quantized)
        with pytest.raises(FrameError) as expected:
            oracle_pack(quantized, control)
        with pytest.raises(FrameError, match=f"^{re.escape(str(expected.value))}$"):
            pack_feedback_frame(quantized, control)

    def test_subcarrier_count_must_fit_the_header_field(self, rng):
        quantized = make_quantized(rng, num_sub=4096, num_tx=2, num_streams=1)
        with pytest.raises(FrameError, match="4096 does not fit in 12 bits"):
            pack_feedback_frame(quantized, make_control(quantized))


@st.composite
def frame_geometries(draw, max_subcarriers=300):
    """A random codeword report and a control field that describes it."""
    num_rows = draw(st.integers(2, 8))
    num_columns = draw(st.integers(1, num_rows))
    codebook = draw(st.integers(0, 1))
    num_subcarriers = draw(st.integers(1, max_subcarriers))
    control = VhtMimoControl(
        num_columns, num_rows, draw(st.sampled_from(sorted(_BANDWIDTH_CODES))),
        codebook, num_subcarriers,
    )
    config = control.quantization
    n_phi, n_psi = angle_counts(num_rows, num_columns)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quantized = QuantizedAngles(
        q_phi=rng.integers(0, config.phi_levels, (num_subcarriers, n_phi)).astype(np.int16),
        q_psi=rng.integers(0, config.psi_levels, (num_subcarriers, n_psi)).astype(np.int16),
        config=config,
        num_tx=num_rows,
        num_streams=num_columns,
    )
    return quantized, control


def _parse_or_error(parse, payload):
    try:
        return parse(payload)
    except FrameError as error:
        return str(error)


class TestAgainstScalarOracle:
    @given(frame_geometries())
    @settings(max_examples=40, deadline=None)
    def test_pack_parse_round_trip_matches_oracle(self, geometry):
        quantized, control = geometry
        payload = pack_feedback_frame(quantized, control)
        assert payload == oracle_pack(quantized, control)
        assert len(payload) == frame_size_bytes(control)
        parsed_control, parsed = parse_feedback_frame(payload)
        oracle_control, oracle_phi, oracle_psi = oracle_parse(payload)
        assert parsed_control == oracle_control == control
        for got, want, expected in (
            (parsed.q_phi, oracle_phi, quantized.q_phi),
            (parsed.q_psi, oracle_psi, quantized.q_psi),
        ):
            assert got.dtype == np.int16
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, expected)


class TestHostileFrames:
    """Over the air, any byte string may arrive: parse must reject or bound it."""

    def _check(self, payload):
        result = _parse_or_error(parse_feedback_frame, payload)
        if len(payload) >= 4:
            oracle = _parse_or_error(oracle_parse, payload)
            if isinstance(result, str):
                assert result == oracle
            else:
                assert result[0] == oracle[0]
                np.testing.assert_array_equal(result[1].q_phi, oracle[1])
                np.testing.assert_array_equal(result[1].q_psi, oracle[2])
        if isinstance(result, str):
            return
        control, quantized = result
        n_phi, n_psi = angle_counts(control.num_rows, control.num_columns)
        config = control.quantization
        assert quantized.q_phi.shape == (control.num_subcarriers, n_phi)
        assert quantized.q_psi.shape == (control.num_subcarriers, n_psi)
        assert 0 <= quantized.q_phi.min() and quantized.q_phi.max() < 2**config.b_phi
        assert 0 <= quantized.q_psi.min() and quantized.q_psi.max() < 2**config.b_psi

    @given(st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, payload):
        self._check(payload)

    @given(st.binary(min_size=4, max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_report_behind_a_valid_magic(self, payload):
        self._check(b"\xbf" + payload[1:])

    @given(
        frame_geometries(max_subcarriers=40),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
        st.none() | st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_flipped_and_truncated_valid_frames(self, geometry, flips, keep):
        payload = bytearray(pack_feedback_frame(*geometry))
        for position, mask in flips:
            payload[position % len(payload)] ^= mask
        if keep is not None:
            payload = payload[: keep % (len(payload) + 1)]
        self._check(bytes(payload))


class TestFeedbackFrameDataclass:
    def test_carries_addresses_and_payload(self):
        frame = FeedbackFrame(
            source_address="02:00:00:00:00:01",
            destination_address="02:00:00:00:aa:00",
            timestamp_s=1.5,
            payload=b"\x00\x01",
        )
        assert frame.source_address.endswith(":01")
        assert frame.payload == b"\x00\x01"
