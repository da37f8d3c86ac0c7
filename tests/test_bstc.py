"""Unit and property tests for BSTC two-state coding (repro.core.bstc)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bstc import (
    BSTCCodec,
    BSTCConfig,
    EncodedPlane,
    analytic_compression_ratio,
    column_zero_probability,
    decode_plane,
    default_plane_policy,
    encode_plane,
    plane_compression_ratio,
)
from repro.sparsity.synthetic import gaussian_int_weights


def _decode_plane_loop(encoded):
    """Symbol-by-symbol reference decoder for compressed planes."""
    rows, cols = encoded.shape
    m = encoded.group_size
    padded_rows = rows + ((-rows) % m)
    plane = np.zeros((padded_rows, cols), dtype=np.uint8)
    payload = encoded.payload
    pos = 0
    for start in range(0, padded_rows, m):
        for c in range(cols):
            if pos >= payload.size:
                raise ValueError("truncated BSTC payload")
            indicator = payload[pos]
            pos += 1
            if indicator:
                column = payload[pos : pos + m]
                if column.size < m:
                    raise ValueError("truncated BSTC payload")
                plane[start : start + m, c] = column
                pos += m
    if pos != payload.size:
        raise ValueError(
            f"BSTC payload has {payload.size - pos} trailing bits after decoding"
        )
    return plane[:rows]


def _with_payload(encoded, payload):
    return EncodedPlane(
        payload=np.asarray(payload, dtype=np.uint8),
        compressed=encoded.compressed,
        shape=encoded.shape,
        group_size=encoded.group_size,
    )


class TestEncodeDecodePlane:
    def test_roundtrip_random_plane(self):
        rng = np.random.default_rng(0)
        plane = (rng.random((16, 64)) < 0.2).astype(np.uint8)
        encoded = encode_plane(plane, group_size=4)
        assert np.array_equal(decode_plane(encoded), plane)

    def test_roundtrip_uncompressed(self):
        rng = np.random.default_rng(1)
        plane = (rng.random((7, 9)) < 0.5).astype(np.uint8)
        encoded = encode_plane(plane, group_size=4, compress=False)
        assert not encoded.compressed
        assert encoded.encoded_bits == plane.size
        assert np.array_equal(decode_plane(encoded), plane)

    def test_roundtrip_rows_not_multiple_of_group(self):
        rng = np.random.default_rng(2)
        plane = (rng.random((10, 13)) < 0.3).astype(np.uint8)
        encoded = encode_plane(plane, group_size=4)
        assert np.array_equal(decode_plane(encoded), plane)

    def test_all_zero_plane_compresses_to_one_bit_per_column(self):
        plane = np.zeros((8, 32), dtype=np.uint8)
        encoded = encode_plane(plane, group_size=4)
        # 2 row blocks x 32 columns, 1 bit each
        assert encoded.encoded_bits == 64
        assert encoded.compression_ratio == pytest.approx(4.0)

    def test_dense_plane_expands(self):
        plane = np.ones((8, 16), dtype=np.uint8)
        encoded = encode_plane(plane, group_size=4)
        # every column costs m+1 bits: expansion by (m+1)/m
        assert encoded.encoded_bits == plane.size // 4 * 5
        assert encoded.compression_ratio < 1.0

    def test_paper_coding_example(self):
        # {0000} -> {0} and {0001} -> {1 0001} (Fig. 8a)
        plane = np.array([[0, 1], [0, 0], [0, 0], [0, 0]], dtype=np.uint8)
        encoded = encode_plane(plane, group_size=4)
        assert encoded.payload.tolist() == [0, 1, 1, 0, 0, 0]

    def test_rejects_1d_plane(self):
        with pytest.raises(ValueError):
            encode_plane(np.array([0, 1]), group_size=4)

    def test_truncated_payload_raises(self):
        plane = np.ones((4, 4), dtype=np.uint8)
        encoded = encode_plane(plane, group_size=4)
        encoded.payload = encoded.payload[:-2]
        with pytest.raises(ValueError):
            decode_plane(encoded)

    def test_trailing_bits_raise(self):
        plane = np.ones((4, 4), dtype=np.uint8)
        encoded = encode_plane(plane, group_size=4)
        encoded.payload = np.concatenate([encoded.payload, [0]]).astype(np.uint8)
        with pytest.raises(ValueError, match="1 trailing bits"):
            decode_plane(encoded)

    def test_empty_plane_roundtrips(self):
        for shape in ((0, 5), (6, 0), (0, 0)):
            encoded = encode_plane(np.zeros(shape, dtype=np.uint8), group_size=3)
            assert encoded.encoded_bits == 0
            assert decode_plane(encoded).shape == shape

    def test_encode_rejects_non_binary_plane(self):
        for bad in (2, -1):
            plane = np.array([[bad, 0], [0, 0], [0, 0], [0, 0]])
            for compress in (True, False):
                with pytest.raises(ValueError, match="0/1"):
                    encode_plane(plane, group_size=4, compress=compress)

    def test_decode_rejects_non_binary_payload(self):
        plane = np.array([[0, 1], [0, 0], [0, 0], [0, 0]], dtype=np.uint8)
        for compress in (True, False):
            encoded = encode_plane(plane, group_size=4, compress=compress)
            payload = encoded.payload.copy()
            payload[np.flatnonzero(payload)[0]] = 2
            with pytest.raises(ValueError, match="0/1"):
                decode_plane(_with_payload(encoded, payload))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_property(self, rows, cols, density, m, seed):
        rng = np.random.default_rng(seed)
        plane = (rng.random((rows, cols)) < density).astype(np.uint8)
        encoded = encode_plane(plane, group_size=m)
        assert np.array_equal(decode_plane(encoded), plane)


class TestDecoderAgainstLoop:
    """The vectorised decoder equals the symbol-by-symbol loop, errors included."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_loop_and_rejects_bad_lengths(self, rows, cols, m, density, seed):
        rng = np.random.default_rng(seed)
        plane = (rng.random((rows, cols)) < density).astype(np.uint8)
        encoded = encode_plane(plane, group_size=m)
        decoded = decode_plane(encoded)
        assert decoded.dtype == np.uint8
        assert np.array_equal(decoded, _decode_plane_loop(encoded))
        assert np.array_equal(decoded, plane)

        payload = encoded.payload
        for cut in range(payload.size):
            with pytest.raises(ValueError, match="truncated BSTC payload"):
                decode_plane(_with_payload(encoded, payload[:cut]))
        for extra in range(1, m + 2):
            longer = np.concatenate([payload, rng.integers(0, 2, size=extra)])
            for decoder in (decode_plane, _decode_plane_loop):
                with pytest.raises(ValueError, match=f"{extra} trailing bits"):
                    decoder(_with_payload(encoded, longer))


class TestCompressionRatioModels:
    def test_analytic_cr_above_one_for_high_sparsity(self):
        assert analytic_compression_ratio(0.95, 4) > 1.0

    def test_analytic_cr_below_one_for_low_sparsity(self):
        assert analytic_compression_ratio(0.3, 4) < 1.0

    def test_cr_break_even_threshold(self):
        # the paper reports positive benefit above ~65 % sparsity; with fully
        # independent bits the analytic break-even sits slightly higher
        assert analytic_compression_ratio(0.8, 4) > 1.0
        assert analytic_compression_ratio(0.55, 4) < 1.0

    def test_column_zero_probability(self):
        assert column_zero_probability(0.5, 2) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            column_zero_probability(1.5, 2)

    def test_measured_cr_tracks_analytic(self):
        rng = np.random.default_rng(3)
        sparsity = 0.9
        plane = (rng.random((256, 256)) > sparsity).astype(np.uint8)
        measured = plane_compression_ratio(plane, group_size=4)
        analytic = analytic_compression_ratio(sparsity, 4)
        assert measured == pytest.approx(analytic, rel=0.1)

    def test_m1_never_beneficial(self):
        # with m = 1 the indicator doubles every non-zero bit
        for sr in (0.5, 0.8, 0.95):
            assert analytic_compression_ratio(sr, 1) <= 1.0

    def test_rejects_bad_group_size(self):
        with pytest.raises(ValueError):
            analytic_compression_ratio(0.9, 0)


class TestPlanePolicy:
    def test_threshold_policy(self):
        policy = default_plane_policy([0.4, 0.6, 0.7, 0.9], threshold=0.65)
        assert policy == [False, False, True, True]

    def test_codec_never_compresses_sign_plane(self):
        weights = gaussian_int_weights((32, 128), seed=4)
        encoded = BSTCCodec().encode(weights)
        assert (len(encoded.planes) - 1) not in encoded.compressed_plane_indices

    def test_codec_compresses_high_order_planes(self):
        weights = gaussian_int_weights((64, 1024), seed=5)
        encoded = BSTCCodec().encode(weights)
        # top magnitude planes (indices 5, 6 LSB-first of 0..6) should be coded
        assert 6 in encoded.compressed_plane_indices
        assert 5 in encoded.compressed_plane_indices


class TestCodecRoundtrip:
    def test_lossless_int8(self):
        weights = gaussian_int_weights((48, 256), seed=6)
        codec = BSTCCodec()
        assert np.array_equal(codec.decode(codec.encode(weights)), weights)

    def test_lossless_int4(self):
        weights = gaussian_int_weights((32, 128), bits=4, seed=7)
        codec = BSTCCodec(BSTCConfig(bits=4))
        assert np.array_equal(codec.decode(codec.encode(weights)), weights)

    def test_compression_ratio_above_one_for_llm_like_weights(self):
        weights = gaussian_int_weights((128, 2048), seed=8)
        encoded = BSTCCodec().encode(weights)
        assert encoded.compression_ratio > 1.0

    def test_report_fields(self):
        weights = gaussian_int_weights((16, 64), seed=9)
        report = BSTCCodec().compression_report(weights)
        assert set(report) == {
            "plane_sparsity",
            "compressed_planes",
            "raw_bits",
            "encoded_bits",
            "compression_ratio",
        }
        assert report["raw_bits"] == weights.size * 8

    def test_rejects_1d_weights(self):
        with pytest.raises(ValueError):
            BSTCCodec().encode(np.array([1, 2, 3]))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BSTCConfig(group_size=0)
        with pytest.raises(ValueError):
            BSTCConfig(sparsity_threshold=1.5)

    @pytest.mark.parametrize("bits", [2, 4, 8, 9, 10, 16, 17, 27, 32])
    def test_lossless_at_every_width(self, bits):
        hi = (1 << (bits - 1)) - 1
        rng = np.random.default_rng(bits)
        # mostly zeros and small magnitudes, so the planes are sparse enough
        # to be compressed, plus the extremes
        small = min(hi, 3)
        weights = rng.integers(-small, small + 1, size=(12, 40))
        weights *= rng.random((12, 40)) < 0.25
        weights[0, :3] = [hi, -hi, 0]
        weights[5, 7] = rng.integers(-hi, hi + 1)
        codec = BSTCCodec(BSTCConfig(bits=bits))
        encoded = codec.encode(weights)
        assert encoded.compressed_plane_indices
        decoded = codec.decode(encoded)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, weights)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_codec_roundtrip_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, size=(rows, cols))
        codec = BSTCCodec()
        assert np.array_equal(codec.decode(codec.encode(weights)), weights)
