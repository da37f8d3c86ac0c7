"""Unit and property tests for bit-slice decomposition (repro.core.bitslice)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitslice import (
    BitSliceTensor,
    from_bitslices,
    int_range,
    mean_bit_sparsity,
    sign_magnitude_combine,
    sign_magnitude_split,
    slice_sparsity,
    to_bitslices,
    value_sparsity,
)


class TestIntRange:
    def test_int8_range(self):
        assert int_range(8) == (-128, 127)

    def test_int4_range(self):
        assert int_range(4) == (-8, 7)

    def test_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            int_range(1)


class TestSignMagnitude:
    def test_split_signs(self):
        values = np.array([-5, 0, 7, -1])
        sign, mag = sign_magnitude_split(values)
        assert sign.tolist() == [1, 0, 0, 1]
        assert mag.tolist() == [5, 0, 7, 1]

    def test_combine_is_inverse(self):
        values = np.array([-120, -1, 0, 3, 127])
        sign, mag = sign_magnitude_split(values)
        assert np.array_equal(sign_magnitude_combine(sign, mag), values)


class TestToFromBitslices:
    @pytest.mark.parametrize("fmt", ["sign_magnitude", "twos_complement"])
    def test_roundtrip_small_matrix(self, fmt):
        rng = np.random.default_rng(0)
        lo = -127 if fmt == "sign_magnitude" else -128
        values = rng.integers(lo, 128, size=(13, 17))
        slices = to_bitslices(values, bits=8, fmt=fmt)
        assert len(slices) == 8
        assert np.array_equal(from_bitslices(slices, fmt=fmt), values)

    def test_slices_are_binary(self):
        values = np.array([[-7, 3], [0, 127]])
        for plane in to_bitslices(values, bits=8):
            assert set(np.unique(plane)).issubset({0, 1})

    def test_known_decomposition_twos_complement(self):
        slices = to_bitslices(np.array([5]), bits=4, fmt="twos_complement")
        # 5 = 0101
        assert [int(s[0]) for s in slices] == [1, 0, 1, 0]

    def test_known_decomposition_sign_magnitude(self):
        slices = to_bitslices(np.array([-5]), bits=4, fmt="sign_magnitude")
        # magnitude 5 = 101, sign bit set
        assert [int(s[0]) for s in slices] == [1, 0, 1, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            to_bitslices(np.array([200]), bits=8)

    def test_sign_magnitude_rejects_min_int(self):
        # -128 is not representable in 8-bit sign-magnitude
        with pytest.raises(ValueError):
            to_bitslices(np.array([-128]), bits=8, fmt="sign_magnitude")

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            to_bitslices(np.array([1.5]), bits=8)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            to_bitslices(np.array([1]), bits=8, fmt="gray_code")

    def test_empty_slices_rejected(self):
        with pytest.raises(ValueError):
            from_bitslices([])

    @pytest.mark.parametrize("bits", [2, 4, 8, 9, 10, 16, 17, 27, 32])
    @pytest.mark.parametrize("fmt", ["sign_magnitude", "twos_complement"])
    def test_roundtrip_extremes_at_every_width(self, bits, fmt):
        lo, hi = int_range(bits)
        if fmt == "sign_magnitude":
            lo = -hi
        values = np.array([[lo, hi, 0], [1, -1, hi - 1]], dtype=np.int64)
        restored = from_bitslices(to_bitslices(values, bits=bits, fmt=fmt), fmt=fmt)
        assert restored.dtype == np.int64
        assert np.array_equal(restored, values)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(min_value=-127, max_value=127), min_size=1, max_size=64),
        st.sampled_from(["sign_magnitude", "twos_complement"]),
    )
    def test_roundtrip_property(self, values, fmt):
        arr = np.array(values)
        slices = to_bitslices(arr, bits=8, fmt=fmt)
        assert np.array_equal(from_bitslices(slices, fmt=fmt), arr)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=32))
    def test_roundtrip_int4(self, values):
        arr = np.array(values)
        slices = to_bitslices(arr, bits=4)
        assert np.array_equal(from_bitslices(slices), arr)


class TestSparsityMetrics:
    def test_value_sparsity_counts_zeros(self):
        assert value_sparsity(np.array([0, 1, 0, 2])) == pytest.approx(0.5)

    def test_value_sparsity_empty(self):
        assert value_sparsity(np.array([])) == 0.0

    def test_slice_sparsity_all_zero_plane(self):
        planes = [np.zeros((4, 4), dtype=np.uint8), np.ones((4, 4), dtype=np.uint8)]
        assert slice_sparsity(planes) == [1.0, 0.0]

    def test_bit_sparsity_exceeds_value_sparsity_for_gaussian(self):
        from repro.sparsity.synthetic import gaussian_int_weights

        weights = gaussian_int_weights((64, 512), seed=1)
        assert mean_bit_sparsity(weights) > value_sparsity(weights)

    def test_mean_bit_sparsity_small_values(self):
        # value 1 has only the LSB set: planes 2..7 are fully sparse
        weights = np.ones((4, 4), dtype=np.int64)
        bs = mean_bit_sparsity(weights, bits=8)
        assert bs == pytest.approx(6.0 / 7.0)


class TestBitSliceTensor:
    def test_reconstruct_matches_values(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-127, 128, size=(8, 8))
        tensor = BitSliceTensor.from_values(values)
        assert np.array_equal(tensor.reconstruct(), values)

    def test_magnitude_and_sign_plane_split(self):
        tensor = BitSliceTensor.from_values(np.array([[-3, 3]]))
        assert len(tensor.magnitude_slices) == 7
        assert tensor.sign_plane.tolist() == [[1, 0]]

    def test_plane_sparsity_order_lsb_first(self):
        # value 64 = only bit 6 set
        tensor = BitSliceTensor.from_values(np.full((2, 2), 64))
        sparsity = tensor.plane_sparsity()
        assert sparsity[6] == 0.0
        assert all(s == 1.0 for i, s in enumerate(sparsity[:-1]) if i != 6)

    def test_twos_complement_tensor_has_no_sign_plane_accessor(self):
        tensor = BitSliceTensor.from_values(np.array([[1]]), fmt="twos_complement")
        with pytest.raises(ValueError):
            _ = tensor.sign_plane
        with pytest.raises(ValueError):
            _ = tensor.magnitude_slices

    def test_shape_property(self):
        tensor = BitSliceTensor.from_values(np.zeros((3, 5), dtype=np.int64))
        assert tensor.shape == (3, 5)
