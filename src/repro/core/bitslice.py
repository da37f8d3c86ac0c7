"""Bit-slice decomposition of integer tensors.

MCBP operates on *bit-slice* (BS) matrices: an INT-quantised ``k``-bit tensor
is decomposed into ``k`` binary tensors, one per bit position, such that the
original tensor can be reconstructed exactly by a weighted sum of the slices
(a shift-and-accumulate, see paper Fig. 4a).

Two binary representations are supported:

* ``"twos_complement"`` -- the natural representation of signed integers;
  the most significant slice carries weight ``-2**(k-1)``.
* ``"sign_magnitude"`` -- the representation MCBP uses for weights (paper
  §3.2), because the magnitude planes of near-Gaussian weights are extremely
  sparse in the high-order bits.  Slice ``k-1`` is the sign bit and the
  remaining slices encode ``|w|``.

All functions are pure and operate on NumPy integer arrays of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "BitSliceTensor",
    "to_bitslices",
    "from_bitslices",
    "slice_sparsity",
    "value_sparsity",
    "mean_bit_sparsity",
    "sign_magnitude_split",
    "sign_magnitude_combine",
    "int_range",
]

_FORMATS = ("twos_complement", "sign_magnitude")


def int_range(bits: int) -> tuple[int, int]:
    """Return the inclusive ``(lo, hi)`` range of a signed ``bits``-bit integer."""
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _check_range(values: np.ndarray, bits: int, fmt: str) -> None:
    lo, hi = int_range(bits)
    if fmt == "sign_magnitude":
        # sign-magnitude cannot represent -2**(k-1); symmetric range only.
        lo = -hi
    vmin = int(values.min()) if values.size else 0
    vmax = int(values.max()) if values.size else 0
    if vmin < lo or vmax > hi:
        raise ValueError(
            f"values outside representable range [{lo}, {hi}] for "
            f"{bits}-bit {fmt}: observed [{vmin}, {vmax}]"
        )


def sign_magnitude_split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split integers into a sign plane (1 for negative) and magnitude."""
    values = np.asarray(values)
    sign = (values < 0).astype(np.uint8)
    magnitude = np.abs(values).astype(np.int64)
    return sign, magnitude


def sign_magnitude_combine(sign: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sign_magnitude_split`."""
    sign = np.asarray(sign)
    magnitude = np.asarray(magnitude, dtype=np.int64)
    return np.where(sign.astype(bool), -magnitude, magnitude)


def to_bitslices(
    values: np.ndarray,
    bits: int = 8,
    fmt: str = "sign_magnitude",
    validate: bool = True,
) -> List[np.ndarray]:
    """Decompose an integer array into ``bits`` binary slices.

    The returned list is ordered LSB first: ``slices[i]`` carries weight
    ``2**i`` (for two's complement the final slice carries ``-2**(bits-1)``;
    for sign-magnitude it is the sign plane).

    Parameters
    ----------
    values:
        Signed integer array.
    bits:
        Total bit width, including the sign bit.
    fmt:
        ``"sign_magnitude"`` (default, used for MCBP weights) or
        ``"twos_complement"``.
    validate:
        If true, raise when a value is not representable.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"expected an integer array, got dtype {values.dtype}")
    if validate:
        _check_range(values, bits, fmt)

    slices: List[np.ndarray] = []
    if fmt == "twos_complement":
        # Interpreting as unsigned bit pattern of the two's complement word.
        pattern = np.asarray(values, dtype=np.int64) & ((1 << bits) - 1)
        for i in range(bits):
            slices.append(((pattern >> i) & 1).astype(np.uint8))
    else:
        sign, magnitude = sign_magnitude_split(values)
        for i in range(bits - 1):
            slices.append(((magnitude >> i) & 1).astype(np.uint8))
        slices.append(sign)
    return slices


def from_bitslices(
    slices: Sequence[np.ndarray],
    fmt: str = "sign_magnitude",
) -> np.ndarray:
    """Reassemble integer values from binary slices (inverse of :func:`to_bitslices`)."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    if not slices:
        raise ValueError("need at least one bit slice")
    bits = len(slices)
    if fmt == "twos_complement":
        arrays = [np.asarray(s, dtype=np.int64) for s in slices]
        total = np.zeros_like(arrays[0])
        for i in range(bits - 1):
            total = total + (arrays[i] << i)
        total = total - (arrays[bits - 1] << (bits - 1))
        return total
    # shift-or the magnitude in the narrowest unsigned dtype that holds its
    # bits - 1 bits; sign_magnitude_combine widens it to int64 once.
    mag_dtype = np.min_scalar_type((1 << (bits - 1)) - 1)
    magnitude = np.zeros(np.shape(slices[0]), dtype=mag_dtype)
    for i in range(bits - 1):
        magnitude |= np.asarray(slices[i], dtype=mag_dtype) << mag_dtype.type(i)
    return sign_magnitude_combine(slices[bits - 1], magnitude)


def slice_sparsity(slices: Iterable[np.ndarray]) -> List[float]:
    """Fraction of zero bits in each slice (LSB first)."""
    out: List[float] = []
    for s in slices:
        s = np.asarray(s)
        out.append(1.0 - (float(np.count_nonzero(s)) / s.size if s.size else 0.0))
    return out


def value_sparsity(values: np.ndarray) -> float:
    """Fraction of exactly-zero elements in a value-level tensor."""
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return 1.0 - float(np.count_nonzero(values)) / values.size


def mean_bit_sparsity(
    values: np.ndarray,
    bits: int = 8,
    fmt: str = "sign_magnitude",
    include_sign: bool = False,
) -> float:
    """Average zero-bit fraction over the bit-slice matrices of ``values``.

    Follows the paper's definition (§2.3, "Illustration for the bit sparsity"):
    compute the sparsity of each bit-slice matrix and average over bit
    positions.  By default the sign plane is excluded (the paper reports the
    1st..7th magnitude slices for INT8 weights, e.g. Fig. 25).
    """
    slices = to_bitslices(values, bits=bits, fmt=fmt)
    per_plane = slice_sparsity(slices)
    if fmt == "sign_magnitude" and not include_sign:
        per_plane = per_plane[:-1]
    if not per_plane:
        return 0.0
    return float(np.mean(per_plane))


@dataclass
class BitSliceTensor:
    """An integer tensor together with its bit-slice decomposition.

    Attributes
    ----------
    values:
        The original signed integer tensor.
    bits:
        Bit width including sign.
    fmt:
        Binary representation of the slices.
    slices:
        ``bits`` binary arrays, LSB first (see :func:`to_bitslices`).
    """

    values: np.ndarray
    bits: int
    fmt: str
    slices: List[np.ndarray]

    @classmethod
    def from_values(
        cls, values: np.ndarray, bits: int = 8, fmt: str = "sign_magnitude"
    ) -> "BitSliceTensor":
        values = np.asarray(values)
        return cls(
            values=values,
            bits=bits,
            fmt=fmt,
            slices=to_bitslices(values, bits=bits, fmt=fmt),
        )

    @property
    def shape(self) -> tuple:
        return tuple(self.values.shape)

    @property
    def magnitude_slices(self) -> List[np.ndarray]:
        """Slices excluding the sign plane (sign-magnitude only)."""
        if self.fmt != "sign_magnitude":
            raise ValueError("magnitude_slices is only defined for sign-magnitude")
        return self.slices[:-1]

    @property
    def sign_plane(self) -> np.ndarray:
        if self.fmt != "sign_magnitude":
            raise ValueError("sign_plane is only defined for sign-magnitude")
        return self.slices[-1]

    def reconstruct(self) -> np.ndarray:
        """Recombine the slices; equals :attr:`values` for valid inputs."""
        return from_bitslices(self.slices, fmt=self.fmt)

    def plane_sparsity(self) -> List[float]:
        """Per-plane zero fraction, LSB first."""
        return slice_sparsity(self.slices)

    def mean_bit_sparsity(self, include_sign: bool = False) -> float:
        per_plane = self.plane_sparsity()
        if self.fmt == "sign_magnitude" and not include_sign:
            per_plane = per_plane[:-1]
        return float(np.mean(per_plane)) if per_plane else 0.0

    def value_sparsity(self) -> float:
        return value_sparsity(self.values)
