"""BS-Sparsity-enabled Two-State Coding (BSTC, paper §3.2).

BSTC is a lossless compression scheme for bit-slice weight planes.  Weights
are stored in sign-magnitude format; the high-order magnitude planes of
near-Gaussian LLM weights are extremely sparse, so each plane is encoded
independently.  The code operates on ``m``-bit column vectors (the same group
granularity as BRCR):

* an all-zero column is encoded as a single ``0`` bit;
* a non-zero column is encoded as ``1`` followed by its ``m`` raw bits.

Decoding is sequential in the bit stream, because a symbol's start depends on
every indicator before it, but the symbol count is fixed by the plane shape:
:func:`decode_plane` resolves all symbol starts at once by pointer doubling
over ``next[i] = i + 1 + m * payload[i]`` and gathers the raw columns in one
indexed read, the software analogue of the stream-rate hardware decoders.

Only planes whose sparsity exceeds a threshold (paper: 65 %, in practice the
3rd..7th magnitude planes of INT8 weights) are compressed; the remaining
planes are stored raw, because the 1-bit indicator would otherwise inflate
them.

The module provides exact encode/decode, a measured and an analytical
compression-ratio model (paper Fig. 8b), and a codec object that applies the
per-plane policy to a whole weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitslice import BitSliceTensor, from_bitslices

__all__ = [
    "EncodedPlane",
    "EncodedWeight",
    "BSTCConfig",
    "BSTCCodec",
    "encode_plane",
    "decode_plane",
    "plane_compression_ratio",
    "analytic_compression_ratio",
    "column_zero_probability",
    "default_plane_policy",
]


@dataclass
class BSTCConfig:
    """Configuration of the two-state codec.

    Attributes
    ----------
    group_size:
        Column height ``m`` (bits per coded symbol); matches BRCR's group size.
    bits:
        Weight bit width including sign.
    sparsity_threshold:
        Minimum plane sparsity for the plane to be compressed (paper: 0.65).
    """

    group_size: int = 4
    bits: int = 8
    sparsity_threshold: float = 0.65

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if not 0.0 <= self.sparsity_threshold <= 1.0:
            raise ValueError("sparsity_threshold must be in [0, 1]")


@dataclass
class EncodedPlane:
    """One encoded bit plane.

    ``payload`` is a flat bit array (uint8 of 0/1).  ``compressed`` records
    whether the two-state code was applied or the plane was stored raw.
    ``shape`` is the original plane shape and ``group_size`` the column height
    used for encoding, needed to undo zero padding of the row dimension.
    """

    payload: np.ndarray
    compressed: bool
    shape: Tuple[int, int]
    group_size: int
    plane_index: int = 0

    @property
    def encoded_bits(self) -> int:
        return int(self.payload.size)

    @property
    def raw_bits(self) -> int:
        return int(self.shape[0] * self.shape[1])

    @property
    def compression_ratio(self) -> float:
        if self.encoded_bits == 0:
            return float("inf")
        return self.raw_bits / self.encoded_bits


@dataclass
class EncodedWeight:
    """A full weight matrix encoded plane-by-plane (magnitude planes + sign plane)."""

    planes: List[EncodedPlane]
    bits: int
    shape: Tuple[int, int]
    group_size: int

    @property
    def encoded_bits(self) -> int:
        return sum(p.encoded_bits for p in self.planes)

    @property
    def raw_bits(self) -> int:
        return int(self.shape[0] * self.shape[1] * self.bits)

    @property
    def compression_ratio(self) -> float:
        if self.encoded_bits == 0:
            return float("inf")
        return self.raw_bits / self.encoded_bits

    @property
    def compressed_plane_indices(self) -> List[int]:
        return [p.plane_index for p in self.planes if p.compressed]


def _pad_rows(plane: np.ndarray, group_size: int) -> np.ndarray:
    rows = plane.shape[0]
    pad = (-rows) % group_size
    if pad == 0:
        return plane
    return np.vstack([plane, np.zeros((pad, plane.shape[1]), dtype=plane.dtype)])


def _check_binary(bits: np.ndarray, what: str) -> None:
    if bits.size and (bits.max() > 1 or bits.min() < 0):
        raise ValueError(f"{what} must hold only 0/1 values")


def encode_plane(
    plane: np.ndarray, group_size: int = 4, compress: bool = True, plane_index: int = 0
) -> EncodedPlane:
    """Encode one binary plane with the two-state code.

    The plane's rows are processed ``group_size`` at a time; every ``m``-bit
    column of each row block becomes one symbol.  With ``compress=False`` the
    raw bits are stored unchanged (used for low-sparsity planes).
    """
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {plane.shape}")
    _check_binary(plane, "BSTC plane")
    plane = plane.astype(np.uint8, copy=False)
    shape = (int(plane.shape[0]), int(plane.shape[1]))
    if not compress:
        return EncodedPlane(
            payload=plane.reshape(-1).copy(),
            compressed=False,
            shape=shape,
            group_size=group_size,
            plane_index=plane_index,
        )

    # Vectorised two-state coding: every m-bit column becomes one symbol of
    # 1 bit (all-zero) or m+1 bits (indicator + raw column), laid out in the
    # same group-major scan order the sequential encoder used.
    padded = _pad_rows(plane, group_size)
    m = group_size
    n_groups = padded.shape[0] // m
    symbols = padded.reshape(n_groups, m, shape[1]).transpose(0, 2, 1).reshape(-1, m)
    nonzero = symbols.any(axis=1)
    lengths = np.where(nonzero, m + 1, 1)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
    nz_starts = offsets[:-1][nonzero]
    payload[nz_starts] = 1
    if nz_starts.size:
        data_pos = nz_starts[:, None] + 1 + np.arange(m)[None, :]
        payload[data_pos.reshape(-1)] = symbols[nonzero].reshape(-1)
    return EncodedPlane(
        payload=payload,
        compressed=True,
        shape=shape,
        group_size=group_size,
        plane_index=plane_index,
    )


def decode_plane(encoded: EncodedPlane) -> np.ndarray:
    """Decode an :class:`EncodedPlane` back to its exact binary plane.

    A compressed plane of shape ``(rows, cols)`` holds exactly
    ``S = ceil(rows / m) * cols`` symbols, so the decoder knows up front how
    many symbol starts to find.  The symbol at bit ``i`` ends at
    ``next[i] = i + 1 + m * payload[i]``; pointer doubling from bit 0 (each
    round applies the composed jump to every start found so far and then
    squares the jump) resolves all ``S`` starts and the stream's end in about
    ``log2 S`` gathers.  One gather then moves the ``m`` raw bits of every
    non-zero symbol into an ``(S, m)`` array, and a reshape and transpose
    rebuild the plane.  Jumps past the payload saturate at ``size + 1``, so
    a truncated stream ends past the payload and an over-long one before it.
    """
    rows, cols = encoded.shape
    payload = encoded.payload
    _check_binary(payload, "BSTC payload")
    if not encoded.compressed:
        return payload.reshape(rows, cols).astype(np.uint8)

    m = encoded.group_size
    n_groups = -(-rows // m)
    n_symbols = n_groups * cols
    size = payload.size
    jump = np.full(size + 2, size + 1, dtype=np.intp)
    jump[:size] = np.arange(1, size + 1) + m * payload.astype(np.intp)
    np.minimum(jump, size + 1, out=jump)
    bounds = np.zeros(1, dtype=np.intp)
    while bounds.size <= n_symbols:
        bounds = np.concatenate((bounds, jump[bounds]))
        jump = jump[jump]
    starts, end = bounds[:n_symbols], int(bounds[n_symbols])
    if end > size:
        raise ValueError("truncated BSTC payload")
    if end < size:
        raise ValueError(f"BSTC payload has {size - end} trailing bits after decoding")
    nonzero = np.flatnonzero(payload[starts])
    symbols = np.zeros((n_symbols, m), dtype=np.uint8)
    symbols[nonzero] = payload[starts[nonzero, None] + np.arange(1, m + 1)]
    plane = symbols.reshape(n_groups, cols, m).transpose(0, 2, 1)
    return plane.reshape(n_groups * m, cols)[:rows]


def plane_compression_ratio(plane: np.ndarray, group_size: int = 4) -> float:
    """Measured compression ratio of applying the two-state code to ``plane``."""
    encoded = encode_plane(plane, group_size=group_size, compress=True)
    return plane.size / encoded.encoded_bits if encoded.encoded_bits else float("inf")


def column_zero_probability(sparsity: float, group_size: int) -> float:
    """Probability that an ``m``-bit column is all zero under i.i.d. bit sparsity."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    return float(sparsity) ** group_size


def analytic_compression_ratio(sparsity: float, group_size: int) -> float:
    """Analytical compression ratio of BSTC (paper Fig. 8b).

    With i.i.d. bit sparsity ``sr`` an ``m``-bit column is all-zero with
    probability ``sr**m`` and costs 1 bit, otherwise ``m + 1`` bits; the raw
    cost is ``m`` bits, so ``CR = m / (sr**m + (1 - sr**m) * (m + 1))``.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    p0 = column_zero_probability(sparsity, group_size)
    expected_bits = p0 * 1.0 + (1.0 - p0) * (group_size + 1.0)
    return group_size / expected_bits


def default_plane_policy(
    plane_sparsity: Sequence[float], threshold: float = 0.65
) -> List[bool]:
    """Decide which planes to compress given their measured sparsity.

    Returns one flag per plane (LSB first, sign plane last), true when the
    plane's zero fraction meets the threshold.  For Gaussian INT8 weights this
    reproduces the paper's choice of compressing magnitude planes 3-7 while
    leaving planes 1, 2 and the sign plane raw.
    """
    return [s >= threshold for s in plane_sparsity]


class BSTCCodec:
    """Plane-policy codec over whole sign-magnitude weight matrices.

    The codec counts its ``encode_calls`` / ``decode_calls`` so callers that
    cache decoded planes (e.g. :class:`repro.core.engine.MCBPEngine`) can
    assert that steady-state execution performs no redundant decodes.
    """

    def __init__(self, config: Optional[BSTCConfig] = None) -> None:
        self.config = config or BSTCConfig()
        self.encode_calls = 0
        self.decode_calls = 0

    def reset_counters(self) -> None:
        self.encode_calls = 0
        self.decode_calls = 0

    def encode(self, weights: np.ndarray) -> EncodedWeight:
        """Encode a signed integer weight matrix into per-plane BSTC streams."""
        self.encode_calls += 1
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        tensor = BitSliceTensor.from_values(
            weights, bits=self.config.bits, fmt="sign_magnitude"
        )
        sparsity = tensor.plane_sparsity()
        policy = default_plane_policy(sparsity, self.config.sparsity_threshold)
        # never compress the sign plane: its sparsity tracks the sign balance,
        # not magnitude sparsity, and the paper stores it raw.
        policy[-1] = False
        planes = [
            encode_plane(
                plane,
                group_size=self.config.group_size,
                compress=policy[i],
                plane_index=i,
            )
            for i, plane in enumerate(tensor.slices)
        ]
        return EncodedWeight(
            planes=planes,
            bits=self.config.bits,
            shape=(int(weights.shape[0]), int(weights.shape[1])),
            group_size=self.config.group_size,
        )

    def decode(self, encoded: EncodedWeight) -> np.ndarray:
        """Decode back to the exact signed integer weight matrix."""
        self.decode_calls += 1
        slices = [decode_plane(p) for p in encoded.planes]
        return from_bitslices(slices, fmt="sign_magnitude")

    def compression_report(self, weights: np.ndarray) -> Dict[str, object]:
        """Summarise per-plane sparsity, policy and compression for ``weights``."""
        weights = np.asarray(weights)
        tensor = BitSliceTensor.from_values(
            weights, bits=self.config.bits, fmt="sign_magnitude"
        )
        encoded = self.encode(weights)
        return {
            "plane_sparsity": tensor.plane_sparsity(),
            "compressed_planes": encoded.compressed_plane_indices,
            "raw_bits": encoded.raw_bits,
            "encoded_bits": encoded.encoded_bits,
            "compression_ratio": encoded.compression_ratio,
        }
