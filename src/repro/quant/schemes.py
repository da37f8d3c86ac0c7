"""Integer quantisation schemes used by MCBP (paper §4.1, Fig. 11).

Weights are quantised with *per-channel symmetric* quantisation and
activations with *per-tensor asymmetric* quantisation, following
SmoothQuant-style INT8 deployments.  A coarse QAT-like variant (percentile
clipping before fitting the scale) and INT4 PTQ are provided for the
quantisation study in paper Fig. 25.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "QuantParams",
    "quantize_weight_per_channel",
    "quantize_activation_per_tensor",
    "dequantize",
    "quantize_with_params",
    "symmetric_max_range",
]


@dataclass
class QuantParams:
    """Scale / zero-point metadata of a quantised tensor.

    ``scale`` and ``zero_point`` are either scalars (per-tensor) or 1-D arrays
    along ``channel_axis`` (per-channel).  The quantisation rule is

    ``q = clip(round(x / scale) + zero_point, qmin, qmax)``

    and dequantisation is ``x ~= (q - zero_point) * scale``.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    bits: int
    symmetric: bool
    channel_axis: Optional[int] = None

    @property
    def qmin(self) -> int:
        if self.symmetric:
            return -(1 << (self.bits - 1)) + 1
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def broadcast_shape(self, ndim: int) -> Tuple[int, ...]:
        """Shape that broadcasts the per-channel vectors against an ``ndim`` tensor."""
        if self.channel_axis is None:
            return (1,) * ndim
        shape = [1] * ndim
        shape[self.channel_axis] = -1
        return tuple(shape)


def symmetric_max_range(bits: int) -> int:
    """Largest magnitude representable by a symmetric ``bits``-bit quantiser."""
    return (1 << (bits - 1)) - 1


def quantize_weight_per_channel(
    weights: np.ndarray,
    bits: int = 8,
    channel_axis: int = 0,
    clip_percentile: Optional[float] = None,
) -> Tuple[np.ndarray, QuantParams]:
    """Per-channel symmetric weight quantisation.

    Parameters
    ----------
    weights:
        Float weight matrix.
    bits:
        Target bit width (8 for INT8, 4 for INT4).
    channel_axis:
        Axis along which independent scales are fitted (output channels).
    clip_percentile:
        When given (e.g. 99.9), the scale is fitted to that percentile of the
        per-channel magnitudes instead of the max.  This mimics the tighter
        ranges a QAT flow converges to and is used for the "QAT INT8" setting
        of paper Fig. 25.
    """
    weights = np.asarray(weights, dtype=np.float64)
    qmax = symmetric_max_range(bits)
    reduce_axes = tuple(i for i in range(weights.ndim) if i != channel_axis)
    mags = np.abs(weights)
    if clip_percentile is None:
        max_mag = mags.max(axis=reduce_axes)
    else:
        max_mag = np.percentile(mags, clip_percentile, axis=reduce_axes)
    max_mag = np.maximum(max_mag, 1e-12)
    scale = max_mag / qmax
    params = QuantParams(
        scale=scale,
        zero_point=np.zeros_like(scale),
        bits=bits,
        symmetric=True,
        channel_axis=channel_axis,
    )
    q = quantize_with_params(weights, params)
    return q, params


def quantize_activation_per_tensor(
    activations: np.ndarray,
    bits: int = 8,
    observed_range: Optional[Tuple[float, float]] = None,
) -> Tuple[np.ndarray, QuantParams]:
    """Per-tensor asymmetric activation quantisation.

    ``observed_range`` supplies calibration min/max (e.g. from
    :class:`repro.quant.calibration.ActivationCalibrator`); otherwise the
    range of the given tensor is used directly.
    """
    activations = np.asarray(activations, dtype=np.float64)
    if observed_range is None:
        lo = float(activations.min()) if activations.size else 0.0
        hi = float(activations.max()) if activations.size else 0.0
    else:
        lo, hi = observed_range
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    qmin = -(1 << (bits - 1))
    qmax = (1 << (bits - 1)) - 1
    span = max(hi - lo, 1e-12)
    scale = span / (qmax - qmin)
    zero_point = np.round(qmin - lo / scale)
    zero_point = np.clip(zero_point, qmin, qmax)
    params = QuantParams(
        scale=np.asarray(scale, dtype=np.float64),
        zero_point=np.asarray(zero_point, dtype=np.float64),
        bits=bits,
        symmetric=False,
        channel_axis=None,
    )
    q = quantize_with_params(activations, params)
    return q, params


def quantize_with_params(
    values: np.ndarray, params: QuantParams, dtype: type = np.int64
) -> np.ndarray:
    """Quantise ``values`` using existing :class:`QuantParams`.

    The integers in ``[qmin, qmax]`` are returned as ``dtype``; a float
    ``dtype`` holds them integer-valued, exactly so while ``2**(bits-1)``
    fits its mantissa.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = params.broadcast_shape(values.ndim)
    scale = np.asarray(params.scale, dtype=np.float64).reshape(shape)
    zero = np.asarray(params.zero_point, dtype=np.float64).reshape(shape)
    q = np.round(values / scale) + zero
    q = np.clip(q, params.qmin, params.qmax)
    return q.astype(dtype, copy=False)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map quantised integers back to approximate float values."""
    q = np.asarray(q, dtype=np.float64)
    shape = params.broadcast_shape(q.ndim)
    scale = np.asarray(params.scale, dtype=np.float64).reshape(shape)
    zero = np.asarray(params.zero_point, dtype=np.float64).reshape(shape)
    return (q - zero) * scale
