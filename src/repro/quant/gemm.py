"""Quantised GEMM with scale / zero-point handling (paper Fig. 11).

MCBP computes ``Y_q = Scale * (W_q @ X_q) + Bias`` where the integer product
``W_q @ X_q`` is executed by the BRCR engine and ``Scale`` / ``Bias`` fold the
weight, activation and output quantisation parameters.  This module provides
both a reference float path and the integer path, optionally routed through
BRCR so that callers can verify exact equivalence.

Precision tiers.  The integer product ``W_q @ X_q`` runs as a BLAS GEMM on
integer-valued floats whenever that is exact by construction: every partial
sum is an integer no larger than ``K * max|W_q| * max|X_q|``, and integers
below ``2**24`` (float32) or ``2**53`` (float64) are represented exactly, so
any summation order returns the integer product bit for bit.
:func:`repro.core.engine.exact_product_dtype` maps that bound to the cheapest
exact dtype -- float32, float64, or int64 past ``2**53``.  An INT8 layer has
``max|W_q| * max|X_q| <= 127 * 128``, so float32 BLAS (about twice as fast
as float64) is exact up to ``K = 1032``; wider layers use float64.  A
:class:`QuantizedLinear` fixes its tier once from its static operand ranges
and quantises activations straight into that dtype, so the operands reach
the GEMM without a cast; :meth:`repro.core.engine.MCBPEngine.matmul`
re-derives the tier per call from the activations it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.brcr import BRCRConfig, BRCRCost, brcr_gemm
from ..core.engine import exact_product_dtype
from .schemes import QuantParams, dequantize, quantize_with_params

__all__ = ["QuantizedLinear", "quantized_matmul", "fold_scale_bias"]


def fold_scale_bias(
    weight_params: QuantParams,
    activation_params: QuantParams,
    weight_q: np.ndarray,
    row_sums: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold quantisation parameters into an output scale and bias.

    Following the derivation in Fig. 11(b) with a float output
    (``Delta_y = 1``, ``Z_y = 0``):

    ``Y_f = Delta_w * Delta_x * (W_q @ X_q) - Delta_w * Delta_x * (W_q @ 1) * Z_x``

    so ``scale[c] = Delta_w[c] * Delta_x`` (per output channel) and
    ``bias[c] = -scale[c] * Z_x * sum_j W_q[c, j]``.

    ``row_sums`` may supply precomputed ``W_q.sum(axis=1)`` (the weights are
    static, so serving paths fold them once instead of per call).
    """
    w_scale = np.asarray(weight_params.scale, dtype=np.float64).reshape(-1)
    x_scale = float(np.asarray(activation_params.scale))
    x_zero = float(np.asarray(activation_params.zero_point))
    if row_sums is None:
        row_sums = np.asarray(weight_q, dtype=np.float64).sum(axis=1)
    scale = w_scale * x_scale
    bias = -scale * x_zero * row_sums
    return scale, bias


def quantized_matmul(
    weight_q: np.ndarray,
    activation_q: np.ndarray,
    weight_params: QuantParams,
    activation_params: QuantParams,
    use_brcr: bool = False,
    brcr_config: Optional[BRCRConfig] = None,
    product_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    folded: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, Optional[BRCRCost]]:
    """Compute the dequantised output of ``W_q @ X_q`` with folded scale/bias.

    Parameters
    ----------
    weight_q, activation_q:
        Integer operands; ``weight_q`` is ``(M, K)``, ``activation_q`` is
        ``(K,)`` or ``(K, N)``.
    use_brcr:
        Route the integer product through :func:`repro.core.brcr.brcr_gemm`
        (bit-exact, but slower in Python) and return its cost counters.
    product_fn:
        Alternative provider of the integer product ``W_q @ X_q`` given the
        quantised activations -- used to route execution through a shared
        :class:`repro.core.engine.MCBPEngine` so its decoded-plane cache and
        traffic counters account for the call.  Must return exactly the dense
        integer product; mutually exclusive with ``use_brcr``.
    folded:
        Precomputed :func:`fold_scale_bias` pair; the parameters and weights
        are static, so hot serving paths fold once and reuse.

    Returns
    -------
    (output, cost):
        ``output`` is the float result approximating ``W_f @ X_f``; ``cost``
        is the BRCR cost object when ``use_brcr`` is set, else ``None``.
    """
    cost: Optional[BRCRCost] = None
    if use_brcr and product_fn is not None:
        raise ValueError("use_brcr and product_fn are mutually exclusive")
    if product_fn is not None:
        # must equal the dense integer product exactly; an integer-valued
        # float array qualifies (scale/bias application is dtype-agnostic)
        product = np.asarray(product_fn(activation_q))
    else:
        weight_q = np.asarray(weight_q, dtype=np.int64)
        activation_q = np.asarray(activation_q, dtype=np.int64)
        if use_brcr:
            product, cost = brcr_gemm(weight_q, activation_q, config=brcr_config)
        else:
            product = weight_q @ activation_q

    if folded is None:
        scale, bias = fold_scale_bias(weight_params, activation_params, weight_q)
    else:
        scale, bias = folded
    if product.ndim == 1:
        output = scale * product + bias
    else:
        output = scale[:, None] * product + bias[:, None]
    return output, cost


@dataclass
class QuantizedLinear:
    """A linear layer captured in quantised form.

    Holds the integer weights, their quantisation parameters, and an optional
    float bias added after dequantisation.  ``forward`` quantises the incoming
    float activations with the layer's calibrated activation parameters and
    returns float outputs, matching the dataflow in paper Fig. 11(a).
    """

    weight_q: np.ndarray
    weight_params: QuantParams
    activation_params: QuantParams
    bias: Optional[np.ndarray] = None
    # lazily cached fold_scale_bias() pair -- the operands are static
    _folded: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # lazily cached exact_product_dtype() tier of the integer product
    _product_dtype: Optional[type] = field(
        default=None, init=False, repr=False, compare=False
    )
    # lazily cached blas_weight() copy for the BLAS product
    _weight_blas: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def folded_scale_bias(self) -> Tuple[np.ndarray, np.ndarray]:
        """The layer's :func:`fold_scale_bias` pair, computed once."""
        if self._folded is None:
            self._folded = fold_scale_bias(
                self.weight_params, self.activation_params, self.weight_q
            )
        return self._folded

    def product_dtype(self) -> type:
        """Exact dtype of this layer's integer product: float32, float64 or int64.

        Every partial sum of ``W_q @ X_q`` is an integer bounded by
        ``in_features * max|W_q| * max(|qmin|, |qmax|)`` of the activation
        parameters; :func:`repro.core.engine.exact_product_dtype` picks the
        cheapest dtype that holds that bound exactly (see the module
        docstring).  The operands are static, so the tier is fixed once.
        """
        if self._product_dtype is None:
            w_max = float(np.abs(self.weight_q).max()) if self.weight_q.size else 0.0
            params = self.activation_params
            x_max = float(max(-params.qmin, params.qmax))
            self._product_dtype = exact_product_dtype(self.in_features * w_max * x_max)
        return self._product_dtype

    def blas_product_is_exact(self) -> bool:
        """Whether this layer's integer product runs as a provably exact BLAS GEMM.

        False only for exotic precisions whose partial sums could exceed the
        float64 mantissa; those keep NumPy's int64 loops.
        """
        return self.product_dtype() is not np.int64

    def blas_weight(self) -> np.ndarray:
        """Row-major ``weight_q.T`` in :meth:`product_dtype`, cached.

        The BLAS product runs as ``X_q (N, K) @ W_q.T (K, M)``, the
        orientation that matches the row-major quantised activations (see
        :meth:`repro.core.engine.MCBPEngine.matmul`).
        """
        if self._weight_blas is None:
            self._weight_blas = np.ascontiguousarray(
                self.weight_q.T, dtype=self.product_dtype()
            )
        return self._weight_blas

    @property
    def out_features(self) -> int:
        return int(self.weight_q.shape[0])

    @property
    def in_features(self) -> int:
        return int(self.weight_q.shape[1])

    def weight_float(self) -> np.ndarray:
        """Dequantised weights (the effective weights of the INT model)."""
        return dequantize(self.weight_q, self.weight_params)

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Quantised activations, integer-valued in :meth:`product_dtype`.

        Float32 or float64 on the BLAS tiers, int64 past ``2**53``: the
        result feeds the integer product without another cast.
        """
        return quantize_with_params(
            x, self.activation_params, dtype=self.product_dtype()
        )

    def forward(
        self,
        x: np.ndarray,
        use_brcr: bool = False,
        brcr_config: Optional[BRCRConfig] = None,
        product_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Optional[BRCRCost]]:
        """Apply the layer to float activations ``x`` of shape ``(..., in_features)``.

        ``product_fn`` (see :func:`quantized_matmul`) lets an engine supply
        the integer product from its decoded-plane cache.
        """
        x = np.asarray(x, dtype=np.float64)
        lead_shape = x.shape[:-1]
        flat = x.reshape(-1, self.in_features)
        xq = self.quantize_input(flat).T  # (K, N)
        if product_fn is None and not use_brcr and self.blas_product_is_exact():
            weight_b = self.blas_weight()
            product_fn = lambda xq_int: (xq_int.T @ weight_b).T
        out, cost = quantized_matmul(
            self.weight_q,
            xq,
            self.weight_params,
            self.activation_params,
            use_brcr=use_brcr,
            brcr_config=brcr_config,
            product_fn=product_fn,
            folded=self.folded_scale_bias(),
        )
        out = out.T.reshape(*lead_shape, self.out_features)
        if self.bias is not None:
            out = out + self.bias
        return out, cost
