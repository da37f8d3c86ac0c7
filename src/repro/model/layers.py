"""Basic neural-network layers in NumPy used by the LLM substrate.

The paper's non-linear operators (softmax, GELU, layer normalisation) run on
the accelerator's FP16 special-function unit, so they are kept in floating
point here while the GEMMs are the integer-quantised operands MCBP optimises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "softmax",
    "gelu",
    "silu",
    "relu",
    "layer_norm",
    "rms_norm",
    "Linear",
    "Embedding",
    "ACTIVATIONS",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    x = np.asarray(x, dtype=np.float64)
    # x * x * x, not x**3: NumPy sends a float power through libm's pow,
    # which costs an order of magnitude more than two multiplies
    cube = x * x * x
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * cube)))


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid linear unit (swish), used by Llama/Qwen FFNs."""
    x = np.asarray(x, dtype=np.float64)
    return x / (1.0 + np.exp(-x))


def relu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0)


ACTIVATIONS = {"gelu": gelu, "silu": silu, "relu": relu}


def layer_norm(
    x: np.ndarray,
    gamma: Optional[np.ndarray] = None,
    beta: Optional[np.ndarray] = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalisation over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    out = (x - mean) / np.sqrt(var + eps)
    if gamma is not None:
        out = out * gamma
    if beta is not None:
        out = out + beta
    return out


def rms_norm(
    x: np.ndarray, gamma: Optional[np.ndarray] = None, eps: float = 1e-5
) -> np.ndarray:
    """RMS normalisation over the last axis (Llama-style)."""
    x = np.asarray(x, dtype=np.float64)
    rms = np.sqrt((x**2).mean(axis=-1, keepdims=True) + eps)
    out = x / rms
    if gamma is not None:
        out = out * gamma
    return out


@dataclass
class Linear:
    """A float linear layer ``y = x @ W.T + b``."""

    weight: np.ndarray  # (out_features, in_features)
    bias: Optional[np.ndarray] = None

    @classmethod
    def random(
        cls,
        in_features: int,
        out_features: int,
        std: float = 0.02,
        seed: Optional[int] = None,
        with_bias: bool = False,
    ) -> "Linear":
        rng = np.random.default_rng(seed)
        weight = rng.normal(0.0, std, size=(out_features, in_features))
        bias = np.zeros(out_features) if with_bias else None
        return cls(weight=weight, bias=bias)

    @property
    def in_features(self) -> int:
        return int(self.weight.shape[1])

    @property
    def out_features(self) -> int:
        return int(self.weight.shape[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


@dataclass
class Embedding:
    """Token embedding lookup table."""

    table: np.ndarray  # (vocab, hidden)

    @classmethod
    def random(
        cls, vocab_size: int, hidden: int, std: float = 0.02, seed: Optional[int] = None
    ) -> "Embedding":
        rng = np.random.default_rng(seed)
        return cls(table=rng.normal(0.0, std, size=(vocab_size, hidden)))

    @property
    def vocab_size(self) -> int:
        return int(self.table.shape[0])

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.vocab_size):
            raise ValueError("token id out of vocabulary range")
        return self.table[token_ids]
