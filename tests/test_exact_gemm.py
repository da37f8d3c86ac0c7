"""Exact-by-construction GEMM hot path: precision tiers and the fused QKV GEMM.

The integer product ``W_q @ X_q`` runs as a float32 or float64 BLAS GEMM
whenever every partial sum is provably below the dtype's exact-integer limit
(``2**24`` / ``2**53``), and in int64 otherwise.  These tests pin every tier
bit for bit against the int64 reference on shapes and magnitudes straddling
both limits, pin the engine's per-matrix float copy to the decoded planes it
was made from, and pin the stacked ``wqkv`` projection to the three separate
``wq``/``wk``/``wv`` layers it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bstc import BSTCCodec
from repro.core.engine import MCBPEngine, exact_product_dtype
from repro.model import QuantizedTransformer, TransformerModel, get_model_config
from repro.quant.calibration import calibrate_linear
from repro.serve import PagedKVArena

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

#: exact-integer limits of float32 and float64
LIMITS = (2**24, 2**53)


def test_exact_product_dtype_tier_edges():
    assert exact_product_dtype(0) is np.float32
    assert exact_product_dtype(2**24 - 1) is np.float32
    assert exact_product_dtype(2**24) is np.float64
    assert exact_product_dtype(2**53 - 2) is np.float64
    assert exact_product_dtype(2**53) is np.int64


def _straddling_acts(rng, weights, limit, above, slack, n_cols):
    """Integer activations whose bound ``K * max|W| * max|X|`` sits just
    below ``limit`` (``above=False``) or at/just above it.  Column 0 matches
    row 0's signs at full magnitude, so that output's partial sums run up to
    the bound itself, and ``slack`` perturbs one entry so odd sums (the ones
    a too-narrow float would round) occur."""
    k = weights.shape[1]
    w_max = int(np.abs(weights).max())
    per = k * w_max
    x_max = (limit + per - 1) // per + slack if above else (limit - 1) // per - slack
    x_max = max(int(x_max), 1)
    acts = rng.integers(-x_max, x_max + 1, size=(k, n_cols), dtype=np.int64)
    signs = np.where(weights[0] < 0, -1, 1)
    acts[:, 0] = signs * x_max
    acts[0, 0] = signs[0] * (x_max - (slack % 2))
    return acts


class TestEngineTiers:
    @PROPERTY
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 8),
        st.integers(1, 48),
        st.sampled_from(LIMITS),
        st.booleans(),
        st.integers(0, 3),
        st.sampled_from((np.int64, np.float64, np.float32)),
    )
    def test_matmul_equals_int64_reference_on_every_tier(
        self, seed, bits, k, limit, above, slack, act_dtype
    ):
        rng = np.random.default_rng(seed)
        w_max = (1 << (bits - 1)) - 1
        rows = int(rng.integers(1, 5))
        weights = rng.integers(-w_max, w_max + 1, size=(rows, k), dtype=np.int64)
        weights[0] = np.where(rng.random(k) < 0.5, -w_max, w_max)
        acts = _straddling_acts(
            rng, weights, limit, above, slack, int(rng.integers(1, 4))
        )
        if act_dtype is np.float32 and np.abs(acts).max() >= 2**24:
            act_dtype = np.float64  # float32 cannot even hold such inputs
        if act_dtype is np.float64 and np.abs(acts).max() >= 2**53:
            act_dtype = np.int64
        acts = acts.astype(act_dtype)
        engine = MCBPEngine(group_size=4, weight_bits=bits)
        engine.register_weight("w", weights)
        reference = weights @ acts.astype(np.int64)
        for cols, expected in ((acts, reference), (acts[:, 0], reference[:, 0])):
            out = engine.matmul("w", cols)
            bound = k * float(w_max) * float(np.abs(cols).max())
            assert out.dtype == exact_product_dtype(bound)
            assert np.array_equal(out.astype(np.int64), expected)

    def test_eviction_drops_the_float_copy(self):
        rng = np.random.default_rng(0)
        engine = MCBPEngine(group_size=4, weight_bits=8, plane_cache_entries=1)
        a = rng.integers(-127, 128, size=(4, 8))
        b = rng.integers(-127, 128, size=(4, 8))
        engine.register_weight("a", a)
        engine.register_weight("b", b)
        acts = rng.integers(-128, 128, size=(8, 3))
        engine.matmul("a", acts)
        assert set(engine._plane_cache_blas) == {"a"}
        assert engine._plane_cache_blas["a"].dtype == np.float32
        engine.matmul("b", acts)  # evicts "a" from the one-entry cache
        assert set(engine._plane_cache_blas) == {"b"}
        engine.clear_plane_cache()
        assert engine._plane_cache_blas == {}
        # no plane cache, no float copy
        uncached = MCBPEngine(group_size=4, weight_bits=8, plane_cache_entries=0)
        uncached.register_weight("a", a)
        assert np.array_equal(uncached.matmul("a", acts), a @ acts)
        assert uncached._plane_cache_blas == {}

    def test_reregistration_drops_the_float_copy(self):
        rng = np.random.default_rng(1)
        engine = MCBPEngine(group_size=4, weight_bits=8)
        old = rng.integers(-127, 128, size=(4, 8))
        new = rng.integers(-127, 128, size=(4, 8))
        acts = rng.integers(-128, 128, size=(8, 2))
        engine.register_weight("w", old)
        assert np.array_equal(engine.matmul("w", acts), old @ acts)
        engine.register_weight("w", new)
        assert "w" not in engine._plane_cache_blas
        assert np.array_equal(engine.matmul("w", acts), new @ acts)

    def test_tier_change_replaces_the_float_copy(self):
        """One copy per matrix: a call in another tier re-casts it."""
        weights = np.array([[127, -127, 1]], dtype=np.int64)
        engine = MCBPEngine(group_size=1, weight_bits=8)
        engine.register_weight("w", weights)
        small = np.array([3, -5, 7], dtype=np.int64)
        big = np.array([2**40 + 1, -(2**40) - 3, 5], dtype=np.int64)
        assert engine.matmul("w", small).dtype == np.float32
        out = engine.matmul("w", big)
        assert out.dtype == np.float64
        assert engine._plane_cache_blas["w"].dtype == np.float64
        assert np.array_equal(out.astype(np.int64), weights @ big)
        assert engine.matmul("w", small).dtype == np.float32
        assert engine._plane_cache_blas["w"].dtype == np.float32


#: (weight_bits, activation_bits, in_features, tier) straddling each limit:
#: INT8 is float32 up to K = 1032 (1032 * 127 * 128 < 2**24), and 27-bit
#: operands ((2**26 - 1) * 2**26 per MAC) are float64 up to K = 2.
LINEAR_CASES = (
    (8, 8, 1032, np.float32),
    (8, 8, 1033, np.float64),
    (8, 8, 2101, np.float64),
    (27, 27, 2, np.float64),
    (27, 27, 3, np.int64),
    (16, 16, 40, np.float64),
    (4, 8, 64, np.float32),
)


class TestQuantizedLinearTiers:
    @PROPERTY
    @given(st.integers(0, 2**31 - 1), st.sampled_from(LINEAR_CASES))
    def test_forward_equals_int64_reference_on_every_tier(self, seed, case):
        w_bits, a_bits, k, tier = case
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(3, k))
        # row 0 quantises to +-qmax everywhere and the first input row sits
        # on the calibration range's edges with matching signs, so that
        # output's partial sums reach the layer's static bound
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        weights[0] = signs
        calib = rng.normal(size=(8, k))
        qlin = calibrate_linear(
            weights, calib, weight_bits=w_bits, activation_bits=a_bits
        )
        assert qlin.product_dtype() is tier
        assert qlin.blas_product_is_exact() == (tier is not np.int64)
        x = rng.normal(size=(int(rng.integers(1, 4)), k))
        x[0] = signs * 100.0
        xq = qlin.quantize_input(x)
        assert xq.dtype == tier
        product = qlin.weight_q.astype(np.int64) @ xq.astype(np.int64).T
        scale, bias = qlin.folded_scale_bias()
        expected = (scale[:, None] * product + bias[:, None]).T
        out, _ = qlin.forward(x)
        assert np.array_equal(out, expected)
        # the engine's per-call tier gives the same bits
        engine = MCBPEngine(group_size=4, weight_bits=w_bits)
        engine.register_weight("w", qlin.weight_q)
        bound, _ = qlin.forward(x, product_fn=lambda q: engine.matmul("w", q))
        assert np.array_equal(bound, expected)


# -- fused QKV ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_models():
    model = TransformerModel(get_model_config("small"), seed=0)
    return model, QuantizedTransformer(model, seed=1)


def _layer_input(model):
    tokens = np.arange(1, 41) % model.config.vocab_size
    return model.layers[0].norm_fn(model.embedding(tokens))


@pytest.mark.parametrize("clip", [None, 99.9])
def test_stacked_calibration_equals_separate_layers(small_models, clip):
    model, _ = small_models
    attn = model.layers[0].attention
    normed = _layer_input(model)
    parts = [
        calibrate_linear(lin.weight, normed, clip_percentile=clip)
        for lin in (attn.wq, attn.wk, attn.wv)
    ]
    fused = calibrate_linear(
        np.concatenate([attn.wq.weight, attn.wk.weight, attn.wv.weight]),
        normed,
        clip_percentile=clip,
    )
    assert np.array_equal(fused.weight_q, np.concatenate([p.weight_q for p in parts]))
    for field in ("scale", "zero_point"):
        assert np.array_equal(
            getattr(fused.weight_params, field),
            np.concatenate([getattr(p.weight_params, field) for p in parts]),
        )
        for p in parts:
            assert np.array_equal(
                getattr(fused.activation_params, field),
                getattr(p.activation_params, field),
            )
    for got, want in zip(
        fused.folded_scale_bias(), zip(*(p.folded_scale_bias() for p in parts))
    ):
        assert np.array_equal(got, np.concatenate(want))
    # the fused GEMM's q/k/v columns are the separate projections, bit for bit
    x = np.random.default_rng(2).normal(size=(7, normed.shape[1]))
    out, _ = fused.forward(x)
    h = model.config.hidden_size
    for j, p in enumerate(parts):
        assert np.array_equal(out[:, j * h : (j + 1) * h], p.forward(x)[0])
    # BSTC compresses the stacked matrix to exactly the three parts' bits
    codec = BSTCCodec()
    assert codec.encode(fused.weight_q).encoded_bits == sum(
        codec.encode(p.weight_q).encoded_bits for p in parts
    )


def test_quantized_model_runs_one_qkv_gemm_per_layer(small_models):
    model, quant = small_models
    names = quant.quantized_weight_matrices()
    n_layers = model.config.n_layers
    assert sorted(n for n in names if n.startswith("layer0.")) == [
        "layer0.ffn_down", "layer0.ffn_up", "layer0.wo", "layer0.wqkv",
    ]
    assert len(names) == 4 * n_layers + 1
    engine = MCBPEngine(group_size=4, weight_bits=8)
    quant.bind_engine(engine)
    try:
        engine.reset_stats()
        chunks = [[1, 2, 3, 4], [5], [6, 7]]
        arena = PagedKVArena(n_layers, model.config.hidden_size, page_size=4)
        quant.prefill_batch(chunks, [quant.new_cache(arena=arena) for _ in chunks])
        # four GEMMs per layer (wqkv, wo, ffn_up, ffn_down) plus the LM head
        assert engine.stats.gemm_calls == 4 * n_layers + 1 == 17
        assert engine.stats.dense_macs == sum(
            w.shape[0] * w.shape[1] * (7 if n != "lm_head" else 3)
            for n, w in names.items()
        )
    finally:
        quant.engine = None
