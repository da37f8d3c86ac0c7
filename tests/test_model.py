"""Unit and integration tests for the transformer substrate (repro.model)."""

import numpy as np
import pytest

from repro.core.bgpp import make_bgpp_predictor, make_value_topk_predictor
from repro.model import (
    MODEL_CONFIGS,
    KVCache,
    MultiHeadAttention,
    QuantizedTransformer,
    TransformerModel,
    causal_mask,
    generate,
    get_model_config,
    gelu,
    layer_norm,
    rms_norm,
    scaled_down_config,
    softmax,
    stage_gemm_macs,
)


class TestConfigs:
    def test_all_published_models_present(self):
        for name in ("Llama7B", "Llama13B", "Qwen7B", "Bloom1B7", "OPT1B3"):
            assert name in MODEL_CONFIGS

    def test_llama7b_shapes(self):
        cfg = get_model_config("Llama7B")
        assert cfg.hidden_size == 4096
        assert cfg.n_layers == 32
        assert cfg.head_dim == 128

    def test_parameter_count_order_of_magnitude(self):
        cfg = get_model_config("Llama7B")
        assert 5e9 < cfg.n_parameters < 9e9
        cfg13 = get_model_config("Llama13B")
        assert cfg13.n_parameters > cfg.n_parameters

    def test_kv_cache_bytes(self):
        cfg = get_model_config("tiny")
        per_token = 2 * cfg.n_layers * cfg.hidden_size
        assert cfg.kv_cache_bytes(10, batch=2) == per_token * 10 * 2

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model_config("GPT5")

    def test_invalid_head_split_rejected(self):
        from repro.model.config import ModelConfig

        with pytest.raises(ValueError):
            ModelConfig("bad", hidden_size=65, n_layers=1, n_heads=2, ffn_hidden=4,
                        vocab_size=16)

    def test_scaled_down_config_divisible(self):
        mini = scaled_down_config("Llama7B", scale=32)
        assert mini.hidden_size % mini.n_heads == 0
        assert mini.n_layers <= 4


class TestLayers:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0)

    def test_softmax_handles_minus_inf(self):
        x = np.array([[0.0, -np.inf]])
        probs = softmax(x)
        assert probs[0, 1] == 0.0

    def test_gelu_at_zero(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_gelu_matches_pow_formula(self):
        """``x * x * x`` rounds differently from ``x**3`` by about an ulp, so
        the pow-free form must agree within a float64 bound: 4 ulps relative,
        plus, for the far-negative tail where ``1 + tanh(...)`` cancels, the
        ``0.5 * |x| * eps`` that one flipped ulp of ``tanh`` near -1 moves
        the result by."""
        x = np.concatenate(
            [
                np.random.default_rng(3).normal(0.0, 3.0, size=4096),
                np.linspace(-12.0, 12.0, 2401),
            ]
        )
        ref = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(
            gelu(x), ref, rtol=4 * eps, atol=0.5 * eps * np.abs(x).max()
        )

    def test_layer_norm_statistics(self):
        x = np.random.default_rng(1).normal(3.0, 2.0, size=(5, 64))
        normed = layer_norm(x)
        assert np.allclose(normed.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(normed.std(axis=-1), 1.0, atol=1e-3)

    def test_rms_norm_scale(self):
        x = np.random.default_rng(2).normal(size=(3, 32))
        normed = rms_norm(x)
        assert np.allclose(np.sqrt((normed**2).mean(axis=-1)), 1.0, atol=1e-3)


class TestAttention:
    def test_causal_mask_square(self):
        mask = causal_mask(3, 3)
        assert mask.tolist() == [
            [True, False, False],
            [True, True, False],
            [True, True, True],
        ]

    def test_causal_mask_decode_step(self):
        # one new query attending to a 4-token cache: everything visible
        assert causal_mask(1, 4).all()

    def test_output_shape(self):
        attn = MultiHeadAttention(32, 4, seed=0)
        out = attn(np.random.default_rng(0).normal(size=(6, 32)))
        assert out.output.shape == (6, 32)
        assert out.selected_fraction == 1.0

    def test_kv_cache_accumulates(self):
        attn = MultiHeadAttention(16, 2, seed=1)
        cache = KVCache()
        attn(np.random.default_rng(1).normal(size=(3, 16)), cache=cache)
        assert cache.seq_len == 3
        attn(np.random.default_rng(2).normal(size=(1, 16)), cache=cache)
        assert cache.seq_len == 4

    def test_prefill_then_decode_matches_full_forward(self):
        """Decoding with a KV cache must equal processing the full sequence."""
        attn = MultiHeadAttention(16, 2, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 16))
        full = attn(x).output

        cache = KVCache()
        prefill = attn(x[:4], cache=cache).output
        step = attn(x[4:5], cache=cache).output
        assert np.allclose(full[:4], prefill)
        assert np.allclose(full[4], step[0])

    def test_predictor_limits_keys(self):
        attn = MultiHeadAttention(16, 2, seed=4)
        x = np.random.default_rng(4).normal(size=(8, 16))
        predictor = make_value_topk_predictor(keep_fraction=0.5)
        out = attn(x, predictor=predictor)
        assert out.keys_attended < out.keys_total
        assert 0.0 < out.selected_fraction < 1.0

    def test_merged_context_shape(self):
        attn = MultiHeadAttention(16, 2, seed=5)
        x = np.random.default_rng(5).normal(size=(4, 16))
        ctx = attn.merged_context(attn.wq(x), attn.wk(x), attn.wv(x))
        assert ctx.shape == (4, 16)

    def test_invalid_hidden_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)


class TestTransformer:
    @pytest.fixture(scope="class")
    def tiny_model(self):
        return TransformerModel(get_model_config("tiny"), seed=0)

    def test_forward_logits_shape(self, tiny_model):
        logits, stats = tiny_model.forward([1, 2, 3])
        assert logits.shape == (3, tiny_model.config.vocab_size)
        assert stats.tokens_processed == 3

    def test_named_weight_matrices(self, tiny_model):
        mats = tiny_model.named_weight_matrices()
        assert "layer0.wq" in mats and "lm_head" in mats
        assert len(mats) == tiny_model.config.n_layers * 6 + 1

    def test_generation_prefill_decode_split(self, tiny_model):
        result = generate(tiny_model, [1, 2, 3, 4], max_new_tokens=5)
        assert len(result.generated_tokens) == 5
        assert result.prefill_stats.tokens_processed == 4
        assert len(result.decode_stats) == 4  # last token needs no extra step

    def test_generation_deterministic(self, tiny_model):
        a = generate(tiny_model, [5, 6, 7], max_new_tokens=3)
        b = generate(tiny_model, [5, 6, 7], max_new_tokens=3)
        assert a.generated_tokens == b.generated_tokens

    def test_generation_with_cache_matches_recompute(self, tiny_model):
        """Autoregressive decoding with KV cache must match full re-forwarding."""
        prompt = [1, 2, 3, 4, 5]
        result = generate(tiny_model, prompt, max_new_tokens=3)
        sequence = prompt + result.generated_tokens[:-1]
        logits, _ = tiny_model.forward(sequence)
        assert int(np.argmax(logits[-1])) == result.generated_tokens[-1]

    def test_generation_empty_prompt_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            generate(tiny_model, [], max_new_tokens=1)

    def test_sparse_predictor_changes_attention_density(self, tiny_model):
        dense_logits, dense_stats = tiny_model.forward(list(range(1, 17)))
        predictor = make_bgpp_predictor(alpha=0.5)
        sparse_logits, sparse_stats = tiny_model.forward(
            list(range(1, 17)), predictor=predictor
        )
        assert sparse_stats.attention_sparsity > dense_stats.attention_sparsity
        # outputs stay correlated despite pruning
        cos = np.sum(dense_logits * sparse_logits) / (
            np.linalg.norm(dense_logits) * np.linalg.norm(sparse_logits)
        )
        assert cos > 0.8

    def test_stage_gemm_macs_scaling(self):
        cfg = get_model_config("Llama7B")
        short = stage_gemm_macs(cfg, 1024, 16)
        long = stage_gemm_macs(cfg, 4096, 16)
        assert long["prefill_linear_macs"] == pytest.approx(4 * short["prefill_linear_macs"])
        assert long["prefill_attention_macs"] > 4 * short["prefill_attention_macs"]


class TestQuantizedTransformer:
    @pytest.fixture(scope="class")
    def models(self):
        model = TransformerModel(get_model_config("tiny"), seed=0)
        quant = QuantizedTransformer(model, weight_bits=8, calibration_tokens=list(range(1, 33)))
        return model, quant

    def test_int8_fidelity_high(self, models):
        model, quant = models
        tokens = [1, 2, 3, 4, 5, 6]
        ref, _ = model.forward(tokens)
        out, _ = quant.forward(tokens)
        cos = np.sum(ref * out) / (np.linalg.norm(ref) * np.linalg.norm(out))
        assert cos > 0.99

    def test_int4_worse_than_int8(self, models):
        model, quant8 = models
        quant4 = QuantizedTransformer(model, weight_bits=4, calibration_tokens=list(range(1, 33)))
        tokens = [1, 2, 3, 4, 5, 6]
        ref, _ = model.forward(tokens)
        out8, _ = quant8.forward(tokens)
        out4, _ = quant4.forward(tokens)

        def cos(a, b):
            return np.sum(a * b) / (np.linalg.norm(a) * np.linalg.norm(b))

        assert cos(ref, out4) < cos(ref, out8)

    def test_quantized_weight_matrices_are_integers(self, models):
        _, quant = models
        mats = quant.quantized_weight_matrices()
        for mat in mats.values():
            assert np.issubdtype(mat.dtype, np.integer)
            assert np.abs(mat).max() <= 127

    def test_quantized_generation_runs(self, models):
        _, quant = models
        result = generate(quant, [1, 2, 3], max_new_tokens=2)
        assert len(result.generated_tokens) == 2
