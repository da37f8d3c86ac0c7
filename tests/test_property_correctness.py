"""Property-based correctness suite for the batched execution paths.

Seeded random sweeps (via hypothesis) over shapes, bit widths and group sizes
assert that every fast path in the engine stack is *bit-exact* against its
dense-integer or single-query reference:

* BRCR GEMV/GEMM vs ``W.astype(int64) @ X``, including negative weights and
  row counts that do not divide the group size;
* the vectorised plane GEMV vs the per-group reference loop, including every
  cost-model counter;
* batched BGPP selection vs running each query row through the single-query
  filter (every result field, including traffic/compute accounting);
* BSTC encode/decode round trips on non-divisible shapes;
* engine batched GEMM vs per-column GEMV execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import BGPPConfig, bgpp_select, bgpp_select_batch
from repro.core.brcr import (
    BRCRConfig,
    brcr_gemm,
    brcr_gemv,
    brcr_plane_gemv,
    brcr_plane_gemv_reference,
)
from repro.core.bstc import BSTCCodec, BSTCConfig
from repro.core.engine import MCBPEngine


def _signed_weights(rng, shape, bits):
    """Uniform signed integers within the sign-magnitude range of ``bits``."""
    hi = (1 << (bits - 1)) - 1
    return rng.integers(-hi, hi + 1, size=shape)


class TestBRCRProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_gemv_bit_exact_vs_dense(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 25))
        hidden = int(rng.integers(1, 49))
        bits = int(rng.integers(2, 9))
        group_size = int(rng.integers(1, 8))  # frequently does not divide rows
        weights = _signed_weights(rng, (rows, hidden), bits)
        acts = rng.integers(-128, 128, size=hidden)
        config = BRCRConfig(group_size=group_size, bits=bits)
        out, cost = brcr_gemv(weights, acts, config=config)
        assert np.array_equal(out, weights.astype(np.int64) @ acts)
        assert cost.total_additions >= 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_gemm_matches_columnwise_gemv(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 17))
        hidden = int(rng.integers(1, 33))
        n_cols = int(rng.integers(1, 6))
        bits = int(rng.integers(2, 9))
        group_size = int(rng.integers(1, 7))
        weights = _signed_weights(rng, (rows, hidden), bits)
        acts = rng.integers(-100, 100, size=(hidden, n_cols))
        config = BRCRConfig(group_size=group_size, bits=bits)
        batched, _ = brcr_gemm(weights, acts, config=config)
        assert np.array_equal(batched, weights.astype(np.int64) @ acts)
        for j in range(n_cols):
            single, _ = brcr_gemv(weights, acts[:, j], config=config)
            assert np.array_equal(batched[:, j], single)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_vectorised_plane_gemv_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 30))
        hidden = int(rng.integers(1, 64))
        group_size = int(rng.integers(1, 9))
        plane = rng.integers(0, 2, size=(rows, hidden)).astype(np.uint8)
        if rng.random() < 0.5:
            acts = rng.integers(-100, 100, size=hidden)
        else:
            acts = rng.integers(-100, 100, size=(hidden, int(rng.integers(1, 4))))
        fast_out, fast_cost = brcr_plane_gemv(plane, acts, group_size)
        ref_out, ref_cost = brcr_plane_gemv_reference(plane, acts, group_size)
        assert np.array_equal(fast_out, ref_out)
        assert fast_cost == ref_cost  # every counter, not just the total

    def test_memory_fallbacks_match_reference(self, monkeypatch):
        """Tiny budgets force the group-block AND gather-chunk paths; results must not move."""
        from repro.core import brcr as brcr_mod

        monkeypatch.setattr(brcr_mod, "_MAV_BUDGET_ELEMS", 8)
        monkeypatch.setattr(brcr_mod, "_GATHER_BUDGET_ELEMS", 4)
        rng = np.random.default_rng(0)
        plane = rng.integers(0, 2, size=(22, 40)).astype(np.uint8)
        for acts in (
            rng.integers(-50, 50, size=40),
            rng.integers(-50, 50, size=(40, 3)),
        ):
            fast_out, fast_cost = brcr_plane_gemv(plane, acts, 4)
            ref_out, ref_cost = brcr_plane_gemv_reference(plane, acts, 4)
            assert np.array_equal(fast_out, ref_out)
            assert fast_cost == ref_cost

    def test_plane_gemv_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            brcr_plane_gemv(np.zeros(4), np.zeros(4), 2)
        with pytest.raises(ValueError):
            brcr_plane_gemv(np.zeros((2, 4), dtype=np.uint8), np.zeros(3), 2)


class TestBGPPBatchProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_batch_bit_exact_vs_single_query(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        n_queries = int(rng.integers(1, 7))
        key_bits = int(rng.integers(3, 9))
        config = BGPPConfig(
            rounds=int(rng.integers(1, 6)),
            radius=float(rng.uniform(0.0, 5.0)),
            alpha=float(rng.uniform(0.1, 1.0)),
            key_bits=key_bits,
            query_bits=int(rng.integers(2, key_bits + 1)),
            score_scale=float(rng.uniform(0.001, 1.0)),
            min_keys=int(rng.integers(1, 4)),
        )
        keys = _signed_weights(rng, (n_keys, d), key_bits)
        queries = _signed_weights(rng, (n_queries, d), key_bits)
        batch = bgpp_select_batch(queries, keys, config)
        assert len(batch) == n_queries
        for row, result in zip(queries, batch):
            single = bgpp_select(row, keys, config)
            assert np.array_equal(result.selected, single.selected)
            assert np.array_equal(result.estimated_scores, single.estimated_scores)
            assert result.survivors_per_round == single.survivors_per_round
            assert result.kv_bits_loaded == single.kv_bits_loaded
            assert result.mac_ops == single.mac_ops
            assert result.rounds_executed == single.rounds_executed
            assert result.early_terminated == single.early_terminated

    def test_batch_of_zero_queries(self):
        assert bgpp_select_batch(np.zeros((0, 4)), np.ones((8, 4))) == []

    def test_batch_against_empty_keys(self):
        results = bgpp_select_batch(np.ones((3, 4)), np.zeros((0, 4)))
        assert len(results) == 3
        for result in results:
            assert result.selected.size == 0
            assert result.kv_bits_loaded == 0


class TestBSTCProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_codec_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        bits = int(rng.integers(2, 9))
        group_size = int(rng.integers(1, 9))  # often does not divide rows
        threshold = float(rng.uniform(0.0, 1.0))
        weights = _signed_weights(rng, (rows, cols), bits)
        codec = BSTCCodec(
            BSTCConfig(group_size=group_size, bits=bits, sparsity_threshold=threshold)
        )
        encoded = codec.encode(weights)
        assert np.array_equal(codec.decode(encoded), weights)


class TestEngineBatchProperties:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_engine_gemm_batch_exact_and_matches_columns(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 17))
        hidden = int(rng.integers(1, 33))
        n_cols = int(rng.integers(1, 5))
        bits = int(rng.integers(2, 9))
        weights = _signed_weights(rng, (rows, hidden), bits)
        acts = rng.integers(-100, 100, size=(hidden, n_cols))
        engine = MCBPEngine(group_size=int(rng.integers(1, 7)), weight_bits=bits)
        engine.register_weight("w", weights)
        batched = engine.gemm("w", acts)
        assert np.array_equal(batched, weights.astype(np.int64) @ acts)
        for j in range(n_cols):
            assert np.array_equal(engine.gemm("w", acts[:, j]), batched[:, j])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_engine_batched_select_matches_single(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 49))
        d = int(rng.integers(1, 17))
        keys = _signed_weights(rng, (n_keys, d), 8)
        queries = _signed_weights(rng, (4, d), 8)
        batched_engine = MCBPEngine(bgpp_config=BGPPConfig(score_scale=0.01))
        single_engine = MCBPEngine(bgpp_config=BGPPConfig(score_scale=0.01))
        batch = batched_engine.select_keys(queries, keys)
        singles = [single_engine.select_keys(q, keys) for q in queries]
        assert isinstance(batch, list)
        alias_engine = MCBPEngine(bgpp_config=BGPPConfig(score_scale=0.01))
        alias = alias_engine.select_keys_batch(queries, keys)
        assert [a.selected.tolist() for a in alias] == [
            b.selected.tolist() for b in batch
        ]
        assert alias_engine.stats.kv_bits_loaded == batched_engine.stats.kv_bits_loaded
        for b, s in zip(batch, singles):
            assert np.array_equal(b.selected, s.selected)
            assert b.kv_bits_loaded == s.kv_bits_loaded
        # traffic accounting must agree too, whichever path accumulated it
        assert batched_engine.stats.kv_bits_loaded == single_engine.stats.kv_bits_loaded
        assert batched_engine.stats.keys_selected == single_engine.stats.keys_selected
        assert batched_engine.stats.kv_bits_dense == single_engine.stats.kv_bits_dense

    def test_sparse_attention_scores_accepts_batch(self):
        rng = np.random.default_rng(0)
        keys = _signed_weights(rng, (32, 8), 8)
        queries = _signed_weights(rng, (3, 8), 8)
        engine = MCBPEngine(bgpp_config=BGPPConfig(score_scale=0.01))
        scores, results = engine.sparse_attention_scores(queries, keys)
        assert scores.shape == (3, 32)
        assert len(results) == 3
        for i, (query, result) in enumerate(zip(queries, results)):
            single_engine = MCBPEngine(bgpp_config=BGPPConfig(score_scale=0.01))
            row, single = single_engine.sparse_attention_scores(query, keys)
            assert np.array_equal(scores[i], row)
            assert np.array_equal(result.selected, single.selected)
