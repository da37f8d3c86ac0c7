"""Property suite for the fused batched decode path (PR 2).

Pins every new batched fast path bit-exact against its sequential reference:

* ragged ``bgpp_select_batch`` (per-query key prefixes + score scales) vs the
  single-query filter on the truncated key matrix, including empty prefixes
  and ``B = 1``;
* the predictors' ``select_ragged`` batch entry points vs row-by-row calls,
  and the attention modules that consume them -- including one call per
  layer for all decode rows of a step, over per-stream ``(B, L, d)`` keys;
* decode-only ``IncrementalDecoder.prefill_step_batch`` steps (one-row
  chunks through ``QuantizedTransformer.prefill_batch`` over arena-backed
  caches) vs stepping each stream alone on standalone caches (tokens,
  logits and per-stream statistics);
* the batched serving engine vs solo ``generate()`` runs over random
  traffic (ragged context lengths, sessions finishing mid-run, B = 1 and
  all-finished steps): tokens, attention traffic and the one-shot schedule;
* ``MCBPEngine.matmul`` vs the bit-serial ``gemm`` path and its counters;
* ``ServingReport`` JSON round-tripping (the schema shared between the
  example and the serving benchmark).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import (
    BGPPConfig,
    bgpp_select,
    bgpp_select_batch,
    make_bgpp_predictor,
    make_value_topk_predictor,
)
from repro.core.engine import MCBPEngine
from repro.model import (
    KVCache,
    MultiHeadAttention,
    QuantizedTransformer,
    TransformerModel,
    get_model_config,
)
from repro.model.generation import IncrementalDecoder
from repro.serve import PagedKVArena, Request, ServingEngine, ServingReport
from repro.serve.session import GenerationSession
from repro.workloads import sample_requests
from doubles import assert_matches_solo


@pytest.fixture(scope="module")
def tiny_quantized():
    """One calibrated quantised model shared by the fused-path tests."""
    return QuantizedTransformer(TransformerModel(get_model_config("tiny"), seed=0), seed=1)


def _signed(rng, shape, bits):
    hi = (1 << (bits - 1)) - 1
    return rng.integers(-hi, hi + 1, size=shape)


class TestBGPPRaggedBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_ragged_batch_bit_exact_vs_truncated_single(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 60))
        d = int(rng.integers(1, 24))
        n_queries = int(rng.integers(1, 7))  # includes B=1
        key_bits = int(rng.integers(3, 9))
        config = BGPPConfig(
            rounds=int(rng.integers(1, 5)),
            radius=float(rng.uniform(0.0, 4.0)),
            alpha=float(rng.uniform(0.1, 1.0)),
            key_bits=key_bits,
            query_bits=int(rng.integers(2, key_bits + 1)),
            min_keys=int(rng.integers(1, 3)),
        )
        keys = _signed(rng, (n_keys, d), key_bits)
        queries = _signed(rng, (n_queries, d), key_bits)
        # lengths include 0 (empty prefix) and n_keys (full batch) cases
        lengths = rng.integers(0, n_keys + 1, size=n_queries)
        scales = rng.uniform(0.001, 1.0, size=n_queries)
        batch = bgpp_select_batch(
            queries, keys, config, key_lengths=lengths, score_scales=scales
        )
        assert len(batch) == n_queries
        for b, result in enumerate(batch):
            ref_config = BGPPConfig(
                rounds=config.rounds,
                radius=config.radius,
                alpha=config.alpha,
                key_bits=key_bits,
                query_bits=config.query_bits,
                score_scale=float(scales[b]),
                min_keys=config.min_keys,
            )
            single = bgpp_select(queries[b], keys[: lengths[b]], ref_config)
            assert np.array_equal(result.selected, single.selected)
            assert np.array_equal(result.estimated_scores, single.estimated_scores)
            assert result.survivors_per_round == single.survivors_per_round
            assert result.kv_bits_loaded == single.kv_bits_loaded
            assert result.mac_ops == single.mac_ops
            assert result.rounds_executed == single.rounds_executed
            assert result.early_terminated == single.early_terminated

    def test_key_lengths_validation(self):
        queries = np.ones((2, 4), dtype=np.int64)
        keys = np.ones((8, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="key_lengths"):
            bgpp_select_batch(queries, keys, key_lengths=[1])
        with pytest.raises(ValueError, match="key_lengths"):
            bgpp_select_batch(queries, keys, key_lengths=[1, 9])
        with pytest.raises(ValueError, match="score_scales"):
            bgpp_select_batch(queries, keys, score_scales=[1.0])

    def test_all_empty_prefixes(self):
        results = bgpp_select_batch(
            np.ones((3, 4), dtype=np.int64),
            np.ones((8, 4), dtype=np.int64),
            key_lengths=[0, 0, 0],
        )
        for result in results:
            assert result.selected.size == 0
            assert result.kv_bits_loaded == 0
            assert result.rounds_executed == 0


class TestPredictorRaggedBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_select_ragged_matches_per_row(self, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(1, 40))
        d = int(rng.integers(2, 20))
        n_rows = int(rng.integers(1, 8))
        keys = rng.normal(size=(n_keys, d))
        queries = rng.normal(size=(n_rows, d))
        lengths = rng.integers(0, n_keys + 1, size=n_rows)
        for predictor in (
            make_bgpp_predictor(alpha=float(rng.uniform(0.3, 0.9)), rounds=3),
            make_value_topk_predictor(keep_fraction=float(rng.uniform(0.1, 1.0))),
        ):
            batch = predictor.select_ragged(queries, keys, lengths)
            for i in range(n_rows):
                reference = predictor(queries[i], keys[: lengths[i]])
                assert np.array_equal(
                    np.asarray(batch[i]), np.asarray(reference)
                ), f"row {i} lengths={lengths.tolist()}"

    def test_attention_batch_path_matches_predictor_loop(self):
        """MHA prefill with select_ragged == the per-row predictor loop."""
        attn = MultiHeadAttention(32, 4, seed=7)
        x = np.random.default_rng(7).normal(size=(10, 32))
        batched_predictor = make_bgpp_predictor(alpha=0.6, rounds=3)
        # same selection logic, but stripped of the batch entry point so the
        # attention module must take the row-by-row fallback
        loop_predictor = lambda q, keys: batched_predictor(q, keys)
        assert not hasattr(loop_predictor, "select_ragged")
        fast = attn(x, predictor=batched_predictor)
        slow = attn(x, predictor=loop_predictor)
        assert np.array_equal(fast.output, slow.output)
        assert fast.keys_attended == slow.keys_attended
        assert fast.keys_total == slow.keys_total

    def test_quantized_prefill_batch_path_matches_loop(self, tiny_quantized):
        """QuantizedTransformer prefill: vectorised selection == loop."""
        prompt = list(range(1, 14))
        batched_predictor = make_value_topk_predictor(keep_fraction=0.5)
        loop_predictor = lambda q, keys: batched_predictor(q, keys)
        fast_logits, fast_stats = tiny_quantized.forward(
            prompt, caches=tiny_quantized.new_cache(), predictor=batched_predictor
        )
        slow_logits, slow_stats = tiny_quantized.forward(
            prompt, caches=tiny_quantized.new_cache(), predictor=loop_predictor
        )
        assert np.array_equal(fast_logits, slow_logits)
        assert fast_stats.keys_attended == slow_stats.keys_attended


def _mixed_steps(model, predictor):
    """Two mixed ``prefill_batch`` steps over arena-backed streams.

    The first step puts a prompt chunk before a contiguous decode tail (the
    engine's order); the second scatters decode rows between a prompt chunk
    and speculative verify chunks.  A freed session leaves +-1e6 keys in
    the pages the streams reuse, so the gathered view holds garbage past
    the stream lengths.  Returns each step's ``(logits, stats)``.
    """
    config = model.config
    arena = PagedKVArena(config.n_layers, config.hidden_size, page_size=4)
    rng = np.random.default_rng(5)
    junk = model.new_cache(arena=arena)
    for cache in junk:
        cache.append(
            rng.choice([-1e6, 1e6], size=(40, config.hidden_size)),
            np.zeros((40, config.hidden_size)),
        )
    junk[0].release()
    prompts = [
        rng.integers(0, config.vocab_size, size=n).tolist() for n in (11, 3, 7, 5, 9, 2)
    ]
    caches = [model.new_cache(arena=arena) for _ in prompts]
    model.prefill_batch(prompts[1:], caches[1:], predictor)
    tail = model.prefill_batch(
        [prompts[0][:4], [1], [2], [3]],
        caches[:4],
        predictor,
        total_lens=[11, 4, 8, 6],
    )
    order = [1, 0, 2, 3, 4, 5]
    scattered = model.prefill_batch(
        [[4], prompts[0][4:8], [5], [6, 7, 8], [9], [1, 2]],
        [caches[b] for b in order],
        predictor,
        total_lens=[5, 11, 9, 9, 10, 4],
    )
    return [tail[:2], scattered[:2]]


class TestDecodeRowsOneSelectionCall:
    """All decode rows of a layer share one ``select_ragged`` call."""

    @pytest.mark.parametrize(
        "make_predictor",
        [
            lambda: make_bgpp_predictor(alpha=0.3, rounds=3),
            lambda: make_value_topk_predictor(keep_fraction=0.5),
        ],
        ids=["bgpp", "value_topk"],
    )
    def test_mixed_steps_match_per_stream_loop(self, tiny_quantized, make_predictor):
        batched = make_predictor()
        loop = lambda q, keys: batched(q, keys)
        fast = _mixed_steps(tiny_quantized, batched)
        slow = _mixed_steps(tiny_quantized, loop)
        for (fast_logits, fast_stats), (slow_logits, slow_stats) in zip(fast, slow):
            assert np.array_equal(fast_logits, slow_logits)
            for f, s in zip(fast_stats, slow_stats):
                assert np.array_equal(f.row_keys_attended, s.row_keys_attended)
                assert np.array_equal(f.row_keys_total, s.row_keys_total)
        # the predictor pruned decode rows, so their selections were compared
        decode_stats = [fast[0][1][b] for b in (1, 2, 3)] + [
            fast[1][1][b] for b in (0, 2, 4)
        ]
        assert any(s.keys_attended < s.keys_total for s in decode_stats)

    def test_pure_decode_step_calls_select_ragged_once_per_layer(self, tiny_quantized):
        """A decode step, then a mixed step (a prompt chunk next to decode
        rows), each make exactly one ``select_ragged`` call per layer."""
        model = tiny_quantized
        base = make_bgpp_predictor(alpha=0.7, rounds=3)
        row_calls, ragged_calls = [], []

        def predictor(q, keys):
            row_calls.append(np.shape(keys))
            return base(q, keys)

        def select_ragged(queries, keys, lengths):
            ragged_calls.append((keys.view.shape, len(lengths)))
            return base.select_ragged(queries, keys, lengths)

        predictor.select_ragged = select_ragged
        prompts = [[1, 2, 3], [4, 5, 6, 7, 8], [9, 10], [11, 12, 13, 14]]
        arena = _arena(model)
        caches = [model.new_cache(arena=arena) for _ in prompts]
        model.prefill_batch(prompts, caches, predictor)
        row_calls.clear()
        ragged_calls.clear()
        model.prefill_batch([[1], [2], [3], [4]], caches, predictor)
        assert row_calls == []
        hidden = model.config.hidden_size
        n_layers = model.config.n_layers
        assert ragged_calls == [((4, 6, hidden), 4)] * n_layers
        # a 5-row prompt chunk of a new stream plus three decode rows: one
        # call per layer covers all eight rows
        ragged_calls.clear()
        caches.append(model.new_cache(arena=arena))
        model.prefill_batch(
            [[20, 21, 22, 23, 24], [5], [6], [7]],
            [caches[4], caches[1], caches[2], caches[3]],
            predictor,
            total_lens=[9, 7, 4, 6],
        )
        assert row_calls == []
        assert ragged_calls == [((4, 7, hidden), 8)] * n_layers


class TestKVCache:
    def test_append_matches_vstack_reference(self):
        rng = np.random.default_rng(0)
        cache = KVCache()
        ref_k = ref_v = None
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = rng.normal(size=(n, 8))
            v = rng.normal(size=(n, 8))
            cache.append(k, v)
            ref_k = k.copy() if ref_k is None else np.vstack([ref_k, k])
            ref_v = v.copy() if ref_v is None else np.vstack([ref_v, v])
            assert np.array_equal(cache.keys, ref_k)
            assert np.array_equal(cache.values, ref_v)
            assert cache.seq_len == ref_k.shape[0]

    def test_clear_and_empty_views(self):
        cache = KVCache()
        assert cache.keys is None and cache.values is None and cache.seq_len == 0
        cache.append(np.ones(4), np.ones(4))
        assert cache.seq_len == 1
        cache.clear()
        assert cache.keys is None and cache.seq_len == 0

    def test_constructor_seed_rows(self):
        cache = KVCache(np.ones((2, 4)), np.zeros((2, 4)))
        assert cache.seq_len == 2
        assert np.array_equal(cache.keys, np.ones((2, 4)))


def _arena(model, layers=None):
    config = model.config
    n_layers = config.n_layers if layers is None else layers
    return PagedKVArena(n_layers, config.hidden_size, page_size=4)


def _decode_step(decoders, tokens):
    """One decode-only batched step: every stream a one-row chunk.

    Returns each stream's one emitted token.
    """
    emitted = IncrementalDecoder.prefill_step_batch([], [], decoders, tokens)[1]
    return [t for (t,) in emitted]


class TestStepBatch:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_exact_vs_sequential_ragged_prompts(self, tiny_quantized, seed):
        """Batched decode steps == per-stream stepping for ragged contexts."""
        rng = np.random.default_rng(seed)
        n_streams = int(rng.integers(1, 7))  # includes B=1
        vocab = tiny_quantized.config.vocab_size
        prompts = [
            rng.integers(0, vocab, size=int(rng.integers(1, 16))).tolist()
            for _ in range(n_streams)
        ]

        # the batched pass reads KV through one shared arena; the
        # sequential oracle keeps standalone caches
        arena = _arena(tiny_quantized)
        fused_decoders, fused_tokens = [], []
        seq_decoders, seq_tokens = [], []
        for prompt in prompts:
            d = IncrementalDecoder(tiny_quantized, arena=arena)
            fused_tokens.append(d.prefill(prompt))
            fused_decoders.append(d)
            d = IncrementalDecoder(tiny_quantized)
            seq_tokens.append(d.prefill(prompt))
            seq_decoders.append(d)
        assert fused_tokens == seq_tokens

        for _ in range(int(rng.integers(1, 6))):
            fused_tokens = _decode_step(fused_decoders, fused_tokens)
            seq_tokens = [d.step(t) for d, t in zip(seq_decoders, seq_tokens)]
            assert fused_tokens == seq_tokens
        for fused_d, seq_d in zip(fused_decoders, seq_decoders):
            assert np.array_equal(fused_d.last_logits, seq_d.last_logits)
            assert len(fused_d.decode_stats) == len(seq_d.decode_stats)
            for fs, ss in zip(fused_d.decode_stats, seq_d.decode_stats):
                assert fs.keys_attended == ss.keys_attended
                assert fs.keys_total == ss.keys_total
                assert fs.tokens_processed == ss.tokens_processed

    def test_empty_batch_is_noop(self):
        assert IncrementalDecoder.prefill_step_batch([], [], [], []) == ([], [])

    def test_requires_prefill_and_matching_lengths(self, tiny_quantized):
        decoder = IncrementalDecoder(tiny_quantized)
        with pytest.raises(RuntimeError, match="prefill"):
            _decode_step([decoder], [0])
        decoder.prefill([1, 2])
        with pytest.raises(ValueError, match="tokens"):
            _decode_step([decoder], [0, 1])

    def test_delegates_equal_one_row_prefill_batch(self, tiny_quantized):
        """forward_batch / decode_batch are prefill_batch over one-row chunks."""
        model = tiny_quantized
        hidden = model.config.hidden_size

        def prefilled():
            arena = _arena(model)
            caches = [model.new_cache(arena=arena) for _ in range(3)]
            for prompt, cache in zip([[1, 2, 3], [4], [5, 6, 7, 8, 9]], caches):
                model.forward(prompt, caches=cache)
            return caches

        logits_a, stats_a = model.forward_batch([3, 1, 4], prefilled())
        logits_b, stats_b, _ = model.prefill_batch([[3], [1], [4]], prefilled())
        assert np.array_equal(logits_a, logits_b)
        assert stats_a == stats_b

        def attend(via_delegate):
            rng = np.random.default_rng(0)
            arena = _arena(model, layers=1)
            caches = []
            for n in (4, 7):
                cache = arena.new_session_caches()[0]
                cache.append(rng.normal(size=(n, hidden)), rng.normal(size=(n, hidden)))
                caches.append(cache)
            q, k, v = (rng.normal(size=(2, hidden)) for _ in range(3))
            attn = model.model.layers[0].attention
            if via_delegate:
                return attn.decode_batch(q, k, v, caches)
            return attn.prefill_batch(q, k, v, [1, 1], caches)

        fast, slow = attend(True), attend(False)
        assert np.array_equal(fast.output, slow.output)
        assert np.array_equal(fast.keys_attended, slow.keys_attended)
        assert np.array_equal(fast.keys_total, slow.keys_total)


class TestFusedScheduler:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fused_run_bit_exact_vs_sequential(self, tiny_quantized, seed):
        rng = np.random.default_rng(seed)
        requests = sample_requests(
            int(rng.integers(2, 10)),
            vocab_size=tiny_quantized.config.vocab_size,
            mean_interarrival=float(rng.uniform(0.0, 2.0)),
            seed=int(rng.integers(0, 1000)),
        )
        max_active = int(rng.integers(1, 9))
        fused = ServingEngine(tiny_quantized, max_active=max_active)
        handles = fused.submit_many(requests)
        report = fused.run()
        assert_matches_solo(tiny_quantized, requests, handles)
        # no prefill budget: every prompt lands in its admission step
        for metrics in report.requests:
            assert metrics.first_token_step == metrics.admitted_step

    def test_fused_with_bgpp_predictor_bit_exact(self, tiny_quantized):
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
        requests = sample_requests(
            8, vocab_size=tiny_quantized.config.vocab_size, mean_interarrival=0.5, seed=4
        )
        engine = ServingEngine(tiny_quantized, max_active=4, predictor=predictor)
        handles = engine.submit_many(requests)
        engine.run()
        assert_matches_solo(tiny_quantized, requests, handles, predictor=predictor)

    def test_decode_step_batch_requires_active_sessions(self, tiny_quantized):
        request = Request("r0", prompt_tokens=[1, 2], max_new_tokens=4)
        session = GenerationSession(request, tiny_quantized)
        with pytest.raises(RuntimeError, match="not active"):
            GenerationSession.decode_step_batch([session], step=0)

    def test_all_finished_step_emits_nothing(self, tiny_quantized):
        """A drained scheduler step (no queued, no active) is a no-op."""
        sched = ServingEngine(tiny_quantized, max_active=4)
        sched.submit(Request("r0", prompt_tokens=[1], max_new_tokens=1))
        sched.run()
        assert not sched.has_work
        assert sched.step() == {}

    def test_engine_bound_model_decodes_once_per_matrix(self):
        model = QuantizedTransformer(
            TransformerModel(get_model_config("tiny"), seed=0), seed=1
        )
        engine = MCBPEngine(group_size=4, weight_bits=8)
        model.bind_engine(engine)
        engine.codec.reset_counters()
        sched = ServingEngine(model, max_active=4)
        sched.submit_many(
            Request(f"r{i}", prompt_tokens=[i + 1, i + 2], max_new_tokens=6)
            for i in range(4)
        )
        sched.run()
        n_matrices = len(model.quantized_weight_matrices())
        assert engine.codec.decode_calls == n_matrices
        assert engine.stats.cache_misses == n_matrices
        assert engine.stats.cache_hits > 0

    def test_bgpp_kv_counters_equal_per_row_results(self):
        """A bound engine's BGPP counters, over a served trace with prompt
        chunks and decode rows, equal the sum of the per-row
        ``BGPPResult``s of the same quantised rows, replayed one by one."""
        model = QuantizedTransformer(
            TransformerModel(get_model_config("tiny"), seed=0), seed=1
        )
        engine = MCBPEngine(group_size=4, weight_bits=8)
        model.bind_engine(engine)
        base = make_bgpp_predictor(alpha=0.7, rounds=3)
        seen = []

        def predictor(q, keys):
            return base(q, keys)

        def select_ragged(queries, keys, lengths):
            picks = base.select_ragged(queries, keys, lengths)
            rows = zip(queries, keys.row_keys(lengths), picks)
            seen.extend((q.copy(), k.copy(), p) for q, k, p in rows)
            return picks

        predictor.select_ragged = select_ragged
        sched = ServingEngine(
            model, max_active=3, predictor=predictor, prefill_token_budget=6
        )
        sched.submit_many(
            sample_requests(6, vocab_size=model.config.vocab_size, seed=2)
        )
        sched.run()
        config = BGPPConfig(rounds=3, alpha=0.7, query_bits=4)
        totals = dict.fromkeys(
            ("keys_selected", "keys_total", "kv_bits_loaded", "kv_bits_dense"), 0
        )
        for q, k, picks in seen:
            d = q.size
            q_int = np.round(q / (np.abs(q).max() / 127.0))
            k_int = np.round(k / (np.abs(k).max() / 127.0))
            k_norm = np.mean(np.linalg.norm(k_int, axis=1))
            score_std = max(np.linalg.norm(q_int) * k_norm / np.sqrt(d), 1e-9)
            config.score_scale = 0.8 / score_std
            result = bgpp_select_batch(q_int[None], k_int, config)[0]
            assert np.array_equal(result.selected, picks)
            totals["keys_selected"] += result.selected.size
            totals["keys_total"] += k.shape[0]
            totals["kv_bits_loaded"] += result.kv_bits_loaded
            totals["kv_bits_dense"] += k.size * config.key_bits
        assert {name: getattr(engine.stats, name) for name in totals} == totals
        assert engine.stats.kv_bits_loaded < engine.stats.kv_bits_dense
        assert engine.stats.keys_selected < engine.stats.keys_total


class TestEngineMatmul:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matmul_bit_exact_vs_gemm(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 17))
        hidden = int(rng.integers(1, 33))
        n_cols = int(rng.integers(1, 6))
        bits = int(rng.integers(2, 9))
        weights = _signed(rng, (rows, hidden), bits)
        acts = rng.integers(-100, 100, size=(hidden, n_cols))
        fast = MCBPEngine(group_size=4, weight_bits=bits)
        slow = MCBPEngine(group_size=4, weight_bits=bits)
        fast.register_weight("w", weights)
        slow.register_weight("w", weights)
        assert np.array_equal(fast.matmul("w", acts), slow.gemm("w", acts))
        assert np.array_equal(
            fast.matmul("w", acts[:, 0]), weights.astype(np.int64) @ acts[:, 0]
        )

    def test_matmul_counters_and_cache(self):
        rng = np.random.default_rng(0)
        engine = MCBPEngine(group_size=4, weight_bits=8)
        weights = _signed(rng, (8, 16), 8)
        engine.register_weight("w", weights)
        acts = rng.integers(-100, 100, size=(16, 4))
        engine.matmul("w", acts)
        engine.matmul("w", acts)
        assert engine.stats.gemm_calls == 2
        assert engine.stats.dense_macs == 2 * 8 * 16 * 4
        assert engine.stats.brcr_additions == 0  # no bit-serial execution ran
        assert engine.stats.cache_misses == 1 and engine.stats.cache_hits == 1
        assert engine.codec.decode_calls == 1
        with pytest.raises(KeyError):
            engine.matmul("missing", acts)

    def test_matmul_huge_magnitudes_fall_back_exactly(self):
        """Activations near the float64-exactness bound use integer loops."""
        engine = MCBPEngine(group_size=1, weight_bits=8)
        weights = np.array([[127, -127]], dtype=np.int64)
        engine.register_weight("w", weights)
        acts = np.array([2**48, -(2**48)], dtype=np.int64)
        assert np.array_equal(
            engine.matmul("w", acts), weights.astype(np.int64) @ acts
        )

    def test_quantized_linear_guards_blas_exactness(self):
        """Precisions that could overflow the float64 mantissa keep int paths."""
        from repro.quant.calibration import calibrate_linear

        rng = np.random.default_rng(0)
        weights = rng.normal(size=(6, 16))
        calib = rng.normal(size=(10, 16))
        int8 = calibrate_linear(weights, calib)
        assert int8.blas_product_is_exact()
        wide = calibrate_linear(weights, calib, weight_bits=30, activation_bits=30)
        assert not wide.blas_product_is_exact()
        # both routes must still produce the exact folded integer result
        x = rng.normal(size=(3, 16))
        for qlin in (int8, wide):
            out, _ = qlin.forward(x)
            xq = qlin.quantize_input(x).T
            product = qlin.weight_q.astype(np.int64) @ xq
            scale, bias = qlin.folded_scale_bias()
            expected = (scale[:, None] * product + bias[:, None]).T
            assert np.array_equal(out, expected)


class TestServingReportJson:
    def test_round_trip(self, tiny_quantized):
        sched = ServingEngine(tiny_quantized, max_active=3)
        sched.submit_many(
            sample_requests(
                6,
                vocab_size=tiny_quantized.config.vocab_size,
                mean_interarrival=1.0,
                seed=2,
            )
        )
        report = sched.run()
        payload = report.to_json()
        # derived aggregates are present for consumers...
        assert payload["total_tokens"] == report.total_tokens
        assert payload["throughput_tokens_per_step"] == pytest.approx(
            report.throughput_tokens_per_step
        )
        # ...and ignored on the way back in: everything recomputes
        rebuilt = ServingReport.from_json(payload)
        assert rebuilt.steps == report.steps
        assert rebuilt.max_concurrency == report.max_concurrency
        assert rebuilt.requests == report.requests
        assert rebuilt.total_tokens == report.total_tokens
        assert rebuilt.summary() == report.summary()

    def test_json_is_serialisable(self, tiny_quantized):
        import json

        sched = ServingEngine(tiny_quantized, max_active=2)
        sched.submit(Request("r0", prompt_tokens=[1, 2, 3], max_new_tokens=3))
        report = sched.run()
        rebuilt = ServingReport.from_json(json.loads(json.dumps(report.to_json())))
        assert rebuilt.requests == report.requests
