"""Unit and property tests for BGPP progressive prediction (repro.core.bgpp)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import (
    BGPPConfig,
    BGPPResult,
    attention_sparsity,
    bgpp_select,
    bgpp_select_batch,
    exact_topk,
    make_bgpp_predictor,
    make_value_topk_predictor,
    selection_recall,
    value_topk_select,
)
from repro.core.bitslice import to_bitslices
from repro.workloads.profile import synthetic_attention_tensors

EQUIV = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def attention_data():
    queries, keys, scale = synthetic_attention_tensors(256, 64, seed=42)
    return queries, keys, scale


class TestBGPPConfig:
    def test_alpha_scalar(self):
        config = BGPPConfig(alpha=0.5)
        assert config.alpha_for_round(0) == 0.5
        assert config.alpha_for_round(5) == 0.5

    def test_alpha_schedule(self):
        config = BGPPConfig(alpha=[0.9, 0.7, 0.5])
        assert config.alpha_for_round(0) == 0.9
        assert config.alpha_for_round(2) == 0.5
        assert config.alpha_for_round(9) == 0.5  # clamps to last entry

    def test_validation(self):
        with pytest.raises(ValueError):
            BGPPConfig(rounds=0)
        with pytest.raises(ValueError):
            BGPPConfig(radius=-1)
        with pytest.raises(ValueError):
            BGPPConfig(min_keys=0)


class TestBGPPSelect:
    def test_returns_sorted_unique_indices(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[0], keys, BGPPConfig(score_scale=scale))
        assert np.array_equal(result.selected, np.unique(result.selected))
        assert result.selected.size >= 1
        assert result.selected.max() < keys.shape[0]

    def test_alpha_one_keeps_more_than_aggressive(self, attention_data):
        queries, keys, scale = attention_data
        generous = bgpp_select(
            queries[0], keys, BGPPConfig(alpha=1.0, radius=10.0, score_scale=scale)
        )
        aggressive = bgpp_select(
            queries[0], keys, BGPPConfig(alpha=0.3, score_scale=scale)
        )
        assert generous.selected.size >= aggressive.selected.size

    def test_kv_traffic_less_than_full_precision(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[0], keys, BGPPConfig(score_scale=scale))
        full_bits = keys.size * 8
        assert result.kv_bits_loaded < full_bits

    def test_traffic_below_value_topk_for_aggressive_filter(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(
            queries[0], keys, BGPPConfig(rounds=3, alpha=0.5, score_scale=scale)
        )
        baseline = value_topk_select(queries[0], keys, k=64, prediction_bits=4)
        assert result.kv_bits_loaded < baseline.kv_bits_loaded

    def test_recall_of_important_keys(self, attention_data):
        queries, keys, scale = attention_data
        recalls = []
        for q in queries:
            result = bgpp_select(
                q, keys, BGPPConfig(rounds=3, alpha=0.7, score_scale=scale)
            )
            reference = exact_topk(q, keys, 16)
            recalls.append(selection_recall(result.selected, reference))
        assert np.mean(recalls) > 0.7

    def test_survivors_monotonically_non_increasing(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(queries[1], keys, BGPPConfig(rounds=4, score_scale=scale))
        survivors = result.survivors_per_round
        assert all(a >= b for a, b in zip(survivors, survivors[1:]))

    def test_min_keys_respected(self, attention_data):
        queries, keys, scale = attention_data
        result = bgpp_select(
            queries[0],
            keys,
            BGPPConfig(alpha=0.0, radius=100.0, score_scale=scale, min_keys=5),
        )
        assert result.selected.size >= 5

    def test_empty_keys(self):
        result = bgpp_select(np.array([1, 2]), np.zeros((0, 2), dtype=np.int64))
        assert result.selected.size == 0
        assert result.kv_bits_loaded == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bgpp_select(np.array([1, 2, 3]), np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            bgpp_select(np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            bgpp_select(np.zeros((2, 2, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64))

    def test_two_dim_query_dispatches_to_batch(self, attention_data):
        queries, keys, scale = attention_data
        results = bgpp_select(queries[:4], keys, BGPPConfig(score_scale=scale))
        assert isinstance(results, list) and len(results) == 4
        for q, res in zip(queries[:4], results):
            single = bgpp_select(q, keys, BGPPConfig(score_scale=scale))
            assert np.array_equal(res.selected, single.selected)
            assert res.kv_bits_loaded == single.kv_bits_loaded

    def test_batch_helper(self, attention_data):
        queries, keys, scale = attention_data
        results = bgpp_select_batch(queries[:3], keys, BGPPConfig(score_scale=scale))
        assert len(results) == 3
        sparsity = attention_sparsity(results, keys.shape[0])
        assert 0.0 <= sparsity <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_selected_indices_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-127, 128, size=(32, 16))
        q = rng.integers(-127, 128, size=16)
        result = bgpp_select(q, keys, BGPPConfig(score_scale=0.01))
        assert result.selected.size >= 1
        assert result.selected.min() >= 0
        assert result.selected.max() < 32


class TestValueTopK:
    def test_selects_k_keys(self, attention_data):
        queries, keys, _ = attention_data
        result = value_topk_select(queries[0], keys, k=10)
        assert result.selected.size == 10

    def test_k_larger_than_keys_clamped(self):
        keys = np.ones((4, 8), dtype=np.int64)
        result = value_topk_select(np.ones(8, dtype=np.int64), keys, k=100)
        assert result.selected.size == 4

    def test_traffic_scales_with_prediction_bits(self, attention_data):
        queries, keys, _ = attention_data
        four = value_topk_select(queries[0], keys, k=10, prediction_bits=4)
        eight = value_topk_select(queries[0], keys, k=10, prediction_bits=8)
        assert eight.kv_bits_loaded == 2 * four.kv_bits_loaded

    def test_full_precision_prediction_matches_exact(self, attention_data):
        queries, keys, _ = attention_data
        result = value_topk_select(queries[0], keys, k=16, prediction_bits=8)
        reference = exact_topk(queries[0], keys, 16)
        assert selection_recall(result.selected, reference) == 1.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            value_topk_select(np.ones(4, dtype=np.int64), np.ones((2, 4), dtype=np.int64), k=0)


class TestOracles:
    def test_exact_topk_finds_largest(self):
        keys = np.array([[1, 0], [10, 0], [5, 0]])
        q = np.array([1, 0])
        assert exact_topk(q, keys, 2).tolist() == [1, 2]

    def test_recall_bounds(self):
        assert selection_recall(np.array([1, 2, 3]), np.array([1, 2])) == 1.0
        assert selection_recall(np.array([1]), np.array([1, 2])) == 0.5
        assert selection_recall(np.array([]), np.array([])) == 1.0


class TestPredictorFactories:
    def test_bgpp_predictor_on_float_inputs(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(64, 16))
        q = keys[:4].mean(axis=0)
        predictor = make_bgpp_predictor(alpha=0.7)
        selected = predictor(q, keys)
        assert selected.size >= 1
        assert selected.max() < 64

    def test_value_predictor_keep_fraction(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(40, 8))
        predictor = make_value_topk_predictor(keep_fraction=0.25)
        assert predictor(rng.normal(size=8), keys).size == 10

    def test_value_predictor_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            make_value_topk_predictor(keep_fraction=0.0)

    def test_predictors_handle_empty_keys(self):
        predictor = make_bgpp_predictor()
        assert predictor(np.ones(4), np.zeros((0, 4))).size == 0


# ---------------------------------------------------------------------------
# Equivalence of the truncated-magnitude kernel with the bit-plane filter
# ---------------------------------------------------------------------------


def _reference_select(query, keys, config):
    """The bit-serial filter of Fig. 9, one signed key bit plane per round.

    Test-only reference: slices the keys into sign-magnitude planes, streams
    them MSB first and filters with Eq. 1 after every plane, in int64.
    """
    query = np.asarray(query)
    keys = np.asarray(keys)
    n_keys, d = keys.shape
    if n_keys == 0:
        return BGPPResult(np.zeros(0, dtype=np.int64), np.zeros(0), [], 0, 0, 0, False)
    q = query.astype(np.int64)
    if config.query_bits < config.key_bits:
        shift = config.key_bits - config.query_bits
        q = (q >> shift) << shift
    slices = to_bitslices(keys, bits=config.key_bits, fmt="sign_magnitude")
    sign_factor = 1 - 2 * slices[-1].astype(np.int64)
    planes = [
        slices[i].astype(np.int64) * sign_factor
        for i in reversed(range(config.key_bits - 1))
    ]
    rounds = min(config.rounds, len(planes))
    alive = np.arange(n_keys)
    psum = np.zeros(n_keys, dtype=np.int64)
    kv_bits = n_keys * d  # sign plane
    mac_ops = 0
    survivors = []
    early = False
    for r in range(rounds):
        kv_bits += alive.size * d
        mac_ops += alive.size * d
        psum[alive] += (planes[r][alive] @ q) << (config.key_bits - 2 - r)
        scores = psum[alive].astype(np.float64) * config.score_scale
        threshold = scores.max() - config.alpha_for_round(r) * config.radius
        if threshold <= scores.min():
            survivors.append(int(alive.size))
            continue
        keep = scores >= threshold
        if keep.sum() < config.min_keys:
            order = np.argsort(scores)[::-1]
            keep = np.zeros_like(keep)
            keep[order[: config.min_keys]] = True
        alive = alive[keep]
        survivors.append(int(alive.size))
        if alive.size <= config.min_keys:
            early = True
            break
    return BGPPResult(
        selected=np.sort(alive),
        estimated_scores=psum.astype(np.float64) * config.score_scale,
        survivors_per_round=survivors,
        kv_bits_loaded=int(kv_bits),
        mac_ops=int(mac_ops),
        rounds_executed=len(survivors),
        early_terminated=early,
    )


def _reference_predictor(alpha, rounds, query_bits=4, score_std_target=0.8):
    """``make_bgpp_predictor``'s quantise-and-filter path over the reference."""

    def predictor(query, keys):
        query = np.asarray(query, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        q_int = np.clip(
            np.round(query / (max(np.abs(query).max(), 1e-12) / 127.0)), -127, 127
        ).astype(np.int64)
        k_int = np.clip(
            np.round(keys / (max(np.abs(keys).max(), 1e-12) / 127.0)), -127, 127
        ).astype(np.int64)
        q_norm = float(np.linalg.norm(q_int))
        k_norm = float(np.mean(np.linalg.norm(k_int, axis=1)))
        score_std = max(q_norm * k_norm / np.sqrt(query.shape[0]), 1e-9)
        config = BGPPConfig(
            rounds=rounds,
            alpha=alpha,
            query_bits=query_bits,
            score_scale=score_std_target / score_std,
        )
        return _reference_select(q_int, k_int, config).selected

    return predictor


def _assert_same_result(result, reference):
    assert np.array_equal(result.selected, reference.selected)
    assert result.selected.dtype == reference.selected.dtype
    # bit-identical, so no -0.0 where the int64 filter produced 0.0
    assert result.estimated_scores.tobytes() == reference.estimated_scores.tobytes()
    assert result.survivors_per_round == reference.survivors_per_round
    assert result.kv_bits_loaded == reference.kv_bits_loaded
    assert result.mac_ops == reference.mac_ops
    assert result.rounds_executed == reference.rounds_executed
    assert result.early_terminated == reference.early_terminated


@st.composite
def _filter_cases(draw):
    """A filter config plus integer keys/queries covering the edge cases."""
    key_bits = draw(st.integers(2, 8))
    alpha_value = st.floats(-0.5, 1.5, allow_nan=False)
    config = BGPPConfig(
        rounds=draw(st.integers(1, 7)),
        radius=draw(st.sampled_from([0.0, 0.5, 3.0, 6.0])),
        alpha=draw(st.one_of(alpha_value, st.lists(alpha_value, min_size=1, max_size=7))),
        key_bits=key_bits,
        query_bits=draw(st.integers(1, 8)),
        score_scale=draw(st.sampled_from([0.001, 0.02, 0.3, 1.0])),
        min_keys=draw(st.integers(1, 4)),
    )
    n_keys = draw(st.sampled_from([0, 1, 2, 5, 17, 40]))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = 2 ** (key_bits - 1) - 1
    kind = draw(st.sampled_from(["mixed", "negative", "zero", "few_levels"]))
    if kind == "mixed":
        keys = rng.integers(-limit, limit + 1, size=(n_keys, d))
    elif kind == "negative":
        keys = -rng.integers(0, limit + 1, size=(n_keys, d))
    elif kind == "zero":
        keys = np.zeros((n_keys, d), dtype=np.int64)
    else:  # coarse values: many equal scores, ties at the min_keys guard
        keys = rng.choice([-limit, 0, limit], size=(n_keys, d))
    queries = rng.integers(-127, 128, size=(draw(st.integers(1, 6)), d))
    return config, queries, keys, rng


class TestTruncatedKernelEquivalence:
    """Every field of the vectorised filter matches the bit-plane loop."""

    @EQUIV
    @given(_filter_cases())
    def test_single_row_matches_bit_plane_reference(self, case):
        config, queries, keys, _ = case
        for query in queries:
            _assert_same_result(
                bgpp_select(query, keys, config), _reference_select(query, keys, config)
            )

    @EQUIV
    @given(_filter_cases())
    def test_ragged_batch_matches_bit_plane_reference(self, case):
        config, queries, keys, rng = case
        n_queries = queries.shape[0]
        lengths = rng.integers(0, keys.shape[0] + 1, size=n_queries)
        scales = rng.choice([0.001, 0.05, 0.4, 2.0], size=n_queries)
        batch = bgpp_select_batch(
            queries, keys, config, key_lengths=lengths, score_scales=scales
        )
        assert len(batch) == n_queries
        for b, result in enumerate(batch):
            row_config = BGPPConfig(**{**vars(config), "score_scale": float(scales[b])})
            _assert_same_result(
                result, _reference_select(queries[b], keys[: lengths[b]], row_config)
            )

    @pytest.mark.parametrize("bad", [128, -128, 300])
    def test_out_of_range_key_raises(self, bad):
        keys = np.zeros((4, 3), dtype=np.int64)
        keys[2, 1] = bad
        query = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match="sign_magnitude"):
            _reference_select(query, keys, BGPPConfig())
        with pytest.raises(ValueError, match="sign_magnitude"):
            bgpp_select(query, keys, BGPPConfig())
        with pytest.raises(ValueError, match="sign_magnitude"):
            bgpp_select_batch(query[None, :], keys, BGPPConfig(), key_lengths=[1])
        with pytest.raises(ValueError, match="sign_magnitude"):
            make_bgpp_predictor(key_bits=4)(np.ones(3), np.ones((4, 3)))

    @EQUIV
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(
            st.floats(0.2, 1.0),
            st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3),
        ),
        st.integers(1, 7),
        st.integers(1, 8),
    )
    def test_predictor_and_select_ragged_match_reference(
        self, seed, alpha, rounds, query_bits
    ):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(0, 40))
        d = int(rng.integers(1, 24))
        # a few spiky keys make the running key scale change along the prefix
        keys = rng.normal(size=(n_keys, d)) * rng.choice([0.1, 1.0, 8.0], size=(n_keys, 1))
        queries = rng.normal(size=(int(rng.integers(1, 8)), d))
        lengths = rng.integers(0, n_keys + 1, size=queries.shape[0])
        predictor = make_bgpp_predictor(alpha=alpha, rounds=rounds, query_bits=query_bits)
        reference = _reference_predictor(alpha, rounds, query_bits=query_bits)
        ragged = predictor.select_ragged(queries, keys, lengths)
        for i, query in enumerate(queries):
            expected = reference(query, keys[: lengths[i]])
            assert np.array_equal(predictor(query, keys[: lengths[i]]), expected)
            assert np.array_equal(ragged[i], expected)
