"""Speculative multi-token decode tests (PR 10).

The contract under test is *bit-identity*: for any drafter, any ``k`` and
any engine configuration, the committed token stream and terminal state of
every request must equal the speculation-off run exactly -- speculation may
only change *when* tokens come out (fewer step-domain steps), never *which*.
The fuzz classes sweep k in {1..4} x drafters x the orthogonal engine knobs
(prefix cache, int8 KV pages, snapshot preemption + preemptive policies,
2% chaos faults) and additionally pin the arena's rollback books:
``draft_rows_appended - rows_rolled_back`` equals the total accepted drafts
on fault-free runs, and the arena always drains to zero pages.

Unit classes cover the two drafters, the adaptive throttle's window
arithmetic, :meth:`PagedKVArena.truncate_session` and the report/metrics
plumbing (spec keys only when speculation is on; ``from_json`` tolerant
both ways).  ``TestZeroDraftIsPlainDecode`` pins that a drafter which
never proposes runs exactly the speculation-off engine, step by step, and
that every step value is a token list.  ``TestAdaptivePrefillBudget``
covers the :class:`AdaptivePrefillPolicy` prefill throttle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import QuantizedTransformer, TransformerModel, get_model_config
from repro.serve import (
    AdaptivePrefillPolicy,
    Drafter,
    FaultPlan,
    NGramDrafter,
    PagedKVArena,
    Request,
    ServingEngine,
    ServingReport,
    SessionState,
    SpeculationConfig,
    TruncatedBitDrafter,
    make_policy,
)
from repro.serve.speculative import _SessionThrottle, resolve_speculation


FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


def _sample_trace(rng, vocab, repetitive=False):
    """Random request trace; ``repetitive`` biases toward draftable prompts."""
    n_requests = int(rng.integers(2, 7))
    arrivals = np.sort(rng.integers(0, 6, size=n_requests))
    requests = []
    for i in range(n_requests):
        if repetitive and rng.random() < 0.5:
            motif = rng.integers(0, vocab, size=int(rng.integers(2, 5))).tolist()
            prompt = (motif * 4)[: int(rng.integers(4, 14))]
        else:
            prompt = rng.integers(0, vocab, size=int(rng.integers(1, 12))).tolist()
        requests.append(
            Request(
                request_id=f"r{i:02d}",
                prompt_tokens=prompt,
                max_new_tokens=int(rng.integers(1, 10)),
                arrival_step=int(arrivals[i]),
            )
        )
    return requests


def _run(model, requests, speculative=None, **kwargs):
    engine = ServingEngine(model, speculative=speculative, **kwargs)
    handles = [engine.submit(r) for r in requests]
    engine.run()
    tokens = {h.request_id: list(h.generated_tokens) for h in handles}
    states = {h.request_id: h.state for h in handles}
    return tokens, states, engine


def _assert_books(engine, metrics_accepted=None):
    stats = engine.arena.stats
    assert stats.pages_in_use == 0
    assert (
        stats.page_faults - stats.pages_freed
        == stats.pages_in_use + stats.cached_idle_pages
    )
    if metrics_accepted is not None:
        assert (
            stats.draft_rows_appended - stats.rows_rolled_back
            == metrics_accepted
        )


# -- drafters ------------------------------------------------------------------


class TestNGramDrafter:
    def test_echoes_repeated_continuation(self):
        d = NGramDrafter(max_n=3)
        # trailing [5, 6] occurred earlier, followed by 7, 8
        assert d.propose([5, 6, 7, 8, 5, 6], 2) == [7, 8]

    def test_prefers_longest_ngram_and_most_recent_occurrence(self):
        d = NGramDrafter(max_n=3)
        # trailing trigram [1, 2, 3] matches at both 0 and 4; the more
        # recent occurrence (4) is followed by 9
        hist = [1, 2, 3, 7, 1, 2, 3, 9, 1, 2, 3]
        assert d.propose(hist, 1) == [9]

    def test_extends_over_its_own_proposals(self):
        d = NGramDrafter(max_n=3)
        # a period-3 cycle proposes beyond one period: the continuation
        # re-matches against the extended history
        hist = [1, 2, 3, 1, 2, 3]
        assert d.propose(hist, 7) == [1, 2, 3, 1, 2, 3, 1]

    def test_no_match_proposes_nothing(self):
        d = NGramDrafter()
        assert d.propose([1, 2, 3, 4, 5], 4) == []
        assert d.propose([1], 4) == []
        assert d.propose([1, 1, 2], 0) == []

    def test_max_n_validation(self):
        with pytest.raises(ValueError):
            NGramDrafter(max_n=0)


class TestTruncatedBitDrafter:
    def test_deterministic_and_in_vocab(self, model):
        d = TruncatedBitDrafter(model, bits=4)
        vocab = model.config.vocab_size
        hist = [3, 17, 5, 9]
        first = d.propose(hist, 6)
        assert first == d.propose(hist, 6)
        assert len(first) == 6
        assert all(0 <= t < vocab for t in first)

    def test_chain_feeds_own_proposals(self, model):
        d = TruncatedBitDrafter(model, bits=4)
        one = d.propose([11], 1)
        two = d.propose([11], 2)
        assert two[0] == one[0]
        assert two[1] == d.propose([one[0]], 1)[0]

    def test_bits_validation(self, model):
        with pytest.raises(ValueError):
            TruncatedBitDrafter(model, bits=0)
        with pytest.raises(ValueError):
            TruncatedBitDrafter(model, bits=99)

    def test_empty_history_proposes_nothing(self, model):
        assert TruncatedBitDrafter(model).propose([], 4) == []


# -- config / throttle ---------------------------------------------------------


class TestSpeculationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(k=0)
        with pytest.raises(ValueError):
            SpeculationConfig(window=0)
        with pytest.raises(ValueError):
            SpeculationConfig(low_rate=0.9, high_rate=0.5)
        with pytest.raises(ValueError):
            SpeculationConfig(cooldown_steps=0)

    def test_resolve_shorthand(self):
        assert resolve_speculation(None) is None
        assert resolve_speculation(3).k == 3
        cfg = SpeculationConfig(k=2)
        assert resolve_speculation(cfg) is cfg
        with pytest.raises(TypeError):
            resolve_speculation(True)
        with pytest.raises(TypeError):
            resolve_speculation("fast")

    def test_engine_knob_validation(self, model):
        with pytest.raises(TypeError, match="PagedKVArena"):
            ServingEngine(model, speculative=2, arena=False)
        with pytest.raises(TypeError):
            ServingEngine(model, speculative="yes")


class TestSessionThrottle:
    def test_non_adaptive_always_full_k(self):
        t = _SessionThrottle(SpeculationConfig(k=3, adaptive=False))
        for _ in range(20):
            assert t.next_k() == 3
            t.observe(3, 0)

    def test_steps_down_on_poor_acceptance(self):
        t = _SessionThrottle(SpeculationConfig(k=2, window=4, low_rate=0.5))
        for _ in range(4):
            t.observe(2, 0)
        assert t.next_k() == 1

    def test_cooldown_then_reprobe_at_one(self):
        cfg = SpeculationConfig(k=1, window=2, low_rate=0.5, cooldown_steps=3)
        t = _SessionThrottle(cfg)
        t.observe(1, 0)
        t.observe(1, 0)
        assert t.k_cur == 0
        # cooldown: proposes nothing for cooldown_steps - 1 ticks, then
        # probes again at k=1
        assert t.next_k() == 0
        assert t.next_k() == 0
        assert t.next_k() == 1

    def test_steps_back_up_on_good_acceptance(self):
        cfg = SpeculationConfig(k=4, window=2, low_rate=0.1, high_rate=0.5)
        t = _SessionThrottle(cfg)
        t.k_cur = 1
        t.observe(1, 1)
        t.observe(1, 1)
        assert t.next_k() == 2


# -- arena truncation ----------------------------------------------------------


class TestTruncateSession:
    def _arena(self, **kwargs):
        return PagedKVArena(n_layers=2, hidden_size=8, page_size=4, **kwargs)

    def test_pops_rows_and_frees_emptied_pages(self):
        arena = self._arena()
        sid = arena.create_session()
        rows = np.ones((6, 8))
        for layer in (0, 1):
            arena.append(sid, layer, rows, rows)
        assert arena.stats.pages_in_use == 2  # pages span layers: 6 rows -> 2
        arena.truncate_session(sid, 3)  # 6 -> 3 rows: second page empties
        assert arena.seq_len(sid, 0) == 3
        assert arena.stats.pages_in_use == 1
        assert arena.stats.rows_rolled_back == 3
        assert arena.stats.pages_freed == 1
        arena.free(sid)
        assert arena.stats.pages_in_use == 0

    def test_truncated_rows_reread_bit_identical(self):
        arena = self._arena()
        rng = np.random.default_rng(0)
        keep = rng.normal(size=(5, 8))
        sid = arena.create_session()
        for layer in (0, 1):
            arena.append(sid, layer, keep, keep)
        # append 3 draft rows, roll them back, re-append different ones
        draft = rng.normal(size=(3, 8))
        for layer in (0, 1):
            arena.append(sid, layer, draft, draft)
        arena.truncate_session(sid, 3)
        redo = rng.normal(size=(2, 8))
        for layer in (0, 1):
            arena.append(sid, layer, redo, redo)
        keys, _, lengths = arena.gather_batch(0, [sid])
        assert int(lengths[0]) == 7
        np.testing.assert_array_equal(
            keys[0, : int(lengths[0])], np.concatenate([keep, redo])
        )

    def test_zero_rows_is_a_no_op(self):
        arena = self._arena()
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((2, 8)), np.ones((2, 8)))
        before = arena.stats.pages_in_use
        arena.truncate_session(sid, 0)
        assert arena.stats.pages_in_use == before
        assert arena.stats.rows_rolled_back == 0

    def test_over_truncation_raises(self):
        arena = self._arena()
        sid = arena.create_session()
        arena.append(sid, 0, np.ones((2, 8)), np.ones((2, 8)))
        with pytest.raises(ValueError):
            arena.truncate_session(sid, 5)
        with pytest.raises(ValueError):
            arena.truncate_session(sid, -1)

    def test_negative_and_unknown_session(self):
        arena = self._arena()
        with pytest.raises(KeyError):
            arena.truncate_session(12345, 1)


# -- bit-identity fuzz ---------------------------------------------------------


class TestSpeculativeBitIdentity:
    """Tokens and terminal states never depend on speculation."""

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_k_sweep_both_drafters(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_trace(rng, model.config.vocab_size, repetitive=True)
        max_active = int(rng.integers(1, 7))
        base_tokens, base_states, _ = _run(model, requests, max_active=max_active)
        k = int(rng.integers(1, 5))
        shared = PagedKVArena(
            model.config.n_layers, model.config.hidden_size, page_size=4
        )
        for drafter, arena in (
            (NGramDrafter(), None),
            (TruncatedBitDrafter(model, bits=4), None),
            # 4-token pages: verify chunks and rollbacks cross page boundaries
            (NGramDrafter(), shared),
        ):
            cfg = SpeculationConfig(
                k=k, adaptive=bool(rng.random() < 0.5), drafter=drafter
            )
            tokens, states, engine = _run(
                model, requests, speculative=cfg, max_active=max_active, arena=arena
            )
            assert tokens == base_tokens, f"k={k} drafter={drafter.name}"
            assert states == base_states
            accepted = sum(
                m.draft_accepted for m in engine.report().requests
            )
            _assert_books(engine, metrics_accepted=accepted)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_with_prefix_cache_and_int8_kv(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_trace(rng, model.config.vocab_size, repetitive=True)
        max_active = int(rng.integers(1, 7))
        prefix_cache = bool(rng.random() < 0.5)

        def run(speculative=None):
            arena = None
            if not prefix_cache:
                config = model.config
                arena = PagedKVArena(
                    config.n_layers, config.hidden_size, kv_dtype="int8"
                )
            return _run(
                model,
                requests,
                speculative=speculative,
                max_active=max_active,
                prefix_cache=prefix_cache,
                arena=arena,
            )

        base_tokens, base_states, _ = run()
        tokens, states, engine = run(SpeculationConfig(k=int(rng.integers(1, 5))))
        assert tokens == base_tokens
        assert states == base_states
        accepted = sum(m.draft_accepted for m in engine.report().requests)
        _assert_books(engine, metrics_accepted=accepted)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_with_preemptive_policies_and_snapshots(self, model, seed):
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        requests = [
            Request(
                request_id=f"p{i:02d}",
                prompt_tokens=rng.integers(0, vocab, size=int(rng.integers(2, 10))).tolist(),
                max_new_tokens=int(rng.integers(2, 8)),
                arrival_step=int(rng.integers(0, 5)),
                priority=int(rng.integers(0, 3)),
                deadline_steps=int(rng.integers(4, 30)),
            )
            for i in range(int(rng.integers(3, 7)))
        ]
        discipline = ["priority", "deadline"][int(rng.integers(0, 2))]
        kwargs = {
            "max_active": int(rng.integers(1, 4)),
            "scheduling": make_policy(discipline),
            "kv_snapshots": bool(rng.random() < 0.5),
        }
        base_tokens, base_states, _ = _run(model, requests, **kwargs)
        kwargs["scheduling"] = make_policy(discipline)
        cfg = SpeculationConfig(k=int(rng.integers(1, 5)))
        tokens, states, engine = _run(model, requests, speculative=cfg, **kwargs)
        assert tokens == base_tokens
        assert states == base_states
        accepted = sum(m.draft_accepted for m in engine.report().requests)
        _assert_books(engine, metrics_accepted=accepted)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_chaos_faults_finished_streams_stay_exact(self, model, seed):
        """2% uniform chaos: what finishes, finishes bit-identically.

        A speculative step changes the step-domain schedule, so the
        deterministic fault streams hit different (request, step) pairs
        than the spec-off run -- terminal outcomes may legitimately differ
        between the two.  What must hold: the run is deterministic under
        its seed, every FINISHED request's tokens equal the fault-free
        baseline stream, the arena drains with balanced books, and the
        rollback ledger never under-counts (quarantined speculative
        commits append draft rows whose acceptance is discarded, so
        ``appended - rolled_back >= accepted``).
        """
        rng = np.random.default_rng(seed)
        requests = _sample_trace(rng, model.config.vocab_size, repetitive=True)
        base_tokens, _, _ = _run(model, requests, max_active=4)
        plan = FaultPlan.uniform(probability=0.02, seed=seed)
        cfg = SpeculationConfig(k=int(rng.integers(1, 5)))

        def chaos_run():
            return _run(
                model, requests, speculative=cfg, max_active=4, faults=plan
            )

        tokens, states, engine = chaos_run()
        tokens2, states2, _ = chaos_run()
        assert tokens == tokens2 and states == states2  # replayable
        for rid, state in states.items():
            if state is SessionState.FINISHED:
                assert tokens[rid] == base_tokens[rid]
        stats = engine.arena.stats
        assert stats.pages_in_use == 0
        assert (
            stats.page_faults - stats.pages_freed == stats.cached_idle_pages
        )
        accepted = sum(m.draft_accepted for m in engine.report().requests)
        assert stats.draft_rows_appended - stats.rows_rolled_back >= accepted


# -- reporting -----------------------------------------------------------------


class TestSpeculationReporting:
    def _spec_report(self, model):
        requests = [
            Request("s0", [3, 17, 5, 9] * 3, max_new_tokens=24),
            Request("s1", [4, 18, 6, 10] * 3, max_new_tokens=24),
        ]
        _, _, engine = _run(
            model, requests, speculative=SpeculationConfig(k=4), max_active=2
        )
        return engine.report()

    def test_policy_block_gains_spec_keys_only_when_on(self, model):
        report = self._spec_report(model)
        assert report.policy["draft_proposed"] > 0
        assert report.policy["draft_accepted"] >= 0
        assert report.policy["mean_accepted_len"] >= 0.0
        _, _, off_engine = _run(
            model, [Request("o0", [1, 2, 3], max_new_tokens=4)], max_active=1
        )
        off = off_engine.report()
        assert "draft_proposed" not in off.policy
        assert off.arena["draft_rows_appended"] == 0
        assert off.arena["rows_rolled_back"] == 0

    def test_request_metrics_carry_acceptance(self, model):
        report = self._spec_report(model)
        m = {r.request_id: r for r in report.requests}["s0"]
        assert m.draft_proposed >= m.draft_accepted >= 0
        assert m.spec_steps > 0
        assert m.mean_accepted_len == m.draft_accepted / m.spec_steps

    def test_from_json_tolerates_both_shapes(self, model):
        report = self._spec_report(model)
        payload = report.to_json()
        loaded = ServingReport.from_json(payload)
        assert [r.draft_accepted for r in loaded.requests] == [
            r.draft_accepted for r in report.requests
        ]
        assert loaded.policy["draft_proposed"] == report.policy["draft_proposed"]
        # old writers: no spec keys anywhere -- defaults fill in
        for entry in payload["requests"]:
            for key in ("draft_proposed", "draft_accepted", "spec_steps"):
                del entry[key]
        payload["policy"].pop("draft_proposed")
        old = ServingReport.from_json(payload)
        assert all(r.draft_proposed == 0 for r in old.requests)
        assert all(r.mean_accepted_len == 0.0 for r in old.requests)

    def test_step_stats_gain_draft_counters_only_when_on(self, model):
        requests = [Request("t0", [3, 17, 5, 9] * 3, max_new_tokens=16)]
        engine = ServingEngine(model, max_active=1, speculative=4)
        for r in requests:
            engine.submit(r)
        engine.run()
        assert "draft_proposed" in engine.last_step_stats
        off = ServingEngine(model, max_active=1)
        off.submit(Request("t1", [1, 2, 3], max_new_tokens=2))
        off.run()
        assert "draft_proposed" not in off.last_step_stats


class _SilentDrafter(Drafter):
    """Never proposes: every decode row verifies an empty draft list."""

    name = "silent"

    def propose(self, history, k):
        return []


def _step_by_step(model, requests, speculative):
    """Run to completion one step at a time; returns the per-step record.

    Each step contributes its emitted dict and its ``last_step_stats``
    without the ``draft_*`` keys (those exist only with speculation on).
    """
    engine = ServingEngine(
        model, max_active=3, prefill_token_budget=5, speculative=speculative
    )
    handles = [engine.submit(r) for r in requests]
    steps = []
    while engine.has_work:
        emitted = engine.step()
        stats = dict(engine.last_step_stats)
        drafts = {k: stats.pop(k) for k in list(stats) if k.startswith("draft_")}
        zero = {"draft_proposed": 0, "draft_accepted": 0}
        assert drafts == ({} if speculative is None else zero)
        steps.append((emitted, stats))
    tokens = {h.request_id: list(h.generated_tokens) for h in handles}
    return tokens, steps, engine.report().to_json()["requests"]


class TestZeroDraftIsPlainDecode:
    """A decode row with no drafts is plain decode: one commit path."""

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_silent_drafter_matches_spec_off(self, model, seed):
        requests = _sample_trace(
            np.random.default_rng(seed), model.config.vocab_size, repetitive=True
        )
        off = _step_by_step(model, requests, None)
        silent = _step_by_step(
            model, requests, SpeculationConfig(k=4, drafter=_SilentDrafter())
        )
        assert silent[0] == off[0]  # tokens
        assert silent[1] == off[1]  # emitted dict and stats, step by step
        assert silent[2] == off[2]  # per-request report entries
        for entry in silent[2]:
            assert entry["draft_proposed"] == 0
            assert entry["draft_accepted"] == 0
            assert entry["spec_steps"] == 0

    def test_spec_off_step_values_are_lists(self, model):
        engine = ServingEngine(model, max_active=2)
        handles = [
            engine.submit(Request("a", [1, 2, 3], max_new_tokens=3)),
            engine.submit(Request("b", [4, 5], max_new_tokens=2)),
        ]
        streamed = {"a": [], "b": []}
        while engine.has_work:
            for request_id, value in engine.step().items():
                assert type(value) is list and len(value) == 1
                streamed[request_id] += value
        assert streamed == {h.request_id: h.generated_tokens for h in handles}


# -- adaptive prefill budget (satellite) ---------------------------------------


class TestAdaptivePrefillBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePrefillPolicy(throttled_budget=0)
        with pytest.raises(ValueError):
            AdaptivePrefillPolicy(decode_threshold=0.0)
        assert AdaptivePrefillPolicy().name == "adaptive-prefill(fcfs)"

    def test_tokens_identical_under_throttle(self, model):
        """Chunked prefill is token-exact, so throttling only re-times."""
        rng = np.random.default_rng(3)
        requests = _sample_trace(rng, model.config.vocab_size)
        base_tokens, base_states, _ = _run(model, requests, max_active=4)
        tokens, states, engine = _run(
            model,
            requests,
            max_active=4,
            scheduling=AdaptivePrefillPolicy(
                throttled_budget=1, decode_threshold=0.5
            ),
        )
        assert tokens == base_tokens
        assert states == base_states
        _assert_books(engine)

    def test_budget_clamps_only_when_decode_heavy(self, model):
        policy = AdaptivePrefillPolicy(throttled_budget=2, decode_threshold=0.5)
        engine = ServingEngine(model, max_active=4, scheduling=policy)
        # idle engine: no clamp (defers to the engine knob, None here)
        assert policy.prefill_token_budget(engine) is None
        engine.submit(Request("a0", [1, 2, 3, 4, 5, 6], max_new_tokens=6))
        engine.submit(Request("a1", [7, 8, 9], max_new_tokens=6))
        engine.step()  # both prefill+emit in one step -> both now decoding
        assert policy.prefill_token_budget(engine) == 2

    def test_composes_with_speculation(self, model):
        requests = [
            Request("c0", [3, 17, 5, 9] * 3, max_new_tokens=16, arrival_step=0),
            Request("c1", [4, 18, 6, 10] * 3, max_new_tokens=16, arrival_step=4),
        ]
        base_tokens, base_states, _ = _run(model, requests, max_active=2)
        tokens, states, engine = _run(
            model,
            requests,
            max_active=2,
            speculative=SpeculationConfig(k=3),
            scheduling=AdaptivePrefillPolicy(throttled_budget=1),
        )
        assert tokens == base_tokens
        assert states == base_states
        accepted = sum(m.draft_accepted for m in engine.report().requests)
        _assert_books(engine, metrics_accepted=accepted)
