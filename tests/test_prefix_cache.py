"""Cross-request KV prefix cache: sharing is invisible, books always balance.

Three layers of pinning for the arena's content-keyed prefix index (PR 6):

* ``TestPrefixIndex`` -- arena-level unit tests of the index itself:
  full-page-only registration, refcounted sharing, copy-on-write isolation,
  idle parking of registered pages, LRU eviction under ``max_pages``
  pressure, and the refcount conservation law
  ``page_faults - pages_freed == pages_in_use + cached_idle_pages``.
* ``TestPrefixCacheBitExact`` -- fuzzed shared-/divergent-prefix traces run
  through ``ServingEngine`` with ``prefix_cache`` on and off must emit
  bit-identical tokens *and* identical :class:`RequestMetrics` (attention
  counters included), with and without the BGPP predictor.  Caching is a
  pure execution detail.
* ``TestPrefixLifecycleFuzz`` / ``TestReservationBooks`` -- preempt, cancel
  and resume over shared pages never corrupt the refcount books, and
  :class:`ArenaBudgetPolicy` reservations (pinned per handle, charged
  only for the novel suffix when the cache is on) are released the moment a
  request retires, is evicted for real, or is cancelled -- including a
  cancel while still queued.

``TestMaxPagesValidation`` pins that a ``max_pages`` budget is set on the
arena the engine is handed, and that budget admission over it runs quietly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import make_bgpp_predictor
from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.serve import (
    ArenaBudgetPolicy,
    PagedKVArena,
    Request,
    ServingEngine,
    make_policy,
)

FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


# -- arena-level unit tests ----------------------------------------------------


def make_arena(page_size=4, initial_pages=8, max_pages=None, n_layers=2):
    return PagedKVArena(
        n_layers=n_layers,
        hidden_size=3,
        page_size=page_size,
        initial_pages=initial_pages,
        max_pages=max_pages,
    )


def engine_arena(model, max_pages=None):
    """A 4-token-page arena shaped for ``model``, to hand to an engine."""
    config = model.config
    return PagedKVArena(
        config.n_layers, config.hidden_size, page_size=4, max_pages=max_pages
    )


def fill_session(arena, tokens):
    """Open a session and append one deterministic KV row per token."""
    sid = arena.create_session()
    for layer in range(arena.n_layers):
        rows = np.array(
            [[t + 100 * layer + h for h in range(3)] for t in tokens],
            dtype=float,
        )
        arena.append(sid, layer, rows, rows + 0.5)
    return sid


def row_stats(tokens):
    att = np.arange(1, len(tokens) + 1, dtype=np.int64)
    return att, att.copy()


def assert_books_balanced(arena):
    s = arena.stats
    assert (
        s.page_faults - s.pages_freed == s.pages_in_use + s.cached_idle_pages
    )
    assert (
        len(arena._free) + s.pages_in_use + s.cached_idle_pages
        == arena.n_pages
    )


class TestPrefixIndex:
    def test_probe_misses_on_empty_index(self):
        arena = make_arena()
        assert arena.probe_prefix([1, 2, 3, 4, 5]) == 0

    def test_register_indexes_full_pages_only(self):
        arena = make_arena(page_size=4)
        tokens = list(range(10))  # 2 full pages + 2 spill rows
        sid = fill_session(arena, tokens)
        att, tot = row_stats(tokens)
        assert arena.register_prefix(sid, tokens, att, tot) == 2
        assert arena.probe_prefix(tokens) == 8
        # a probe never promises the final prompt row: its logits must be
        # computed live to sample the first token
        assert arena.probe_prefix(tokens[:4]) == 3
        assert arena.probe_prefix(tokens[:5]) == 4
        # a different head misses even when the tail matches
        assert arena.probe_prefix([99] + tokens[1:]) == 0
        assert_books_balanced(arena)

    def test_register_without_row_stats_is_a_noop(self):
        arena = make_arena()
        tokens = list(range(8))
        sid = fill_session(arena, tokens)
        assert arena.register_prefix(sid, tokens) == 0
        assert arena.probe_prefix(tokens) == 0

    def test_acquire_shares_pages_and_cow_isolates_appends(self):
        arena = make_arena(page_size=4)
        tokens = list(range(8))
        att, tot = row_stats(tokens)
        sid_a = fill_session(arena, tokens)
        arena.register_prefix(sid_a, tokens, att, tot)
        faults_before = arena.stats.page_faults

        sid_b = arena.create_session()
        n_reused, b_att, b_tot = arena.acquire_prefix(sid_b, tokens)
        assert n_reused == 7  # capped at len - 1
        assert b_att.tolist() == att[:7].tolist()
        assert b_tot.tolist() == tot[:7].tolist()
        # both pages are mapped, none allocated: sharing is free
        pages_a = list(arena._sessions[sid_a].pages)
        pages_b = list(arena._sessions[sid_b].pages)
        assert pages_b == pages_a
        assert arena.stats.page_faults == faults_before
        assert arena.stats.prefix_hits == 1
        assert arena.stats.prefix_tokens_reused == 7
        assert arena.stats.prefix_pages_shared == 2

        # B appends its 8th prompt row into the shared tail page -> COW
        for layer in range(arena.n_layers):
            row = np.array([[7 + 100 * layer + h for h in range(3)]], float)
            arena.append(sid_b, layer, row, row + 0.5)
        assert arena.stats.cow_copies == 1
        new_pages_b = arena._sessions[sid_b].pages
        assert new_pages_b[0] == pages_a[0]  # full head page still shared
        assert new_pages_b[1] != pages_a[1]  # tail was copied
        # the copy carried every layer's reused rows bit-exactly
        for layer in range(arena.n_layers):
            np.testing.assert_array_equal(
                arena._k[layer, new_pages_b[1]][:3],
                arena._k[layer, pages_a[1]][:3],
            )
        # A's tail page is untouched by B's append
        assert arena._k[0, pages_a[1]][3, 0] == tokens[7]
        assert_books_balanced(arena)
        arena.free(sid_a)
        arena.free(sid_b)
        assert arena.stats.pages_in_use == 0
        assert_books_balanced(arena)

    def test_freed_registered_pages_park_idle_and_revive(self):
        arena = make_arena(page_size=4)
        tokens = list(range(8))
        att, tot = row_stats(tokens)
        sid_a = fill_session(arena, tokens)
        arena.register_prefix(sid_a, tokens, att, tot)
        arena.free(sid_a)
        s = arena.stats
        # registered pages survive the free as idle cache, not free pages
        assert s.pages_in_use == 0
        assert s.pages_freed == 0
        assert s.cached_idle_pages == 2
        assert_books_balanced(arena)

        sid_b = arena.create_session()
        n_reused, _, _ = arena.acquire_prefix(sid_b, tokens)
        assert n_reused == 7
        # revival costs no page fault: the KV was still resident
        assert s.page_faults == 2
        assert s.pages_in_use == 2
        assert s.cached_idle_pages == 0
        arena.free(sid_b)
        assert s.cached_idle_pages == 2
        assert_books_balanced(arena)

    def test_idle_pages_evict_lru_under_max_pages_pressure(self):
        arena = make_arena(page_size=4, initial_pages=3, max_pages=3)
        old = [1, 2, 3, 4]
        new = [5, 6, 7, 8]
        for tokens in (old, new):  # `old` registered first -> older tick
            sid = fill_session(arena, tokens)
            att, tot = row_stats(tokens)
            arena.register_prefix(sid, tokens, att, tot)
            arena.free(sid)
        assert arena.stats.cached_idle_pages == 2

        # two fresh pages are needed but only one is free: the LRU idle
        # page (old's) is reclaimed, the newer survives
        fill_session(arena, list(range(20, 28)))
        assert arena.stats.prefix_evictions == 1
        assert arena.probe_prefix(old + [99]) == 0
        assert arena.probe_prefix(new + [99]) == 4
        assert_books_balanced(arena)

    def test_live_shared_pages_are_never_evicted(self):
        arena = make_arena(page_size=4, initial_pages=2, max_pages=2)
        tokens = [1, 2, 3, 4]
        sid_a = fill_session(arena, tokens)
        att, tot = row_stats(tokens)
        arena.register_prefix(sid_a, tokens, att, tot)
        # the registered page is live (A maps it); the only reclaimable
        # capacity is the one free page, so a two-page demand must raise
        # rather than evict KV out from under A
        with pytest.raises(RuntimeError, match="exhausted"):
            fill_session(arena, list(range(10, 18)))
        assert arena.probe_prefix(tokens + [99]) == 4

    def test_exhausted_error_reports_occupancy(self):
        arena = make_arena(page_size=4, initial_pages=1, max_pages=1)
        fill_session(arena, [1, 2, 3, 4])
        sid = arena.create_session()
        with pytest.raises(
            RuntimeError,
            match=r"1 pages in use, 0 free, 0 cached idle, max_pages=1",
        ):
            arena.append(sid, 0, np.ones((1, 3)), np.ones((1, 3)))

    def test_acquire_requires_an_empty_session(self):
        arena = make_arena(page_size=4)
        tokens = list(range(8))
        sid_a = fill_session(arena, tokens)
        att, tot = row_stats(tokens)
        arena.register_prefix(sid_a, tokens, att, tot)
        with pytest.raises(RuntimeError, match="empty session"):
            arena.acquire_prefix(sid_a, tokens)

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_share_release_cycles_keep_books_balanced(self, seed):
        rng = np.random.default_rng(seed)
        arena = make_arena(
            page_size=4, initial_pages=4, max_pages=int(rng.integers(24, 48))
        )
        bases = [rng.integers(0, 50, size=8).tolist() for _ in range(3)]
        live = []
        for _ in range(40):
            op = rng.random()
            # <= 6 live sessions x <= 3 pages stays under every max_pages
            # draw; idle cached pages beyond that are evictable on demand
            if (op < 0.5 or not live) and len(live) < 6:
                base = bases[int(rng.integers(0, 3))]
                cut = int(rng.integers(1, len(base) + 1))
                tokens = base[:cut] + rng.integers(
                    0, 50, size=int(rng.integers(0, 5))
                ).tolist()
                sid = arena.create_session()
                n_reused, _, _ = arena.acquire_prefix(sid, tokens)
                for layer in range(arena.n_layers):
                    rest = np.array(
                        [[t + h for h in range(3)] for t in tokens[n_reused:]],
                        dtype=float,
                    )
                    if len(rest):
                        arena.append(sid, layer, rest, rest)
                att, tot = row_stats(tokens)
                arena.register_prefix(sid, tokens, att, tot)
                live.append(sid)
            else:
                arena.free(live.pop(int(rng.integers(0, len(live)))))
            assert_books_balanced(arena)
        for sid in live:
            arena.free(sid)
        assert arena.stats.pages_in_use == 0
        assert_books_balanced(arena)


# -- engine-level bit-exactness ------------------------------------------------


def _shared_prefix_trace(rng, vocab):
    """Request mix: identical prompts, shared heads, and divergent outliers."""
    base = rng.integers(0, vocab, size=int(rng.integers(4, 14))).tolist()
    requests = []
    for i in range(int(rng.integers(3, 8))):
        roll = rng.random()
        if roll < 0.35:  # same head, novel tail
            prompt = base + rng.integers(
                0, vocab, size=int(rng.integers(0, 6))
            ).tolist()
        elif roll < 0.6:  # partial head overlap
            cut = int(rng.integers(1, len(base) + 1))
            prompt = base[:cut] + rng.integers(
                0, vocab, size=int(rng.integers(0, 4))
            ).tolist()
        elif roll < 0.8:  # bit-identical prompt
            prompt = list(base)
        else:  # fully divergent
            prompt = rng.integers(
                0, vocab, size=int(rng.integers(1, 10))
            ).tolist()
        requests.append(
            Request(
                request_id=f"r{i:02d}",
                prompt_tokens=prompt,
                max_new_tokens=int(rng.integers(1, 7)),
                arrival_step=int(rng.integers(0, 6)),
            )
        )
    return requests


def _run_engine(model, requests, max_active, prefix_cache, predictor=None):
    engine = ServingEngine(
        model,
        max_active=max_active,
        predictor=predictor,
        arena=engine_arena(model),
        prefix_cache=prefix_cache,
    )
    handles = engine.submit_many(requests)
    report = engine.run()
    tokens = [h.generated_tokens for h in handles]
    metrics = [h.metrics() for h in handles]
    return tokens, metrics, engine, report


class TestPrefixCacheBitExact:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_cache_on_equals_cache_off(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _shared_prefix_trace(rng, model.config.vocab_size)
        max_active = int(rng.integers(1, 9))
        off = _run_engine(model, requests, max_active, prefix_cache=False)
        on = _run_engine(model, requests, max_active, prefix_cache=True)
        assert on[0] == off[0], "tokens diverge with prefix_cache"
        assert on[1] == off[1], "metrics diverge with prefix_cache"
        s = on[2].arena.stats
        assert s.pages_in_use == 0
        assert s.page_faults == s.pages_freed + s.cached_idle_pages
        # the cache-off engine must never have touched the prefix index
        s_off = off[2].arena.stats
        assert s_off.prefix_hits == s_off.prefix_misses == 0
        assert s_off.cached_idle_pages == 0
        assert s_off.page_faults == s_off.pages_freed

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_cache_on_equals_cache_off_with_bgpp_predictor(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _shared_prefix_trace(rng, model.config.vocab_size)[:4]
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
        off = _run_engine(model, requests, 4, False, predictor=predictor)
        on = _run_engine(model, requests, 4, True, predictor=predictor)
        assert on[0] == off[0]
        assert on[1] == off[1]

    def test_shared_prompts_actually_hit_and_share(self, model):
        """Guard against the cache silently degrading into a no-op."""
        prompt = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        requests = [
            Request(f"r{i}", prompt_tokens=list(prompt), max_new_tokens=4,
                    arrival_step=2 * i)
            for i in range(3)
        ]
        tokens, _, engine, report = _run_engine(
            model, requests, max_active=2, prefix_cache=True
        )
        s = engine.arena.stats
        assert s.prefix_hits >= 2
        assert s.prefix_tokens_reused > 0
        assert s.prefix_pages_shared > 0
        assert report.arena["prefix_hits"] == s.prefix_hits
        # identical prompts decode identical continuations
        assert tokens[0] == tokens[1] == tokens[2]
        solo = generate(model, prompt, max_new_tokens=4).generated_tokens
        assert tokens[0] == solo

    def test_cache_hit_reduces_prefill_compute(self, model):
        """A full-prefix hit must skip the reused rows' forward compute."""
        prompt = list(range(1, 13))  # 3 full pages on page_size=4
        requests = [
            Request("a", prompt_tokens=list(prompt), max_new_tokens=3,
                    arrival_step=0),
            Request("b", prompt_tokens=list(prompt), max_new_tokens=3,
                    arrival_step=6),  # after `a` retired: pages are idle
        ]
        tokens, metrics, engine, _ = _run_engine(
            model, requests, max_active=2, prefix_cache=True
        )
        assert tokens[0] == tokens[1]
        # attention accounting of the hit run matches the cold run exactly:
        # the skipped rows' counters were credited from the registered stats
        assert metrics[1].keys_attended == metrics[0].keys_attended
        assert metrics[1].keys_total == metrics[0].keys_total
        assert metrics[1].n_generated == metrics[0].n_generated
        s = engine.arena.stats
        assert s.prefix_tokens_reused == 11  # 12-token prompt, last row live
        # b mapped a's idle pages: fewer faults than two cold prefills
        assert s.page_faults < 2 * engine.arena.pages_needed(12 + 2)


# -- lifecycle fuzz over shared pages ------------------------------------------


def _priority_trace(rng, vocab):
    base = rng.integers(0, vocab, size=8).tolist()
    requests = []
    for i in range(int(rng.integers(4, 9))):
        shared = rng.random() < 0.6
        prompt = (
            base + rng.integers(0, vocab, size=int(rng.integers(0, 4))).tolist()
            if shared
            else rng.integers(0, vocab, size=int(rng.integers(1, 9))).tolist()
        )
        requests.append(
            Request(
                request_id=f"p{i:02d}",
                prompt_tokens=prompt,
                max_new_tokens=int(rng.integers(1, 6)),
                arrival_step=int(rng.integers(0, 8)),
                priority=int(rng.integers(0, 3)),
            )
        )
    return requests


class TestPrefixLifecycleFuzz:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_preempt_cancel_resume_keep_refcount_books_balanced(
        self, model, seed
    ):
        rng = np.random.default_rng(seed)
        requests = _priority_trace(rng, model.config.vocab_size)
        engine = ServingEngine(
            model,
            max_active=int(rng.integers(1, 4)),
            scheduling=make_policy("priority"),
            arena=engine_arena(model),
            prefix_cache=True,
        )
        handles = engine.submit_many(requests)
        to_cancel = {
            int(i): int(rng.integers(0, 12))
            for i in rng.choice(
                len(handles), size=int(rng.integers(0, 3)), replace=False
            )
        }
        steps = 0
        while engine.has_work and steps < 500:
            for idx, at in to_cancel.items():
                if engine.current_step == at:
                    engine.cancel(handles[idx])
            engine.step()
            steps += 1
        assert not engine.has_work

        arena = engine.arena
        s = arena.stats
        assert s.pages_in_use == 0
        assert s.page_faults == s.pages_freed + s.cached_idle_pages
        assert len(arena._free) + s.cached_idle_pages == arena.n_pages
        assert s.sessions_opened == s.sessions_freed
        # surviving requests got exactly their unpreempted, uncached tokens
        for idx, handle in enumerate(handles):
            if handle.cancelled:
                continue
            expected = generate(
                model,
                requests[idx].prompt_tokens,
                max_new_tokens=requests[idx].max_new_tokens,
            ).generated_tokens
            assert handle.generated_tokens == expected


class TestReservationBooks:
    def test_cancel_while_queued_releases_reservation_immediately(self, model):
        engine = ServingEngine(
            model,
            max_active=1,
            scheduling=ArenaBudgetPolicy(watermark=1.0),
            arena=engine_arena(model, max_pages=64),
        )
        handles = engine.submit_many(
            Request(f"q{i}", prompt_tokens=[1, 2, 3], max_new_tokens=3,
                    arrival_step=0)
            for i in range(4)
        )
        engine.step()
        assert handles[0].reserved_pages is not None  # admitted: charged
        assert all(h.reserved_pages is None for h in handles[1:])  # queued
        assert engine.cancel(handles[1])
        assert handles[1].reserved_pages is None
        engine.run()
        assert all(h.reserved_pages is None for h in handles)

    def test_cancel_while_active_stops_the_charge(self, model):
        engine = ServingEngine(
            model,
            max_active=2,
            scheduling=ArenaBudgetPolicy(watermark=1.0),
            arena=engine_arena(model, max_pages=64),
        )
        handles = engine.submit_many(
            Request(f"a{i}", prompt_tokens=[4, 5, 6], max_new_tokens=8,
                    arrival_step=0)
            for i in range(2)
        )
        engine.step()
        assert all(h.reserved_pages is not None for h in handles)
        engine.cancel(handles[0])
        assert handles[0].reserved_pages is None
        engine.run()
        assert all(h.reserved_pages is None for h in handles)

    def test_prefix_hit_is_charged_only_the_novel_suffix(self, model):
        engine = ServingEngine(
            model,
            max_active=2,
            scheduling=ArenaBudgetPolicy(watermark=1.0),
            arena=engine_arena(model, max_pages=64),
            prefix_cache=True,
        )
        prompt = list(range(1, 13))  # 3 full pages -> 2 reusable (last row live)
        first = engine.submit(
            Request("warm", prompt_tokens=list(prompt), max_new_tokens=2,
                    arrival_step=0)
        )
        engine.run()
        assert first.done
        lifetime = engine.arena.pages_needed(len(prompt) + 2 - 1)
        second = engine.submit(
            Request("hit", prompt_tokens=list(prompt), max_new_tokens=2,
                    arrival_step=engine.current_step)
        )
        engine.step()
        # probe covers 11 of 12 prompt rows -> 2 whole pages discounted
        assert second.reserved_pages == lifetime - 2
        engine.run()
        assert second.generated_tokens == first.generated_tokens

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fuzzed_cancels_drain_reservations_to_zero(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _shared_prefix_trace(rng, model.config.vocab_size)
        engine = ServingEngine(
            model,
            max_active=int(rng.integers(1, 4)),
            scheduling=ArenaBudgetPolicy(
                watermark=float(rng.uniform(0.5, 1.0))
            ),
            arena=engine_arena(model, max_pages=128),
            prefix_cache=bool(rng.integers(0, 2)),
        )
        handles = engine.submit_many(requests)
        cancel_at = {
            int(i): int(rng.integers(0, 10))
            for i in rng.choice(
                len(handles),
                size=int(rng.integers(0, len(handles))),
                replace=False,
            )
        }
        steps = 0
        while engine.has_work and steps < 500:
            for idx, at in cancel_at.items():
                if engine.current_step == at:
                    engine.cancel(handles[idx])
            engine.step()
            steps += 1
        assert not engine.has_work
        assert all(h.reserved_pages is None for h in handles)
        assert engine.arena.stats.pages_in_use == 0


# -- max_pages lives on the arena ---------------------------------------------


class TestMaxPagesValidation:
    def test_bounded_arena_engine_still_builds(self, model):
        engine = ServingEngine(model, arena=engine_arena(model, max_pages=8))
        assert engine.arena.max_pages == 8
        assert engine.arena.n_pages == 8

    def test_arena_backed_budget_admission_does_not_warn(self, model):
        engine = ServingEngine(
            model,
            scheduling=ArenaBudgetPolicy(),
            arena=engine_arena(model, max_pages=64),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.submit(
                Request("ok", prompt_tokens=[1, 2, 3], max_new_tokens=2)
            )
        engine.run()
