"""Fault-injection, hardened-lifecycle and chaos-fuzz tests (PR 7).

Covers the deterministic :class:`FaultInjector` machinery, the engine's
failure isolation / retry / timeout / shedding / drain-shutdown paths, the
callback-containment and truncated-run bugfixes, and the derandomized chaos
fuzz the CI fuzz step runs: >= 20 seeded mixed fault plans over a real
quantised transformer, asserting the engine never raises, every request
reaches exactly one terminal state, recovered token streams are
bit-identical to a fault-free reference, and the arena's books balance on
every trace.
"""

import warnings

import numpy as np
import pytest

from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.model.generation import KVCorruptionError
from repro.serve import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LoadShedWatchdog,
    PagedKVArena,
    Request,
    ServingEngine,
    SessionState,
    TERMINAL_STATES,
)
from repro.serve.session import GenerationSession
from repro.workloads import sample_requests
from doubles import admit


@pytest.fixture(scope="module")
def model():
    return QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )


# -- FaultSpec / FaultPlan / FaultInjector ------------------------------------


class TestInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="gpu.meltdown", probability=0.5)
        with pytest.raises(ValueError, match="could never fire"):
            FaultSpec(site="arena.alloc")
        with pytest.raises(ValueError):
            FaultSpec(site="arena.alloc", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="arena.alloc", probability=0.5, max_fires=0)
        with pytest.raises(ValueError):
            FaultSpec(site="arena.alloc", at_step=-1)

    def test_scheduled_spec_fires_exactly_at_step(self):
        plan = FaultPlan(specs=(FaultSpec(site="session.compute", at_step=3),))
        injector = FaultInjector(plan)
        fired = [
            injector.fires("session.compute", "r", step) for step in range(6)
        ]
        assert fired == [False, False, False, True, False, False]
        assert injector.total_fires == 1

    def test_request_pinned_spec_ignores_other_requests(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="arena.alloc", at_step=0, request_id="victim"),)
        )
        injector = FaultInjector(plan)
        assert not injector.fires("arena.alloc", "bystander", 0)
        assert injector.fires("arena.alloc", "victim", 0)

    def test_max_fires_caps_activations(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="session.compute", probability=1.0, max_fires=2),)
        )
        injector = FaultInjector(plan)
        fired = [injector.fires("session.compute", "r", s) for s in range(5)]
        assert fired == [True, True, False, False, False]

    def test_probabilistic_stream_is_deterministic_and_resettable(self):
        plan = FaultPlan.uniform(0.3, seed=7)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        opportunities = [
            (site, f"r{i % 3}", i) for i in range(40) for site in ("arena.alloc",)
        ]
        trace_a = [a.fires(*op) for op in opportunities]
        trace_b = [b.fires(*op) for op in opportunities]
        assert trace_a == trace_b
        assert any(trace_a) and not all(trace_a)
        a.reset()
        assert [a.fires(*op) for op in opportunities] == trace_a

    def test_specs_draw_independent_streams(self):
        # evaluating all specs (no short-circuit) keeps each stream a pure
        # function of the opportunity sequence, not of sibling outcomes
        solo = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="arena.alloc", probability=0.5),), seed=3)
        )
        paired = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(site="arena.alloc", probability=0.5),
                    FaultSpec(site="arena.alloc", probability=0.9),
                ),
                seed=3,
            )
        )
        for step in range(30):
            solo.fires("arena.alloc", "r", step)
            paired.fires("arena.alloc", "r", step)
        assert paired.spec_fires[0] == solo.spec_fires[0]


# -- watchdog hysteresis -------------------------------------------------------


class TestWatchdog:
    def test_queue_depth_hysteresis(self):
        dog = LoadShedWatchdog(queue_high=10, queue_low=3, failure_high=100)
        assert not dog.update(10, step=0)  # at the threshold: not over it
        assert dog.update(11, step=1)
        assert dog.update(5, step=2)  # above queue_low: still shedding
        assert not dog.update(3, step=3)
        assert dog.shed_engagements == 1

    def test_failure_rate_trigger_and_window_expiry(self):
        dog = LoadShedWatchdog(queue_high=100, failure_window=4, failure_high=2)
        dog.record_failure(0)
        dog.record_failure(1)
        assert dog.update(0, step=1)  # two failures in window: engage
        assert dog.update(0, step=3)  # burst still in window: keep shedding
        # burst decayed to <= failure_high // 2: hysteresis releases
        assert not dog.update(0, step=4)

    def test_shed_excess_and_throttle(self):
        dog = LoadShedWatchdog(
            queue_high=8, queue_low=2, throttled_prefill_budget=4
        )
        assert dog.shed_excess(20) == 0  # not shedding yet
        dog.update(20, step=0)
        assert dog.shed_excess(20) == 12
        assert dog.throttle(None) == 4
        assert dog.throttle(64) == 4
        assert dog.throttle(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadShedWatchdog(queue_high=4, queue_low=5)
        with pytest.raises(ValueError):
            LoadShedWatchdog(throttled_prefill_budget=0)


# -- failure isolation + retry ------------------------------------------------


class TestRetryAndIsolation:
    def test_compute_fault_retries_bit_identically(self, model):
        vocab = model.config.vocab_size
        prompt = [3, 5, 7]
        reference = generate(model, prompt, max_new_tokens=8).generated_tokens
        plan = FaultPlan(
            specs=(
                FaultSpec(site="session.compute", at_step=2, request_id="victim"),
            )
        )
        engine = ServingEngine(model, max_active=4, faults=plan)
        victim = engine.submit(Request("victim", prompt, max_new_tokens=8))
        other = engine.submit(
            Request("other", [1, 2 % vocab], max_new_tokens=8)
        )
        report = engine.run()
        assert victim.session.state is SessionState.FINISHED
        assert victim.session.retries == 1
        assert victim.generated_tokens == reference
        assert other.session.state is SessionState.FINISHED
        assert report.policy["retries"] == 1
        assert report.policy["failed"] == 0
        # the faulted step committed its sibling: the run is longer, not torn
        assert {m.request_id for m in report.requests} == {"victim", "other"}

    def test_fault_on_one_row_commits_siblings_same_step(self, model):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="session.compute", at_step=1, request_id="victim"),
            )
        )
        engine = ServingEngine(model, max_active=4, faults=plan)
        victim = engine.submit(Request("victim", [2, 4], max_new_tokens=4))
        other = engine.submit(Request("other", [6, 8], max_new_tokens=4))
        engine.step()  # step 0: both admit + first token
        n_other = len(other.generated_tokens)
        engine.step()  # step 1: victim quarantined, other commits
        assert len(other.generated_tokens) == n_other + 1
        assert victim.session.state is SessionState.PREEMPTED

    def test_exhausted_retries_resolve_failed_with_post_mortem(self, model):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="session.compute", probability=1.0, request_id="victim"
                ),
            )
        )
        engine = ServingEngine(model, max_active=2, faults=plan, max_retries=2)
        victim = engine.submit(Request("victim", [1, 2], max_new_tokens=4))
        report = engine.run()
        assert victim.session.state is SessionState.FAILED
        assert victim.done
        (metrics,) = report.requests
        assert metrics.outcome == "failed"
        assert metrics.retries == 2
        assert metrics.failure["site"] == "session.compute"
        assert metrics.failure["retries"] == 2
        assert report.policy["failed"] == 1

    def test_corrupted_append_detected_by_real_integrity_check(self, model):
        # the garbage row really lands in the layer-0 cache; verify_kv_rows
        # (genuine machinery) is what catches it and triggers the retry
        prompt = [9, 11]
        reference = generate(model, prompt, max_new_tokens=6).generated_tokens
        plan = FaultPlan(
            specs=(FaultSpec(site="session.append", at_step=1, request_id="r"),)
        )
        engine = ServingEngine(model, max_active=2, faults=plan)
        handle = engine.submit(Request("r", prompt, max_new_tokens=6))
        engine.run()
        assert handle.session.state is SessionState.FINISHED
        assert handle.session.retries == 1
        assert handle.generated_tokens == reference

    def test_verify_kv_rows_raises_on_mismatch(self, model):
        arena = PagedKVArena(
            model.config.n_layers, model.config.hidden_size, page_size=4
        )
        session = GenerationSession(
            Request("r", [1, 2], max_new_tokens=4), model, arena=arena
        )
        admit(session, 0)  # caches hold exactly the 2 prompt rows
        session.decoder.verify_kv_rows(2)  # clean cache passes
        session._corrupt_kv_append()  # garbage row lands in layer 0
        with pytest.raises(KVCorruptionError, match="layer 0 holds 3"):
            session.decoder.verify_kv_rows(2)

    def test_arena_alloc_fault_quarantines_before_forward(self, model):
        plan = FaultPlan(
            specs=(FaultSpec(site="arena.alloc", at_step=0, request_id="r"),)
        )
        engine = ServingEngine(model, max_active=2, faults=plan)
        handle = engine.submit(Request("r", [4, 6], max_new_tokens=4))
        engine.step()
        # quarantined at schedule time: no token emitted, requeued with backoff
        assert handle.generated_tokens == []
        assert handle.session.retries == 1
        report = engine.run()
        assert handle.session.state is SessionState.FINISHED
        assert handle.generated_tokens == generate(
            model, [4, 6], max_new_tokens=4
        ).generated_tokens
        assert report.arena["pages_in_use"] == 0

    def test_shared_arena_engines_keep_their_own_alloc_faults(self, model):
        """Each engine's schedule-time probe consults its own fault plan.

        Two engines share one arena and only the first arms an
        ``arena.alloc`` fault for its request; the second engine's empty
        plan must not mask it, so the request retries exactly once, as it
        does on an engine that shares its arena with nobody.
        """
        arena = PagedKVArena(
            n_layers=model.config.n_layers,
            hidden_size=model.config.hidden_size,
            page_size=4,
        )
        plan = FaultPlan(
            specs=(FaultSpec(site="arena.alloc", at_step=0, request_id="a"),)
        )
        first = ServingEngine(model, max_active=2, arena=arena, faults=plan)
        ServingEngine(model, max_active=2, arena=arena, faults=FaultPlan())
        handle = first.submit(Request("a", [4, 6], max_new_tokens=4))
        first.run()
        assert handle.session.retries == 1
        assert handle.generated_tokens == generate(
            model, [4, 6], max_new_tokens=4
        ).generated_tokens
        assert arena.stats.pages_in_use == 0

    def test_backoff_is_capped_exponential(self, model):
        engine = ServingEngine(
            model,
            max_active=2,
            faults=FaultPlan(),
            max_retries=10,
        )
        handle = engine.submit(Request("r", [1], max_new_tokens=2))
        engine.step()
        delays = []
        for _ in range(5):
            engine._quarantine(handle, RuntimeError("boom"), engine.current_step)
            delays.append(engine._pending[0][0] - engine.current_step)
            heapq_entry = engine._pending.pop(0)
            handle.session.state = SessionState.PREFILLING  # re-arm for next
        assert delays == [1, 2, 4, 8, 8]


# -- timeouts ------------------------------------------------------------------


class TestTimeouts:
    def test_timeout_resolves_timed_out_and_frees_pages(self, model):
        engine = ServingEngine(model, max_active=1)
        slow = engine.submit(
            Request("slow", [1, 2], max_new_tokens=64, timeout_steps=3)
        )
        queued = engine.submit(
            Request("starved", [3], max_new_tokens=64, arrival_step=0,
                    timeout_steps=2)
        )
        report = engine.run(max_steps=80)
        assert slow.session.state is SessionState.TIMED_OUT
        # never admitted (slot held by `slow` past its own timeout): still
        # reaped from the queue without ever taking pages
        assert queued.session.state is SessionState.TIMED_OUT
        assert queued.session.admitted_step is None
        by_id = {m.request_id: m for m in report.requests}
        assert by_id["slow"].outcome == "timed_out"
        assert by_id["slow"].n_generated > 0  # partial progress is kept
        assert by_id["starved"].queue_delay_steps is None
        assert report.policy["timed_out"] == 2
        assert report.arena["pages_in_use"] == 0

    def test_request_finishing_at_timeout_step_makes_it(self, model):
        engine = ServingEngine(model, max_active=1)
        # admitted at step 0, one token per step: finishes at step 2
        handle = engine.submit(Request("r", [1], max_new_tokens=3, timeout_steps=2))
        engine.run()
        assert handle.session.state is SessionState.FINISHED

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="timeout_steps"):
            Request("r", [1], timeout_steps=0)


# -- load shedding -------------------------------------------------------------


class TestShedding:
    def test_watchdog_sheds_lowest_priority_youngest_first(self, model):
        engine = ServingEngine(
            model,
            max_active=1,
            watchdog=LoadShedWatchdog(queue_high=2, queue_low=1),
        )
        keep = engine.submit(Request("keep", [1], max_new_tokens=2, priority=5))
        low_old = engine.submit(Request("low-old", [2], max_new_tokens=2))
        low_young = engine.submit(Request("low-young", [3], max_new_tokens=2))
        extra = engine.submit(Request("extra", [4], max_new_tokens=2))
        report = engine.run()
        # queue depth 4 > high=2: shed 2, youngest of the lowest class first
        shed = {h.request_id for h in (low_old, low_young, extra)
                if h.session.state is SessionState.SHED}
        assert shed == {"low-young", "extra"}
        assert keep.session.state is SessionState.FINISHED
        assert low_old.session.state is SessionState.FINISHED
        assert report.policy["shed"] == 2
        by_id = {m.request_id: m for m in report.requests}
        assert by_id["extra"].outcome == "shed"
        assert by_id["extra"].n_generated == 0

    def test_throttled_prefill_budget_while_shedding(self, model):
        dog = LoadShedWatchdog(queue_high=1, queue_low=0,
                               throttled_prefill_budget=1)
        engine = ServingEngine(model, max_active=2, watchdog=dog)
        engine.submit(Request("a", list(range(1, 7)), max_new_tokens=2))
        engine.submit(Request("b", list(range(7, 13)), max_new_tokens=2))
        engine.submit(Request("c", [13], max_new_tokens=2))
        engine.step()
        if dog.shedding:
            # throttled: at most 1 prefill row entered the fused pass
            assert engine.last_step_stats["prefill_rows"] <= 1


# -- terminal-state semantics (satellite) --------------------------------------


class TestTerminalSemantics:
    def test_cancel_on_terminal_handle_is_noop_false(self, model):
        completions = []
        engine = ServingEngine(model, max_active=2)
        handle = engine.submit(
            Request("r", [1, 2], max_new_tokens=2),
            on_complete=lambda h, m: completions.append(m.request_id),
        )
        engine.run()
        assert handle.session.state is SessionState.FINISHED
        assert completions == ["r"]
        arena_freed = engine.arena.stats.pages_freed
        assert engine.cancel(handle) is False  # no-op on terminal
        assert engine.cancel(handle) is False
        assert completions == ["r"]  # no double callback
        assert engine.arena.stats.pages_freed == arena_freed  # no double free
        assert handle.session.state is SessionState.FINISHED

    def test_cancel_on_cancelled_handle_is_noop_false(self, model):
        engine = ServingEngine(model, max_active=2)
        handle = engine.submit(Request("r", [1], max_new_tokens=8))
        assert engine.cancel(handle) is True
        assert engine.cancel(handle) is False
        assert engine.run().policy["cancelled"] == 1

    def test_terminal_callback_fires_exactly_once_for_failures(self, model):
        completions = []
        plan = FaultPlan(
            specs=(FaultSpec(site="session.compute", probability=1.0),)
        )
        engine = ServingEngine(model, max_active=2, faults=plan, max_retries=1)
        engine.submit(
            Request("r", [1, 2], max_new_tokens=4),
            on_complete=lambda h, m: completions.append(m.outcome),
        )
        engine.run()
        assert completions == ["failed"]

    def test_every_request_reaches_exactly_one_terminal_state(self, model):
        # exercised harder by the chaos fuzz below; this is the focused pin
        engine = ServingEngine(model, max_active=1)
        handles = [
            engine.submit(Request(f"r{i}", [i + 1], max_new_tokens=2))
            for i in range(3)
        ]
        engine.cancel(handles[2])
        engine.run()
        states = [h.session.state for h in handles]
        assert all(s in TERMINAL_STATES for s in states)
        assert states[2] is SessionState.CANCELLED


# -- callback containment (satellite bugfix) -----------------------------------


class TestCallbackContainment:
    def test_raising_on_token_is_contained_and_detached(self, model):
        calls = []

        def bad_cb(handle, token, step):
            calls.append(token)
            raise RuntimeError("user code exploded")

        engine = ServingEngine(model, max_active=2)
        victim = engine.submit(
            Request("victim", [1, 2], max_new_tokens=6), on_token=bad_cb
        )
        other = engine.submit(Request("other", [3, 4], max_new_tokens=6))
        with pytest.warns(RuntimeWarning, match="on_token callback"):
            report = engine.run()
        assert len(calls) == 1  # detached after the first raise
        assert victim.on_token is None
        # the step stayed atomic: both requests finished with full streams
        assert victim.session.state is SessionState.FINISHED
        assert other.session.state is SessionState.FINISHED
        assert len(victim.generated_tokens) == 6
        assert report.policy["callback_errors"] == 1

    def test_raising_on_complete_is_contained(self, model):
        def bad_complete(handle, metrics):
            raise ValueError("boom")

        engine = ServingEngine(model, max_active=2)
        handle = engine.submit(
            Request("r", [1], max_new_tokens=2), on_complete=bad_complete
        )
        with pytest.warns(RuntimeWarning, match="on_complete callback"):
            report = engine.run()
        assert handle.session.state is SessionState.FINISHED
        assert not report.truncated
        assert report.policy["callback_errors"] == 1

    def test_warning_fires_once_per_engine(self, model):
        def bad_cb(handle, token, step):
            raise RuntimeError("boom")

        engine = ServingEngine(model, max_active=4)
        for i in range(3):
            engine.submit(
                Request(f"r{i}", [i + 1], max_new_tokens=2), on_token=bad_cb
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = engine.run()
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert report.policy["callback_errors"] == 3

    def test_injected_callback_fault_exercises_containment(self, model):
        tokens = []
        plan = FaultPlan(
            specs=(FaultSpec(site="callback.on_token", at_step=1,
                             request_id="r"),)
        )
        engine = ServingEngine(model, max_active=2, faults=plan)
        handle = engine.submit(
            Request("r", [1, 2], max_new_tokens=6),
            on_token=lambda h, t, s: tokens.append(t),
        )
        with pytest.warns(RuntimeWarning):
            engine.run()
        # one dispatch (step 1's) was killed by the injection; the request
        # itself is unaffected and the callback was detached afterwards
        assert handle.session.state is SessionState.FINISHED
        assert len(handle.generated_tokens) == 6
        assert tokens == handle.generated_tokens[:1]


# -- drain / shutdown ----------------------------------------------------------


class TestDrainShutdown:
    def test_drain_serves_backlog_and_closes_submissions(self, model):
        engine = ServingEngine(model, max_active=2)
        handles = [
            engine.submit(Request(f"r{i}", [i + 1, i + 2], max_new_tokens=4))
            for i in range(5)
        ]
        report = engine.drain()
        assert all(h.session.state is SessionState.FINISHED for h in handles)
        assert not report.truncated
        assert report.arena["pages_in_use"] == 0
        assert report.arena["page_faults"] == report.arena["pages_freed"]
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(Request("late", [1], max_new_tokens=1))

    def test_shutdown_sheds_everything_with_balanced_books(self, model):
        completions = []
        engine = ServingEngine(model, max_active=2)
        handles = [
            engine.submit(
                Request(f"r{i}", [i + 1, i + 2], max_new_tokens=32),
                on_complete=lambda h, m: completions.append(m.request_id),
            )
            for i in range(4)
        ]
        engine.step()
        engine.step()
        report = engine.shutdown()
        assert all(h.done for h in handles)
        assert not engine.has_work
        assert sorted(completions) == [f"r{i}" for i in range(4)]
        assert report.arena["pages_in_use"] == 0
        assert report.arena["page_faults"] == report.arena["pages_freed"]
        assert report.policy["shed"] + report.policy["timed_out"] + len(
            [h for h in handles if h.session.is_finished]
        ) == 4
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(Request("late", [1], max_new_tokens=1))


# -- submit_many ordering + cancel-during-PREFILLING (satellite) ---------------


class TestSubmitManyAndPrefillCancel:
    def test_submit_many_preserves_admission_order(self, model):
        engine = ServingEngine(model, max_active=2)
        requests = [
            Request(f"r{i}", [i + 1], max_new_tokens=2, arrival_step=0)
            for i in range(6)
        ]
        handles = engine.submit_many(requests)
        assert [h.index for h in handles] == list(range(6))
        report = engine.run()
        # FIFO admission: same-arrival requests admit by submission index
        admitted = [m.admitted_step for m in report.requests]
        assert admitted == sorted(admitted)  # report order == terminal order
        by_id = {m.request_id: m.admitted_step for m in report.requests}
        for earlier, later in zip(requests, requests[1:]):
            assert by_id[earlier.request_id] <= by_id[later.request_id]

    def test_cancel_during_prefilling_balances_books(self, model):
        arena = PagedKVArena(
            n_layers=model.config.n_layers,
            hidden_size=model.config.hidden_size,
            page_size=4,
        )
        engine = ServingEngine(
            model, max_active=2, arena=arena, prefill_token_budget=2
        )
        long_prompt = list(range(1, 13))
        handle = engine.submit(Request("long", long_prompt, max_new_tokens=4))
        engine.step()  # first chunk lands: mid-prefill, pages held
        assert handle.session.state is SessionState.PREFILLING
        assert arena.stats.pages_in_use > 0
        assert engine.cancel(handle) is True
        assert arena.stats.pages_in_use == 0  # pages released immediately
        assert handle.reserved_pages is None  # reservation released
        report = engine.run()
        assert report.policy["cancelled"] == 1
        assert arena.stats.page_faults == arena.stats.pages_freed


# -- chaos fuzz (CI: derandomized) ---------------------------------------------


CHAOS_SEEDS = list(range(20))


def _chaos_plan(seed: int) -> FaultPlan:
    """A mixed fault plan whose emphasis rotates with the seed."""
    rng = np.random.default_rng(seed + 1000)
    specs = [
        FaultSpec(site="arena.alloc", probability=0.02),
        FaultSpec(site="session.compute", probability=0.02),
        FaultSpec(site="session.append", probability=0.01),
        FaultSpec(site="callback.on_token", probability=0.01),
        FaultSpec(site="callback.on_complete", probability=0.05),
    ]
    # rotate one site into a burst so every site gets heavy coverage
    burst = specs[seed % len(specs)]
    specs[seed % len(specs)] = FaultSpec(
        site=burst.site, probability=min(0.25, burst.probability * 10)
    )
    return FaultPlan(specs=tuple(specs), seed=seed)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_fuzz_engine_survives_mixed_fault_plans(model, seed):
    """The acceptance-criteria sweep: never raises, exactly-one-terminal,
    bit-identical recovered tokens, balanced arena books -- per trace."""
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    requests = sample_requests(
        8,
        vocab_size=vocab,
        mean_interarrival=float(rng.uniform(0.3, 1.5)),
        max_prompt_len=12,
        max_decode_len=8,
        seed=seed,
    )
    # sprinkle timeouts onto a few requests
    requests = [
        (
            dataclass_replace(r, timeout_steps=int(rng.integers(4, 40)))
            if rng.random() < 0.3
            else r
        )
        for r in requests
    ]
    engine = ServingEngine(
        model,
        max_active=int(rng.integers(2, 5)),
        faults=_chaos_plan(seed),
        max_retries=2,
        watchdog=LoadShedWatchdog(queue_high=6, queue_low=2),
        prefill_token_budget=int(rng.integers(4, 16)),
    )
    on_token_calls = []
    completions = []
    handles = [
        engine.submit(
            r,
            on_token=lambda h, t, s: on_token_calls.append(t),
            # non-None so the callback.on_complete injection site is armed
            on_complete=lambda h, m: completions.append(m.request_id),
        )
        for r in requests
    ]
    cancel_at = {
        h.request_id: int(rng.integers(0, 20))
        for h in handles
        if rng.random() < 0.2
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(400):
            if not engine.has_work:
                break
            for handle in handles:
                if (
                    cancel_at.get(handle.request_id) == engine.current_step
                    and not handle.done
                ):
                    engine.cancel(handle)
            engine.step()  # must never raise
        assert not engine.has_work, f"seed {seed}: engine did not drain"
        report = engine.report()

    # exactly one terminal state per request
    for handle in handles:
        assert handle.session.state in TERMINAL_STATES, (
            f"seed {seed}: {handle.request_id} ended {handle.session.state}"
        )
    resolved = {m.request_id for m in report.requests}
    cancelled = {h.request_id for h in handles if h.cancelled}
    assert resolved | cancelled == {h.request_id for h in handles}
    assert not (resolved & cancelled)

    # recovered token streams are bit-identical to the fault-free reference;
    # partially-served requests hold an exact prefix of it
    for handle in handles:
        if not handle.generated_tokens:
            continue
        reference = generate(
            model,
            handle.request.prompt_tokens,
            max_new_tokens=handle.request.max_new_tokens,
            eos_token=handle.request.eos_token,
        ).generated_tokens
        got = handle.generated_tokens
        if handle.session.state is SessionState.FINISHED:
            assert got == reference, f"seed {seed}: {handle.request_id} diverged"
        else:
            assert got == reference[: len(got)], (
                f"seed {seed}: {handle.request_id} partial stream diverged"
            )

    # arena books balance on every trace
    arena = report.arena
    assert arena["pages_in_use"] == 0, f"seed {seed}: pages leaked"
    assert arena["page_faults"] - arena["pages_freed"] == 0, (
        f"seed {seed}: {arena['page_faults']} faults vs "
        f"{arena['pages_freed']} freed"
    )


def test_disabled_fault_hooks_never_call_the_injector(model, monkeypatch):
    """``faults=None`` costs nothing, counted rather than timed: a served run
    makes no call into :class:`FaultInjector` at all.  The armed-but-idle
    leg shows the counters see the hooks, and that they change no token."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name, attr in list(vars(FaultInjector).items()):
        if isinstance(attr, property):
            monkeypatch.setattr(
                FaultInjector, name, property(counting(name, attr.fget))
            )
        elif callable(attr):
            monkeypatch.setattr(FaultInjector, name, counting(name, attr))

    def serve(faults):
        engine = ServingEngine(model, max_active=3, faults=faults)
        handles = engine.submit_many(
            sample_requests(
                8,
                vocab_size=model.config.vocab_size,
                mean_interarrival=0.5,
                seed=11,
            )
        )
        engine.run()
        return [h.generated_tokens for h in handles]

    off_tokens = serve(None)
    assert calls == {}
    idle_plan = FaultPlan(
        specs=(FaultSpec(site="session.compute", probability=0.0, at_step=10**9),)
    )
    assert serve(idle_plan) == off_tokens
    assert calls.get("fires", 0) > 0


def dataclass_replace(request, **changes):
    import dataclasses

    return dataclasses.replace(request, **changes)


def test_chaos_trace_is_replayable(model):
    """Same plan + workload => identical outcome sets and fire counts."""

    def run_once():
        engine = ServingEngine(
            model, max_active=3, faults=_chaos_plan(4), max_retries=2
        )
        handles = [
            engine.submit(Request(f"r{i}", [i + 1, i + 2], max_new_tokens=6))
            for i in range(6)
        ]
        report = engine.run(max_steps=300)
        return (
            [h.session.state for h in handles],
            [tuple(h.generated_tokens) for h in handles],
            engine.fault_injector.spec_fires,
            report.policy["retries"],
        )

    assert run_once() == run_once()
