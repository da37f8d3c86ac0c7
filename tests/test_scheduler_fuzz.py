"""Randomized end-to-end scheduler traces: execution strategy is invisible.

Two fuzzed contracts:

* ``TestFuzzedTraces`` -- each example replays one serving trace (Poisson or
  bursty arrivals, random prompt/output lengths, capacities 1..16) through
  the FCFS engine twice: on the engine's own arena and on a shared
  ``PagedKVArena``.  Both runs must emit bit-identical tokens and identical
  :class:`RequestMetrics`, match solo ``generate()`` in tokens and
  attention traffic, and drain their arena completely (every page freed)
  once the trace finishes.
* ``TestPreemptionFuzz`` -- each example replays one prioritized bursty
  trace under the preemptive priority/deadline policies with tight slot
  counts.  Runs must be deterministic under a fixed seed, every request's
  tokens must equal unpreempted per-session decoding (preempt/resume is an
  execution detail), and the arena must drain to zero pages with balanced
  books despite mid-trace page release/re-acquire.

The hypothesis profile is deterministic (derandomized, no deadline, fixed
example budget) so PR runs are reproducible; see the CI workflow step that
executes this file explicitly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bgpp import make_bgpp_predictor
from repro.model import QuantizedTransformer, TransformerModel, generate, get_model_config
from repro.serve import (
    PagedKVArena,
    Request,
    ServingEngine,
    make_policy,
)
from doubles import assert_matches_solo

# deterministic on CI: no wall-clock deadline, fixed example sequence
FUZZ = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def model():
    """One calibrated quantised model shared by every fuzzed trace."""
    return QuantizedTransformer(TransformerModel(get_model_config("tiny"), seed=0), seed=1)


def _sample_trace(rng, vocab):
    """Random request trace: Poisson or bursty arrivals, ragged lengths."""
    n_requests = int(rng.integers(2, 9))
    if rng.random() < 0.5:  # Poisson-like: independent exponential gaps
        gaps = rng.exponential(scale=float(rng.uniform(0.0, 2.0)), size=n_requests)
        arrivals = np.floor(np.cumsum(gaps)).astype(int)
    else:  # bursty: a few arrival instants shared by whole groups
        n_bursts = int(rng.integers(1, 4))
        burst_steps = np.sort(rng.integers(0, 10, size=n_bursts))
        arrivals = np.sort(burst_steps[rng.integers(0, n_bursts, size=n_requests)])
    return [
        Request(
            request_id=f"r{i:02d}",
            prompt_tokens=rng.integers(0, vocab, size=int(rng.integers(1, 12))).tolist(),
            max_new_tokens=int(rng.integers(1, 7)),
            arrival_step=int(arrivals[i]),
        )
        for i in range(n_requests)
    ]


def _arena(model):
    config = model.config
    return PagedKVArena(config.n_layers, config.hidden_size, page_size=4)


def _run(model, requests, max_active, arena=None, predictor=None):
    engine = ServingEngine(
        model, max_active=max_active, predictor=predictor, arena=arena
    )
    handles = engine.submit_many(requests)
    engine.run()
    return handles, engine


class TestFuzzedTraces:
    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_own_and_shared_arena_are_bit_identical(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_trace(rng, model.config.vocab_size)
        max_active = int(rng.integers(1, 17))

        own_handles, own = _run(model, requests, max_active)
        # small pages so traces exercise multi-page sessions
        shared_handles, shared = _run(model, requests, max_active, _arena(model))
        assert_matches_solo(model, requests, own_handles)
        assert [h.generated_tokens for h in shared_handles] == [
            h.generated_tokens for h in own_handles
        ]
        assert [h.metrics() for h in shared_handles] == [
            h.metrics() for h in own_handles
        ]
        for engine in (own, shared):
            stats = engine.arena.stats
            # the drained arena holds zero live pages and balanced books
            assert stats.pages_in_use == 0
            assert stats.page_faults == stats.pages_freed
            assert stats.sessions_opened == stats.sessions_freed == len(requests)
            assert stats.peak_pages_in_use <= stats.n_pages

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_with_bgpp_predictor(self, model, seed):
        """Sparse-attention serving matches solo sparse generation too."""
        rng = np.random.default_rng(seed)
        requests = _sample_trace(rng, model.config.vocab_size)[:4]
        max_active = int(rng.integers(1, 9))
        predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
        handles, _ = _run(model, requests, max_active, predictor=predictor)
        assert_matches_solo(model, requests, handles, predictor=predictor)


def _sample_prioritized_trace(rng, vocab):
    """Bursty trace with priorities and (sometimes) deadlines.

    Tight arrival clustering plus 1-3 slot engines below makes preemption
    frequent: high-priority / tight-deadline requests land while the batch
    is full of lower-urgency work.
    """
    n_requests = int(rng.integers(2, 7))
    arrivals = np.sort(rng.integers(0, 7, size=n_requests))
    return [
        Request(
            request_id=f"p{i:02d}",
            prompt_tokens=rng.integers(0, vocab, size=int(rng.integers(1, 11))).tolist(),
            max_new_tokens=int(rng.integers(1, 6)),
            arrival_step=int(arrivals[i]),
            priority=int(rng.integers(0, 4)),
            deadline_steps=(
                int(rng.integers(1, 13)) if rng.random() < 0.6 else None
            ),
        )
        for i in range(n_requests)
    ]


def _run_policy(model, requests, max_active, policy_name):
    engine = ServingEngine(
        model,
        max_active=max_active,
        scheduling=make_policy(policy_name),
        arena=_arena(model),
    )
    handles = engine.submit_many(requests)
    engine.run()
    tokens = [h.generated_tokens for h in handles]
    metrics = [h.metrics() for h in handles]
    return tokens, metrics, engine


class TestPreemptionFuzz:
    """Preemption-heavy traces: policies reorder *service*, never *content*.

    Each example replays one prioritized bursty trace under the priority and
    deadline policies with 1-3 batch slots (so eviction actually
    happens), twice per policy.  Every request's token stream must equal its
    solo per-session decode -- resume's re-prefill is an execution detail --
    the two runs must agree exactly (policies are deterministic), and the
    arena must drain with balanced books even though preempted sessions
    release and re-acquire pages mid-trace.
    """

    @FUZZ
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_preemptive_policies_bit_identical_and_drain(self, model, seed):
        rng = np.random.default_rng(seed)
        requests = _sample_prioritized_trace(rng, model.config.vocab_size)
        max_active = int(rng.integers(1, 4))
        reference = [
            generate(
                model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
            ).generated_tokens
            for r in requests
        ]
        for name in ("priority", "deadline"):
            tokens, metrics, engine = _run_policy(model, requests, max_active, name)
            again_tokens, again_metrics, _ = _run_policy(
                model, requests, max_active, name
            )
            assert tokens == again_tokens, f"{name} policy is nondeterministic"
            assert metrics == again_metrics, f"{name} metrics are nondeterministic"
            assert tokens == reference, (
                f"{name} diverged from unpreempted per-session decoding"
            )
            stats = engine.arena.stats
            assert stats.pages_in_use == 0
            assert stats.page_faults == stats.pages_freed
            # every preemption opens one extra arena session on resume
            preemptions = sum(m.preemptions for m in metrics)
            assert stats.sessions_opened == stats.sessions_freed
            assert stats.sessions_opened == len(requests) + preemptions

    def test_contended_trace_actually_preempts(self, model):
        """Sanity-pin that the fuzz regime exercises preemption at all."""
        requests = [
            Request("bulk", prompt_tokens=[1, 2, 3], max_new_tokens=12, priority=0),
            Request(
                "urgent",
                prompt_tokens=[4, 5],
                max_new_tokens=3,
                arrival_step=2,
                priority=3,
            ),
        ]
        tokens, metrics, _ = _run_policy(model, requests, 1, "priority")
        assert metrics[0].preemptions == 1
        assert metrics[1].admitted_step == 2  # preemption freed the slot at once
        reference = [
            generate(
                model, r.prompt_tokens, max_new_tokens=r.max_new_tokens
            ).generated_tokens
            for r in requests
        ]
        assert tokens == reference


class TestSharedArena:
    def test_one_pool_across_two_schedulers(self, model):
        """An externally built arena can back several scheduler instances."""
        arena = PagedKVArena(
            model.config.n_layers, model.config.hidden_size, page_size=4
        )
        requests = [
            Request(f"q{i}", prompt_tokens=[i + 1, i + 2], max_new_tokens=3)
            for i in range(4)
        ]
        baseline = [
            generate(model, r.prompt_tokens, max_new_tokens=3).generated_tokens
            for r in requests
        ]
        for _ in range(2):  # the same pool drains and is reused run after run
            sched = ServingEngine(model, max_active=2, arena=arena)
            handles = sched.submit_many(requests)
            sched.run()
            assert [h.generated_tokens for h in handles] == baseline
            assert arena.stats.pages_in_use == 0
        assert arena.stats.sessions_opened == 8
