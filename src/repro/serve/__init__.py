"""Policy-driven batched serving layer over one shared MCBP engine.

This package turns the single-stream functional reproduction into a
multi-tenant serving simulator with a pluggable control plane:

* :mod:`repro.serve.session` -- per-request state (KV caches, lifecycle
  timestamps, traffic counters) built on
  :class:`~repro.model.generation.IncrementalDecoder`, including the
  preempt/resume state machine;
* :mod:`repro.serve.kv_arena` -- a shared paged KV arena
  (:class:`PagedKVArena`): preallocated per-layer page pools, per-session
  page tables, occupancy watermarks for admission control, and an
  incrementally maintained batch view for attention;
* :mod:`repro.serve.policies` -- the pluggable :class:`SchedulingPolicy`
  (one object per engine orders the ready queue, gates admissions and picks
  preemption victims) plus the shipped FCFS / priority / deadline / aging
  disciplines and the arena-budget and adaptive-prefill wrappers;
* :mod:`repro.serve.scheduler` -- the :class:`ServingEngine` facade (request
  lifecycle: ``submit() -> RequestHandle``, ``cancel``, streaming and
  completion callbacks, ``step``/``run``) wrapped around the batched
  execution core.

Execution is *fused*: each engine step builds one mixed batch -- every
decoding session's token as a one-row chunk plus up to
``prefill_token_budget`` ragged prompt chunk rows from the ``PREFILLING``
sessions (the chunked batched prefill pipeline: admissions and preemption
resumes alike) -- and the model's ``prefill_batch`` (the quantised
transformer's) runs a single forward pass for the whole batch, one GEMM per
weight matrix and one ragged attention per layer, with bit-identical tokens
and statistics to a solo :func:`~repro.model.generation.generate` run.
Pure-decode steps take the same pass.

KV storage is *paged*: every session's per-layer keys/values live as
fixed-size pages inside one :class:`PagedKVArena` (vLLM-style), read by
batched attention through an incrementally maintained view that copies only
``O(B * hidden)`` bytes per step.  Finished *and preempted* sessions return
their pages to the pool, so occupancy tracks live tokens and preemption is
how priority/deadline policies reclaim KV budget for urgent work; the
page-fault / occupancy / copy-traffic counters surface in
:meth:`ServingReport.to_json` next to the per-policy preemption and
deadline-miss counts.  Two opt-in capacity levers layer on top:
**snapshot preemption** (``ServingEngine(kv_snapshots=True)``) copies a
victim's pages off-arena and faults them back on resume -- zero re-prefill
forward passes, bit-identical tokens *and* metrics -- and **int8 KV pages**
(``PagedKVArena(..., kv_dtype="int8")``) store pool rows quantised with
per-page scales for an ~8x smaller arena and snapshots (:class:`KVDtype`,
:class:`KVSnapshot`).

The failure model lives in :mod:`repro.serve.faults`: a deterministic,
seedable :class:`FaultInjector` (driven by a :class:`FaultPlan`) threads
through the engine's arena probe, the sessions and the callback dispatch;
the engine hardens the request lifecycle around it with per-request
timeouts, capped exponential-backoff retries (bit-identical recovered token
streams), failure isolation (one faulted row never aborts its batch
siblings), hysteretic load shedding (:class:`LoadShedWatchdog`) and
graceful ``drain()`` / ``shutdown()``.  Every request ends in exactly one terminal
state -- ``FINISHED`` / ``CANCELLED`` / ``FAILED`` / ``TIMED_OUT`` /
``SHED`` -- recorded as :attr:`RequestMetrics.outcome`.

Decode throughput has its own opt-in lever, **speculative multi-token
decode** (:mod:`repro.serve.speculative`): a deterministic
:class:`Drafter` (:class:`NGramDrafter` prompt/history echo, or the
:class:`TruncatedBitDrafter` built from the target's own truncated
quantised LM head) proposes up to ``k`` tokens per decoding session, the
engine verifies the ``1 + k`` rows inside the *same* fused batched pass,
and the greedy accept rule plus arena rollback
(:meth:`PagedKVArena.truncate_session`) keeps committed token streams
bit-identical to one-token decode (``ServingEngine(speculative=...)``,
adaptive per-session throttling via :class:`SpeculationConfig`).

See ``src/repro/serve/README.md`` for the API guide, the failure model and
how to write a custom policy.
"""

from .faults import (
    FAULT_SITES,
    FailureInfo,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCallbackError,
    LoadShedWatchdog,
    SessionComputeFault,
    TransientArenaFault,
)
from .kv_arena import ArenaStats, KVDtype, KVSnapshot, PagedKVArena
from .policies import (
    AdaptivePrefillPolicy,
    AgingPriorityPolicy,
    ArenaBudgetPolicy,
    DeadlinePolicy,
    FCFSPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    make_policy,
)
from .scheduler import (
    RequestHandle,
    RequestMetrics,
    ServingEngine,
    ServingReport,
)
from .session import GenerationSession, Request, SessionState, TERMINAL_STATES
from .speculative import (
    Drafter,
    NGramDrafter,
    SpeculationConfig,
    TruncatedBitDrafter,
)

__all__ = [
    "AdaptivePrefillPolicy",
    "AgingPriorityPolicy",
    "ArenaBudgetPolicy",
    "ArenaStats",
    "DeadlinePolicy",
    "Drafter",
    "FAULT_SITES",
    "FCFSPolicy",
    "FailureInfo",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GenerationSession",
    "InjectedCallbackError",
    "KVDtype",
    "KVSnapshot",
    "LoadShedWatchdog",
    "NGramDrafter",
    "PagedKVArena",
    "PriorityPolicy",
    "Request",
    "RequestHandle",
    "RequestMetrics",
    "SchedulingPolicy",
    "ServingEngine",
    "ServingReport",
    "SessionComputeFault",
    "SessionState",
    "SpeculationConfig",
    "TERMINAL_STATES",
    "TransientArenaFault",
    "TruncatedBitDrafter",
    "make_policy",
]
