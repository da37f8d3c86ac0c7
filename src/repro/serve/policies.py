"""Pluggable scheduling policies for the serving engine.

The serving control plane keeps request-lifecycle mechanics (owned by
:class:`~repro.serve.scheduler.ServingEngine`) separate from *decisions*,
and one :class:`SchedulingPolicy` makes every service decision of an engine:

* its ``urgency_key(handle, step)`` orders the ready queue (requests that
  have arrived but hold no slot) *and* ranks preemption victims, so the
  order requests take free slots in and the order they are evicted in can
  never disagree;
* its admission hooks (``may_admit``, ``prefill_token_budget``,
  ``check_submit``, ``on_admit``, ``on_release``) gate admissions on engine
  state and keep per-handle resource reservations.

Shipped disciplines: :class:`FCFSPolicy` (arrival order, never preempts --
the engine default, which the golden and fuzz suites pin),
:class:`PriorityPolicy` (higher ``priority`` first, evicts lower),
:class:`DeadlinePolicy` (earliest absolute deadline first) and
:class:`AgingPriorityPolicy` (priority with anti-starvation aging, never
preempts).  Two wrappers add one resource rule to any of them:
:class:`ArenaBudgetPolicy` queues requests instead of letting the paged KV
arena grow past a watermark of its ``max_pages`` budget, and
:class:`AdaptivePrefillPolicy` throttles chunked prefill while the batch is
decode-heavy.

Policies see :class:`~repro.serve.scheduler.RequestHandle` objects, which
expose the immutable :class:`~repro.serve.session.Request`, the live
session, and a monotonically increasing ``index`` (submission order) for
deterministic tie-breaking.  The preemptive shipped policies derive their
keys from *static* request attributes only; combined with strict-inequality
preemption this guarantees the engine cannot livelock -- the most urgent
unfinished request is never preempted, so every step makes progress.

Writing a custom policy
-----------------------

Subclass :class:`SchedulingPolicy` and implement ``urgency_key(handle,
step)`` (smaller tuples are served first and evicted last).  Set
``preemptive = True`` to let strictly more urgent waiting requests evict
active ones (``preempts(waiting, active, step)`` tunes the comparison), set
``dynamic = True`` when the key depends on ``step``, and override
``may_admit(handle, engine)`` to gate on engine state (queue depths, arena
occupancy via ``engine.arena``).  An ordering without preemption is a
subclass with ``preemptive = False``.  Keep keys static per request unless
you also re-verify drain behaviour -- see ``src/repro/serve/README.md``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scheduler import RequestHandle, ServingEngine

__all__ = [
    "SchedulingPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "DeadlinePolicy",
    "AgingPriorityPolicy",
    "ArenaBudgetPolicy",
    "AdaptivePrefillPolicy",
    "make_policy",
]


def _deadline_value(handle: "RequestHandle") -> float:
    """Absolute deadline step of a handle's request (inf when none)."""
    deadline = handle.request.deadline_step
    return math.inf if deadline is None else float(deadline)


def _arrival_key(handle: "RequestHandle") -> Tuple:
    return (handle.request.arrival_step, handle.index)


class SchedulingPolicy(ABC):
    """Orders, admits and preempts the requests of one engine.

    The engine keeps its ready queue as a heap keyed by :meth:`urgency_key`;
    each step it pops handles in key order into free slots, asking
    :meth:`may_admit` before each pop.  Admission is head-of-line: when the
    best-ranked handle is refused, the engine stops admitting for this step
    rather than skipping ahead (no starvation of the queue head by smaller
    requests behind it).

    Every active session decodes each step (continuous batching); the other
    lever a policy holds is *eviction*: when :attr:`preemptive` is true,
    :meth:`select_preemptions` names active sessions to preempt so that
    strictly more urgent waiting requests can take their slots (and their
    arena pages) this very step.  The engine treats the selection as
    *tentative*: a victim is preempted for real only if the admission pass
    that follows actually uses its evicted capacity; otherwise it keeps its
    slot and KV untouched (so a selection wasted on a refused candidate
    costs nothing).
    """

    name = "scheduling"
    preemptive = False
    #: When true the engine re-keys the whole ready queue every step (keys
    #: may depend on the current step, e.g. aging).  Static-key policies
    #: keep the cheap push-once heap.
    dynamic = False

    @abstractmethod
    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        """Service-urgency key (smaller = served first, preempted last).

        Must be deterministic for a given ``(handle, step)``, and may depend
        on ``step`` only when :attr:`dynamic` is true.
        """

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        """Whether ``waiting`` is urgent enough to evict ``active``.

        The default is a strict key comparison; policies may loosen it (e.g.
        compare only the priority class) to avoid churn between requests that
        tie on the attribute that matters.
        """
        return self.urgency_key(waiting, step) < self.urgency_key(active, step)

    def select_preemptions(
        self,
        ready: Sequence["RequestHandle"],
        active: Sequence["RequestHandle"],
        free_slots: int,
        step: int,
    ) -> List["RequestHandle"]:
        """Pick the active sessions to evict for this step's admissions.

        The most urgent waiting handles first absorb any free slots; each
        one beyond that evicts the least urgent remaining active session iff
        :meth:`preempts` holds strictly.  Victims are returned most-evictable
        first; the engine evicts each one only when an admission takes its
        slot (gated against the batch without it), in the same step.
        """
        if not self.preemptive or not ready or not active:
            return []
        waiting = sorted(ready, key=lambda h: self.urgency_key(h, step))
        survivors = sorted(active, key=lambda h: self.urgency_key(h, step))
        victims: List["RequestHandle"] = []
        spare = free_slots
        for candidate in waiting:
            if spare > 0:
                spare -= 1  # a free slot serves this arrival without eviction
                continue
            if not survivors:
                break
            if self.preempts(candidate, survivors[-1], step):
                victims.append(survivors.pop())
                # the freed slot is consumed by ``candidate`` itself
            else:
                break
        return victims

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        """Resource gate consulted right before ``handle`` takes a slot."""
        return True

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        """Prefill rows the engine may spend this step (``None`` = no cap).

        The TTFT-vs-decode-throughput knob of the chunked prefill pipeline:
        each step the engine feeds at most this many prompt rows (summed over
        every ``PREFILLING`` session, head of the service order first) into
        the fused pass alongside the decode tokens.  The default defers to
        the engine's ``prefill_token_budget`` constructor knob; policies can
        override it to spend the step budget adaptively (e.g. throttle
        prefill while many sessions are decoding).
        """
        return engine.prefill_token_budget

    def check_submit(self, request, engine: "ServingEngine") -> None:
        """Validate a request at submit time; raise ``ValueError`` to reject.

        Runs inside :meth:`ServingEngine.submit` before any engine state is
        touched, so a policy can refuse requests that could *never* be
        served (rather than queueing them forever or crashing mid-run).
        The default accepts everything.
        """

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Lifecycle hook: ``handle`` just took a slot.

        Fired by the engine immediately after each admission commits (still
        inside the admission loop, so later candidates in the same step are
        gated against whatever state this call pins).  Stateful policies use
        it to record per-handle resource reservations; the default is a
        no-op.
        """

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Lifecycle hook: ``handle`` left the batch for good (or for now).

        Fired on retirement, on cancellation (queued *or* active -- a
        cancelled request must stop being charged immediately), and on a
        realized preemption (rolled-back tentative victims keep their
        state).  Must be idempotent and safe for handles that were never
        admitted.  The default is a no-op.
        """


class FCFSPolicy(SchedulingPolicy):
    """First come, first served; never preempts.

    The :class:`ServingEngine` default: it reproduces the pre-policy
    scheduler bit-exactly (tokens, metrics and arena counters), which the
    golden and fuzz suites pin.
    """

    name = "fcfs"

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return _arrival_key(handle)


class PriorityPolicy(SchedulingPolicy):
    """Strict priority service: higher ``Request.priority`` evicts lower.

    Preemption compares *priority classes only* -- a waiting request must
    carry strictly higher priority than the victim, so equal-priority
    requests never churn each other's KV.  Within a class, service order is
    FIFO via the urgency key.
    """

    name = "priority"
    preemptive = True

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return (-handle.request.priority,) + _arrival_key(handle)

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        return waiting.request.priority > active.request.priority


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first service with deadline-driven preemption.

    Requests without a deadline are served last and preempted first.  A
    waiting request evicts an active one only when its absolute deadline is
    strictly earlier, so identical deadlines never ping-pong.
    """

    name = "deadline"
    preemptive = True

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return (_deadline_value(handle),) + _arrival_key(handle)

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        return _deadline_value(waiting) < _deadline_value(active)


class AgingPriorityPolicy(SchedulingPolicy):
    """Priority service with anti-starvation aging of queued requests.

    A request's *effective* priority is its static class boosted by one for
    every ``aging_steps`` engine steps it has waited since arrival::

        effective(h, step) = h.priority + (step - h.arrival_step) // aging_steps

    so a low-priority request stuck behind a stream of urgent arrivals
    eventually out-ranks them and cannot starve (the ROADMAP's
    "aging/anti-starvation priorities" item).  Ordering within an effective
    class stays FIFO and ties break on the submission index, so runs are
    deterministic.  The policy is :attr:`dynamic`: the engine re-keys its
    ready queue every step.

    It never preempts: preemption driven by *static* priority would evict
    exactly the aged sessions this policy fought to admit, reintroducing the
    starvation loop.
    """

    name = "aging-priority"
    dynamic = True

    def __init__(self, aging_steps: int = 16) -> None:
        if aging_steps < 1:
            raise ValueError("aging_steps must be >= 1")
        self.aging_steps = aging_steps

    def effective_priority(self, handle: "RequestHandle", step: int) -> int:
        waited = max(0, step - handle.request.arrival_step)
        return handle.request.priority + waited // self.aging_steps

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return (-self.effective_priority(handle, step),) + _arrival_key(handle)


class _DelegatingPolicy(SchedulingPolicy):
    """Forwards every decision to ``inner`` (FCFS by default).

    The base of the wrapper policies: each subclass overrides only the hooks
    whose rule it adds, calling ``super()`` to keep the inner policy's.
    """

    label = "delegating"

    def __init__(self, inner: Optional[SchedulingPolicy] = None) -> None:
        self.inner = inner if inner is not None else FCFSPolicy()

    @property
    def name(self) -> str:
        return f"{self.label}({self.inner.name})"

    @property
    def preemptive(self) -> bool:
        return self.inner.preemptive

    @property
    def dynamic(self) -> bool:
        return self.inner.dynamic

    def urgency_key(self, handle: "RequestHandle", step: int) -> Tuple:
        return self.inner.urgency_key(handle, step)

    def preempts(
        self, waiting: "RequestHandle", active: "RequestHandle", step: int
    ) -> bool:
        return self.inner.preempts(waiting, active, step)

    def select_preemptions(
        self,
        ready: Sequence["RequestHandle"],
        active: Sequence["RequestHandle"],
        free_slots: int,
        step: int,
    ) -> List["RequestHandle"]:
        return self.inner.select_preemptions(ready, active, free_slots, step)

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        return self.inner.may_admit(handle, engine)

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        return self.inner.prefill_token_budget(engine)

    def check_submit(self, request, engine: "ServingEngine") -> None:
        self.inner.check_submit(request, engine)

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        self.inner.on_admit(handle, engine)

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        self.inner.on_release(handle, engine)


class ArenaBudgetPolicy(_DelegatingPolicy):
    """Queue requests instead of growing the KV arena past a watermark.

    Wraps an ``inner`` policy (FCFS by default), which keeps the service
    order and preemption rule, and reserves, for every admitted request, its
    *whole lifetime* of KV rows -- ``prompt + max_new_tokens - 1`` tokens,
    the exact row count an unpreempted run appends.  A candidate is admitted
    only while the sum of all active reservations plus its own stays within
    ``watermark * max_pages``.  Reserving lifetimes (rather than reading
    current occupancy, which lags: pages materialise at prefill and grow
    every decode step) means admitted requests can never exhaust the pool
    mid-decode, so the engine trades queueing delay for a hard occupancy
    bound (the ROADMAP's "reject/queue when the pool is near ``max_pages``
    instead of growing or raising").

    Arenas without a ``max_pages`` budget and an idle engine (nothing
    active -- refusing then would deadlock the queue) admit
    unconditionally.

    Reservations are pinned per handle at admission (:meth:`on_admit`) and
    dropped the moment the handle stops holding KV (:meth:`on_release`:
    retirement, realized preemption, or cancellation -- including a cancel
    while still queued, which must not leave a phantom charge).  With the
    engine's ``prefix_cache`` enabled, an admission is charged only for its
    *novel suffix*: pages fully covered by the arena's prefix index are
    shared mappings, not new allocations (see :meth:`_charged_pages`).

    Wrapping a *preemptive* policy (:class:`PriorityPolicy`,
    :class:`DeadlinePolicy`), the bound still holds: the engine removes a
    victim from the batch only as the admission that takes its slot is
    gated, so every candidate is gated against the reservations of exactly
    the batch it joins, victims still waiting for their slot included.
    """

    label = "arena-budget"

    def __init__(
        self,
        inner: Optional[SchedulingPolicy] = None,
        watermark: float = 1.0,
    ) -> None:
        if not 0.0 < watermark <= 1.0:
            raise ValueError("watermark must be in (0, 1]")
        super().__init__(inner)
        self.watermark = watermark

    @staticmethod
    def _request_pages(arena, request) -> int:
        # early EOS only under-runs this, so the reservation stays safe
        return arena.pages_needed(
            len(request.prompt_tokens) + request.max_new_tokens - 1
        )

    @classmethod
    def _lifetime_pages(cls, arena, handle: "RequestHandle") -> int:
        return cls._request_pages(arena, handle.request)

    def _charged_pages(
        self, arena, handle: "RequestHandle", engine: "ServingEngine"
    ) -> int:
        """Pages this admission is charged: lifetime minus cached prefix.

        With the engine's ``prefix_cache`` on, pages the session will *map*
        from the arena's prefix index are shared, not allocated, so only the
        novel suffix counts against the watermark.  Only fully cached pages
        are discounted (a partially matched page is copy-on-written into a
        fresh one the moment the session appends, so it is charged in full).
        The probe keys on the session's replay stream -- prompt plus any
        tokens generated before a preemption -- which is exactly what a
        resume re-prefills.

        A **snapshot-preempted** handle never re-prefills: its resume
        faults back exactly the snapshot's *copied* pages and re-attaches
        the *referenced* (shared) ones, so the charge is the lifetime
        count minus the referenced pages -- not the novel-suffix formula,
        whose prefix probe describes a replay that will never run (and
        would double-discount pages the snapshot already pins).
        """
        pages = self._lifetime_pages(arena, handle)
        session = handle.session
        snapshot = getattr(session, "kv_snapshot", None)
        if snapshot is not None:
            return max(0, pages - snapshot.pages_referenced)
        if not getattr(engine, "prefix_cache", False):
            return pages
        replay = list(session.request.prompt_tokens) + list(
            session.generated_tokens
        )
        reused = arena.probe_prefix(replay)
        return max(0, pages - reused // arena.page_size)

    def on_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Pin the admitted handle's page reservation on the handle itself.

        Recorded at admission time (before the session's prefill runs) so
        the suffix discount reflects the prefix index as the gate saw it;
        later candidates in the same step already count this reservation.
        """
        super().on_admit(handle, engine)
        arena = engine.arena
        if arena.max_pages is None:
            return
        handle.reserved_pages = self._charged_pages(arena, handle, engine)

    def on_release(self, handle: "RequestHandle", engine: "ServingEngine") -> None:
        """Drop the reservation the moment the handle stops holding KV.

        Covers retirement, realized preemption, and cancellation -- a
        request cancelled while still *queued* never held a reservation
        (``reserved_pages`` is ``None``), and one cancelled while active
        stops being charged immediately rather than haunting the watermark
        until the step it would have retired.
        """
        super().on_release(handle, engine)
        handle.reserved_pages = None

    def check_submit(self, request, engine: "ServingEngine") -> None:
        """Reject requests whose lifetime could never fit ``max_pages``.

        Without this, such a request would wait until the engine idles, be
        force-admitted, and crash the whole run with ``arena exhausted``
        mid-prefill -- rejecting it up front with a clear error keeps the
        queue serviceable.
        """
        super().check_submit(request, engine)
        arena = engine.arena
        if arena.max_pages is None:
            return
        needed = self._request_pages(arena, request)
        if needed > arena.max_pages:
            raise ValueError(
                f"request {request.request_id!r} needs {needed} arena pages "
                f"for its lifetime ({len(request.prompt_tokens)} prompt + "
                f"{request.max_new_tokens} new tokens), over the max_pages "
                f"budget ({arena.max_pages}); it can never be admitted"
            )

    def may_admit(self, handle: "RequestHandle", engine: "ServingEngine") -> bool:
        arena = engine.arena
        if arena.max_pages is None:
            return True
        if not super().may_admit(handle, engine):
            return False
        if engine.n_active == 0:
            return True  # forced progress: an empty engine must not starve
        reserved = sum(
            h.reserved_pages
            if h.reserved_pages is not None
            else self._lifetime_pages(arena, h)
            for h in engine.active_handles
        )
        return arena.within_watermark(
            reserved + self._charged_pages(arena, handle, engine),
            watermark=self.watermark,
        )


class AdaptivePrefillPolicy(_DelegatingPolicy):
    """Throttle chunked prefill while the fleet is decode-heavy.

    Wraps an ``inner`` policy (FCFS by default) and overrides only
    :meth:`prefill_token_budget`: while at least ``decode_threshold`` of the
    active handles are decoding (state ``ACTIVE``, past their prefill), the
    step's prefill-row budget is clamped to ``throttled_budget`` rows, so
    incoming prompts trickle in instead of stealing a decode-heavy step's
    fused pass -- the inter-token latency of the established streams stays
    flat and admissions still progress (the engine clamps the head's chunk
    to >= 1 row, so no livelock).  Below the threshold the inner policy's
    budget applies unchanged; an engine whose active set never crosses the
    threshold behaves bit-identically to the bare ``inner`` policy.
    """

    label = "adaptive-prefill"

    def __init__(
        self,
        inner: Optional[SchedulingPolicy] = None,
        throttled_budget: int = 4,
        decode_threshold: float = 0.75,
    ) -> None:
        if throttled_budget < 1:
            raise ValueError(
                f"throttled_budget must be >= 1, got {throttled_budget}"
            )
        if not 0.0 < decode_threshold <= 1.0:
            raise ValueError(
                f"decode_threshold must be in (0, 1], got {decode_threshold}"
            )
        super().__init__(inner)
        self.throttled_budget = int(throttled_budget)
        self.decode_threshold = float(decode_threshold)

    def prefill_token_budget(self, engine: "ServingEngine") -> Optional[int]:
        from .session import SessionState

        base = super().prefill_token_budget(engine)
        active = engine.active_handles
        if not active:
            return base
        decoding = sum(
            1 for h in active if h.session.state is SessionState.ACTIVE
        )
        if decoding / len(active) < self.decode_threshold:
            return base
        if base is None:
            return self.throttled_budget
        return min(base, self.throttled_budget)


def make_policy(name: str) -> SchedulingPolicy:
    """Scheduling policy for a named serving discipline.

    ``"fcfs"`` -> :class:`FCFSPolicy`; ``"priority"`` ->
    :class:`PriorityPolicy`; ``"deadline"`` -> :class:`DeadlinePolicy`;
    ``"aging"`` -> :class:`AgingPriorityPolicy` (default 16-step aging).
    These are the names ``examples/serving_simulation.py --policy`` and the
    serving benchmark accept.
    """
    policies = {
        "fcfs": FCFSPolicy,
        "priority": PriorityPolicy,
        "deadline": DeadlinePolicy,
        "aging": AgingPriorityPolicy,
    }
    if name not in policies:
        raise KeyError(f"unknown policy {name!r}; available: {sorted(policies)}")
    return policies[name]()

