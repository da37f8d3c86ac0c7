"""Policy-driven serving engine: batched execution core + request lifecycle.

:class:`ServingEngine` owns the request lifecycle -- ``submit() ->``
:class:`RequestHandle` (with per-request streaming/completion callbacks),
``cancel()``, ``step()``/``run()`` -- and the batched execution core, while
delegating every *decision* to one pluggable
:class:`~repro.serve.policies.SchedulingPolicy` from
:mod:`repro.serve.policies`: its urgency key orders the ready queue and
ranks preemption victims, and its admission hooks decide whether the KV
arena can afford the queue head.

Each engine step:

1. moves arrived requests into the ready queue (ordered by the policy's
   urgency key; *dynamic* policies such as
   :class:`~repro.serve.policies.AgingPriorityPolicy` are re-keyed every
   step);
2. asks the scheduling policy for **preemptions**: each victim -- decoding
   *or* mid-prefill -- that an admission below displaces releases its arena
   pages and re-enters the ready queue with only its generated-token
   snapshot (resume re-prefills through the same chunked pipeline,
   bit-identical to an unpreempted run);
3. admits ready requests into free slots, then into the victims' slots,
   most urgent first, gated per-handle by the policy's ``may_admit``
   against the batch the candidate would join -- an admission enters the
   **chunked prefill pipeline** (state ``PREFILLING``) rather than running
   its whole prompt serially;
4. builds one **mixed batch**: every decoding session's current token plus
   up to ``prefill_token_budget`` prompt rows from the prefilling sessions
   (head of the service order first, long prompts split across steps), and
   runs it as a **single fused forward** through
   :meth:`~repro.model.transformer.QuantizedTransformer.prefill_batch` --
   one GEMM per weight matrix for the whole step, one ragged chunked
   attention per layer.  Sessions whose last chunk landed emit their first
   token.  A pure-decode step is the same pass over one-row chunks (even a
   batch of one): there is no separate decode driver;
5. retires finished sessions, freeing their slots -- and their KV arena
   pages -- for the next step.

Because every session shares one model -- and, when the model is bound to an
:class:`repro.core.engine.MCBPEngine`, one decoded-plane cache -- each
layer's BSTC decode *and* its GEMM launch are paid once per step instead of
once per session.  Session KV lives in one shared
:class:`~repro.serve.kv_arena.PagedKVArena`, so each decode step's batched
attention reads the paged pool through an incrementally maintained view
(O(B) copy bytes per step).

The result of a run is a :class:`ServingReport` with per-request queueing
delay, time-to-first-token, end-to-end latency, preemption and deadline-miss
counts, plus aggregate throughput and a per-policy metrics block;
:meth:`ServingReport.to_json` / :meth:`ServingReport.from_json` round-trip
the report through the JSON format shared with the serving benchmarks.
"""

from __future__ import annotations

import heapq
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..model.generation import KeyPredictor
from .faults import (
    FailureInfo,
    FaultInjector,
    FaultPlan,
    InjectedCallbackError,
    LoadShedWatchdog,
    TransientArenaFault,
)
from .kv_arena import PagedKVArena
from .policies import FCFSPolicy, SchedulingPolicy
from .session import GenerationSession, Request, RequestMetrics, SessionState
from .speculative import NGramDrafter, _SessionThrottle, resolve_speculation

__all__ = [
    "RequestMetrics",
    "RequestHandle",
    "ServingReport",
    "ServingEngine",
]

#: Retry backoff: the n-th retry of a request re-arrives
#: ``min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_STEPS * 2**(n-1))`` steps later.
RETRY_BACKOFF_STEPS = 1
RETRY_BACKOFF_CAP = 8

TokenCallback = Callable[["RequestHandle", int, int], None]
CompleteCallback = Callable[["RequestHandle", RequestMetrics], None]


@dataclass
class ServingReport:
    """Aggregate outcome of an engine run.

    ``arena`` carries the KV arena's occupancy / paging / copy-traffic
    counters (:meth:`repro.serve.kv_arena.ArenaStats.to_json`); it is
    ``None`` only in reports loaded from payloads written before the arena
    existed.  ``policy`` is the per-policy metrics
    block: which scheduling policy ran plus its aggregate
    preemption / deadline-miss / cancellation counts (and, since the failure
    model landed, failed / timed-out / shed / retry / callback-error counts).

    ``requests`` holds every *terminally-resolved* request except cancelled
    ones -- finished, failed, timed-out and shed alike, distinguished by
    :attr:`RequestMetrics.outcome` -- so failure rates are first-class
    report data.  The latency aggregates are computed over the ``finished``
    outcomes only (a timed-out request's "latency" measures the reaper, not
    the service), and queue-delay aggregates over requests that were
    actually admitted; fault-free reports are bit-identical to the
    pre-faults format.

    ``truncated`` records that the producing :meth:`ServingEngine.run` hit
    its ``max_steps`` with work still queued/active (the leftover counts say
    how much) -- previously that outcome raised, hiding the partial results;
    :meth:`from_json` tolerates payloads written either way.
    """

    steps: int
    requests: List[RequestMetrics] = field(default_factory=list)
    max_concurrency: int = 0
    arena: Optional[dict] = None
    policy: Optional[dict] = None
    truncated: bool = False
    leftover_queued: int = 0
    leftover_active: int = 0

    @property
    def total_tokens(self) -> int:
        return sum(r.n_generated for r in self.requests)

    @property
    def throughput_tokens_per_step(self) -> float:
        return self.total_tokens / self.steps if self.steps else 0.0

    def _finished(self) -> List[RequestMetrics]:
        return [r for r in self.requests if r.outcome == "finished"]

    def latency_percentile(self, q: float, priority: Optional[int] = None) -> float:
        """Latency percentile over finished requests, or one priority class."""
        pool = self._finished()
        if priority is not None:
            pool = [r for r in pool if r.priority == priority]
        if not pool:
            return 0.0
        return float(np.percentile([r.latency_steps for r in pool], q))

    @property
    def mean_latency_steps(self) -> float:
        pool = self._finished()
        if not pool:
            return 0.0
        return float(np.mean([r.latency_steps for r in pool]))

    @property
    def mean_queue_delay_steps(self) -> float:
        delays = [
            r.queue_delay_steps
            for r in self.requests
            if r.queue_delay_steps is not None
        ]
        if not delays:
            return 0.0
        return float(np.mean(delays))

    @property
    def total_preemptions(self) -> int:
        return sum(r.preemptions for r in self.requests)

    @property
    def total_deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.requests)

    def to_json(self) -> dict:
        """JSON-serialisable dict: stored fields plus derived aggregates.

        The same schema is emitted by ``examples/serving_simulation.py
        --json`` and embedded in ``BENCH_serving.json`` by the serving
        benchmark, so every serving artefact shares one report format.
        Derived aggregates are included for human consumption;
        :meth:`from_json` ignores them and recomputes from the stored fields.
        """
        return {
            "steps": self.steps,
            "max_concurrency": self.max_concurrency,
            "total_tokens": self.total_tokens,
            "throughput_tokens_per_step": self.throughput_tokens_per_step,
            "mean_latency_steps": self.mean_latency_steps,
            "p95_latency_steps": self.latency_percentile(95),
            "mean_queue_delay_steps": self.mean_queue_delay_steps,
            "truncated": self.truncated,
            "leftover_queued": self.leftover_queued,
            "leftover_active": self.leftover_active,
            "arena": self.arena,
            "policy": self.policy,
            "requests": [asdict(r) for r in self.requests],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ServingReport":
        """Rebuild a report from :meth:`to_json` output.

        Unknown keys are ignored at both the top level and inside each
        request entry, and stored fields absent from the payload fall back
        to their defaults -- so reports written by newer code (additional
        per-policy metrics blocks, new per-request counters) and by older
        code (pre-arena, pre-policy payloads) both load cleanly.
        """
        stored = {f for f in RequestMetrics.__dataclass_fields__}
        requests = [
            RequestMetrics(**{k: v for k, v in entry.items() if k in stored})
            for entry in payload.get("requests", [])
        ]
        return cls(
            steps=int(payload.get("steps", 0)),
            max_concurrency=int(payload.get("max_concurrency", 0)),
            requests=requests,
            arena=payload.get("arena"),
            policy=payload.get("policy"),
            truncated=bool(payload.get("truncated", False)),
            leftover_queued=int(payload.get("leftover_queued", 0)),
            leftover_active=int(payload.get("leftover_active", 0)),
        )

    @staticmethod
    def _cell(value, width: int) -> str:
        """Right-aligned table cell; ``-`` for a milestone never reached."""
        return f"{'-' if value is None else value:>{width}}"

    def summary(self) -> str:
        """Human-readable per-request table plus aggregate lines."""
        lines = [
            f"{'request':>12} {'arrive':>7} {'admit':>6} {'first':>6} "
            f"{'finish':>7} {'tokens':>7} {'latency':>8} {'attn%':>6} "
            f"{'outcome':>9}"
        ]
        for r in sorted(self.requests, key=lambda r: r.arrival_step):
            lines.append(
                f"{r.request_id:>12} {r.arrival_step:>7} "
                f"{self._cell(r.admitted_step, 6)} "
                f"{self._cell(r.first_token_step, 6)} "
                f"{self._cell(r.finished_step, 7)} {r.n_generated:>7} "
                f"{self._cell(r.latency_steps, 8)} "
                f"{100.0 * r.attention_density:>5.1f}% {r.outcome:>9}"
            )
        lines.append(
            f"steps={self.steps} tokens={self.total_tokens} "
            f"throughput={self.throughput_tokens_per_step:.2f} tok/step "
            f"mean_latency={self.mean_latency_steps:.1f} "
            f"p95_latency={self.latency_percentile(95):.1f} "
            f"peak_concurrency={self.max_concurrency}"
        )
        if self.truncated:
            lines.append(
                f"TRUNCATED: run stopped at max_steps with "
                f"{self.leftover_queued} queued / {self.leftover_active} "
                f"active requests unresolved"
            )
        if self.policy is not None:
            # .get(): from_json accepts partial policy blocks from other
            # writers, so summary() must not hard-require every key
            p = self.policy
            lines.append(
                f"policy: scheduling={p.get('scheduling', '?')} "
                f"preemptions={p.get('preemptions', 0)} "
                f"deadline_misses={p.get('deadline_misses', 0)} "
                f"cancelled={p.get('cancelled', 0)} "
                f"failed={p.get('failed', 0)} "
                f"timed_out={p.get('timed_out', 0)} "
                f"shed={p.get('shed', 0)} "
                f"retries={p.get('retries', 0)}"
            )
        if self.arena is not None:
            a = self.arena
            lines.append(
                f"arena: {a['page_size']}-token pages, "
                f"peak {a['peak_pages_in_use']}/{a['n_pages']} in use, "
                f"{a['page_faults']} faults, {a['pages_freed']} freed, "
                f"gather {a['gather_bytes_copied'] / 1024.0:.1f} KiB "
                f"({a['gather_incremental']} incremental / "
                f"{a['gather_rebuilds']} rebuilds)"
            )
        return "\n".join(lines)


class RequestHandle:
    """The caller's view of one submitted request.

    Returned by :meth:`ServingEngine.submit`; exposes the immutable request,
    live state and generated tokens, and carries the optional per-request
    callbacks (``on_token`` fires for every emitted token, ``on_complete``
    once with the final :class:`RequestMetrics`).  ``index`` is the
    submission sequence number policies use as a deterministic tie-breaker.
    """

    __slots__ = (
        "session",
        "index",
        "on_token",
        "on_complete",
        "cancelled",
        "reserved_pages",
        "_complete_fired",
    )

    def __init__(
        self,
        session: GenerationSession,
        index: int,
        on_token: Optional[TokenCallback] = None,
        on_complete: Optional[CompleteCallback] = None,
    ) -> None:
        self.session = session
        self.index = index
        self.on_token = on_token
        self.on_complete = on_complete
        self.cancelled = False
        # page reservation pinned by the scheduling policy while the handle
        # is active (None when unadmitted, released, or policy-unmanaged)
        self.reserved_pages: Optional[int] = None
        # exactly-once terminal-callback latch: set the moment on_complete
        # is dispatched (or forfeited by cancel), never cleared
        self._complete_fired = False

    @property
    def request(self) -> Request:
        return self.session.request

    @property
    def request_id(self) -> str:
        return self.session.request.request_id

    @property
    def state(self) -> SessionState:
        return self.session.state

    @property
    def generated_tokens(self) -> List[int]:
        return self.session.generated_tokens

    @property
    def preemptions(self) -> int:
        return self.session.preemptions

    @property
    def done(self) -> bool:
        """Terminal: finished, cancelled, failed, timed out or shed."""
        return self.session.is_terminal or self.cancelled

    def metrics(self) -> RequestMetrics:
        """Final metrics of the resolved request (raises until terminal)."""
        return self.session.to_metrics()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestHandle({self.request_id!r}, state={self.state.value}, "
            f"tokens={len(self.generated_tokens)})"
        )


class ServingEngine:
    """Multiplexes many generation sessions through one shared model.

    Parameters
    ----------
    model:
        Shared inference substrate exposing ``prefill_batch``, ``new_cache``
        and ``config`` -- the
        :class:`~repro.model.transformer.QuantizedTransformer`
        (``TypeError`` otherwise).  Every step -- prompt chunks, decode
        rows, speculative verify chunks -- goes through one
        :meth:`GenerationSession.prefill_step_batch` pass over the arena.
    max_active:
        Maximum number of concurrently decoding sessions (batch slots).
    predictor:
        Optional BGPP/top-k key predictor shared by all sessions.
    arena:
        The :class:`~repro.serve.kv_arena.PagedKVArena` holding every
        session's KV (several engines may share one pool); finished
        sessions return their pages, and batched attention reads the pool
        through an incrementally maintained view.  ``None`` (the default)
        builds ``PagedKVArena(config.n_layers, config.hidden_size)``:
        32-token pages, unbounded, full precision.  Page size, the
        ``max_pages`` budget that
        :class:`~repro.serve.policies.ArenaBudgetPolicy` gates against, and
        the ``kv_dtype`` storage mode are set on the arena itself.
    prefix_cache:
        Share prompt KV across requests through the arena's content-keyed
        prefix index: completed prefills register their prompt pages, later
        sessions with a matching prompt head map those pages read-only and
        skip the matched rows' prefill compute (copy-on-write protects
        shared pages; see :class:`~repro.serve.kv_arena.PagedKVArena`).
        Tokens and per-request metrics are bit-identical to a cold run.
    kv_snapshots:
        Preempt and (trusted-)retry arena-backed sessions by **snapshot**:
        the victim's KV pages are copied off-arena
        (:meth:`~repro.serve.kv_arena.PagedKVArena.snapshot_session`,
        shared prefix pages pinned by reference) and faulted back in on
        resume with *zero* re-prefill forward passes, bit-identical in
        tokens and metrics to an uninterrupted run.  Untrusted KV --
        fault sites at or after the forward pass (``session.compute``,
        ``session.append`` corruption) -- always falls back to the
        re-prefill path.  Off (the default) keeps the
        release-and-re-prefill behaviour.
    speculative:
        Draft-then-verify multi-token decode
        (:mod:`repro.serve.speculative`).  An ``int`` is shorthand for
        ``SpeculationConfig(k=...)``; a full
        :class:`~repro.serve.speculative.SpeculationConfig` picks the
        drafter (:class:`~repro.serve.speculative.NGramDrafter` by
        default) and the adaptive throttle.  Each step, every decoding
        session's chunk grows from one committed token to ``1 + k_draft``
        rows verified in the *same* fused batched pass; the greedy accept
        rule commits the longest matching draft prefix (plus the
        verifier's own next token) and
        :meth:`~repro.serve.kv_arena.PagedKVArena.truncate_session` rolls
        the rejected KV rows back, so the committed token stream is
        **bit-identical** to one-token decode for any drafter and any
        ``k``.  ``None`` (the default) keeps plain one-token decode.
    scheduling:
        The :class:`~repro.serve.policies.SchedulingPolicy` that orders the
        ready queue, gates admissions and picks preemption victims;
        defaults to :class:`~repro.serve.policies.FCFSPolicy` (arrival
        order, never preempts).
    prefill_token_budget:
        Maximum prompt rows the chunked prefill pipeline feeds into each
        step's fused pass, summed over every ``PREFILLING`` session (the
        TTFT-vs-decode-throughput knob; the scheduling policy can override
        it per step via
        :meth:`~repro.serve.policies.SchedulingPolicy.prefill_token_budget`).
        ``None`` (the default) completes every admitted prompt in its
        admission step, preserving one-shot prefill's step-domain schedule
        exactly while still batching the work into one pass.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` (or a pre-built
        :class:`~repro.serve.faults.FaultInjector`) arming the engine's
        deterministic fault-injection hooks -- schedule-time arena
        allocation probes, per-row compute/append faults at commit time,
        and callback-dispatch faults.  ``None`` (the default) leaves every
        hook point on the unguarded fast path: the fault-free engine is
        byte-identical in behaviour and measurably identical in throughput
        (gated in the serving benchmark).
    max_retries:
        How many fault-recovery re-prefills a request gets before it
        resolves ``FAILED``.  Each retry releases the (untrusted) KV and
        requeues the request with capped exponential backoff --
        ``RETRY_BACKOFF_STEPS * 2**(retries-1)`` engine steps, capped at
        ``RETRY_BACKOFF_CAP`` -- then resumes through the ordinary
        preemption machinery, so a recovered request's token stream is
        bit-identical to a fault-free run.
    watchdog:
        Optional :class:`~repro.serve.faults.LoadShedWatchdog`.  When
        installed, the engine feeds it queue depth and fault quarantines
        every step; while the watchdog says the engine is overloaded, the
        lowest-priority queued requests are resolved ``SHED`` and the
        chunked-prefill budget is throttled until pressure subsides.
    """

    def __init__(
        self,
        model,
        max_active: int = 8,
        predictor: Optional[KeyPredictor] = None,
        arena: Optional[PagedKVArena] = None,
        scheduling: Optional[SchedulingPolicy] = None,
        prefill_token_budget: Optional[int] = None,
        prefix_cache: bool = False,
        kv_snapshots: bool = False,
        speculative=None,
        faults=None,
        max_retries: int = 2,
        watchdog: Optional[LoadShedWatchdog] = None,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if prefill_token_budget is not None and prefill_token_budget < 1:
            raise ValueError("prefill_token_budget must be >= 1 when given")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        missing = [
            name
            for name in ("prefill_batch", "new_cache", "config")
            if not hasattr(model, name)
        ]
        if missing:
            raise TypeError(
                f"ServingEngine serves a model with prefill_batch, new_cache "
                f"and config (the quantised transformer); "
                f"{type(model).__name__} lacks {', '.join(missing)}"
            )
        if arena is None:
            arena = PagedKVArena(model.config.n_layers, model.config.hidden_size)
        elif not isinstance(arena, PagedKVArena):
            raise TypeError(
                f"arena must be a PagedKVArena to share or None, "
                f"got {type(arena).__name__}"
            )
        self.model = model
        self.max_active = max_active
        self.predictor = predictor
        self.prefill_token_budget = prefill_token_budget
        self.scheduling = scheduling if scheduling is not None else FCFSPolicy()
        self._speculative = resolve_speculation(speculative)
        if self._speculative is not None:
            self._drafter = self._speculative.drafter or NGramDrafter()
        else:
            self._drafter = None
        # per-request adaptive k controllers, dropped at terminal resolution
        self._spec_state: Dict[str, _SessionThrottle] = {}
        self.arena = arena
        self.prefix_cache = bool(prefix_cache)
        self.kv_snapshots = bool(kv_snapshots)
        # -- failure model ----------------------------------------------------
        if faults is None:
            self._faults: Optional[FaultInjector] = None
        elif isinstance(faults, FaultInjector):
            self._faults = faults
        elif isinstance(faults, FaultPlan):
            self._faults = FaultInjector(faults)
        else:
            raise TypeError(
                f"faults must be a FaultPlan or FaultInjector, "
                f"got {type(faults).__name__}"
            )
        self.max_retries = max_retries
        self.watchdog = watchdog
        self.last_step_stats: Optional[Dict[str, int]] = None
        self.current_step = 0
        # arrivals still in the future: min-heap keyed by (arrival_step,
        # submission index) so each step drains exactly the arrived prefix
        # (retry backoff reuses it: a retried handle "re-arrives" later)
        self._pending: List[Tuple[int, int, RequestHandle]] = []
        # arrived but unadmitted: min-heap keyed by the policy's urgency key
        # (submission index breaks exact ties deterministically)
        self._ready: List[Tuple[Tuple, int, RequestHandle]] = []
        # timeout reaper: min-heap keyed by (timeout_step, index); handles
        # are reaped at the start of the first step PAST their timeout_step
        self._timeouts: List[Tuple[int, int, RequestHandle]] = []
        self._request_ids: set = set()
        self._submitted = 0
        self._queued_count = 0  # live (non-terminal) handles across the heaps
        self._active: List[RequestHandle] = []
        # terminal resolutions counted by outcome state
        self._outcomes: Counter = Counter()
        # every non-cancelled terminal handle in resolution order -- the
        # report's per-request metrics walk this one list
        self._terminal: List[RequestHandle] = []
        self._max_concurrency = 0
        self._callback_errors = 0
        self._callback_warned = False
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        request: Request,
        on_token: Optional[TokenCallback] = None,
        on_complete: Optional[CompleteCallback] = None,
    ) -> RequestHandle:
        """Queue one request; returns its :class:`RequestHandle`.

        Raises ``ValueError`` for duplicate request ids and for requests the
        scheduling policy rejects outright (``check_submit``), e.g. one whose
        KV lifetime could never fit the arena's ``max_pages`` budget, and
        ``RuntimeError`` once the engine is closed (:meth:`drain` /
        :meth:`shutdown` was called).
        """
        if self._closed:
            raise RuntimeError(
                f"engine is closed (drain/shutdown); cannot submit "
                f"{request.request_id!r}"
            )
        # step() keys its emitted-token dict by request_id, so ids must be
        # unique or one session's tokens would silently shadow another's
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self.scheduling.check_submit(request, self)
        self._request_ids.add(request.request_id)
        session = GenerationSession(
            request,
            self.model,
            predictor=self.predictor,
            arena=self.arena,
            prefix_cache=self.prefix_cache,
        )
        session.fault_injector = self._faults
        handle = RequestHandle(
            session, self._submitted, on_token=on_token, on_complete=on_complete
        )
        heapq.heappush(
            self._pending, (request.arrival_step, handle.index, handle)
        )
        if request.timeout_step is not None:
            heapq.heappush(
                self._timeouts, (request.timeout_step, handle.index, handle)
            )
        self._submitted += 1
        self._queued_count += 1
        return handle

    def submit_many(self, requests: Iterable[Request]) -> List[RequestHandle]:
        return [self.submit(r) for r in requests]

    def cancel(self, handle: RequestHandle) -> bool:
        """Abort a request; frees its KV immediately.  False once terminal.

        Queued and preempted requests are dropped lazily from their heaps;
        an active request leaves the batch before the next step.  Cancelled
        requests are excluded from :meth:`report`'s per-request metrics but
        counted in its policy block.
        """
        if handle.cancelled or handle.session.is_terminal:
            return False
        if handle in self._active:
            self._active.remove(handle)
        else:
            # queued or preempted: it sits in one of the heaps (dropped
            # lazily on pop), so it leaves the live-queue count now
            self._queued_count -= 1
        handle.session.cancel(self.current_step)
        handle.cancelled = True
        # cancellation is caller-initiated: no on_complete fires for it, and
        # the latch guarantees none ever will (exactly-once, including zero)
        handle._complete_fired = True
        self._outcomes[SessionState.CANCELLED] += 1
        self._spec_state.pop(handle.request_id, None)
        # whether it was active (holding a reservation) or still queued,
        # the policy must drop any page reservation right now -- a
        # cancelled request can never consume the pages it was charged for
        self.scheduling.on_release(handle, self)
        return True

    @property
    def n_queued(self) -> int:
        return self._queued_count

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def active_handles(self) -> Tuple[RequestHandle, ...]:
        """The handles currently holding batch slots (policies read this)."""
        return tuple(self._active)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The armed injector (``None`` on a fault-free engine)."""
        return self._faults

    @property
    def has_work(self) -> bool:
        return bool(self._active) or self.n_queued > 0

    # -- stepping --------------------------------------------------------------

    def _push_ready(self, handle: RequestHandle) -> None:
        key = self.scheduling.urgency_key(handle, self.current_step)
        heapq.heappush(self._ready, (key, handle.index, handle))

    # -- failure model ---------------------------------------------------------

    @staticmethod
    def _live(handle: RequestHandle) -> bool:
        """Whether a heap entry still represents schedulable work."""
        return not (handle.cancelled or handle.session.is_terminal)

    def _resolve(
        self,
        handle: RequestHandle,
        state: SessionState,
        step: int,
        failure: Optional[FailureInfo] = None,
    ) -> None:
        """Terminally resolve a live request as FAILED / TIMED_OUT / SHED.

        Handles every location the request may occupy -- a batch slot, the
        ready queue, or the pending/backoff heap -- releasing its KV pages
        and policy reservation, counting its outcome, and
        firing its ``on_complete`` exactly once.  Heap entries are dropped
        lazily (the heaps skip terminal handles on pop).
        """
        session = handle.session
        if handle.cancelled or session.is_terminal:
            return
        if handle in self._active:
            self._active.remove(handle)
        else:
            self._queued_count -= 1
        if failure is not None:
            session.failure = failure.to_json()
        session.finalize(state, step)
        self._outcomes[state] += 1
        self._terminal.append(handle)
        self.scheduling.on_release(handle, self)
        self._spec_state.pop(handle.request_id, None)
        self._fire_complete(handle, step)

    def _quarantine(self, handle: RequestHandle, exc: Exception, step: int) -> None:
        """Route one quarantined fault: retry with backoff, or FAILED.

        The faulted session's KV is untrusted, so a retry releases it
        wholesale and requeues the request through the pending heap with
        capped exponential backoff; the eventual resume re-prefills
        ``prompt + generated`` bit-identically.  A request out of retries
        resolves ``FAILED`` with a structured post-mortem.

        With ``kv_snapshots`` on, faults from the schedule-time allocation
        probe (``arena.alloc``) are the exception: they fire *before* the
        fused forward touches any KV row, so the victim's pages are still
        trusted and are snapshotted for a re-prefill-free resume.  Every
        other site (``session.compute`` fires after the forward already
        appended the step's KV rows; ``session.append`` is corruption
        itself) keeps the discard-and-re-prefill path.
        """
        trusted = (
            self.kv_snapshots and getattr(exc, "site", None) == "arena.alloc"
        )
        session = handle.session
        if self.watchdog is not None:
            self.watchdog.record_failure(step)
        if session.retries >= self.max_retries:
            failure = FailureInfo(
                site=getattr(exc, "site", "unknown"),
                step=step,
                retries=session.retries,
                message=str(exc),
            )
            self._resolve(handle, SessionState.FAILED, step, failure=failure)
            return
        if handle in self._active:
            self._active.remove(handle)
        else:
            # quarantined before taking a slot (schedule-time arena fault on
            # a not-yet-admitted handle): it leaves the queue count now and
            # re-enters it below with its backoff arrival
            self._queued_count -= 1
        session.retry(step, snapshot=trusted)
        self.scheduling.on_release(handle, self)
        delay = min(
            RETRY_BACKOFF_CAP, RETRY_BACKOFF_STEPS * (2 ** (session.retries - 1))
        )
        heapq.heappush(self._pending, (step + delay, handle.index, handle))
        self._queued_count += 1

    def _check_arena_faults(
        self, handles: List[RequestHandle], step: int
    ) -> List[RequestHandle]:
        """Schedule-time arena-allocation probe; returns the survivors.

        Mirrors real engines, which test allocatability when *scheduling* a
        sequence, not mid-kernel: every session about to append KV rows this
        step is probed against this engine's own injector (``arena.alloc``
        site) before the fused forward, and a faulted one is quarantined
        (retry/FAILED) with a :class:`~repro.serve.faults.TransientArenaFault`
        without ever entering the batch -- no page was touched, no row
        appended, so the arena books stay balanced.  Engines sharing one
        arena each consult only their own fault plan.
        """
        survivors: List[RequestHandle] = []
        for handle in handles:
            if self._faults.fires("arena.alloc", handle.request_id, step):
                fault = TransientArenaFault(
                    f"injected transient page-allocation failure for request "
                    f"{handle.request_id!r} at step {step}"
                )
                self._quarantine(handle, fault, step)
                continue
            survivors.append(handle)
        return survivors

    def _route_commit_faults(
        self, handles: List[RequestHandle], step: int
    ) -> None:
        """Collect faults the batch commit loops quarantined per-session."""
        for handle in handles:
            session = handle.session
            if session.last_fault is not None:
                exc = session.last_fault
                session.last_fault = None
                self._quarantine(handle, exc, step)

    def _reap_timeouts(self, step: int) -> None:
        """Resolve every request still live past its ``timeout_step``."""
        while self._timeouts and self._timeouts[0][0] < step:
            _, _, handle = heapq.heappop(self._timeouts)
            if self._live(handle):
                self._resolve(handle, SessionState.TIMED_OUT, step)

    def _shed_queued(self, n: int, step: int) -> None:
        """Shed ``n`` queued requests: lowest priority first, youngest first.

        Within a priority class the *youngest* submission goes first, so the
        longest-waiting work of every class survives the purge.
        """
        candidates = [h for _, _, h in self._ready if self._live(h)]
        candidates.sort(key=lambda h: (h.request.priority, -h.index))
        for handle in candidates[:n]:
            self._resolve(handle, SessionState.SHED, step)

    def _contain_callback(self, handle: RequestHandle, which: str) -> None:
        """A user callback raised mid-dispatch: warn once, detach, move on.

        The engine's step must stay atomic no matter what user code does, so
        the offending callback is detached (it will never fire again for
        this handle) and the first containment emits one ``RuntimeWarning``
        per engine; ``callback_errors`` in the report counts them all.
        """
        self._callback_errors += 1
        setattr(handle, which, None)
        if not self._callback_warned:
            self._callback_warned = True
            warnings.warn(
                f"user {which} callback for request {handle.request_id!r} "
                f"raised; detached it and continuing (this warning fires "
                f"once per engine -- see report policy['callback_errors'] "
                f"for the total)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _dispatch_token(self, handle: RequestHandle, token: int, step: int) -> None:
        cb = handle.on_token
        if cb is None:
            return
        try:
            if self._faults is not None and self._faults.fires(
                "callback.on_token", handle.request_id, step
            ):
                raise InjectedCallbackError(
                    f"injected on_token failure for {handle.request_id!r}"
                )
            cb(handle, token, step)
        except Exception:
            self._contain_callback(handle, "on_token")

    def _fire_complete(self, handle: RequestHandle, step: int) -> None:
        """Dispatch ``on_complete`` exactly once per handle, contained."""
        if handle._complete_fired:
            return
        handle._complete_fired = True
        cb = handle.on_complete
        if cb is None:
            return
        try:
            if self._faults is not None and self._faults.fires(
                "callback.on_complete", handle.request_id, step
            ):
                raise InjectedCallbackError(
                    f"injected on_complete failure for {handle.request_id!r}"
                )
            cb(handle, handle.session.to_metrics())
        except Exception:
            self._contain_callback(handle, "on_complete")

    def _build_drafts(self, decoding: List[RequestHandle]) -> List[List[int]]:
        """One draft proposal list per decoding handle (throttled, clamped).

        Each session's adaptive :class:`_SessionThrottle` sets this step's
        draft budget (created on first decode step, ticked every step so
        cooldowns expire deterministically), clamped so drafts never extend
        past the request's remaining decode budget -- the committed row
        already emits one token, so at most ``remaining - 1`` drafts could
        ever be accepted.  ``last_spec_outcome`` is cleared here so the
        post-step observe loop only folds in *this* step's accept outcome
        (a quarantined commit leaves it ``None`` and the window untouched).
        """
        drafts: List[List[int]] = []
        for handle in decoding:
            session = handle.session
            throttle = self._spec_state.get(handle.request_id)
            if throttle is None:
                throttle = _SessionThrottle(self._speculative)
                self._spec_state[handle.request_id] = throttle
            room = (
                session.request.max_new_tokens
                - len(session.generated_tokens)
                - 1
            )
            k = min(throttle.next_k(), max(0, room))
            if k <= 0:
                proposal: List[int] = []
            else:
                history = (
                    [int(t) for t in session.request.prompt_tokens]
                    + session.generated_tokens
                )
                proposal = [int(t) for t in self._drafter.propose(history, k)][:k]
            session.last_spec_outcome = None
            drafts.append(proposal)
        return drafts

    def step(self) -> Dict[str, List[int]]:
        """Advance one engine step; returns the tokens emitted per request.

        Every emitted value is a list: ``[token]`` for a first token or a
        plain decode row, and with ``speculative`` on the tokens a decoding
        session's verified chunk committed.
        """
        emitted: Dict[str, List[int]] = {}
        step = self.current_step

        # timeout reaper first: a request past its hard bound must not take
        # (or keep) a batch slot this step
        if self._timeouts:
            self._reap_timeouts(step)

        # dynamic policies (aging) re-key the whole ready queue each step --
        # their ordering depends on how long requests waited
        if self.scheduling.dynamic and self._ready:
            self._ready = [
                (self.scheduling.urgency_key(handle, step), index, handle)
                for _, index, handle in self._ready
                if self._live(handle)
            ]
            heapq.heapify(self._ready)

        # arrivals: everything due this step joins the ready queue in the
        # policy's order (terminal handles are dropped lazily)
        while self._pending and self._pending[0][0] <= step:
            _, _, handle = heapq.heappop(self._pending)
            if not self._live(handle):
                continue
            self._push_ready(handle)

        # overload watchdog: with arrivals counted, advance the hysteresis
        # state machine and shed the lowest-priority queued excess
        if self.watchdog is not None:
            self.watchdog.update(self.n_queued, step)
            excess = self.watchdog.shed_excess(self.n_queued)
            if excess > 0:
                self._shed_queued(excess, step)

        # preemption (tentative): the scheduling policy may evict active
        # sessions for strictly more urgent ready requests.  A victim leaves
        # the batch only when an admission takes its slot -- the free slots
        # are filled first, then victims are consumed in eviction order --
        # so every candidate is gated against exactly the batch it would
        # join, and an eviction no admission needs costs the victim nothing
        pre_active = list(self._active)
        victims: List[RequestHandle] = []
        if self.scheduling.preemptive and self._ready:
            ready_handles = [h for *_, h in self._ready if self._live(h)]
            victims = self.scheduling.select_preemptions(
                ready_handles, pre_active, self.max_active - len(pre_active), step
            )

        # admission, most urgent first; head-of-line: a refused head (e.g.
        # arena budget) stops admission for this step
        free = self.max_active - len(pre_active)
        admitted: List[RequestHandle] = []
        used = 0  # victims whose slots admissions took
        while (free > 0 or used < len(victims)) and self._ready:
            _, _, handle = self._ready[0]
            if not self._live(handle):
                heapq.heappop(self._ready)  # counted out when it went terminal
                continue
            evict = free == 0
            if evict:
                self._active.remove(victims[used])
            if not self.scheduling.may_admit(handle, self):
                if evict:
                    self._active.append(victims[used])
                break
            heapq.heappop(self._ready)
            self._active.append(handle)
            admitted.append(handle)
            self._queued_count -= 1
            if evict:
                used += 1
            else:
                free -= 1
            # pin the reservation now so later candidates in this same loop
            # are gated against it (admissions are never rolled back)
            self.scheduling.on_admit(handle, self)

        # commit the evictions the admissions consumed; the rest of the
        # victims keep their slots untouched
        victims = victims[:used]
        evicted_ids = set(map(id, victims))
        self._active = [h for h in pre_active if id(h) not in evicted_ids] + admitted
        for victim in victims:
            # a policy eviction leaves trusted KV behind: with snapshots
            # on, the pages are copied off-arena instead of discarded and
            # the eventual resume skips re-prefill entirely
            victim.session.preempt(step, snapshot=self.kv_snapshots)
            self._push_ready(victim)
            self._queued_count += 1
            # realized eviction: its KV is gone, so its reservation is too
            self.scheduling.on_release(victim, self)

        # the sessions that kept their slots decode this step; prefilling
        # survivors rejoin the chunk budget below (continuous batching: old
        # and new requests share the same fused pass)
        evicted_ids = set(map(id, victims))
        survivors = [h for h in pre_active if id(h) not in evicted_ids]
        decoding = [
            h for h in survivors if h.session.state is SessionState.ACTIVE
        ]

        self._max_concurrency = max(self._max_concurrency, len(self._active))

        # admissions enter the chunked pipeline; older PREFILLING sessions
        # come first so the queue head always finishes first
        for handle in admitted:
            session = handle.session
            if session.state is not SessionState.PREEMPTED:
                session.begin_admit(step)
            elif not session.has_snapshot:
                session.begin_resume(step)
            # page restore, zero re-prefill passes: an ACTIVE session rejoins
            # the decode batch this very step, a mid-prefill one rejoins the
            # chunk scan below with its progress intact
            elif session.resume_from_snapshot(step) is SessionState.ACTIVE:
                decoding.append(handle)
        prefilling = [
            h for h in self._active if h.session.state is SessionState.PREFILLING
        ]
        # schedule-time arena probe: every session about to append KV rows
        # this step (prefill chunks and decode rows alike) is tested before
        # the fused forward; faulted ones never enter it
        if self._faults is not None:
            prefilling = self._check_arena_faults(prefilling, step)
            decoding = self._check_arena_faults(decoding, step)
        # spend the step's prefill-row budget in service order: the head
        # always progresses (its chunk is clamped to >= 1 row even under a
        # zero-returning policy override, so the engine cannot livelock),
        # long prompts split across steps, later sessions may wait a step
        # entirely
        budget = self.scheduling.prefill_token_budget(self)
        if self.watchdog is not None:
            budget = self.watchdog.throttle(budget)
        chunked: List[RequestHandle] = []
        chunk_sizes: List[int] = []
        for handle in prefilling:
            remaining = handle.session.decoder.prefill_remaining
            if budget is None:
                take = remaining
            else:
                cap = budget if chunked else max(budget, 1)
                take = min(remaining, cap)
            if take <= 0:
                continue
            chunked.append(handle)
            chunk_sizes.append(take)
            if budget is not None:
                budget -= take
        prefill_rows = sum(chunk_sizes)
        draft_lists = (
            None if self._speculative is None else self._build_drafts(decoding)
        )
        if chunked or decoding:
            # one pass for the whole step; decode rows are one-row chunks
            emitted.update(
                GenerationSession.prefill_step_batch(
                    [h.session for h in chunked],
                    chunk_sizes,
                    [h.session for h in decoding],
                    step,
                    draft_tokens=draft_lists,
                )
            )
        # fold this step's accept outcomes into the per-session throttles
        # (quarantined commits left no outcome: a faulted step must not skew
        # the acceptance window)
        spec_proposed = spec_accepted = 0
        if self._speculative is not None:
            for handle in decoding:
                outcome = handle.session.last_spec_outcome
                if outcome is None:
                    continue
                handle.session.last_spec_outcome = None
                proposed, accepted = outcome
                spec_proposed += proposed
                spec_accepted += accepted
                throttle = self._spec_state.get(handle.request_id)
                if throttle is not None:
                    throttle.observe(proposed, accepted)
        recipients = chunked + decoding
        # commit-time faults the batch loops quarantined per-session: route
        # each to retry-with-backoff or FAILED before callbacks/retirement,
        # so the surviving rows' commits stand and the step stays atomic
        if self._faults is not None:
            self._route_commit_faults(recipients, step)

        for handle in recipients:
            value = emitted.get(handle.request_id)
            if value is None:
                continue
            # on_token fires once per token, in commit order, same step
            # timestamp
            for token in value:
                self._dispatch_token(handle, token, step)

        retired = 0
        for handle in list(self._active):
            if handle.session.is_finished:
                self._active.remove(handle)
                handle.session.release_kv()  # pages return to the pool now
                self._outcomes[SessionState.FINISHED] += 1
                self._terminal.append(handle)
                self.scheduling.on_release(handle, self)
                self._spec_state.pop(handle.request_id, None)
                retired += 1
                self._fire_complete(handle, step)

        stats: Dict[str, int] = {
            "step": step,
            "emitted": sum(map(len, emitted.values())),
            "admitted": len(admitted),
            "preempted": len(victims),
            "decoded": len(decoding),
            "prefill_rows": prefill_rows,
            "retired": retired,
            "active": len(self._active),
            "queued": self.n_queued,
        }
        if self._speculative is not None:
            stats["draft_proposed"] = spec_proposed
            stats["draft_accepted"] = spec_accepted
        a = self.arena.stats
        stats["arena_pages_in_use"] = a.pages_in_use
        stats["arena_page_faults"] = a.page_faults
        stats["arena_gather_bytes_copied"] = a.gather_bytes_copied
        self.last_step_stats = stats

        self.current_step += 1
        return emitted

    def run(self, max_steps: int = 100_000) -> ServingReport:
        """Step until every submitted request resolves (or ``max_steps``).

        Hitting ``max_steps`` with work still queued/active no longer
        raises: the returned report carries ``truncated=True`` plus the
        leftover queue/batch counts, so partial results stay inspectable
        (and a caller that wants the old behaviour can assert on it).
        """
        while self.has_work and self.current_step < max_steps:
            self.step()
        return self.report()

    def drain(self, max_steps: int = 100_000) -> ServingReport:
        """Graceful stop: refuse new work, run the backlog dry, report.

        Every already-submitted request is served to its natural terminal
        state (further :meth:`submit` calls raise), so the arena's books
        balance in the final report -- zero pages in use, every fault freed.
        """
        self._closed = True
        return self.run(max_steps)

    def shutdown(self) -> ServingReport:
        """Immediate stop: resolve all outstanding work as ``SHED``, report.

        No further forward passes run; queued and active requests alike are
        terminally resolved (with their KV released and ``on_complete``
        fired) at the current step, so the engine still exits with balanced
        arena books -- just without serving the backlog.
        """
        self._closed = True
        step = self.current_step
        for handle in list(self._active):
            self._resolve(handle, SessionState.SHED, step)
        for heap in (self._pending, self._ready):
            for entry in heap:
                handle = entry[2]
                if self._live(handle):
                    self._resolve(handle, SessionState.SHED, step)
        self._pending.clear()
        self._ready.clear()
        self._timeouts.clear()
        return self.report()

    def report(self) -> ServingReport:
        """Snapshot of the terminally-resolved requests so far.

        Queued, still-active and cancelled sessions are excluded from the
        per-request metrics, so a mid-run call (while :attr:`has_work` is
        true) understates total tokens, throughput and the latency
        aggregates -- and is marked ``truncated`` with the leftover counts;
        :meth:`run` reports after draining (or marks the truncation).
        """
        metrics = [h.session.to_metrics() for h in self._terminal]
        policy = {
            "scheduling": self.scheduling.name,
            "preemptions": sum(m.preemptions for m in metrics),
            "deadline_misses": sum(m.deadline_misses for m in metrics),
            "cancelled": self._outcomes[SessionState.CANCELLED],
            "failed": self._outcomes[SessionState.FAILED],
            "timed_out": self._outcomes[SessionState.TIMED_OUT],
            "shed": self._outcomes[SessionState.SHED],
            "retries": sum(m.retries for m in metrics),
            "callback_errors": self._callback_errors,
        }
        if self._speculative is not None:
            # keys appear only when speculation is on, so a spec-off
            # engine's policy block stays byte-identical to older readers
            # (and the pinned golden); from_json tolerates both shapes
            draft_proposed = sum(m.draft_proposed for m in metrics)
            draft_accepted = sum(m.draft_accepted for m in metrics)
            spec_steps = sum(m.spec_steps for m in metrics)
            policy["draft_proposed"] = draft_proposed
            policy["draft_accepted"] = draft_accepted
            policy["mean_accepted_len"] = (
                draft_accepted / spec_steps if spec_steps else 0.0
            )
        return ServingReport(
            steps=self.current_step,
            max_concurrency=self._max_concurrency,
            requests=metrics,
            arena=self.arena.stats.to_json(),
            policy=policy,
            truncated=self.has_work,
            leftover_queued=self.n_queued,
            leftover_active=self.n_active,
        )
