"""Deterministic fault injection + load shedding for the serving engine.

Production serving stacks are defined as much by their failure model as by
their happy path: allocators transiently fail, a row of a batch hits a bad
compute unit, user callbacks throw, and overload must shed work instead of
melting down.  This module gives the simulator that failure model in a form
chaos tests can drive **deterministically**:

* :class:`FaultSpec` / :class:`FaultPlan` describe *what* goes wrong --
  scheduled (``at_step``) or probabilistic (``probability``) faults at named
  injection sites, optionally pinned to one request;
* :class:`FaultInjector` decides *when*: each spec owns a seeded RNG that
  consumes exactly one draw per matching opportunity, so a given plan over a
  deterministic engine replays the identical fault trace every run (the
  chaos-fuzz suites rely on this);
* the :class:`FaultError` exception family is what the injection hooks raise
  -- the engine's quarantine machinery catches these (plus the *real*
  :class:`~repro.model.generation.KVCorruptionError` detector) and never
  lets them escape ``step()``;
* :class:`FailureInfo` is the structured post-mortem attached to a failed
  request's metrics;
* :class:`LoadShedWatchdog` is the overload guard: hysteretic queue-depth /
  failure-rate thresholds that flip the engine into load-shedding (``SHED``
  outcomes for the lowest-priority queued work, throttled prefill budget)
  and back out once pressure subsides.

No hook costs anything while no injector is installed: the engine guards
every injection point on ``faults is not None``, which the serving benchmark
gates (hooks-disabled throughput within 2% of the pre-faults baseline).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "TransientArenaFault",
    "SessionComputeFault",
    "InjectedCallbackError",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FailureInfo",
    "LoadShedWatchdog",
]


#: The named injection points the engine threads an injector through.
#:
#: ``arena.alloc``
#:     Transient page-allocation failure, raised by the engine's
#:     schedule-time arena probe -- before the step's fused forward runs --
#:     for any session about to append KV rows this step (mirroring real
#:     engines, which check allocatability when scheduling, not mid-kernel).
#:     Copy-on-write and mid-forward page allocations are deliberately not
#:     injection points: a fault there could not be isolated to one row.
#: ``session.compute``
#:     Per-row compute fault: the faulted session's step result is declared
#:     bad just before its token would commit; sibling rows of the same fused
#:     batch commit normally.
#: ``session.append``
#:     Corrupted KV append: one garbage row is *really* written into the
#:     session's layer-0 cache, and the session-level row-count integrity
#:     check (:meth:`~repro.model.generation.IncrementalDecoder.verify_kv_rows`)
#:     detects it before the token commits -- the detection machinery is
#:     real, only the corruption is injected.
#: ``callback.on_token`` / ``callback.on_complete``
#:     The user callback raises mid-dispatch, exercising the engine's
#:     containment path (warn once, detach, keep the step atomic).
FAULT_SITES = (
    "arena.alloc",
    "session.compute",
    "session.append",
    "callback.on_token",
    "callback.on_complete",
)


class FaultError(RuntimeError):
    """Base class of injected faults; ``site`` names the injection point."""

    site = "fault"


class TransientArenaFault(FaultError):
    """Injected transient KV-page allocation failure (``arena.alloc``)."""

    site = "arena.alloc"


class SessionComputeFault(FaultError):
    """Injected per-row compute failure (``session.compute``)."""

    site = "session.compute"


class InjectedCallbackError(FaultError):
    """Injected exception thrown from inside a user callback dispatch."""

    site = "callback"


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: a site plus when (and for whom) it fires.

    ``probability`` arms the spec on every matching opportunity with an
    independent seeded draw; ``at_step`` restricts it to one engine step
    (with ``probability == 0`` the spec then fires *deterministically* at
    that step).  ``request_id`` pins the spec to one request, ``max_fires``
    caps its total activations.  At least one of ``probability`` /
    ``at_step`` must be set, otherwise the spec could never fire.
    """

    site: str
    probability: float = 0.0
    at_step: Optional[int] = None
    request_id: Optional[str] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; available: {FAULT_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.probability == 0.0 and self.at_step is None:
            raise ValueError(
                "a spec needs probability > 0 or at_step set; this one "
                "could never fire"
            )
        if self.at_step is not None and self.at_step < 0:
            raise ValueError("at_step must be >= 0 when given")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError("max_fires must be >= 1 when given")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs it drives (the unit chaos tests replay)."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def uniform(
        cls,
        probability: float,
        seed: int = 0,
        sites: Optional[Sequence[str]] = None,
        max_fires: Optional[int] = None,
    ) -> "FaultPlan":
        """Every site (or the given ones) fails independently per opportunity."""
        sites = tuple(sites) if sites is not None else FAULT_SITES
        return cls(
            specs=tuple(
                FaultSpec(site=s, probability=probability, max_fires=max_fires)
                for s in sites
            ),
            seed=seed,
        )


class FaultInjector:
    """Deterministic, seedable fault oracle driven by a :class:`FaultPlan`.

    Every spec owns its own ``np.random.default_rng`` stream (derived from
    the plan seed and the spec's position) and consumes **exactly one draw
    per matching armed opportunity**, so the fault trace is a pure function
    of the plan and the engine's (deterministic) sequence of
    :meth:`fires` calls -- re-running the same workload replays the same
    faults bit-for-bit.  Every spec matching the opportunity's site is
    evaluated (no short-circuit on a hit), which keeps each spec's stream
    independent of its siblings' outcomes; specs of *other* sites never
    draw for the opportunity, so the by-site dispatch is equivalent to
    scanning the full plan.

    ``fires_by_site`` / ``spec_fires`` expose the activation counts the
    chaos suites and the benchmark's faults block assert against.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fires_by_site: Dict[str, int] = {}
        self.spec_fires: List[int] = []
        self.opportunities = 0
        self.reset()

    def reset(self) -> None:
        """Rewind every spec's RNG stream and zero the counters."""
        self._rngs = [
            np.random.default_rng(
                np.random.SeedSequence((int(self.plan.seed), i))
            )
            for i in range(len(self.plan.specs))
        ]
        # by-site index: an opportunity only ever evaluates (and draws for)
        # specs of its own site, so bucketing is behaviour-preserving while
        # letting spec-less sites bail out in O(1) -- that fast path is what
        # keeps the armed-but-idle hook overhead inside the benchmark gate
        self._specs_by_site: Dict[str, List[int]] = {
            site: [] for site in FAULT_SITES
        }
        for i, spec in enumerate(self.plan.specs):
            self._specs_by_site[spec.site].append(i)
        self.fires_by_site = {site: 0 for site in FAULT_SITES}
        self.spec_fires = [0] * len(self.plan.specs)
        self.opportunities = 0

    @property
    def total_fires(self) -> int:
        return sum(self.spec_fires)

    def has_site(self, site: str) -> bool:
        """Whether any spec targets ``site`` (hooks skip dead sites)."""
        return bool(self._specs_by_site[site])

    def fires(self, site: str, request_id: Optional[str], step: int) -> bool:
        """Whether any spec fires for this ``(site, request, step)`` opportunity."""
        self.opportunities += 1
        indices = self._specs_by_site[site]
        if not indices:
            return False
        hit = False
        specs = self.plan.specs
        for i in indices:
            spec = specs[i]
            if spec.request_id is not None and spec.request_id != request_id:
                continue
            if spec.at_step is not None and spec.at_step != step:
                continue
            if spec.max_fires is not None and self.spec_fires[i] >= spec.max_fires:
                continue
            if spec.probability > 0.0:
                # one draw per armed opportunity, fired or not: the stream
                # position depends only on the opportunity sequence
                if float(self._rngs[i].random()) >= spec.probability:
                    continue
            self.spec_fires[i] += 1
            self.fires_by_site[site] += 1
            hit = True
        return hit


@dataclass(frozen=True)
class FailureInfo:
    """Structured post-mortem of one failed request.

    Attached (as a plain dict, via :meth:`to_json`) to
    :attr:`~repro.serve.session.RequestMetrics.failure` when a request
    exhausts its retries and resolves ``FAILED`` -- ``site`` names the last
    fault that killed it, ``step`` when, ``retries`` how many recovery
    attempts were spent first.
    """

    site: str
    step: int
    retries: int
    message: str

    def to_json(self) -> dict:
        return asdict(self)


class LoadShedWatchdog:
    """Hysteretic overload guard: queue depth / failure rate -> load shedding.

    The engine calls :meth:`update` once per step with its live queue depth
    (and reports every fault quarantine through :meth:`record_failure`).
    Shedding **engages** when the queue grows past ``queue_high`` or at
    least ``failure_high`` faults landed within the trailing
    ``failure_window`` steps, and **disengages** only once the queue has
    drained to ``queue_low`` *and* the failure burst subsided to at most
    half the trigger -- the hysteresis gap keeps the engine from flapping
    between modes on a noisy boundary.

    While shedding, the engine

    * resolves the *lowest-priority* queued requests as ``SHED`` (youngest
      first within a priority class, so the longest-waiting work of each
      class survives) until the queue is back at ``queue_high``, and
    * clamps the chunked-prefill budget to ``throttled_prefill_budget`` rows
      per step (via :meth:`throttle`), spending the fused pass on finishing
      admitted work rather than starting more.
    """

    def __init__(
        self,
        queue_high: int = 64,
        queue_low: int = 16,
        failure_window: int = 16,
        failure_high: int = 8,
        throttled_prefill_budget: Optional[int] = 4,
    ) -> None:
        if queue_high < 1 or queue_low < 0:
            raise ValueError("queue_high must be >= 1 and queue_low >= 0")
        if queue_low > queue_high:
            raise ValueError("queue_low must be <= queue_high (hysteresis gap)")
        if failure_window < 1 or failure_high < 1:
            raise ValueError("failure_window and failure_high must be >= 1")
        if throttled_prefill_budget is not None and throttled_prefill_budget < 1:
            raise ValueError("throttled_prefill_budget must be >= 1 when given")
        self.queue_high = queue_high
        self.queue_low = queue_low
        self.failure_window = failure_window
        self.failure_high = failure_high
        self.throttled_prefill_budget = throttled_prefill_budget
        self.shedding = False
        self.shed_engagements = 0
        self._failure_steps: deque = deque()

    def record_failure(self, step: int) -> None:
        """Count one fault quarantine towards the failure-rate window."""
        self._failure_steps.append(int(step))

    def failures_in_window(self, step: int) -> int:
        """Faults recorded within the trailing ``failure_window`` steps."""
        horizon = step - self.failure_window
        while self._failure_steps and self._failure_steps[0] <= horizon:
            self._failure_steps.popleft()
        return len(self._failure_steps)

    def update(self, n_queued: int, step: int) -> bool:
        """Advance the hysteresis state machine; returns whether shedding."""
        fails = self.failures_in_window(step)
        if not self.shedding:
            if n_queued > self.queue_high or fails >= self.failure_high:
                self.shedding = True
                self.shed_engagements += 1
        elif n_queued <= self.queue_low and fails <= self.failure_high // 2:
            self.shedding = False
        return self.shedding

    def shed_excess(self, n_queued: int) -> int:
        """How many queued requests to shed right now (0 unless shedding)."""
        if not self.shedding:
            return 0
        return max(0, n_queued - self.queue_high)

    def throttle(self, budget: Optional[int]) -> Optional[int]:
        """Clamp a step's prefill-row budget while shedding (pass-through otherwise)."""
        if not self.shedding or self.throttled_prefill_budget is None:
            return budget
        if budget is None:
            return self.throttled_prefill_budget
        return min(budget, self.throttled_prefill_budget)
