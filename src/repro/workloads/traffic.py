"""Synthetic request traffic for the serving simulator (heavy-tenancy mixes).

The paper's workload table (§5.1) fixes per-task prompt/decode lengths; a
serving study additionally needs *arrival processes*: many users submitting
requests of mixed shapes over time.  This module samples reproducible request
streams over a task mix drawn from
:data:`repro.workloads.tasks.BENCHMARK_TASKS`, scaled down so the NumPy
functional model can execute them while keeping each task's prompt:decode
ratio.  The output feeds :class:`repro.serve.ServingEngine`.

Three arrival families are provided, plus trace replay:

* :func:`poisson_arrival_steps` -- exponential inter-arrival gaps (the
  memoryless baseline);
* :func:`pareto_arrival_steps` -- Pareto (Lomax) gaps: heavy-tailed, so long
  quiet stretches separate dense bursts, the regime where admission order
  and preemption actually matter;
* :func:`lognormal_arrival_steps` -- lognormal gaps, a milder heavy tail
  matching measured inter-arrival distributions of production API traffic;
* :func:`trace_arrival_steps` -- replay explicit arrival instants recorded
  from a real system (or crafted by a test).

:func:`sample_requests` combines any of them with priority sampling over
weighted classes and optional per-request deadlines, producing request
streams for the priority/deadline scheduling policies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

# Dependency direction: workloads.traffic -> serve (for the Request type) is
# one-way by design; nothing under repro.serve may import repro.workloads,
# or this line becomes an import cycle.
from ..serve.session import Request
from .tasks import BENCHMARK_TASKS, TaskSpec

__all__ = [
    "poisson_arrival_steps",
    "pareto_arrival_steps",
    "lognormal_arrival_steps",
    "trace_arrival_steps",
    "arrival_steps",
    "sample_priorities",
    "sample_requests",
]


def poisson_arrival_steps(
    n_requests: int,
    mean_interarrival: float,
    seed: int = 0,
) -> np.ndarray:
    """Cumulative integer arrival steps of a Poisson process.

    ``mean_interarrival`` is the expected number of engine steps between
    consecutive arrivals; ``0`` degenerates to every request arriving at
    step 0 (a closed-loop burst).
    """
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if mean_interarrival < 0:
        raise ValueError("mean_interarrival must be >= 0")
    if mean_interarrival == 0:
        return np.zeros(n_requests, dtype=np.int64)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=mean_interarrival, size=n_requests)
    return np.floor(np.cumsum(gaps)).astype(np.int64)


def pareto_arrival_steps(
    n_requests: int,
    mean_interarrival: float,
    shape: float = 2.5,
    seed: int = 0,
) -> np.ndarray:
    """Heavy-tailed (Pareto/Lomax) arrivals with the given mean gap.

    Gaps follow a Lomax distribution with tail index ``shape`` (must be
    > 1 so the mean exists), rescaled so the expected gap equals
    ``mean_interarrival``.  Smaller ``shape`` means heavier tails: most
    requests arrive in tight bursts separated by long quiet stretches, the
    regime where FIFO head-of-line blocking hurts latency-sensitive traffic.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if mean_interarrival < 0:
        raise ValueError("mean_interarrival must be >= 0")
    if shape <= 1.0:
        raise ValueError("shape must be > 1 (the mean gap diverges otherwise)")
    if mean_interarrival == 0:
        return np.zeros(n_requests, dtype=np.int64)
    rng = np.random.default_rng(seed)
    # rng.pareto samples Lomax(shape) with mean 1 / (shape - 1)
    gaps = rng.pareto(shape, size=n_requests) * mean_interarrival * (shape - 1.0)
    return np.floor(np.cumsum(gaps)).astype(np.int64)


def lognormal_arrival_steps(
    n_requests: int,
    mean_interarrival: float,
    sigma: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Lognormally distributed arrival gaps with the given mean.

    ``sigma`` is the log-space standard deviation; the log-space mean is
    solved so the gap expectation equals ``mean_interarrival``
    (``mu = ln(mean) - sigma^2 / 2``).  Larger ``sigma`` -> burstier.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if mean_interarrival < 0:
        raise ValueError("mean_interarrival must be >= 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if mean_interarrival == 0:
        return np.zeros(n_requests, dtype=np.int64)
    rng = np.random.default_rng(seed)
    mu = np.log(mean_interarrival) - 0.5 * sigma * sigma
    gaps = rng.lognormal(mean=mu, sigma=sigma, size=n_requests)
    return np.floor(np.cumsum(gaps)).astype(np.int64)


def trace_arrival_steps(trace: Sequence[float]) -> np.ndarray:
    """Replay explicit arrival instants (e.g. from a recorded trace).

    Instants are floored to integer engine steps and must be non-negative
    and non-decreasing -- the order requests were actually observed.
    """
    arrivals = np.floor(np.asarray(list(trace), dtype=np.float64)).astype(np.int64)
    if arrivals.size and arrivals.min() < 0:
        raise ValueError("trace instants must be >= 0")
    if arrivals.size and (np.diff(arrivals) < 0).any():
        raise ValueError("trace instants must be non-decreasing")
    return arrivals


_ARRIVAL_PROCESSES = ("poisson", "pareto", "lognormal", "trace")


def arrival_steps(
    n_requests: int,
    mean_interarrival: float,
    process: str = "poisson",
    seed: int = 0,
    shape: float = 2.5,
    sigma: float = 1.0,
    trace: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Dispatch to one of the arrival generators by name."""
    if process == "poisson":
        return poisson_arrival_steps(n_requests, mean_interarrival, seed=seed)
    if process == "pareto":
        return pareto_arrival_steps(
            n_requests, mean_interarrival, shape=shape, seed=seed
        )
    if process == "lognormal":
        return lognormal_arrival_steps(
            n_requests, mean_interarrival, sigma=sigma, seed=seed
        )
    if process == "trace":
        if trace is None:
            raise ValueError("process='trace' requires a trace")
        arrivals = trace_arrival_steps(trace)
        if len(arrivals) != n_requests:
            raise ValueError(
                f"trace has {len(arrivals)} instants for {n_requests} requests"
            )
        return arrivals
    raise ValueError(
        f"unknown arrival process {process!r}; available: {_ARRIVAL_PROCESSES}"
    )


def sample_priorities(
    n_requests: int,
    levels: Sequence[int] = (0, 1),
    weights: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> np.ndarray:
    """Sample one priority level per request from a weighted class mix.

    ``levels`` are the priority values (higher serves first under
    priority-aware policies); ``weights`` are their relative frequencies
    (uniform when omitted).  Typical serving mixes make the high levels
    rare -- e.g. ``levels=(0, 2), weights=(0.8, 0.2)`` for an 80/20
    batch/interactive split.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    levels = list(levels)
    if not levels:
        raise ValueError("levels must not be empty")
    p = None
    if weights is not None:
        weights = np.asarray(list(weights), dtype=np.float64)
        if weights.shape != (len(levels),):
            raise ValueError("weights must match levels one-to-one")
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        p = weights / weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(levels), size=n_requests, p=p)
    return np.asarray(levels, dtype=np.int64)[picks]


def sample_requests(
    n_requests: int,
    vocab_size: int,
    tasks: Optional[Sequence[str]] = None,
    mean_interarrival: float = 1.0,
    prompt_divisor: int = 64,
    decode_divisor: int = 4,
    max_prompt_len: int = 64,
    max_decode_len: int = 32,
    seed: int = 0,
    arrival_process: str = "poisson",
    arrival_shape: float = 2.5,
    arrival_sigma: float = 1.0,
    arrival_trace: Optional[Sequence[float]] = None,
    priority_levels: Optional[Sequence[int]] = None,
    priority_weights: Optional[Sequence[float]] = None,
    deadline_slack: Optional[Tuple[int, int]] = None,
) -> List[Request]:
    """Sample a reproducible request stream over a benchmark-task mix.

    Each request draws a task uniformly from ``tasks``, scales the task's
    prompt/decode lengths by ``prompt_divisor`` / ``decode_divisor`` (clamped
    to the ``max_*`` bounds and to at least one token, preserving the relative
    shape of the task mix) and fills the prompt with uniform random token ids
    below ``vocab_size``.

    ``arrival_process`` selects the arrival generator (``"poisson"``,
    heavy-tailed ``"pareto"`` / ``"lognormal"``, or ``"trace"`` replaying
    ``arrival_trace``).  When ``priority_levels`` is given each request draws
    a priority from the weighted class mix (see :func:`sample_priorities`);
    when ``deadline_slack=(lo, hi)`` is given each request gets
    ``deadline_steps = decode_len + slack`` with ``slack`` uniform in
    ``[lo, hi]`` -- a deadline an unqueued run meets with ``slack`` steps to
    spare, so queueing pressure is what turns slack into misses.  The default
    arguments draw exactly the same streams as before these knobs existed.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    if prompt_divisor < 1 or decode_divisor < 1:
        raise ValueError("length divisors must be >= 1")
    task_names = list(tasks) if tasks is not None else sorted(BENCHMARK_TASKS)
    if not task_names:
        raise ValueError("tasks must not be empty")
    specs: List[TaskSpec] = []
    for name in task_names:
        if name not in BENCHMARK_TASKS:
            raise KeyError(
                f"unknown task {name!r}; available: {sorted(BENCHMARK_TASKS)}"
            )
        specs.append(BENCHMARK_TASKS[name])
    if deadline_slack is not None:
        lo, hi = deadline_slack
        if lo < 0 or hi < lo:
            raise ValueError("deadline_slack must satisfy 0 <= lo <= hi")

    rng = np.random.default_rng(seed)
    arrivals = arrival_steps(
        n_requests,
        mean_interarrival,
        process=arrival_process,
        seed=seed + 1,
        shape=arrival_shape,
        sigma=arrival_sigma,
        trace=arrival_trace,
    )
    # priority / deadline draws come from their own streams so enabling them
    # never perturbs the task/prompt sampling of existing seeds
    priorities = None
    if priority_levels is not None:
        priorities = sample_priorities(
            n_requests, levels=priority_levels, weights=priority_weights,
            seed=seed + 2,
        )
    slack = None
    if deadline_slack is not None:
        lo, hi = deadline_slack
        slack = np.random.default_rng(seed + 3).integers(
            lo, hi + 1, size=n_requests
        )

    requests: List[Request] = []
    for i in range(n_requests):
        spec = specs[int(rng.integers(0, len(specs)))]
        prompt_len = min(max(1, spec.prompt_len // prompt_divisor), max_prompt_len)
        decode_len = min(max(1, spec.decode_len // decode_divisor), max_decode_len)
        prompt = rng.integers(0, vocab_size, size=prompt_len).tolist()
        requests.append(
            Request(
                request_id=f"req{i:03d}-{spec.name}",
                prompt_tokens=prompt,
                max_new_tokens=decode_len,
                arrival_step=int(arrivals[i]),
                priority=int(priorities[i]) if priorities is not None else 0,
                deadline_steps=(
                    int(decode_len + slack[i]) if slack is not None else None
                ),
            )
        )
    return requests
