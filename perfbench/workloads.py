"""Seeded traffic for the serving benchmark's workloads.

Each workload is one traffic mix plus the engine opt-ins it turns on.  The
request stream is a pure function of the workload, the seed and the request
count.  Lengths and arrival gaps are *stratified*: every block of ``BLOCK``
requests holds the same evenly spread lengths and the same quantiles of the
gap distribution, in its own order, and the stream spans exactly
``n / rate`` seconds.  A 100-request run thus sees the whole length range
and a representative set of bursts instead of whatever one draw gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: Seed reserved for checking a performance claim: never used while tuning
#: the benchmark or a change.
HOLDOUT_SEED = 1009

#: Fewest requests one open-loop phase sends: the TTFT p90 then has ten
#: samples beyond it.
MIN_REQUESTS = 100

#: Requests per stratification block: every block of a stream has the same
#: lengths and arrival gaps, in its own seeded order.
BLOCK = 20

#: Share of ``--seconds`` given to the open-loop phase; the offline phase,
#: at twice the open-loop rate, takes most of the rest.
OPEN_LOOP_SHARE = 2.0 / 3.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the engine opt-ins it exercises."""

    name: str
    rate: float  # open-loop requests per second (about half the offline capacity)
    ttft_limit_ms: float
    tpot_limit_ms: float
    predictor: bool = False
    prefix_cache: bool = False
    prefill_token_budget: int = 0  # 0: unlimited
    speculative_k: int = 0  # 0: off

    def opt_ins(self) -> Dict[str, object]:
        """The engine opt-ins, as recorded with every result."""
        out: Dict[str, object] = {}
        if self.predictor:
            out["predictor"] = "make_bgpp_predictor(alpha=0.7, rounds=3)"
        if self.prefix_cache:
            out["prefix_cache"] = True
        if self.prefill_token_budget:
            out["prefill_token_budget"] = self.prefill_token_budget
        if self.speculative_k:
            out["speculative"] = (
                f"SpeculationConfig(k={self.speculative_k}, adaptive=True)"
            )
        return out

    def n_requests(self, seconds: float) -> int:
        return max(MIN_REQUESTS, int(round(self.rate * seconds * OPEN_LOOP_SHARE)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chat",
            rate=4.5,
            ttft_limit_ms=200.0,
            tpot_limit_ms=30.0,
            predictor=True,
            prefix_cache=True,
        ),
        Workload(
            name="rag",
            rate=4.5,
            ttft_limit_ms=500.0,
            tpot_limit_ms=50.0,
            prefix_cache=True,
            prefill_token_budget=256,
        ),
        Workload(
            name="spec_code",
            rate=4.5,
            ttft_limit_ms=200.0,
            tpot_limit_ms=20.0,
            speculative_k=4,
        ),
    )
}


@dataclass
class Traffic:
    """A generated request stream: prompts, output lengths and due times."""

    prompts: List[List[int]]
    max_new_tokens: List[int]
    due: List[float]  # seconds after the open-loop phase starts


def _blocked(rng: np.random.Generator, n: int, block: np.ndarray) -> np.ndarray:
    """``n`` values: ``block`` in a fresh seeded order for every ``BLOCK`` requests."""
    reps = -(-n // len(block))
    return np.concatenate([rng.permutation(block) for _ in range(reps)])[:n]


def _lengths(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    """Token counts spread evenly over ``[lo, hi]`` within every block."""
    return _blocked(rng, n, np.round(np.linspace(lo, hi, BLOCK)).astype(np.int64))


def _due_times(
    rng: np.random.Generator, n: int, rate: float, lomax_shape: float = 0.0
) -> List[float]:
    """Due times with exponential (Poisson) or Lomax (Pareto) gaps.

    Each block's gaps are the distribution's ``BLOCK`` stratified
    quantiles, and the stream is rescaled to span exactly ``n / rate``
    seconds.
    """
    u = (np.arange(BLOCK) + 0.5) / BLOCK
    if lomax_shape:
        gaps = (1.0 - u) ** (-1.0 / lomax_shape) - 1.0
    else:
        gaps = -np.log1p(-u)
    times = np.cumsum(_blocked(rng, n, gaps))
    return (times * (n / rate) / times[-1]).tolist()


def _random_prompt(rng: np.random.Generator, vocab: int, length: int) -> List[int]:
    return rng.integers(0, vocab, size=int(length)).tolist()


def make_traffic(workload: Workload, seed: int, n: int, vocab: int) -> Traffic:
    """The request stream of ``workload`` for ``seed`` (deterministic).

    ``seed`` draws every prompt token.  The shape of the stream -- lengths,
    tenants, motif periods and due times -- comes from a generator keyed by
    the workload and ``n`` alone, so runs with different seeds serve the
    same amount of work on the same schedule and their spread measures the
    system rather than the luck of the draw.
    """
    # SeedSequence takes only integers, so the name enters as a number
    code = sum(map(ord, workload.name))
    rng = np.random.default_rng([seed, code])
    shape = np.random.default_rng([n, code])
    if workload.name == "chat":
        # Poisson arrivals; prompts ~8-32, outputs ~16-48 tokens
        prompts = [_random_prompt(rng, vocab, m) for m in _lengths(shape, 8, 32, n)]
        outputs = _lengths(shape, 16, 48, n)
        due = _due_times(shape, n, workload.rate)
    elif workload.name == "rag":
        # Pareto (heavy-tail) arrivals; tenant prefix 192 + suffix 32-128 in
        # steps of 16, outputs ~6-16 tokens.  One request in ten repeats an
        # earlier prompt verbatim (a popular query); when its length is a
        # multiple of the arena page, the cached pages cover the whole prompt
        # and the recomputed last row copies-on-write into a shared page.
        prefixes = [_random_prompt(rng, vocab, 192) for _ in range(4)]
        tenants = _blocked(shape, n, np.arange(BLOCK) % len(prefixes))
        repeats = _blocked(shape, n, np.arange(BLOCK) < BLOCK // 10)
        prompts = []
        for i, (t, m, again) in enumerate(
            zip(tenants, 16 * _lengths(shape, 2, 8, n), repeats)
        ):
            if again and i:
                prompts.append(prompts[shape.integers(0, i)])
            else:
                prompts.append(prefixes[t] + _random_prompt(rng, vocab, m))
        outputs = _lengths(shape, 6, 16, n)
        due = _due_times(shape, n, workload.rate, lomax_shape=1.5)
    elif workload.name == "spec_code":
        # Poisson arrivals; 75% of prompts repeat a 2-5 token motif (greedy
        # decode then cycles, so drafts are accepted), 25% are random;
        # prompts ~16-32, outputs ~48-96 tokens
        cyclic = _blocked(shape, n, np.arange(BLOCK) < 0.75 * BLOCK)
        periods = _blocked(shape, n, np.arange(BLOCK) % 4 + 2)
        prompts = []
        for length, is_cyclic, period in zip(
            _lengths(shape, 16, 32, n), cyclic, periods
        ):
            if is_cyclic:
                motif = _random_prompt(rng, vocab, period)
                prompts.append((motif * length)[:length])
            else:
                prompts.append(_random_prompt(rng, vocab, length))
        outputs = _lengths(shape, 48, 96, n)
        due = _due_times(shape, n, workload.rate)
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    return Traffic(
        prompts=prompts,
        max_new_tokens=[int(m) for m in outputs],
        due=due,
    )
