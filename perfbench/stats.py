"""Arithmetic of the end-to-end serving metrics.

Pure functions over wall-clock timelines, kept apart from the harness so the
benchmark's own tests can check them on synthetic inputs.  Every time is in
seconds; callers convert to the reported units.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only reported where at least this many samples lie beyond
#: it; a sample too small for the requested percentile is reported at the
#: highest percentile it supports instead.
MIN_TAIL_SAMPLES = 10


def supported_percentile(n: int, q: float) -> float:
    """Highest percentile ``<= q`` that keeps ``MIN_TAIL_SAMPLES`` beyond it.

    Raises ``ValueError`` when ``n`` is too small to keep that many samples
    beyond even the median.
    """
    if n <= 2 * MIN_TAIL_SAMPLES:
        raise ValueError(
            f"need more than {2 * MIN_TAIL_SAMPLES} samples for a tail "
            f"percentile, got {n}"
        )
    return min(q, 100.0 * (1.0 - MIN_TAIL_SAMPLES / n))


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation), clamped to the sample.

    The median (``q <= 50``) is always defined for a non-empty sample; a
    tail percentile is taken at :func:`supported_percentile` so that at
    least ``MIN_TAIL_SAMPLES`` samples lie beyond it.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50.0:
        q = supported_percentile(n, q)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ttft(due: float, token_times: Sequence[float]) -> Optional[float]:
    """Time to first token, measured from when the request was *due*.

    Timing from the due time (not the submission time) charges generator
    lateness to the request, as an open-loop client would see it.
    """
    return token_times[0] - due if token_times else None


def tpot(due: float, token_times: Sequence[float]) -> Optional[float]:
    """Time per output token after the first: (latency - TTFT) / (n - 1).

    ``None`` for requests with fewer than two tokens.
    """
    n = len(token_times)
    if n < 2:
        return None
    latency = token_times[-1] - due
    return (latency - (token_times[0] - due)) / (n - 1)


def inter_token_gaps(token_times: Sequence[float]) -> List[float]:
    """Gaps between consecutive streamed tokens of one request.

    Tokens committed together (a speculative multi-token step) share one
    timestamp and so contribute zero gaps.
    """
    return [b - a for a, b in zip(token_times, token_times[1:])]


def meets_slo(
    ok: bool,
    ttft_s: Optional[float],
    tpot_s: Optional[float],
    ttft_limit_s: float,
    tpot_limit_s: float,
) -> bool:
    """Whether one *sent* request met both latency limits.

    A failed request, or one that never produced a token, is a miss.  A
    one-token request has no TPOT and is judged on TTFT alone.
    """
    if not ok or ttft_s is None or ttft_s > ttft_limit_s:
        return False
    return tpot_s is None or tpot_s <= tpot_limit_s


def open_loop_metrics(
    due: Sequence[float],
    token_times: Sequence[Sequence[float]],
    ok: Sequence[bool],
    ttft_limit_s: float,
    tpot_limit_s: float,
) -> Dict[str, float]:
    """The open-loop latency metrics of one phase, in milliseconds.

    ``due[i]`` is request ``i``'s due time and ``token_times[i]`` the wall
    times its tokens streamed at, on one clock.  Latency percentiles cover
    the requests that succeeded; the SLO share counts every request sent.
    """
    if not due:
        raise ValueError("open-loop phase sent no requests")
    ttfts: List[float] = []
    tpots: List[float] = []
    gaps: List[float] = []
    met = 0
    for d, times, good in zip(due, token_times, ok):
        first = ttft(d, times)
        per_token = tpot(d, times)
        if good and first is not None:
            ttfts.append(first)
            if per_token is not None:
                tpots.append(per_token)
            gaps.extend(inter_token_gaps(times))
        met += meets_slo(good, first, per_token, ttft_limit_s, tpot_limit_s)
    return {
        "ttft_ms_p50": 1e3 * median(ttfts),
        "ttft_ms_p90": 1e3 * percentile(ttfts, 90.0),
        "tpot_ms_p50": 1e3 * median(tpots),
        "itl_ms_p99": 1e3 * percentile(gaps, 99.0),
        "slo_attain_frac": met / len(due),
    }


def stream_digest(streams: Sequence[Tuple[str, Sequence[int]]]) -> str:
    """Order-independent digest of every request's token stream."""
    h = hashlib.sha256()
    for rid, tokens in sorted(streams, key=lambda item: item[0]):
        h.update(rid.encode())
        h.update(b":")
        h.update(",".join(str(int(t)) for t in tokens).encode())
        h.update(b";")
    return h.hexdigest()[:16]
