"""Span tracing from outside the program, and the per-layer numbers from it.

:class:`Tracer` wraps public functions of the serving stack -- class
methods, per-instance attributes, the predictor and drafter the benchmark
builds -- so every call records a span (name, start, end, parent span,
request id).  Spans stay in memory; :meth:`Tracer.chrome_trace` exports them
as Chrome ``trace_event`` JSON, which Perfetto and ``chrome://tracing``
open.  :meth:`Tracer.restore` puts every original attribute back, so code
run after it executes the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Measured self time by span name, rolled into the categories of
#: ``repro.eval.breakdown.latency_components`` (paper Fig. 1a).  Attention
#: self time is its score/softmax/context GEMMs; names not listed here are
#: control-plane work and count as ``others``, except the client's idle
#: sleep, which is no work at all.
FIG1A_CATEGORY = {
    "gemm.forward": "gemm",
    "gemm.quantize": "gemm",
    "engine.matmul": "gemm",
    "attention.decode": "gemm",
    "attention.prefill": "gemm",
    "engine.bstc_decode": "weight_load",
    "kv_arena.gather": "kv_load",
    "kv_arena.append": "kv_load",
    "kv_arena.prefix": "kv_load",
    "kv_arena.truncate": "kv_load",
}
IDLE = "client.idle"

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid")

    def __init__(self, name: str, start: float, parent: int, rid) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid


class Tracer:
    """In-memory span recorder that patches functions and can undo it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: per span name, the sum of the ``count`` hook given to :meth:`wrap`
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def begin(self, name: str, rid=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, rid))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        index = self.begin(name, rid)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        ``count``, given the call's arguments, returns how much work the
        call does (e.g. rows); it is summed into ``counts[name]``.
        """

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] += count(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def patch(
        self, owner, attr: str, name: str, count: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.attr`` (a class or an instance) with a traced one.

        Class attributes keep their descriptor kind (``classmethod`` /
        ``staticmethod``); an instance attribute that only resolved through
        its class is removed again by :meth:`restore`.
        """
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, count))
        elif raw is _MISSING or not isinstance(owner, type):
            replacement = self.wrap(name, getattr(owner, attr), count)
        else:
            replacement = self.wrap(name, raw, count)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @property
    def patched(self) -> bool:
        return bool(self._patches)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: Dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child):
            out[span.name] += span.end - span.start - covered
        return dict(out)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``(calls, inclusive seconds)`` per span name."""
        out: Dict[str, List] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (complete events, microseconds)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            args = {"span": index, "parent": span.parent}
            if span.rid is not None:
                args["request"] = span.rid
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - t0) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def fig1a_shares(self_times: Dict[str, float]) -> Dict[str, float]:
    """Busy self time rolled into the four Fig. 1a categories, as shares."""
    sums = {"gemm": 0.0, "weight_load": 0.0, "kv_load": 0.0, "others": 0.0}
    for name, secs in self_times.items():
        if name != IDLE:
            sums[FIG1A_CATEGORY.get(name, "others")] += secs
    busy = sum(sums.values())
    return {k: (v / busy if busy else 0.0) for k, v in sums.items()}
