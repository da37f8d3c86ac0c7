"""Tests of the serving benchmark's own arithmetic and instrumentation.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from spans import Tracer, fig1a_shares  # noqa: E402
from stats import (  # noqa: E402
    inter_token_gaps,
    meets_slo,
    open_loop_metrics,
    percentile,
    stream_digest,
    tpot,
    ttft,
)
from workloads import WORKLOADS, Workload, make_traffic  # noqa: E402

from repro.core import MCBPEngine  # noqa: E402
from repro.model import (  # noqa: E402
    MultiHeadAttention,
    QuantizedTransformer,
    TransformerModel,
    get_model_config,
)
from repro.quant.gemm import QuantizedLinear  # noqa: E402
from repro.serve import GenerationSession, Request, ServingEngine, SessionState  # noqa: E402


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize("n", [21, 100, 250, 1000, 5000])
@pytest.mark.parametrize("q", [90.0, 99.0])
def test_percentile_keeps_ten_samples_beyond(n, q):
    values = list(range(n))
    p = percentile(values, q)
    assert sum(v > p for v in values) >= 10
    if n * (1 - q / 100) >= 10:
        # the sample supports q itself: no clamping
        assert p == pytest.approx((n - 1) * q / 100)


def test_percentile_clamps_to_supported_tail():
    values = list(range(100))
    assert percentile(values, 99.0) == percentile(values, 90.0)
    assert percentile(values, 50.0) == pytest.approx(49.5)


def test_percentile_rejects_samples_too_small_for_a_tail():
    with pytest.raises(ValueError):
        percentile(list(range(20)), 90.0)
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# -- TTFT / TPOT / ITL -------------------------------------------------------------


def test_tpot_and_itl_on_a_synthetic_timeline():
    # due at 1.0; first token at 1.05; a speculative step then commits three
    # tokens at once (zero gaps) and one more token streams at 1.09
    times = [1.05, 1.06, 1.06, 1.06, 1.09]
    assert ttft(1.0, times) == pytest.approx(0.05)
    # (latency - TTFT) / (n - 1) = (0.09 - 0.05) / 4
    assert tpot(1.0, times) == pytest.approx(0.01)
    assert inter_token_gaps(times) == pytest.approx([0.01, 0.0, 0.0, 0.03])
    assert tpot(1.0, [1.2]) is None
    assert inter_token_gaps([1.2]) == []


def test_open_loop_metrics_itl_counts_zero_gaps():
    due = [float(i) for i in range(25)]
    # every request: first token after 10 ms, then a 3-token commit 10 ms
    # later (two zero gaps), then one more token 10 ms after that
    times = [[d + 0.01, d + 0.02, d + 0.02, d + 0.02, d + 0.03] for d in due]
    m = open_loop_metrics(due, times, [True] * 25, 1.0, 1.0)
    assert m["ttft_ms_p50"] == pytest.approx(10.0)
    assert m["tpot_ms_p50"] == pytest.approx(5.0)
    # 100 gaps, half of them zero: the p99 (clamped to p90) is 10 ms
    assert m["itl_ms_p99"] == pytest.approx(10.0)
    assert m["slo_attain_frac"] == 1.0


def test_failed_request_counts_as_slo_miss():
    assert not meets_slo(False, 0.001, 0.001, 1.0, 1.0)
    assert not meets_slo(True, None, None, 1.0, 1.0)
    assert not meets_slo(True, 2.0, 0.001, 1.0, 1.0)
    assert not meets_slo(True, 0.1, 2.0, 1.0, 1.0)
    assert meets_slo(True, 0.1, None, 1.0, 1.0)
    due = [0.0] * 30
    times = [[0.01, 0.02]] * 30
    ok = [True] * 29 + [False]
    m = open_loop_metrics(due, times, ok, 1.0, 1.0)
    assert m["slo_attain_frac"] == pytest.approx(29 / 30)


class _SlowEngine:
    """Stand-in engine: every step takes ``step_s`` and emits one token."""

    def __init__(self, step_s):
        self.step_s = step_s
        self.current_step = 0
        self.live = []

    @property
    def has_work(self):
        return bool(self.live)

    def submit(self, request, on_token):
        handle = SimpleNamespace(
            request_id=request.request_id,
            request=request,
            on_token=on_token,
            generated_tokens=[],
            session=SimpleNamespace(state=SessionState.QUEUED, admitted_step=None),
        )
        self.live.append(handle)
        return handle

    def step(self):
        time.sleep(self.step_s)
        for handle in list(self.live):
            if handle.session.admitted_step is None:
                handle.session.admitted_step = self.current_step
            handle.generated_tokens.append(7)
            handle.on_token(handle, 7, self.current_step)
            if len(handle.generated_tokens) == handle.request.max_new_tokens:
                handle.session.state = SessionState.FINISHED
                self.live.remove(handle)
        self.current_step += 1


def test_generator_lateness_is_counted_inside_ttft(monkeypatch):
    step_s = 0.05
    monkeypatch.setattr(harness, "make_engine", lambda *a: _SlowEngine(step_s))
    requests = [
        Request(request_id="a", prompt_tokens=[1], max_new_tokens=2),
        Request(request_id="b", prompt_tokens=[1], max_new_tokens=2),
    ]
    # "b" falls due while "a"'s first step runs: the generator notices it
    # only after that step, so it is submitted late
    phase = harness.open_loop_phase(None, None, requests, [0.0, 0.01])
    lag_b = phase["lags"][1]
    assert lag_b >= step_s - 0.01 - 0.005
    first_b = ttft(phase["due_abs"][1], phase["token_times"][1])
    # TTFT from the due time = lateness + the step that emits the token
    assert first_b >= lag_b + step_s - 1e-9
    assert phase["queue_waits"][1] >= lag_b - 1e-9
    assert all(phase["ok"].values())


# -- traffic -------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traffic_is_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    a = make_traffic(w, 7, 100, 1024)
    b = make_traffic(w, 7, 100, 1024)
    c = make_traffic(w, 8, 100, 1024)
    assert a == b
    assert len(a.prompts) == len(a.due) == 100
    assert a.prompts != c.prompts
    # the seed draws tokens, not the amount of work or the schedule
    assert [len(p) for p in a.prompts] == [len(p) for p in c.prompts]
    assert a.max_new_tokens == c.max_new_tokens
    assert a.due == c.due
    assert a.due == sorted(a.due)
    assert a.due[-1] == pytest.approx(100 / w.rate)


def test_rag_tenants_share_prefixes():
    t = make_traffic(WORKLOADS["rag"], 3, 100, 1024)
    heads = {tuple(p[:192]) for p in t.prompts}
    assert len(heads) == 4


def test_stream_digest_ignores_order_and_sees_tokens():
    a = stream_digest([("x", [1, 2]), ("y", [3])])
    assert a == stream_digest([("y", [3]), ("x", [1, 2])])
    assert a != stream_digest([("x", [1, 2]), ("y", [4])])


# -- tracing ---------------------------------------------------------------------------


def test_self_times_subtract_children_and_sum_to_the_root():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")
    child = tracer.begin("child")
    grandchild = tracer.begin("grandchild")
    tracer.end(grandchild)  # 2.0 .. 4.0
    tracer.end(child)  # 1.0 .. 5.0
    tracer.end(root)  # 0.0 .. 10.0
    selfs = tracer.self_times()
    assert selfs == {"root": 6.0, "child": 2.0, "grandchild": 2.0}
    assert sum(selfs.values()) == 10.0
    trace = tracer.chrome_trace()
    assert [e["dur"] for e in trace["traceEvents"]] == [10e6, 4e6, 2e6]
    assert trace["traceEvents"][2]["args"]["parent"] == 1
    json.dumps(trace)


def test_fig1a_shares_leave_out_idle_time():
    shares = fig1a_shares(
        {"engine.matmul": 3.0, "kv_arena.gather": 1.0, "bgpp.predict": 1.0,
         "client.idle": 50.0, "engine.bstc_decode": 0.0}
    )
    assert shares == pytest.approx(
        {"gemm": 0.6, "weight_load": 0.0, "kv_load": 0.2, "others": 0.2}
    )


def _tiny_system(workload):
    model = QuantizedTransformer(
        TransformerModel(get_model_config("tiny"), seed=0), seed=1
    )
    engine = MCBPEngine(group_size=4, weight_bits=8)
    model.bind_engine(engine)
    return harness.System(model=model, engine=engine, predictor=None, drafter=None)


def _serve(system, workload, tracer=None):
    engine = harness.make_engine(system, workload)
    if tracer is not None:
        harness.attach_arena(tracer, engine)
    handles = engine.submit_many(
        [
            Request(request_id=f"r{i}", prompt_tokens=[i + 1, 2, 3] * 3,
                    max_new_tokens=6)
            for i in range(4)
        ]
    )
    engine.run()
    return [list(h.generated_tokens) for h in handles]


def test_wrappers_leave_no_trace_in_an_untraced_run():
    workload = Workload(
        name="t", rate=1.0, ttft_limit_ms=1.0, tpot_limit_ms=1.0,
        prefix_cache=True, speculative_k=2,
    )
    system = _tiny_system(workload)
    system.drafter = harness.NGramDrafter()
    owners = [ServingEngine, GenerationSession, QuantizedTransformer,
              MultiHeadAttention, QuantizedLinear, MCBPEngine]
    instances = [system.engine.codec, system.drafter, system.model.model,
                 *system.model.model.layers]

    def attributes():
        # every attribute name, and the identity of every callable one
        # (counters on the instances legitimately move)
        return [
            {k: id(v) if callable(v) or isinstance(v, (classmethod, staticmethod))
             else None for k, v in vars(o).items()}
            for o in owners + instances
        ]

    before = attributes()
    baseline = _serve(system, workload)

    tracer = Tracer()
    harness.instrument(tracer, system)
    try:
        traced = _serve(system, workload, tracer)
    finally:
        tracer.restore()
    assert traced == baseline
    names = {s.name for s in tracer.spans}
    assert {"scheduler.step", "session.prefill", "transformer.prefill_batch",
            "attention.prefill", "gemm.forward", "engine.matmul",
            "layers.norm", "kv_arena.append", "speculative.propose"} <= names

    assert attributes() == before
    n_spans = len(tracer.spans)
    assert _serve(system, workload) == baseline
    assert len(tracer.spans) == n_spans
    assert not tracer.patched
