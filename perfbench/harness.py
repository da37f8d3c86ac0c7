"""One benchmark run: set up the system, serve a workload twice, check it.

The system under test is the same for every workload: the ``small`` config,
``QuantizedTransformer`` at W8A8 bound to ``MCBPEngine(group_size=4,
weight_bits=8)``, and ``ServingEngine(max_active=8)`` with its default FIFO
admission and FCFS scheduling, plus the workload's opt-ins.

A run has two timed phases over the same request set:

* **offline** -- every request queued at t=0 and served to completion
  (capacity: ``tokens_per_s``, ``requests_per_s``);
* **open loop** -- one generator submits each request once its wall-clock
  due time passes, between engine steps, and sleeps while the engine is
  idle (latency: TTFT, TPOT, ITL, SLO attainment).

Tokens are checked three ways: both phases must produce the same stream for
every request, a fixed sample must match solo ``generate()`` references
computed outside the timed windows, and the stream digest must match the one
an earlier run of the same workload and seed recorded in the output
directory.  A traced run (``trace=True``) serves the offline phase once
untraced, then both phases with the :class:`~spans.Tracer` installed, and
reports per-layer numbers instead of the end-to-end ones.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import MCBPEngine
from repro.core.bgpp import make_bgpp_predictor
from repro.eval.breakdown import latency_components
from repro.model import (
    MultiHeadAttention,
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.quant.gemm import QuantizedLinear
from repro.serve import (
    GenerationSession,
    NGramDrafter,
    Request,
    ServingEngine,
    SessionState,
    SpeculationConfig,
)

from stats import median, open_loop_metrics, percentile, stream_digest
from spans import IDLE, Tracer, fig1a_shares
from workloads import HOLDOUT_SEED, Traffic, Workload, make_traffic

MODEL = "small"
MAX_ACTIVE = 8
SETUP_REPEATS = 5
N_REFERENCES = 4
WARMUP_REQUESTS = 2
WARMUP_TOKENS = 4

#: Wrapped for tracing: (class, attribute, span name).
CLASS_SPANS = (
    (ServingEngine, "step", "scheduler.step"),
    (GenerationSession, "prefill_step_batch", "session.prefill"),
    (GenerationSession, "decode_step_batch", "session.decode"),
    (QuantizedTransformer, "forward", "transformer.forward"),
    (QuantizedTransformer, "forward_batch", "transformer.forward_batch"),
    (QuantizedTransformer, "prefill_batch", "transformer.prefill_batch"),
    (MultiHeadAttention, "decode_batch", "attention.decode"),
    (MultiHeadAttention, "prefill_batch", "attention.prefill"),
    (QuantizedLinear, "forward", "gemm.forward"),
    (QuantizedLinear, "quantize_input", "gemm.quantize"),
    (MCBPEngine, "matmul", "engine.matmul"),
)
#: Rows each model call runs, summed per span name.
ROW_COUNTS = {
    "transformer.forward": lambda self, token_ids, *a, **k: len(token_ids),
    "transformer.forward_batch": lambda self, tokens, *a, **k: len(tokens),
    "transformer.prefill_batch": lambda self, chunks, *a, **k: sum(
        len(c) for c in chunks
    ),
}
ARENA_SPANS = (
    ("gather_batch", "kv_arena.gather"),
    ("append_batch", "kv_arena.append"),
    ("append", "kv_arena.append"),
    ("acquire_prefix", "kv_arena.prefix"),
    ("register_prefix", "kv_arena.prefix"),
    ("truncate_session", "kv_arena.truncate"),
)


@dataclasses.dataclass
class System:
    """The model, its MCBP engine and the helpers the benchmark builds."""

    model: QuantizedTransformer
    engine: MCBPEngine
    predictor: Optional[object]
    drafter: Optional[NGramDrafter]


def _requests(traffic: Traffic, workload: Workload) -> List[Request]:
    return [
        Request(
            request_id=f"{workload.name}-{i:04d}",
            prompt_tokens=prompt,
            max_new_tokens=n_new,
        )
        for i, (prompt, n_new) in enumerate(
            zip(traffic.prompts, traffic.max_new_tokens)
        )
    ]


def make_engine(system: System, workload: Workload, predictor=None) -> ServingEngine:
    speculative = None
    if workload.speculative_k:
        speculative = SpeculationConfig(
            k=workload.speculative_k, adaptive=True, drafter=system.drafter
        )
    return ServingEngine(
        system.model,
        max_active=MAX_ACTIVE,
        predictor=predictor if predictor is not None else system.predictor,
        prefix_cache=workload.prefix_cache,
        prefill_token_budget=workload.prefill_token_budget or None,
        speculative=speculative,
    )


def build_system(workload: Workload, warmup: List[Request]):
    """Build, calibrate, BSTC-encode and warm up; returns (system, seconds)."""
    t0 = time.perf_counter()
    model = QuantizedTransformer(
        TransformerModel(get_model_config(MODEL), seed=0), seed=1
    )
    t1 = time.perf_counter()
    engine = MCBPEngine(group_size=4, weight_bits=8)
    model.bind_engine(engine)
    t2 = time.perf_counter()
    system = System(
        model=model,
        engine=engine,
        predictor=(
            make_bgpp_predictor(alpha=0.7, rounds=3) if workload.predictor else None
        ),
        drafter=NGramDrafter() if workload.speculative_k else None,
    )
    # one short pass fills the decoded-plane cache and every code path
    warm = make_engine(system, workload)
    warm.submit_many(warmup)
    warm.run()
    t3 = time.perf_counter()
    return system, {
        "calibrate_s": t1 - t0,
        "bstc_encode_s": t2 - t1,
        "warmup_s": t3 - t2,
        "setup_s": t3 - t0,
    }


def _outcome_ok(handle, request: Request) -> bool:
    return (
        handle.session.state is SessionState.FINISHED
        and len(handle.generated_tokens) == request.max_new_tokens
    )


def _span(tracer: Optional[Tracer], name: str, rid=None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, rid)


def offline_phase(system, workload, requests, tracer=None, predictor=None) -> dict:
    engine = make_engine(system, workload, predictor)
    if tracer is not None:
        attach_arena(tracer, engine)
    handles = engine.submit_many(requests)
    gc.collect()  # every phase starts from a swept heap
    with _span(tracer, "phase.offline"):
        start = time.perf_counter()
        while engine.has_work:
            engine.step()
        wall = time.perf_counter() - start
    return {
        "wall": wall,
        "engine": engine,
        "streams": {h.request_id: list(h.generated_tokens) for h in handles},
        "ok": {h.request_id: _outcome_ok(h, r) for h, r in zip(handles, requests)},
    }


def open_loop_phase(
    system, workload, requests, due, tracer=None, predictor=None
) -> dict:
    """Submit each request when due; time tokens from the due time."""
    clock = time.perf_counter
    engine = make_engine(system, workload, predictor)
    if tracer is not None:
        attach_arena(tracer, engine)
    token_times: Dict[str, List[float]] = {r.request_id: [] for r in requests}

    def on_token(handle, token, step):
        token_times[handle.request_id].append(clock())

    handles, lags, step_starts = [], [], []
    n = len(requests)
    i = 0
    gc.collect()
    with _span(tracer, "phase.open_loop"):
        start = clock()
        while i < n or engine.has_work:
            now = clock() - start
            while i < n and due[i] <= now:
                lags.append(now - due[i])
                req = dataclasses.replace(
                    requests[i], arrival_step=engine.current_step
                )
                with _span(tracer, "client.submit", req.request_id):
                    handles.append(engine.submit(req, on_token=on_token))
                i += 1
            if engine.has_work:
                step_starts.append(clock())
                engine.step()
            elif i < n:
                pause = due[i] - (clock() - start)
                if pause > 0:
                    with _span(tracer, IDLE):
                        time.sleep(pause)
        wall = clock() - start
    ok = {h.request_id: _outcome_ok(h, r) for h, r in zip(handles, requests)}
    queue_waits = [
        step_starts[h.session.admitted_step] - (start + d)
        for h, d in zip(handles, due)
        if h.session.admitted_step is not None
    ]
    return {
        "wall": wall,
        "engine": engine,
        "streams": {h.request_id: list(h.generated_tokens) for h in handles},
        "ok": ok,
        "due_abs": [start + d for d in due],
        "token_times": [token_times[r.request_id] for r in requests],
        "lags": lags,
        "queue_waits": queue_waits,
    }


# -- tracing -------------------------------------------------------------------


def instrument(tracer: Tracer, system: System) -> None:
    """Wrap every traced layer of ``system`` (undo with ``tracer.restore``)."""
    for owner, attr, name in CLASS_SPANS:
        tracer.patch(owner, attr, name, count=ROW_COUNTS.get(name))
    tracer.patch(system.engine.codec, "decode", "engine.bstc_decode")
    for layer in system.model.model.layers:
        tracer.patch(layer, "activation", "layers.activation")
        tracer.patch(layer, "norm_fn", "layers.norm")
    tracer.patch(system.model.model, "norm_fn", "layers.norm")
    if system.drafter is not None:
        tracer.patch(system.drafter, "propose", "speculative.propose")


def attach_arena(tracer: Tracer, engine: ServingEngine) -> None:
    for attr, name in ARENA_SPANS:
        tracer.patch(engine.arena, attr, name)


def traced_predictor(tracer: Tracer, predictor, kept: List[int]):
    """The benchmark's BGPP predictor with calls traced and keep counted.

    ``kept`` accumulates ``[keys kept, keys offered]``.
    """

    def predict(query, keys):
        selected = predictor(query, keys)
        kept[0] += len(selected)
        kept[1] += len(keys)
        return selected

    def select_ragged(queries, keys, lengths):
        selected = predictor.select_ragged(queries, keys, lengths)
        kept[0] += sum(len(s) for s in selected)
        kept[1] += int(np.sum(lengths))
        return selected

    wrapped = tracer.wrap("bgpp.predict", predict)
    wrapped.select_ragged = tracer.wrap("bgpp.predict", select_ragged)
    return wrapped


def _stats_delta(after, before) -> Dict[str, int]:
    """``EngineStats`` counters accumulated between two snapshots."""
    return {
        f.name: getattr(after, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(after)
        if f.name != "weight_bits"
    }


def layer_metrics(
    tracer: Tracer,
    phases: List[dict],
    kept: List[int],
    engine_delta: Dict[str, int],
    setup: Dict[str, float],
    overhead: float,
    modelled: Dict[str, float],
    prompt_tokens: int,
) -> Dict[str, float]:
    """Per-layer metrics of the traced phases, named after the modules."""
    totals = tracer.totals()
    selfs = tracer.self_times()

    def incl(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    def tail(values, q):
        return percentile(values, q) if values else 0.0

    open_loop = phases[-1]
    steps = calls("scheduler.step")
    step_ms = [1e3 * d for d in tracer.durations("scheduler.step")]
    rows = sum(tracer.counts[name] for name in ROW_COUNTS)
    arenas = [p["engine"].arena.stats for p in phases]
    reports = [p["engine"].report() for p in phases]
    policy = [r.policy for r in reports]
    proposed = sum(p.get("draft_proposed", 0) for p in policy)
    accepted = sum(p.get("draft_accepted", 0) for p in policy)
    spec_steps = sum(m.spec_steps for r in reports for m in r.requests)
    lookups = engine_delta["cache_hits"] + engine_delta["cache_misses"]
    matmul_s = incl("engine.matmul")
    roots = incl("phase.offline", "phase.open_loop")
    shares = fig1a_shares(selfs)
    m = {
        "scheduler.steps": steps,
        "scheduler.step_ms_p50": median(step_ms),
        "scheduler.step_ms_p99": tail(step_ms, 99.0),
        "scheduler.rows_per_step": rows / steps,
        "scheduler.self_ms_per_step": 1e3 * self_s("scheduler.step") / steps,
        "scheduler.queue_wait_ms_p90": tail(
            [1e3 * w for w in open_loop["queue_waits"]], 90.0
        ),
        "session.decode_s": incl("session.decode"),
        "session.prefill_s": incl("session.prefill"),
        "session.self_s": self_s("session.decode", "session.prefill"),
        "transformer.forward_s": incl("transformer.forward"),
        "transformer.forward_batch_s": incl("transformer.forward_batch"),
        "transformer.prefill_batch_s": incl("transformer.prefill_batch"),
        "transformer.self_s": self_s(
            "transformer.forward",
            "transformer.forward_batch",
            "transformer.prefill_batch",
        ),
        "transformer.rows": rows,
        "attention.decode_s": incl("attention.decode"),
        "attention.prefill_s": incl("attention.prefill"),
        "attention.self_s": self_s("attention.decode", "attention.prefill"),
        "bgpp.predict_s": incl("bgpp.predict"),
        "bgpp.calls": calls("bgpp.predict"),
        "bgpp.keep_frac": kept[0] / kept[1] if kept[1] else 0.0,
        "gemm.forward_s": incl("gemm.forward"),
        "gemm.quantize_s": incl("gemm.quantize"),
        "engine.matmul_s": matmul_s,
        "engine.matmul_calls": engine_delta["gemm_calls"],
        "engine.dense_macs": engine_delta["dense_macs"],
        "engine.gmacs_per_s": engine_delta["dense_macs"] / matmul_s / 1e9,
        "engine.plane_cache_hit_frac": (
            engine_delta["cache_hits"] / lookups if lookups else 0.0
        ),
        "engine.weight_bits_fetched": engine_delta["weight_bits_compressed"],
        "engine.bstc_decode_s": incl("engine.bstc_decode"),
        "layers.activation_s": incl("layers.activation"),
        "layers.norm_s": incl("layers.norm"),
        "kv_arena.gather_s": incl("kv_arena.gather"),
        "kv_arena.append_s": incl("kv_arena.append"),
        "kv_arena.prefix_s": incl("kv_arena.prefix"),
        "kv_arena.truncate_s": incl("kv_arena.truncate"),
        "kv_arena.gather_mb": sum(a.gather_bytes_copied for a in arenas) / 1e6,
        "kv_arena.page_faults": sum(a.page_faults for a in arenas),
        "kv_arena.peak_pages": max(a.peak_pages_in_use for a in arenas),
        "kv_arena.prefix_hit_frac": (
            sum(a.prefix_tokens_reused for a in arenas) / prompt_tokens
        ),
        "kv_arena.cow_copies": sum(a.cow_copies for a in arenas),
        "kv_arena.rows_rolled_back": sum(a.rows_rolled_back for a in arenas),
        "speculative.propose_s": incl("speculative.propose"),
        "speculative.accept_frac": accepted / proposed if proposed else 0.0,
        "speculative.draft_rows": sum(a.draft_rows_appended for a in arenas),
        "speculative.tokens_per_step": (
            1.0 + accepted / spec_steps if spec_steps else 0.0
        ),
        "client.lag_ms_p99": tail([1e3 * x for x in open_loop["lags"]], 99.0),
        "setup.calibrate_s": setup["calibrate_s"],
        "setup.bstc_encode_s": setup["bstc_encode_s"],
        "setup.warmup_s": setup["warmup_s"],
        "trace.overhead_frac": overhead,
        "trace.self_sum_frac": sum(selfs.values()) / roots,
    }
    for k, v in shares.items():
        m[f"share.{k}"] = v
    total = sum(modelled.values())
    for k, v in modelled.items():
        m[f"modelled_share.{k}"] = v / total
    return m


# -- the run ---------------------------------------------------------------------


def environment_record(
    workload: Workload, seed: int, blas_threads: int, n: int
) -> dict:
    """What a result needs to be reproduced: versions, threads, settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "model_config": dataclasses.asdict(get_model_config(MODEL)),
        "max_active": MAX_ACTIVE,
        "opt_ins": workload.opt_ins(),
        "open_loop_rate_rps": workload.rate,
        "ttft_limit_ms": workload.ttft_limit_ms,
        "tpot_limit_ms": workload.tpot_limit_ms,
        "n_requests": n,
    }


def _check_digest(out_dir: Path, key: str, digest: str) -> bool:
    """Compare with (or record) the output digest an earlier run of the
    same inputs (``key``) saw."""
    path = out_dir / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    blas_threads: int,
) -> dict:
    """One run of one workload; returns the result line's fields."""
    config = get_model_config(MODEL)
    n = workload.n_requests(seconds)
    traffic = make_traffic(workload, seed, n, config.vocab_size)
    requests = _requests(traffic, workload)
    warmup = [
        dataclasses.replace(r, request_id=f"warmup-{i}", max_new_tokens=WARMUP_TOKENS)
        for i, r in enumerate(requests[:WARMUP_REQUESTS])
    ]

    setups = []
    for _ in range(SETUP_REPEATS):
        system, timings = build_system(workload, warmup)
        setups.append(timings)
    setup = {k: median([s[k] for s in setups]) for k in setups[0]}

    # solo references, outside every timed window
    sample = sorted({round(j * (n - 1) / (N_REFERENCES - 1)) for j in range(N_REFERENCES)})
    references = {
        requests[i].request_id: generate(
            system.model,
            requests[i].prompt_tokens,
            requests[i].max_new_tokens,
            predictor=system.predictor,
        ).generated_tokens
        for i in sample
    }

    offline = offline_phase(system, workload, requests)
    phases = [offline]
    layers = None
    if trace:
        tracer = Tracer()
        kept = [0, 0]
        predictor = (
            traced_predictor(tracer, system.predictor, kept)
            if system.predictor is not None
            else None
        )
        before = copy.copy(system.engine.stats)
        instrument(tracer, system)
        try:
            traced = [
                offline_phase(system, workload, requests, tracer, predictor),
                open_loop_phase(
                    system, workload, requests, traffic.due, tracer, predictor
                ),
            ]
        finally:
            tracer.restore()
        phases += traced
        overhead = 1.0 - offline["wall"] / traced[0]["wall"]
        modelled = latency_components(
            MODEL,
            prompt_len=round(np.mean([len(p) for p in traffic.prompts])),
            decode_len=round(np.mean(traffic.max_new_tokens)),
            batch=MAX_ACTIVE,
        )
        engine_delta = _stats_delta(system.engine.stats, before)
        layers = layer_metrics(
            tracer,
            traced,
            kept,
            engine_delta,
            setup,
            overhead,
            modelled,
            prompt_tokens=2 * sum(len(p) for p in traffic.prompts),
        )
        # the open-loop latency spread is too wide to bound between runs
        # (see README); the traced run reports it per layer instead
        client = open_loop_metrics(
            traced[1]["due_abs"],
            traced[1]["token_times"],
            list(traced[1]["ok"].values()),
            workload.ttft_limit_ms / 1e3,
            workload.tpot_limit_ms / 1e3,
        )
        for name in ("ttft_ms_p90", "tpot_ms_p50", "itl_ms_p99"):
            layers[f"client.{name}"] = client[name]
        trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        report_trace(workload, tracer, layers, traced, engine_delta)
        print(f"# chrome trace: {trace_path}")
    else:
        phases.append(open_loop_phase(system, workload, requests, traffic.due))

    # correctness: identical streams in every phase, solo references, and the
    # digest an earlier run of the same inputs recorded
    failed = set()
    for phase in phases:
        failed |= {rid for rid, ok in phase["ok"].items() if not ok}
        failed |= {
            rid
            for rid, tokens in phase["streams"].items()
            if tokens != offline["streams"][rid]
        }
    failed |= {
        rid for rid, ref in references.items() if offline["streams"][rid] != ref
    }
    digest = stream_digest(list(offline["streams"].items()))
    inputs = stream_digest(
        [(r.request_id, [r.max_new_tokens, *r.prompt_tokens]) for r in requests]
    )
    same_digest = _check_digest(out_dir, f"{workload.name}/{inputs}", digest)
    print(
        f"# {workload.name}: {n} requests x {len(phases)} phases, "
        f"stream digest {digest}"
        + ("" if same_digest else " (DIFFERS from an earlier run)")
    )
    correct = not failed and same_digest

    if layers is not None:
        metrics = layers
    else:
        open_loop = phases[-1]
        total_tokens = sum(len(t) for t in offline["streams"].values())
        metrics = {
            "setup_s": setup["setup_s"],
            "tokens_per_s": total_tokens / offline["wall"],
            "requests_per_s": n / offline["wall"],
        }
        metrics.update(
            open_loop_metrics(
                open_loop["due_abs"],
                open_loop["token_times"],
                [r.request_id not in failed for r in requests],
                workload.ttft_limit_ms / 1e3,
                workload.tpot_limit_ms / 1e3,
            )
        )
        metrics["ok_frac"] = 1.0 - len(failed) / n
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    return {
        "correct": correct,
        "attempted": n * len(phases),
        "failed": sum(
            1 for phase in phases for rid in phase["ok"] if rid in failed
        ),
        "metrics": metrics,
        "record": environment_record(workload, seed, blas_threads, n),
    }


def report_trace(workload, tracer: Tracer, layers, traced, engine_delta) -> None:
    """Print the self-time table, the Fig. 1a rollup and exact counters."""
    totals = tracer.totals()
    selfs = tracer.self_times()
    wall = sum(p["wall"] for p in traced)
    print(f"# {workload.name}: self time by layer over {wall:.3f} s traced wall")
    print(f"#   {'span':<26}{'calls':>9}{'incl s':>10}{'self s':>10}{'self %':>8}")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        calls, inclusive = totals[name]
        print(
            f"#   {name:<26}{calls:>9}{inclusive:>10.4f}{selfs[name]:>10.4f}"
            f"{100 * selfs[name] / wall:>8.2f}"
        )
    print(f"#   {'sum of self times':<26}{'':>9}{'':>10}{sum(selfs.values()):>10.4f}")
    print(f"# {workload.name}: Fig. 1a shares, measured vs latency_components model")
    for cat in ("gemm", "weight_load", "kv_load", "others"):
        print(
            f"#   {cat:<12} measured {layers[f'share.{cat}']:.3f}  "
            f"modelled {layers[f'modelled_share.{cat}']:.3f}"
        )
    for label, phase in zip(("offline", "open_loop"), traced):
        report = phase["engine"].report()
        print(
            f"# {workload.name} {label} counters: "
            + json.dumps(
                {
                    "arena": report.arena,
                    "policy": report.policy,
                    "steps": report.steps,
                },
                sort_keys=True,
            )
        )
    print(
        f"# {workload.name} engine counters (traced phases): "
        + json.dumps(engine_delta, sort_keys=True)
    )
