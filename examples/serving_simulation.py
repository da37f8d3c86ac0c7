"""Serving simulation: policy-driven continuous batching over one MCBP engine.

Demonstrates the batched serving layer end to end:

1. sample a mixed request stream (Poisson arrivals over the paper's task mix,
   scaled down for the NumPy model) and run it through the
   :class:`ServingEngine` with >= 8 concurrent sessions, printing
   per-request latency/traffic and aggregate throughput;
2. replay one bursty heavy-tail (Pareto) trace with an 80/20 low/high
   priority mix under the shipped policies -- FCFS, priority, deadline
   and aging (anti-starvation effective priorities) -- showing how priority
   ordering + preemption cut the high-priority p95 latency while FCFS
   makes urgent requests wait behind the burst, with identical tokens
   everywhere;
3. run the same stream through a quantised model bound to an
   :class:`MCBPEngine` with **fused batched decode** over a shared
   **paged KV arena**: every engine step is a single quantised forward pass
   over the whole active batch -- admissions ride the **chunked batched
   prefill pipeline**, so burst prompts prefill as ragged chunks inside the
   same fused pass as the decode tokens -- each layer's BSTC planes are
   decoded exactly once, session KV lives as fixed-size pages in one pool
   (freed pages recycle as requests finish), and the emitted tokens are
   bit-identical to solo ``generate()`` runs;
4. run a steady-state decode loop through an :class:`MCBPEngine` with the
   decoded-plane LRU cache and show that every layer is BSTC-decoded exactly
   once, no matter how many decode steps (or co-resident sessions) reuse it;
5. print the analytical serving breakdown: how sharing decoded planes across
   sessions shrinks the decode-stage weight-loading component.

Usage::

    python examples/serving_simulation.py                    # full demo
    python examples/serving_simulation.py --policy priority  # one policy
    python examples/serving_simulation.py --prefix-cache     # KV reuse demo
    python examples/serving_simulation.py --chaos            # fault demo
    python examples/serving_simulation.py --snapshot         # KV snapshots
    python examples/serving_simulation.py --speculative 4    # draft + verify
    python examples/serving_simulation.py --json             # report JSON

``--policy {fcfs,priority,deadline,aging}`` runs only the policy comparison
and prints the chosen policy's full per-request report.  ``--chaos`` replays
one stream fault-free and again under a seeded 2% fault plan, showing
per-request retries, failure containment, bit-identical recovered tokens and
balanced arena books.  ``--json`` emits only the scheduler report of step 1
in the JSON schema shared with
``benchmarks/test_batched_decode_throughput.py`` (``ServingReport.to_json``),
so scripts can consume either artefact uniformly.  ``--speculative K``
decodes one mixed (cyclic + random prompt) stream plainly and again with up
to ``K`` drafted tokens verified per session per fused step, printing the
step-count win, the draft acceptance rate and the arena rollback books --
tokens stay bit-identical.
"""

import argparse
import json

import numpy as np

from repro.core import BGPPConfig, MCBPEngine
from repro.core.bgpp import make_bgpp_predictor
from repro.eval import serving_breakdown_vs_sessions
from repro.model import (
    QuantizedTransformer,
    TransformerModel,
    generate,
    get_model_config,
)
from repro.serve import (
    FaultPlan,
    PagedKVArena,
    Request,
    ServingEngine,
    SpeculationConfig,
    make_policy,
)
from repro.workloads import sample_requests

POLICY_NAMES = ("fcfs", "priority", "deadline", "aging")


def simulate_traffic(n_requests: int = 24, max_active: int = 8, quiet: bool = False):
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    predictor = make_bgpp_predictor(alpha=0.7, rounds=3)
    requests = sample_requests(
        n_requests,
        vocab_size=config.vocab_size,
        mean_interarrival=1.5,
        seed=11,
    )
    engine = ServingEngine(model, max_active=max_active, predictor=predictor)
    engine.submit_many(requests)
    report = engine.run()
    if not quiet:
        print(f"--- continuous batching: {n_requests} requests, "
              f"{max_active} slots, BGPP attention ---")
        print(report.summary())
    return report


def _bursty_prioritized_requests(vocab_size: int, n_requests: int = 32):
    """One heavy-tail trace shared by every policy run: 80% bulk priority-0
    requests, 20% interactive priority-2 requests with tight deadlines."""
    return sample_requests(
        n_requests,
        vocab_size=vocab_size,
        mean_interarrival=0.4,
        arrival_process="pareto",
        arrival_shape=1.5,  # heavy tail: dense bursts, long quiet stretches
        priority_levels=(0, 2),
        priority_weights=(0.8, 0.2),
        deadline_slack=(2, 8),
        seed=29,
    )


def policy_comparison(policy: str = None, n_requests: int = 32,
                      max_active: int = 4) -> None:
    """The same bursty trace under FCFS vs priority vs deadline policies."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    requests = _bursty_prioritized_requests(config.vocab_size, n_requests)
    n_high = sum(1 for r in requests if r.priority > 0)

    print(f"\n--- policy comparison: {n_requests} requests "
          f"({n_high} high-priority), Pareto bursts, {max_active} slots ---")
    header = (f"{'policy':>10} {'steps':>6} {'tok/step':>9} {'p95 all':>8} "
              f"{'p95 hi':>7} {'p95 lo':>7} {'preempt':>8} {'misses':>7}")
    print(header)
    names = POLICY_NAMES if policy is None else (policy,)
    baseline_tokens = None
    chosen_report = None
    for name in names:
        engine = ServingEngine(
            model, max_active=max_active, scheduling=make_policy(name)
        )
        handles = engine.submit_many(requests)
        report = engine.run()
        tokens = [h.generated_tokens for h in handles]
        if baseline_tokens is None:
            baseline_tokens = tokens
        else:
            # policies reorder *service*, never change *content*
            assert tokens == baseline_tokens, "policies must not change tokens"
        print(f"{name:>10} {report.steps:>6} "
              f"{report.throughput_tokens_per_step:>9.2f} "
              f"{report.latency_percentile(95):>8.1f} "
              f"{report.latency_percentile(95, priority=2):>7.1f} "
              f"{report.latency_percentile(95, priority=0):>7.1f} "
              f"{report.total_preemptions:>8} "
              f"{report.total_deadline_misses:>7}")
        chosen_report = report
    if policy is not None:
        print(f"\nfull report for --policy {policy}:")
        print(chosen_report.summary())
    else:
        print("(preemption evicts a session's KV pages; it resumes later by "
              "re-prefilling its tokens, bit-identical to an unpreempted run)")


def fused_decode_demo(n_requests: int = 16, max_active: int = 8) -> None:
    """Fused batched decode: one quantised forward per engine step."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    engine = MCBPEngine(group_size=4, weight_bits=8)
    model.bind_engine(engine)
    engine.codec.reset_counters()
    requests = sample_requests(
        n_requests, vocab_size=config.vocab_size, mean_interarrival=0.5, seed=11
    )

    serving = ServingEngine(model, max_active=max_active)
    fused_handles = serving.submit_many(requests)
    fused_report = serving.run()
    hit_rate = engine.stats.cache_hit_rate
    n_matrices = len(model.quantized_weight_matrices())
    assert engine.codec.decode_calls == n_matrices, "planes must decode once per layer"
    for request, handle in zip(requests, fused_handles):
        solo = generate(model, request.prompt_tokens, request.max_new_tokens)
        assert handle.generated_tokens == solo.generated_tokens, (
            "fused decode must be bit-exact"
        )

    # the example stays byte-deterministic, so it reports step-based metrics;
    # wall-clock tokens/sec live in benchmarks/test_batched_decode_throughput.py
    forwards_per_step = fused_report.max_concurrency
    arena_stats = fused_report.arena
    print(f"\n--- fused batched decode: {n_requests} quantised requests, "
          f"{max_active} slots, paged KV arena ---")
    print(f"tokens              : {fused_report.total_tokens} in "
          f"{fused_report.steps} steps "
          f"({fused_report.throughput_tokens_per_step:.2f} tok/step, "
          f"bit-exact vs solo generate() per request)")
    print(f"forward passes/step : 1 fused (for up to {forwards_per_step} "
          f"co-resident sessions)")
    print(f"BSTC decodes        : {engine.codec.decode_calls} "
          f"(= {n_matrices} weight matrices, decoded once each; "
          f"plane-cache hit rate {hit_rate:.1%})")
    print(f"KV arena            : {arena_stats['page_size']}-token pages, "
          f"peak {arena_stats['peak_pages_in_use']}/{arena_stats['n_pages']} "
          f"pages, {arena_stats['page_faults']} faults, all "
          f"{arena_stats['pages_freed']} freed at drain "
          f"({arena_stats['pages_in_use']} still in use)")
    print(f"gather traffic      : "
          f"{arena_stats['gather_bytes_copied'] / 1024.0:.1f} KiB "
          f"({arena_stats['gather_incremental']} incremental refreshes, "
          f"{arena_stats['gather_rebuilds']} rebuilds)")


def prefix_cache_demo(n_requests: int = 16, max_active: int = 8) -> None:
    """Cross-request KV reuse: one shared system prompt, many novel tails."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    rng = np.random.default_rng(7)
    system_prompt = rng.integers(0, config.vocab_size, size=40).tolist()
    requests = [
        Request(
            f"chat{i:02d}",
            prompt_tokens=system_prompt
            + rng.integers(0, config.vocab_size, size=int(rng.integers(0, 8))).tolist(),
            max_new_tokens=int(rng.integers(2, 6)),
            arrival_step=int(i // 2),
        )
        for i in range(n_requests)
    ]

    def run(prefix_cache: bool):
        arena = PagedKVArena(config.n_layers, config.hidden_size, page_size=8)
        serving = ServingEngine(
            model, max_active=max_active, arena=arena, prefix_cache=prefix_cache
        )
        handles = serving.submit_many(requests)
        report = serving.run()
        return report, [h.generated_tokens for h in handles]

    cold_report, cold_tokens = run(prefix_cache=False)
    warm_report, warm_tokens = run(prefix_cache=True)
    assert warm_tokens == cold_tokens, "prefix cache must not change tokens"
    cold, warm = cold_report.arena, warm_report.arena
    print(f"\n--- prefix cache: {n_requests} requests sharing a "
          f"{len(system_prompt)}-token system prompt ---")
    print(f"tokens              : bit-identical with the cache off and on")
    print(f"page faults         : {cold['page_faults']} cold -> "
          f"{warm['page_faults']} warm "
          f"({cold['page_faults'] / warm['page_faults']:.1f}x fewer KV pages "
          f"materialised)")
    print(f"peak pages in use   : {cold['peak_pages_in_use']} -> "
          f"{warm['peak_pages_in_use']}")
    print(f"prompt rows reused  : {warm['prefix_tokens_reused']} across "
          f"{warm['prefix_hits']} cache hits "
          f"({warm['prefix_pages_shared']} shared page mappings, "
          f"{warm['cow_copies']} copy-on-writes)")
    print("(a request whose prompt head matches a registered prefix maps "
          "those pages read-only and prefills only its novel tail)")


def snapshot_demo(n_requests: int = 24, max_active: int = 4) -> None:
    """Snapshot preemption + int8 KV: resume without re-prefilling."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    requests = sample_requests(
        n_requests,
        vocab_size=config.vocab_size,
        mean_interarrival=0.25,
        arrival_process="pareto",
        arrival_shape=1.5,
        priority_levels=(0, 2),
        priority_weights=(0.75, 0.25),
        seed=29,
    )

    def run(kv_snapshots: bool, kv_dtype=None):
        arena = PagedKVArena(
            config.n_layers, config.hidden_size, page_size=8, kv_dtype=kv_dtype
        )
        serving = ServingEngine(
            model,
            max_active=max_active,
            arena=arena,
            scheduling=make_policy("priority"),
            kv_snapshots=kv_snapshots,
        )
        handles = serving.submit_many(requests)
        report = serving.run()
        return report, [h.generated_tokens for h in handles]

    replay_report, replay_tokens = run(kv_snapshots=False)
    snap_report, snap_tokens = run(kv_snapshots=True)
    assert snap_tokens == replay_tokens, "snapshots must not change tokens"
    int8_report, _ = run(kv_snapshots=True, kv_dtype="int8")
    replay, snap = replay_report.arena, snap_report.arena
    print(f"\n--- snapshot preemption: {n_requests} prioritized requests, "
          f"{max_active} slots ---")
    print(f"tokens              : bit-identical with snapshots off and on")
    print(f"preemptions         : {snap_report.total_preemptions} "
          f"({snap['snapshots_taken']} snapshots taken, "
          f"{snap['snapshots_restored']} restored)")
    print(f"KV rows appended    : {replay['tokens_appended']} re-prefill -> "
          f"{snap['tokens_appended']} snapshot "
          f"(every resume replays zero prompt rows)")
    print(f"snapshot traffic    : {snap['snapshot_bytes'] / 1024.0:.1f} KiB fp "
          f"-> {int8_report.arena['snapshot_bytes'] / 1024.0:.1f} KiB int8 "
          f"(pool dtype {int8_report.arena['kv_dtype']}, ~8x smaller pages)")
    print("(a preempted session's owned pages are copied off-arena and "
          "faulted back on resume; prefix-shared pages transfer by "
          "reference and stay hittable)")


def chaos_demo(n_requests: int = 16, max_active: int = 8) -> None:
    """Deterministic fault injection: the same stream, clean vs 2% chaos."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    model.bind_engine(MCBPEngine(group_size=4, weight_bits=8))
    requests = sample_requests(
        n_requests, vocab_size=config.vocab_size, mean_interarrival=0.5, seed=11
    )

    def run(faults):
        serving = ServingEngine(
            model, max_active=max_active, faults=faults, max_retries=3
        )
        handles = serving.submit_many(requests)
        report = serving.run(max_steps=2000)
        return serving, report, handles

    _, clean_report, clean_handles = run(faults=None)
    plan = FaultPlan.uniform(
        0.02, seed=17, sites=("arena.alloc", "session.compute", "session.append")
    )
    chaos_engine, chaos_report, chaos_handles = run(faults=plan)
    injector = chaos_engine.fault_injector

    # every request that survived its faults recovered bit-identically
    outcomes = {m.request_id: m.outcome for m in chaos_report.requests}
    for clean, dirty in zip(clean_handles, chaos_handles):
        if outcomes[dirty.request_id] == "finished":
            assert dirty.generated_tokens == clean.generated_tokens, (
                "recovered tokens must match the fault-free run"
            )
    arena = chaos_report.arena
    assert arena["pages_in_use"] == 0 and (
        arena["page_faults"] == arena["pages_freed"]
    ), "arena books must balance after the chaos run"

    by_outcome = {}
    for metrics in chaos_report.requests:
        by_outcome[metrics.outcome] = by_outcome.get(metrics.outcome, 0) + 1
    retried = [m for m in chaos_report.requests if m.retries > 0]
    print(f"\n--- chaos: {n_requests} requests, seeded 2% fault plan, "
          f"{max_active} slots ---")
    print(f"clean run           : {clean_report.total_tokens} tokens in "
          f"{clean_report.steps} steps")
    print(f"chaos run           : {chaos_report.total_tokens} tokens in "
          f"{chaos_report.steps} steps "
          f"({injector.total_fires} fires / {injector.opportunities} "
          f"opportunities)")
    print(f"fires by site       : "
          + ", ".join(f"{site}={n}" for site, n in injector.fires_by_site.items()
                      if n))
    print(f"outcomes            : "
          + ", ".join(f"{k}={v}" for k, v in sorted(by_outcome.items())))
    print(f"recoveries          : {len(retried)} requests retried "
          f"(tokens bit-identical to the fault-free run)")
    for metrics in retried:
        failure = f", post-mortem: {metrics.failure}" if metrics.failure else ""
        print(f"  {metrics.request_id}: retries={metrics.retries} "
              f"outcome={metrics.outcome}{failure}")
    print(f"arena               : {arena['page_faults']} faults == "
          f"{arena['pages_freed']} freed, {arena['pages_in_use']} in use")
    print("(faults quarantine one request per step; surviving batch rows "
          "commit, the victim re-prefills after backoff, bit-identical)")


def speculative_demo(k: int = 4, n_requests: int = 6, decode_len: int = 32) -> None:
    """Speculative multi-token decode: draft, verify fused, accept or roll back."""
    config = get_model_config("tiny")
    model = QuantizedTransformer(TransformerModel(config, seed=0), seed=1)
    rng = np.random.default_rng(43)
    # half the trace is cyclic motif prompts (the n-gram drafter's best
    # case), half is random prompts (its worst case, where the adaptive
    # throttle backs off) -- both must decode identically with spec on
    requests = []
    for i in range(n_requests):
        if i % 2 == 0:
            prompt = [3 + i, 17, 5, 9 + i] * 3
        else:
            prompt = rng.integers(0, config.vocab_size, size=12).tolist()
        requests.append(
            Request(
                f"spec{i:02d}",
                prompt_tokens=prompt,
                max_new_tokens=decode_len,
                arrival_step=0,
            )
        )

    def run(speculative):
        serving = ServingEngine(
            model, max_active=n_requests, speculative=speculative
        )
        handles = serving.submit_many(requests)
        report = serving.run()
        return report, [h.generated_tokens for h in handles]

    plain_report, plain_tokens = run(speculative=None)
    spec_report, spec_tokens = run(SpeculationConfig(k=k, adaptive=True))
    assert spec_tokens == plain_tokens, "speculation must not change tokens"
    policy = spec_report.to_json()["policy"]
    arena = spec_report.arena
    print(f"\n--- speculative decode: {n_requests} requests, k={k}, "
          f"ngram drafter, adaptive throttle ---")
    print(f"tokens              : bit-identical with speculation off and on")
    print(f"steps               : {plain_report.steps} plain -> "
          f"{spec_report.steps} speculative "
          f"({plain_report.steps / spec_report.steps:.2f}x fewer, "
          f"{spec_report.throughput_tokens_per_step:.2f} tok/step)")
    print(f"drafts              : {policy['draft_accepted']}/"
          f"{policy['draft_proposed']} accepted "
          f"(mean run {policy['mean_accepted_len']:.2f} tokens/spec step)")
    print(f"arena rollback      : {arena['draft_rows_appended']} draft rows "
          f"appended, {arena['rows_rolled_back']} rolled back, "
          f"{arena['pages_in_use']} pages in use at drain")
    print("(each decoding session verifies its committed token plus up to k "
          "drafts as one ragged chunk in the fused pass; the first mismatch "
          "emits the corrected token and truncates the rejected KV rows)")


def steady_state_cache_demo(n_layers: int = 6, decode_steps: int = 32) -> None:
    rng = np.random.default_rng(0)
    engine = MCBPEngine(group_size=4, weight_bits=8,
                        bgpp_config=BGPPConfig(rounds=3, score_scale=0.05))
    hidden = 128
    for i in range(n_layers):
        weight = np.clip(
            np.round(rng.normal(scale=30.0, size=(hidden, hidden))), -127, 127
        ).astype(np.int64)
        engine.register_weight(f"layer{i}", weight)
    engine.codec.reset_counters()

    for _ in range(decode_steps):
        x = rng.integers(-128, 128, size=hidden)
        for i in range(n_layers):
            x = np.clip(engine.gemm(f"layer{i}", x) >> 8, -128, 127)

    stats = engine.stats
    print(f"\n--- steady-state decode loop: {n_layers} layers x "
          f"{decode_steps} steps ---")
    print(f"gemm calls     : {stats.gemm_calls}")
    print(f"BSTC decodes   : {engine.codec.decode_calls} "
          f"(cache misses: {stats.cache_misses}, hits: {stats.cache_hits}, "
          f"hit rate {stats.cache_hit_rate:.1%})")
    print(f"compute red.   : {stats.compute_reduction:.2f}x, "
          f"weight compression {stats.weight_compression_ratio:.2f}x")
    assert engine.codec.decode_calls == n_layers, "plane cache must decode once per layer"


def analytical_breakdown() -> None:
    print("\n--- analytical serving breakdown (Llama7B, 2k prompt) ---")
    header = f"{'sessions':>8} {'speedup':>8} {'gemm%':>7} {'weight%':>8} {'kv%':>6} {'other%':>7}"
    print(header)
    for row in serving_breakdown_vs_sessions(session_counts=(1, 2, 4, 8, 16, 32)):
        print(f"{int(row['shared_sessions']):>8} {row['speedup']:>7.2f}x "
              f"{row['gemm']:>6.1f} {row['weight_load']:>8.1f} "
              f"{row['kv_load']:>6.1f} {row['others']:>7.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit only the traffic simulation's ServingReport as JSON "
        "(the schema shared with BENCH_serving.json)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        help="run only the policy comparison and print this policy's "
        "full per-request report",
    )
    parser.add_argument(
        "--prefix-cache",
        action="store_true",
        help="run only the cross-request KV prefix-cache demo (shared "
        "system prompt, cache off vs on)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run only the fault-injection demo (one stream fault-free vs "
        "under a seeded 2%% fault plan, with bit-identical recovery)",
    )
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help="run only the snapshot-preemption demo (preemptive priority "
        "trace with kv_snapshots off vs on, plus int8 KV pages)",
    )
    parser.add_argument(
        "--speculative",
        type=int,
        metavar="K",
        help="run only the speculative-decode demo: draft up to K tokens "
        "per session, verify in the fused pass, bit-identical tokens",
    )
    args = parser.parse_args()
    if args.json:
        report = simulate_traffic(quiet=True)
        print(json.dumps(report.to_json(), indent=2))
        return
    if args.policy:
        policy_comparison(policy=args.policy)
        return
    if args.prefix_cache:
        prefix_cache_demo()
        return
    if args.chaos:
        chaos_demo()
        return
    if args.snapshot:
        snapshot_demo()
        return
    if args.speculative is not None:
        speculative_demo(k=args.speculative)
        return
    simulate_traffic()
    policy_comparison()
    fused_decode_demo()
    prefix_cache_demo()
    chaos_demo()
    snapshot_demo()
    speculative_demo()
    steady_state_cache_demo()
    analytical_breakdown()


if __name__ == "__main__":
    main()
