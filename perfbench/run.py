"""Wall-clock serving benchmark of the MCBP reproduction.

Drives ``repro.serve.ServingEngine`` with seeded traffic and prints every
metric by name and unit; the last stdout line is one JSON object::

    {"correct": true, "attempted": 200, "failed": 0,
     "metrics": {"tokens_per_s": {"value": 612.3, "unit": "tok/s"}, ...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and writes a
Chrome trace to ``.perfbench_out/``.  The command exits non-zero if any
request fails or any token stream differs from its references.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: BLAS threads for every run: one, which no box has fewer cores than, and
#: which keeps a shared machine's other tenants from stretching BLAS calls.
BLAS_THREADS = 1


def _metric_units(spec: dict, trace: bool) -> dict:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"error: run from a checkout of the repository; {ROOT} holds no "
            "src/repro package or BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")

    # BLAS reads its thread count when numpy loads, so pin it first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all")
    units = _metric_units(spec, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        result = harness.run_workload(
            WORKLOADS[name],
            seed=args.seed,
            seconds=seconds,
            trace=bool(args.trace),
            out_dir=OUT_DIR,
            blas_threads=BLAS_THREADS,
        )
        missing = set(units) - set(result["metrics"])
        if missing:
            raise RuntimeError(f"metrics missing from the run: {sorted(missing)}")
        print(f"# record {name}: " + json.dumps(result["record"], sort_keys=True))
        print(f"{name}:")
        for metric, unit in units.items():
            print(f"  {metric:<32} {result['metrics'][metric]:>14.6g} {unit}")
        # measured but not bounded: printed, left out of the result line
        for metric, value in result["metrics"].items():
            if metric not in units:
                print(f"  # {metric:<30} {value:>14.6g} (unbounded)")
        result["metrics"] = {m: result["metrics"][m] for m in units}
        results[name] = result

    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {
                "value": float(value),
                "unit": units[metric],
            }
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
