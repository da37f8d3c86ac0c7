"""Benchmark workloads, task descriptors and measured algorithm profiles."""

from .profile import QUANT_SCHEMES, AlgorithmProfile, profile_model
from .tasks import (
    BENCHMARK_TASKS,
    EVALUATED_MODELS,
    TaskSpec,
    Workload,
    all_workloads,
    make_workload,
)
from .traffic import (
    arrival_steps,
    lognormal_arrival_steps,
    pareto_arrival_steps,
    poisson_arrival_steps,
    sample_priorities,
    sample_requests,
    trace_arrival_steps,
)

__all__ = [
    "TaskSpec",
    "Workload",
    "BENCHMARK_TASKS",
    "EVALUATED_MODELS",
    "make_workload",
    "all_workloads",
    "AlgorithmProfile",
    "profile_model",
    "QUANT_SCHEMES",
    "arrival_steps",
    "lognormal_arrival_steps",
    "pareto_arrival_steps",
    "poisson_arrival_steps",
    "sample_priorities",
    "sample_requests",
    "trace_arrival_steps",
]
