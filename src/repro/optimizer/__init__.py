"""System-R engine: DP over the subset dag, costers, top-k, ground truth."""

from .costers import (
    Coster,
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from .errors import OptimizerConfigError
from .dependent import (
    BayesNetCoster,
    optimize_dependent,
    plan_expected_cost_dependent,
)
from .exhaustive import enumerate_left_deep_plans, enumerate_plans, exhaustive_best
from .facade import (
    clear_context_cache,
    last_context,
    lsc_at_mean,
    lsc_at_mode,
    memory_breakpoints,
    optimize,
    optimize_algorithm_a,
    optimize_algorithm_b,
    optimize_algorithm_c,
    optimize_algorithm_d,
    optimize_lsc,
)
from .randomized import (
    RandomizedResult,
    iterative_improvement,
    simulated_annealing,
)
from .result import OptimizationResult, OptimizerStats, PlanChoice
from .systemr import DPEntry, SystemRDP
from .topk import MergeResult, TopKList, merge_top_combinations

__all__ = [
    "SystemRDP",
    "OptimizerConfigError",
    "optimize",
    "optimize_lsc",
    "lsc_at_mean",
    "lsc_at_mode",
    "optimize_algorithm_a",
    "optimize_algorithm_b",
    "optimize_algorithm_c",
    "optimize_algorithm_d",
    "memory_breakpoints",
    "last_context",
    "clear_context_cache",
    "DPEntry",
    "Coster",
    "PointCoster",
    "ExpectedCoster",
    "MarkovCoster",
    "MultiParamCoster",
    "OptimizationResult",
    "OptimizerStats",
    "PlanChoice",
    "TopKList",
    "MergeResult",
    "merge_top_combinations",
    "enumerate_left_deep_plans",
    "enumerate_plans",
    "exhaustive_best",
    "BayesNetCoster",
    "optimize_dependent",
    "plan_expected_cost_dependent",
    "RandomizedResult",
    "iterative_improvement",
    "simulated_annealing",
]
