"""Cost model: formulas, size estimation, expected costs and plan costing.

The layer between plans and the optimizers (Sections 2, 3.6 and 3.7):
the cost formulas with their memory breakpoints, size estimates, the
expected-cost kernels over the :mod:`repro.core` distributions, the
shared :class:`OptimizationContext`, Algorithm D's plan evaluator and
the risk-sensitive objectives.
"""

from .algorithm_d import plan_expected_cost_multiparam
from .context import CacheStats, OptimizationContext, query_fingerprint
from .estimates import (
    SizeEstimate,
    annotate_sizes,
    node_size,
    subset_size,
    subset_size_distribution,
)
from .expected_cost import (
    expected_grace_hash_cost,
    expected_join_cost_fast,
    expected_join_cost_naive,
    expected_nested_loop_cost,
    expected_sort_merge_cost,
)
from .formulas import (
    MIN_MEMORY_PAGES,
    external_sort_cost,
    grace_hash_cost,
    join_breakpoints,
    join_cost,
    nested_loop_cost,
    scan_cost,
    sort_breakpoints,
    sort_merge_cost,
)
from .model import DEFAULT_METHODS, CostModel
from .risk import (
    ExpectedCost,
    ExponentialUtility,
    MeanVariance,
    QuantileCost,
    UtilityObjective,
    WorstCase,
    choose_by_utility,
    cost_is_memory_invariant,
    plan_cost_distribution,
)

__all__ = [
    "CostModel",
    "DEFAULT_METHODS",
    "SizeEstimate",
    "subset_size",
    "subset_size_distribution",
    "node_size",
    "annotate_sizes",
    "join_cost",
    "join_breakpoints",
    "nested_loop_cost",
    "sort_merge_cost",
    "grace_hash_cost",
    "external_sort_cost",
    "sort_breakpoints",
    "scan_cost",
    "MIN_MEMORY_PAGES",
    "OptimizationContext",
    "CacheStats",
    "query_fingerprint",
    "plan_expected_cost_multiparam",
    "expected_join_cost_naive",
    "expected_join_cost_fast",
    "expected_sort_merge_cost",
    "expected_nested_loop_cost",
    "expected_grace_hash_cost",
    "UtilityObjective",
    "ExpectedCost",
    "MeanVariance",
    "ExponentialUtility",
    "QuantileCost",
    "WorstCase",
    "choose_by_utility",
    "plan_cost_distribution",
    "cost_is_memory_invariant",
]
