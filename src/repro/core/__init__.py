"""Core LEC machinery: distributions, expected-cost kernels, bucketing, risk.

The optimizers built on it (LSC, Algorithms A-D) live one layer up, in
:mod:`repro.optimizer`; nothing here imports that package.
"""

from .algorithm_d import plan_expected_cost_multiparam
from .bayesnet import BayesNetError, DiscreteBayesNet
from .context import CacheStats, OptimizationContext, query_fingerprint
from .bucketing import (
    equal_depth_buckets,
    equal_width_buckets,
    level_set_buckets,
    level_set_cuts,
    level_set_expectation,
    refine_adaptive,
)
from .distributions import (
    DiscreteDistribution,
    discretized_lognormal,
    discretized_normal,
    from_samples,
    independent_product,
    point_mass,
    two_point,
    uniform_over,
)
from .expected_cost import (
    expected_grace_hash_cost,
    expected_join_cost_fast,
    expected_join_cost_naive,
    expected_nested_loop_cost,
    expected_sort_merge_cost,
)
from .markov import MarkovParameter, random_walk_chain, sticky_chain
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
    "OptimizationContext",
    "CacheStats",
    "query_fingerprint",
    "DiscreteDistribution",
    "point_mass",
    "two_point",
    "uniform_over",
    "from_samples",
    "discretized_lognormal",
    "discretized_normal",
    "independent_product",
    "DiscreteBayesNet",
    "BayesNetError",
    "MarkovParameter",
    "random_walk_chain",
    "sticky_chain",
    "plan_expected_cost_multiparam",
    "expected_join_cost_naive",
    "expected_join_cost_fast",
    "expected_sort_merge_cost",
    "expected_nested_loop_cost",
    "expected_grace_hash_cost",
    "equal_width_buckets",
    "equal_depth_buckets",
    "level_set_buckets",
    "level_set_cuts",
    "level_set_expectation",
    "refine_adaptive",
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
