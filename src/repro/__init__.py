"""repro: Least Expected Cost (LEC) query optimization.

A from-scratch reproduction of the LEC query-optimization framework
(Chu-Halpern line of work, PODS 1999/2002): model uncertain optimizer
parameters — available memory, relation sizes, predicate selectivities —
as probability distributions and pick the plan minimising *expected* cost
via System-R-style dynamic programming, instead of the classical plan
that is merely cheapest at a single point estimate.

Quickstart::

    from repro import (
        JoinQuery, RelationSpec, JoinPredicate, two_point, optimize,
    )

    memory = two_point(2000, 0.8, 700)          # pages
    query = JoinQuery(
        relations=[RelationSpec("A", pages=1_000_000),
                   RelationSpec("B", pages=400_000)],
        predicates=[JoinPredicate("A", "B", selectivity=1e-6,
                                  result_pages_override=3000)],
        required_order="A=B",
    )
    lec = optimize(query, "lec", memory=memory)    # least expected cost
    lsc = optimize(query, "point", memory=memory)  # classical baseline

Both calls share one memoized :class:`~repro.costmodel.context.
OptimizationContext`; see :func:`repro.optimize` for every objective.
"""

from .core import (
    DiscreteDistribution,
    MarkovParameter,
    discretized_lognormal,
    discretized_normal,
    from_samples,
    point_mass,
    random_walk_chain,
    sticky_chain,
    two_point,
    uniform_over,
)
from .costmodel import (
    CacheStats,
    CostModel,
    ExpectedCost,
    ExponentialUtility,
    MeanVariance,
    OptimizationContext,
    QuantileCost,
    WorstCase,
    choose_by_utility,
    plan_cost_distribution,
    plan_expected_cost_multiparam,
)
from .db import Database, QueryResult
from .optimizer import (
    OptimizationResult,
    OptimizerConfigError,
    PlanChoice,
    SystemRDP,
    clear_context_cache,
    enumerate_left_deep_plans,
    exhaustive_best,
    last_context,
    lsc_at_mean,
    lsc_at_mode,
    optimize,
    optimize_algorithm_a,
    optimize_algorithm_b,
    optimize_algorithm_c,
    optimize_algorithm_d,
    optimize_lsc,
)
from .optimizer import enumerate_plans
from .plans import (
    BUSHY,
    LEFT_DEEP,
    SPJU,
    ZIG_ZAG,
    JoinMethod,
    JoinPredicate,
    JoinQuery,
    Plan,
    PlanShapeError,
    PlanSpace,
    Project,
    RelationSpec,
    UnionNode,
    UnionQuery,
    left_deep_plan,
)
from .serving import (
    MetricsRegistry,
    OptimizeRequest,
    OptimizerService,
    PlanCache,
    ServingResult,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "optimize",
    "last_context",
    "clear_context_cache",
    "OptimizationContext",
    "CacheStats",
    "OptimizerConfigError",
    "DiscreteDistribution",
    "point_mass",
    "two_point",
    "uniform_over",
    "from_samples",
    "discretized_lognormal",
    "discretized_normal",
    "MarkovParameter",
    "random_walk_chain",
    "sticky_chain",
    "JoinQuery",
    "JoinPredicate",
    "RelationSpec",
    "JoinMethod",
    "Plan",
    "PlanShapeError",
    "PlanSpace",
    "LEFT_DEEP",
    "ZIG_ZAG",
    "BUSHY",
    "SPJU",
    "Project",
    "UnionNode",
    "UnionQuery",
    "left_deep_plan",
    "CostModel",
    "Database",
    "QueryResult",
    "SystemRDP",
    "OptimizationResult",
    "PlanChoice",
    "optimize_lsc",
    "lsc_at_mean",
    "lsc_at_mode",
    "optimize_algorithm_a",
    "optimize_algorithm_b",
    "optimize_algorithm_c",
    "optimize_algorithm_d",
    "plan_expected_cost_multiparam",
    "enumerate_left_deep_plans",
    "enumerate_plans",
    "exhaustive_best",
    "choose_by_utility",
    "plan_cost_distribution",
    "ExpectedCost",
    "MeanVariance",
    "ExponentialUtility",
    "QuantileCost",
    "WorstCase",
    "OptimizerService",
    "OptimizeRequest",
    "ServingResult",
    "PlanCache",
    "MetricsRegistry",
]
