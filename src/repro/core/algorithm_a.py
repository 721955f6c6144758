"""Algorithm A: the standard optimizer as a black box (Section 3.2).

For each memory bucket ``m_i`` run an unmodified LSC optimizer assuming
``m_i`` is the real memory; this yields (up to) ``b`` candidate plans.
Then score every candidate by its true expected cost under the memory
distribution and keep the cheapest.

Guarantees: the result is never worse (in expectation) than the classical
LSC plan *provided the classical point (mean/mode) is among the buckets* —
callers can ensure this with ``include_mean=True`` (the default, matching
the paper's "without loss of generality" remark).  It may still miss the
true LEC plan: a plan optimal for no single bucket can win on average.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel.model import CostModel
from ..optimizer.result import OptimizationResult
from ..plans.query import JoinQuery
from .algorithm_b import optimize_algorithm_b
from .context import OptimizationContext
from .distributions import DiscreteDistribution

__all__ = ["optimize_algorithm_a"]


def optimize_algorithm_a(
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    include_mean: bool = True,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Run Algorithm A and return the candidate of least expected cost.

    Algorithm A is Algorithm B keeping ``c = 1`` plan per bucket
    (Section 3.3), so this delegates: ``candidates`` holds every
    distinct per-bucket winner with its expected cost (best first) and
    ``stats`` accumulates the counters of all ``b`` black-box
    invocations plus the final costing pass.
    """
    return optimize_algorithm_b(
        query,
        memory,
        c=1,
        cost_model=cost_model,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        include_mean=include_mean,
        context=context,
    )
