"""Parametric query optimization ([INSS92]-style, Section 2.3).

The second start-up-time strategy the paper surveys: at compile time,
"find the best execution plan for every possible run-time value of the
parameter", then at start-up do "a simple table lookup to find the best
plan for the current parameter value".

Because the join cost formulas are step functions of memory, the
parameter axis partitions into finitely many *regions* within which the
optimal plan is constant; the region boundaries are the cost-formula
breakpoints of every split the DP joins (:func:`repro.optimizer.
memory_breakpoints`).  :func:`parametric_optimize` optimizes one representative
per region and merges adjacent regions that elect the same plan, yielding
a compact :class:`ParametricPlanSet`.

The module also implements the paper's proposed hybrid — "precompute the
best expected plan under a number of possible distributions … and store
these expected plans, for use at query execution time" — as
:func:`precompute_lec_plans`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bucketing import level_set_cuts
from ..core.distributions import DiscreteDistribution
from ..costmodel.context import OptimizationContext
from ..costmodel.model import CostModel
from ..optimizer import memory_breakpoints, optimize_algorithm_c, optimize_lsc
from ..optimizer.result import OptimizerStats
from ..plans.nodes import Plan
from ..plans.query import JoinQuery

__all__ = ["ParametricPlanSet", "parametric_optimize", "precompute_lec_plans"]


@dataclass(frozen=True)
class _Region:
    lo: float
    hi: float  # exclusive; math.inf for the last region
    plan: Plan
    cost_at_rep: float


@dataclass
class ParametricPlanSet:
    """Compile-time product of parametric optimization.

    ``regions`` are half-open memory intervals ``[lo, hi)`` in ascending
    order, each with the plan that is optimal throughout the interval.  A
    memory on a breakpoint ``e`` is a cell ``[e, nextafter(e))`` of its own.
    """

    regions: List[_Region]
    stats: OptimizerStats = field(default_factory=OptimizerStats)

    def plan_for(self, memory: float) -> Plan:
        """Start-up-time lookup: the optimal plan at this memory value."""
        if not self.regions:
            raise ValueError("empty parametric plan set")
        if memory < self.regions[0].lo:
            return self.regions[0].plan
        for region in self.regions:
            if region.lo <= memory < region.hi:
                return region.plan
        return self.regions[-1].plan

    @property
    def n_regions(self) -> int:
        """Number of stored (merged) regions."""
        return len(self.regions)

    def distinct_plans(self) -> List[Plan]:
        """The distinct plans stored, in region order."""
        seen: Dict[str, Plan] = {}
        for region in self.regions:
            seen.setdefault(region.plan.signature(), region.plan)
        return list(seen.values())

    def stored_nodes(self) -> int:
        """Total plan-tree nodes stored *with* cross-plan sharing.

        Structurally identical subtrees are stored once (the [GC94]
        choice-node representation shares common subplans); this is the
        plan-size metric E13 compares against LEC's single plan.
        """
        unique_signatures = set()
        for plan in self.distinct_plans():
            for node in plan.nodes():
                unique_signatures.add(node.signature())
        return len(unique_signatures)

    def expected_cost_with_lookup(
        self,
        query: JoinQuery,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """``E_M[Φ(plan_for(M), M)]`` — cost when start-up knows M exactly.

        This is the best any start-up-time strategy can do, and a lower
        bound for every compile-time strategy.
        """
        cm = cost_model if cost_model is not None else CostModel()
        return memory.expectation(
            lambda m: cm.plan_cost(self.plan_for(m), query, m)
        )


def parametric_optimize(
    query: JoinQuery,
    memory_lo: float,
    memory_hi: float,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    context: Optional[OptimizationContext] = None,
) -> ParametricPlanSet:
    """Optimize for every memory value in ``[memory_lo, memory_hi]``.

    The interval is cut where the DP of ``plan_space`` can change plans, at
    :func:`~repro.core.bucketing.level_set_cuts` of its
    :func:`~repro.optimizer.memory_breakpoints`.  One LSC invocation at each
    cell's midpoint holds for the whole cell, and at ``e`` for the one-float
    cell of a breakpoint ``e``; adjacent cells electing the same plan are
    merged.  The (shared) ``context`` makes the per-cell invocations reuse
    subset sizes rather than recomputing them once per region.

    Exact only for step-function method sets: hybrid hash is smooth in its
    middle region and BNL's list stops at 64 thresholds.
    """
    if not 0 < memory_lo <= memory_hi:
        raise ValueError("need 0 < memory_lo <= memory_hi")
    cm = cost_model if cost_model is not None else CostModel()
    if context is None:
        context = OptimizationContext(query)
    points = memory_breakpoints(query, cm, plan_space, allow_cross_products)
    cuts = [b for b in level_set_cuts(points) if memory_lo < b <= memory_hi]
    edges = [memory_lo, *cuts, memory_hi]

    stats = OptimizerStats(invocations=0)
    raw: List[_Region] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rep = (lo + hi) / 2.0 if math.nextafter(lo, math.inf) < hi else lo
        result = optimize_lsc(
            query,
            rep,
            cost_model=cm,
            plan_space=plan_space,
            allow_cross_products=allow_cross_products,
            context=context,
        )
        stats = stats.merged_with(result.stats)
        raw.append(
            _Region(lo=lo, hi=hi, plan=result.plan, cost_at_rep=result.objective)
        )
    # Open the last region to +inf (costs only improve with more memory,
    # and above the largest breakpoint the winner cannot change).
    if raw:
        last = raw[-1]
        raw[-1] = _Region(last.lo, math.inf, last.plan, last.cost_at_rep)

    merged: List[_Region] = []
    for region in raw:
        if merged and merged[-1].plan == region.plan:
            prev = merged[-1]
            merged[-1] = _Region(prev.lo, region.hi, prev.plan, prev.cost_at_rep)
        else:
            merged.append(region)
    return ParametricPlanSet(regions=merged, stats=stats)


def precompute_lec_plans(
    query: JoinQuery,
    candidate_distributions: Sequence[DiscreteDistribution],
    cost_model: Optional[CostModel] = None,
    context: Optional[OptimizationContext] = None,
) -> List[Tuple[DiscreteDistribution, Plan, float]]:
    """The paper's LEC-parametric hybrid.

    Compile-time: compute the LEC plan under each candidate distribution
    ("ones that give good coverage of what we expect to encounter at
    run-time").  Start-up time: pick the stored plan whose distribution
    matches the observed conditions.  Returns ``(distribution, plan,
    expected_cost)`` triples.
    """
    cm = cost_model if cost_model is not None else CostModel()
    if context is None:
        context = OptimizationContext(query)
    out: List[Tuple[DiscreteDistribution, Plan, float]] = []
    for dist in candidate_distributions:
        res = optimize_algorithm_c(query, dist, cost_model=cm, context=context)
        out.append((dist, res.plan, res.objective))
    return out
