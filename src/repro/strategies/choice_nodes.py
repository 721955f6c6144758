"""Choose-plan ("choice node") plans ([GC94]-style, Section 2.3).

The hybrid strategy the paper surveys third: compile time does the search
work, but decisions that depend on the unknown parameter are packaged
into the plan as *choice nodes* resolved at start-up.  Here the artifact
is a :class:`ChoicePlan`: a single shippable object containing one plan
alternative per parameter region plus the predicate (a memory threshold
test) that selects among them, with structurally shared subplans stored
once.

The contrast the paper draws — "when our approach is applied at
compile-time, the size of the query plan created does not increase as
with some of these approaches" — is measurable here:
``ChoicePlan.stored_nodes()`` grows with the number of regions, while the
LEC plan is always exactly one plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.distributions import DiscreteDistribution
from ..costmodel.context import OptimizationContext
from ..costmodel.model import CostModel
from ..optimizer.result import OptimizerStats
from ..plans.nodes import Plan
from ..plans.query import JoinQuery
from .parametric import ParametricPlanSet, parametric_optimize

__all__ = ["ChoicePlan", "build_choice_plan"]


@dataclass
class ChoicePlan:
    """A query plan whose root is a start-up-time choose-plan operator.

    ``thresholds`` are the memory cut points; ``alternatives[i]`` is used
    when the observed memory lies in ``[thresholds[i-1], thresholds[i])``
    (with open ends): a memory on a breakpoint ``e`` is a cell of its own,
    so a threshold is ``e`` or the next float above it.  Subplans shared
    between alternatives are counted once in :meth:`stored_nodes`.
    """

    thresholds: List[float]
    alternatives: List[Plan]
    stats: OptimizerStats = field(default_factory=OptimizerStats)

    def __post_init__(self) -> None:
        if len(self.alternatives) != len(self.thresholds) + 1:
            raise ValueError(
                "need exactly one more alternative than thresholds"
            )
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def resolve(self, memory: float) -> Plan:
        """The start-up-time choice: pick the alternative for ``memory``."""
        idx = 0
        for t in self.thresholds:
            if memory >= t:
                idx += 1
            else:
                break
        return self.alternatives[idx]

    def stored_nodes(self) -> int:
        """Plan-tree nodes stored, counting shared subtrees once."""
        unique = set()
        for plan in self.alternatives:
            for node in plan.nodes():
                unique.add(node.signature())
        return len(unique)

    def expected_cost(
        self,
        query: JoinQuery,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """``E_M[Φ(resolve(M), M)]`` when start-up observes M exactly."""
        cm = cost_model if cost_model is not None else CostModel()
        return memory.expectation(
            lambda m: cm.plan_cost(self.resolve(m), query, m)
        )


def build_choice_plan(
    query: JoinQuery,
    memory_lo: float,
    memory_hi: float,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    context: Optional[OptimizationContext] = None,
) -> ChoicePlan:
    """Compile a choice plan covering ``[memory_lo, memory_hi]``.

    Runs parametric optimization and repackages the merged regions as a
    choose-plan operator.
    """
    pset: ParametricPlanSet = parametric_optimize(
        query,
        memory_lo,
        memory_hi,
        cost_model=cost_model,
        plan_space=plan_space,
        context=context,
    )
    thresholds = [r.lo for r in pset.regions[1:]]
    alternatives = [r.plan for r in pset.regions]
    return ChoicePlan(
        thresholds=thresholds, alternatives=alternatives, stats=pset.stats
    )
