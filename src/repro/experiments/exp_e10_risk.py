"""E10 — beyond expectation: risk profiles and the LEC≡LSC regime (C10).

Two questions from the "what can we expect?" framing:

1. When the cost of every candidate plan is *flat* across the memory
   distribution's support (a single level set), LEC and LSC provably
   coincide — uncertainty is irrelevant.  We exhibit such a regime.
2. When costs do vary, different utility objectives (risk-neutral LEC,
   mean-variance, exponential utility, tail quantile, worst case) can
   legitimately choose *different* plans.  We tabulate the choices and
   their cost profiles on the motivating example's tension.
"""

from __future__ import annotations

from typing import List


from ..core.distributions import DiscreteDistribution
from ..core.risk import (
    ExpectedCost,
    ExponentialUtility,
    MeanVariance,
    QuantileCost,
    WorstCase,
    choose_by_utility,
    cost_is_memory_invariant,
    plan_cost_distribution,
)
from ..costmodel import CostModel, DEFAULT_METHODS
from ..optimizer import enumerate_left_deep_plans, optimize_algorithm_c, optimize_lsc
from ..workloads.scenarios import example_1_1
from .harness import ExperimentTable

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Produce the coincidence table and the risk-profile table."""
    cm = CostModel(count_evaluations=False)

    # Part 1: the coincidence regime.  Memory support entirely above every
    # breakpoint of the motivating example (>= 1001 pages): all plans sit
    # in their cheapest level set, costs are memory-invariant.
    query, _ = example_1_1()
    high_memory = DiscreteDistribution(
        [1500.0, 2500.0, 6000.0, 20000.0], [0.25, 0.35, 0.25, 0.15]
    )
    plans = list(enumerate_left_deep_plans(query, DEFAULT_METHODS))
    all_flat = all(
        cost_is_memory_invariant(p, query, high_memory, cost_model=cm)
        for p in plans
    )
    lec = optimize_algorithm_c(query, high_memory, cost_model=CostModel())
    coincide = ExperimentTable(
        experiment_id="E10a",
        title="LEC ≡ LSC when no breakpoint lies under the distribution",
        columns=["memory_point", "lsc_plan", "same_as_lec", "all_costs_flat"],
    )
    for m in high_memory.support():
        lsc = optimize_lsc(query, m, cost_model=CostModel())
        coincide.add(
            memory_point=m,
            lsc_plan=lsc.plan.signature(),
            same_as_lec=lsc.plan == lec.plan,
            all_costs_flat=all_flat,
        )
    coincide.notes = (
        "With support above every formula breakpoint, every plan's cost "
        "has one level set; LSC at any point picks the LEC plan."
    )

    # Part 2: risk profiles on a genuinely tense distribution.  With
    # memory at 2000 pages 99.5% of the time and 700 pages 0.5%, the
    # sort-merge plan of Example 1.1 has the lower *mean* (the rare bad
    # case barely moves it) but carries a 2x blow-up tail; the hash plan
    # is flat.  Risk-neutral and risk-averse objectives now disagree.
    query2, _ = example_1_1()
    memory2 = DiscreteDistribution([2000.0, 700.0], [0.995, 0.005])
    plans2 = list(enumerate_left_deep_plans(query2, DEFAULT_METHODS))
    objectives = [
        ExpectedCost(),
        MeanVariance(risk_weight=1.0),
        MeanVariance(risk_weight=4.0),
        ExponentialUtility(theta=4.0),
        QuantileCost(q=0.95),
        WorstCase(),
    ]
    profile = ExperimentTable(
        experiment_id="E10b",
        title="Plan choice per utility objective "
        "(Example 1.1 query, 2000@99.5% / 700@0.5%)",
        columns=["objective", "plan", "E_cost", "std", "p95", "worst"],
    )
    for obj in objectives:
        best, _, _ = choose_by_utility(plans2, query2, memory2, obj, cost_model=cm)
        dist = plan_cost_distribution(best, query2, memory2, cost_model=cm)
        profile.add(
            objective=obj.name,
            plan=best.signature()[:60],
            E_cost=dist.mean(),
            std=dist.std(),
            p95=dist.quantile(0.95),
            worst=dist.max(),
        )
    profile.notes = (
        "Risk-neutral LEC tolerates the rare blow-up for a lower mean; "
        "variance- and worst-case-sensitive objectives pay a small mean "
        "premium to eliminate the tail."
    )
    return [coincide, profile]


if __name__ == "__main__":
    for t in run():
        print(t)
        print()
