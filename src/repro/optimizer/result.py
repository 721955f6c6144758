"""Result types shared by all optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..plans.nodes import Plan

__all__ = ["PlanChoice", "OptimizerStats", "OptimizationResult"]


@dataclass(frozen=True)
class PlanChoice:
    """A plan together with its value under the optimizer's objective."""

    plan: Plan
    objective: float

    def __repr__(self) -> str:
        return f"PlanChoice({self.plan.signature()}, objective={self.objective:g})"


@dataclass
class OptimizerStats:
    """Instrumentation counters for an optimizer invocation.

    ``formula_evaluations`` is the paper's unit of optimization effort
    (each evaluation of a join/sort cost formula); the E4/E7 experiments
    compare it across algorithms and bucket counts.  ``merge_probes``
    counts Proposition 3.1 probes, one walk per split per pair of input
    views (``SystemRDP._views``); ``entries_offered`` the totals held
    against a bucket: a walk's sums per join method, and access paths.
    ``partitions_pruned`` always reads 0: the DP costs every split.  The
    field stays because the frozen ``bench/ledger.py`` reads it (ROADMAP
    item 1).
    """

    subsets_explored: int = 0
    entries_offered: int = 0
    merge_probes: int = 0
    formula_evaluations: int = 0
    partitions_pruned: int = 0
    invocations: int = 1

    def merged_with(self, other: "OptimizerStats") -> "OptimizerStats":
        """Combine counters from two invocations (Algorithm A/B loops)."""
        return OptimizerStats(
            subsets_explored=self.subsets_explored + other.subsets_explored,
            entries_offered=self.entries_offered + other.entries_offered,
            merge_probes=self.merge_probes + other.merge_probes,
            formula_evaluations=self.formula_evaluations
            + other.formula_evaluations,
            partitions_pruned=self.partitions_pruned + other.partitions_pruned,
            invocations=self.invocations + other.invocations,
        )


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run.

    ``best`` is the chosen plan; ``candidates`` holds every plan the
    algorithm scored at the final selection step (Algorithms A and B
    expose their whole candidate set here), best first.
    """

    best: PlanChoice
    candidates: List[PlanChoice] = field(default_factory=list)
    stats: OptimizerStats = field(default_factory=OptimizerStats)

    @property
    def plan(self) -> Plan:
        """Shortcut to the chosen plan."""
        return self.best.plan

    @property
    def objective(self) -> float:
        """Shortcut to the chosen plan's objective value."""
        return self.best.objective
