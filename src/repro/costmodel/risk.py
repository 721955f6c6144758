"""Beyond expectation: risk-sensitive objectives ("what can we expect?").

Choosing the least *expected* cost plan is the risk-neutral corner of
decision theory.  The natural follow-up questions — when does LEC even
differ from LSC, and what if the user cares about variance or tail
latency, not just the mean? — are the subject of the 2002 successor
paper.  This module provides:

* :func:`plan_cost_distribution` — the full distribution of Φ(plan, M),
  not just its mean;
* a family of utility objectives over that distribution
  (:class:`ExpectedCost`, :class:`MeanVariance`, :class:`ExponentialUtility`,
  :class:`QuantileCost`, :class:`WorstCase`);
* :func:`choose_by_utility` — candidate-set optimization for any of them
  (non-linear utilities break the DP's optimal substructure, so the
  correct generic method is scoring an explicitly enumerated plan set);
* :func:`cost_is_memory_invariant` — detects the regime where the plan's
  cost has a single level set over the distribution's support, in which
  case LEC and every LSC choice provably coincide.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, List, Optional, Tuple

from ..core.distributions import DiscreteDistribution
from ..plans.nodes import Plan
from ..plans.query import JoinQuery
from .model import CostModel

__all__ = [
    "plan_cost_distribution",
    "UtilityObjective",
    "ExpectedCost",
    "MeanVariance",
    "ExponentialUtility",
    "QuantileCost",
    "WorstCase",
    "choose_by_utility",
    "cost_is_memory_invariant",
]


def plan_cost_distribution(
    plan: Plan,
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
) -> DiscreteDistribution:
    """Distribution of Φ(plan, M) induced by the memory distribution."""
    cm = cost_model if cost_model is not None else CostModel()
    return memory.map(lambda m: cm.plan_cost(plan, query, m))


class UtilityObjective(abc.ABC):
    """A scalar objective over a cost distribution (lower is better)."""

    @abc.abstractmethod
    def score(self, costs: DiscreteDistribution) -> float:
        """Map a cost distribution to a scalar to minimise."""

    @property
    def name(self) -> str:
        """Human-readable objective name."""
        return type(self).__name__


class ExpectedCost(UtilityObjective):
    """Risk-neutral: minimise ``E[C]`` — the LEC objective."""

    def score(self, costs: DiscreteDistribution) -> float:
        return costs.mean()


class MeanVariance(UtilityObjective):
    """Markowitz-style: minimise ``E[C] + λ·Std[C]``.

    ``risk_weight`` λ in cost units per standard deviation; λ=0 recovers
    LEC.
    """

    def __init__(self, risk_weight: float):
        if risk_weight < 0:
            raise ValueError("risk_weight must be non-negative")
        self.risk_weight = risk_weight

    def score(self, costs: DiscreteDistribution) -> float:
        return costs.mean() + self.risk_weight * costs.std()

    @property
    def name(self) -> str:
        return f"MeanVariance(λ={self.risk_weight:g})"


class ExponentialUtility(UtilityObjective):
    """Constant absolute risk aversion: the certainty equivalent
    ``(1/θ)·ln E[exp(θ·C)]``.

    ``theta > 0`` is risk-averse (penalises spread), and the certainty
    equivalent converges to ``E[C]`` as ``theta → 0``.  Costs are
    internally rescaled by their mean so the exponentials stay in range
    for page-count-sized magnitudes.
    """

    def __init__(self, theta: float):
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = theta

    def score(self, costs: DiscreteDistribution) -> float:
        scale = max(costs.mean(), 1.0)
        t = self.theta
        # log E[exp(t·C/scale)] computed stably via log-sum-exp.
        exps = [t * v / scale for v, _ in costs.items()]
        m = max(exps)
        acc = sum(p * math.exp(e - m) for (_, p), e in zip(costs.items(), exps))
        return scale * (m + math.log(acc)) / t

    @property
    def name(self) -> str:
        return f"ExponentialUtility(θ={self.theta:g})"


class QuantileCost(UtilityObjective):
    """Tail objective: minimise the ``q``-quantile of cost (e.g. p95)."""

    def __init__(self, q: float):
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        self.q = q

    def score(self, costs: DiscreteDistribution) -> float:
        return costs.quantile(self.q)

    @property
    def name(self) -> str:
        return f"QuantileCost(q={self.q:g})"


class WorstCase(UtilityObjective):
    """Robust objective: minimise the maximum cost over the support."""

    def score(self, costs: DiscreteDistribution) -> float:
        return costs.max()


def choose_by_utility(
    plans: Iterable[Plan],
    query: JoinQuery,
    memory: DiscreteDistribution,
    objective: UtilityObjective,
    cost_model: Optional[CostModel] = None,
) -> Tuple[Plan, float, List[Tuple[Plan, float]]]:
    """Score each candidate plan under ``objective`` and pick the minimum.

    Returns ``(best_plan, best_score, all_scored)`` with ``all_scored``
    ascending.  Candidate sets typically come from
    :func:`~repro.optimizer.exhaustive.enumerate_left_deep_plans` (small
    queries) or the Algorithm A/B generators (larger ones).
    """
    cm = cost_model if cost_model is not None else CostModel()
    scored: List[Tuple[Plan, float]] = []
    for plan in plans:
        dist = plan_cost_distribution(plan, query, memory, cost_model=cm)
        scored.append((plan, objective.score(dist)))
    if not scored:
        raise ValueError("no candidate plans supplied")
    scored.sort(key=lambda pair: pair[1])
    best_plan, best_score = scored[0]
    return best_plan, best_score, scored


def cost_is_memory_invariant(
    plan: Plan,
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    rel_tol: float = 1e-9,
) -> bool:
    """True when Φ(plan, m) is constant across the distribution's support.

    In that regime the plan has a single level set over the relevant
    parameter range, so its expected cost equals its cost at *any* point
    — and if this holds for all candidate plans, the LEC plan and every
    LSC plan coincide (the "one bucket suffices" degenerate case).
    """
    cm = cost_model if cost_model is not None else CostModel()
    values = [cm.plan_cost(plan, query, m) for m in memory.support()]
    lo, hi = min(values), max(values)
    if lo == hi:
        return True
    return (hi - lo) <= rel_tol * max(abs(hi), 1.0)
