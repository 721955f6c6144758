"""Tests for randomized join-order search under LEC objectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_c
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.randomized import (
    iterative_improvement,
    simulated_annealing,
)
from repro.plans.query import JoinQuery, RelationSpec
from repro.workloads.queries import chain_query, star_query


@pytest.fixture
def memory() -> DiscreteDistribution:
    return DiscreteDistribution([200.0, 900.0, 3000.0], [0.3, 0.4, 0.3])


def _objective(query, memory):
    cm = CostModel(count_evaluations=False)
    return lambda p: cm.plan_expected_cost(p, query, memory)


class TestIterativeImprovement:
    def test_finds_dp_optimum_on_small_queries(self, memory):
        """With generous restarts, II should match the exact DP on n=4."""
        hits = 0
        for seed in range(5):
            q = chain_query(4, np.random.default_rng(seed))
            rng = np.random.default_rng(1000 + seed)
            dp = optimize_algorithm_c(q, memory)
            ii = iterative_improvement(
                q, _objective(q, memory), rng, n_restarts=10
            )
            assert ii.objective >= dp.objective - 1e-9  # DP is the floor
            if ii.objective <= dp.objective * (1 + 1e-9):
                hits += 1
        assert hits >= 4  # nearly always exact at this size

    def test_respects_required_order(self, memory):
        q = chain_query(4, np.random.default_rng(3), require_order=True)
        rng = np.random.default_rng(5)
        res = iterative_improvement(q, _objective(q, memory), rng, n_restarts=4)
        assert res.plan.order == q.required_order

    def test_plans_are_connected_left_deep(self, memory):
        q = star_query(5, np.random.default_rng(9))
        rng = np.random.default_rng(11)
        res = iterative_improvement(q, _objective(q, memory), rng, n_restarts=3)
        assert res.plan.is_left_deep()
        # Star: the hub R0 must come within the first two relations.
        order = res.plan.join_order()
        assert "R0" in order[:2]

    def test_scales_past_the_dp_cap(self, memory):
        """n=12 is far beyond exhaustive enumeration; II must still
        return a valid plan with a finite objective."""
        q = chain_query(12, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        res = iterative_improvement(
            q, _objective(q, memory), rng, n_restarts=2, max_steps=60
        )
        assert res.plan.relations() == frozenset(q.relation_names())
        assert np.isfinite(res.objective)
        assert res.evaluations > 0

    def test_disconnected_query_rejected(self, memory):
        q = JoinQuery(
            [RelationSpec("A", pages=10.0), RelationSpec("B", pages=10.0)]
        )
        with pytest.raises(ValueError):
            iterative_improvement(
                q, lambda p: 0.0, np.random.default_rng(0)
            )

    def test_deterministic_given_seed(self, memory):
        q = chain_query(5, np.random.default_rng(7))
        obj = _objective(q, memory)
        a = iterative_improvement(q, obj, np.random.default_rng(42), n_restarts=3)
        b = iterative_improvement(q, obj, np.random.default_rng(42), n_restarts=3)
        assert a.plan == b.plan
        assert a.objective == b.objective
        # ``restarts`` reports the starts performed; there is always one.
        zero = iterative_improvement(q, obj, np.random.default_rng(42), n_restarts=0)
        assert (a.restarts, zero.restarts) == (3, 1) and zero.evaluations > 0


class TestSimulatedAnnealing:
    def test_matches_dp_on_small_queries(self, memory):
        hits = 0
        for seed in range(5):
            q = chain_query(4, np.random.default_rng(50 + seed))
            rng = np.random.default_rng(2000 + seed)
            dp = optimize_algorithm_c(q, memory)
            sa = simulated_annealing(q, _objective(q, memory), rng)
            assert sa.objective >= dp.objective - 1e-9
            if sa.objective <= dp.objective * 1.01:
                hits += 1
        assert hits >= 4

    def test_tracks_best_ever_seen(self, memory):
        """The returned plan's objective must equal re-evaluating it."""
        q = chain_query(5, np.random.default_rng(70))
        obj = _objective(q, memory)
        sa = simulated_annealing(q, obj, np.random.default_rng(71))
        assert obj(sa.plan) == pytest.approx(sa.objective)

    def test_cooling_validated(self, memory):
        q = chain_query(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulated_annealing(
                q, lambda p: 0.0, np.random.default_rng(0), cooling=1.5
            )

    def test_works_with_risk_objective(self, memory):
        """The whole point: any scalar objective plugs in, including ones
        the DP cannot optimise (non-additive utilities)."""
        from repro.costmodel.risk import MeanVariance, plan_cost_distribution

        q = chain_query(4, np.random.default_rng(80))
        cm = CostModel(count_evaluations=False)
        mv = MeanVariance(risk_weight=2.0)

        def objective(plan):
            return mv.score(plan_cost_distribution(plan, q, memory, cm))

        res = simulated_annealing(q, objective, np.random.default_rng(81))
        # Cross-check against exhaustive for the true optimum.
        from repro.optimizer.exhaustive import exhaustive_best

        truth, _ = exhaustive_best(q, objective, DEFAULT_METHODS)
        assert res.objective >= truth.objective - 1e-9
        assert res.objective <= truth.objective * 1.2  # close, usually exact
