"""Tests for the risk/utility extension module."""

from __future__ import annotations


import pytest

from repro.core.distributions import DiscreteDistribution, point_mass, two_point
from repro.core.risk import (
    ExpectedCost,
    ExponentialUtility,
    MeanVariance,
    QuantileCost,
    WorstCase,
    choose_by_utility,
    cost_is_memory_invariant,
    plan_cost_distribution,
)
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import enumerate_left_deep_plans
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod


@pytest.fixture
def sm_plan():
    return Plan(Join(Scan("B"), Scan("A"), JoinMethod.SORT_MERGE, "A=B"))


class TestCostDistribution:
    def test_example_plan_distribution(self, sm_plan, example_query, bimodal_memory):
        d = plan_cost_distribution(sm_plan, example_query, bimodal_memory)
        assert d.prob_of(2_800_000.0) == pytest.approx(0.8)
        assert d.prob_of(5_600_000.0) == pytest.approx(0.2)

    def test_mean_equals_expected_cost(self, sm_plan, example_query, bimodal_memory):
        cm = CostModel(count_evaluations=False)
        d = plan_cost_distribution(sm_plan, example_query, bimodal_memory, cm)
        assert d.mean() == pytest.approx(
            cm.plan_expected_cost(sm_plan, example_query, bimodal_memory)
        )


class TestObjectives:
    def test_expected_cost_is_mean(self):
        d = two_point(10.0, 0.5, 20.0)
        assert ExpectedCost().score(d) == pytest.approx(15.0)

    def test_mean_variance_adds_std_penalty(self):
        d = two_point(10.0, 0.5, 20.0)
        assert MeanVariance(2.0).score(d) == pytest.approx(15.0 + 2.0 * 5.0)

    def test_mean_variance_zero_is_expected_cost(self):
        d = two_point(10.0, 0.3, 50.0)
        assert MeanVariance(0.0).score(d) == pytest.approx(ExpectedCost().score(d))

    def test_mean_variance_rejects_negative(self):
        with pytest.raises(ValueError):
            MeanVariance(-1.0)

    def test_exponential_utility_exceeds_mean(self):
        d = two_point(10.0, 0.5, 20.0)
        ce = ExponentialUtility(2.0).score(d)
        assert ce > d.mean()
        assert ce < d.max()

    def test_exponential_utility_on_point_mass_is_value(self):
        assert ExponentialUtility(3.0).score(point_mass(7.0)) == pytest.approx(7.0)

    def test_exponential_small_theta_approaches_mean(self):
        d = two_point(10.0, 0.5, 20.0)
        assert ExponentialUtility(1e-6).score(d) == pytest.approx(15.0, rel=1e-3)

    def test_exponential_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            ExponentialUtility(0.0)

    def test_quantile_objective(self):
        d = DiscreteDistribution([1.0, 2.0, 100.0], [0.5, 0.45, 0.05])
        assert QuantileCost(0.9).score(d) == 2.0
        assert QuantileCost(0.99).score(d) == 100.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            QuantileCost(0.0)

    def test_worst_case(self):
        d = two_point(1.0, 0.99, 9.0)
        assert WorstCase().score(d) == 9.0

    def test_names_informative(self):
        assert "λ=2" in MeanVariance(2.0).name
        assert "θ=3" in ExponentialUtility(3.0).name
        assert "q=0.9" in QuantileCost(0.9).name


class TestChooseByUtility:
    def test_risk_neutral_matches_lec(self, example_query, bimodal_memory):
        from repro.optimizer import optimize_algorithm_c

        plans = list(enumerate_left_deep_plans(example_query, DEFAULT_METHODS))
        best, score, _ = choose_by_utility(
            plans, example_query, bimodal_memory, ExpectedCost()
        )
        lec = optimize_algorithm_c(example_query, bimodal_memory)
        assert score == pytest.approx(lec.objective)
        # GH cost is symmetric in its inputs, so (A GH B) and (B GH A)
        # tie; compare cost distributions rather than plan identity.
        cm = CostModel(count_evaluations=False)
        assert plan_cost_distribution(
            best, example_query, bimodal_memory, cm
        ) == plan_cost_distribution(lec.plan, example_query, bimodal_memory, cm)

    def test_risk_aversion_flips_choice(self, example_query):
        # 2000@99.5%: SM has lower mean but a tail; risk-averse flips.
        memory = two_point(2000.0, 0.995, 700.0)
        plans = list(enumerate_left_deep_plans(example_query, DEFAULT_METHODS))
        neutral, _, _ = choose_by_utility(
            plans, example_query, memory, ExpectedCost()
        )
        averse, _, _ = choose_by_utility(
            plans, example_query, memory, MeanVariance(2.0)
        )
        assert "SM" in neutral.signature()
        assert "GH" in averse.signature()

    def test_scored_list_sorted(self, example_query, bimodal_memory):
        plans = list(enumerate_left_deep_plans(example_query, DEFAULT_METHODS))
        _, _, scored = choose_by_utility(
            plans, example_query, bimodal_memory, QuantileCost(0.95)
        )
        values = [s for _, s in scored]
        assert values == sorted(values)

    def test_empty_candidates_rejected(self, example_query, bimodal_memory):
        with pytest.raises(ValueError):
            choose_by_utility([], example_query, bimodal_memory, ExpectedCost())


class TestInvariance:
    def test_flat_region_detected(self, sm_plan, example_query):
        high = two_point(3000.0, 0.5, 9000.0)  # both above sqrt(1e6)
        assert cost_is_memory_invariant(sm_plan, example_query, high)

    def test_breakpoint_region_not_flat(self, sm_plan, example_query, bimodal_memory):
        assert not cost_is_memory_invariant(sm_plan, example_query, bimodal_memory)

    def test_point_mass_always_flat(self, sm_plan, example_query):
        assert cost_is_memory_invariant(sm_plan, example_query, point_mass(50.0))
