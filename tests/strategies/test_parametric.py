"""Tests for parametric optimization and choice-node plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_c, optimize_lsc
from repro.core.distributions import two_point, uniform_over
from repro.costmodel.model import CostModel
from repro.strategies.choice_nodes import ChoicePlan, build_choice_plan
from repro.strategies.parametric import parametric_optimize, precompute_lec_plans
from repro.workloads.queries import chain_query


class TestParametricOptimize:
    def test_example_regions_split_at_1000(self, example_query):
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        assert pset.n_regions == 2
        assert pset.regions[0].hi == pytest.approx(1000.0)
        assert "GH" in pset.regions[0].plan.signature()
        assert "SM" in pset.regions[1].plan.signature()

    def test_lookup_matches_direct_lsc(self, example_query):
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        cm = CostModel(count_evaluations=False)
        for m in (150.0, 700.0, 999.0, 1001.0, 2000.0, 4999.0):
            direct = optimize_lsc(example_query, m)
            via_lookup = pset.plan_for(m)
            assert cm.plan_cost(via_lookup, example_query, m) == pytest.approx(
                direct.objective
            )

    def test_a_memory_on_a_breakpoint_gets_its_own_plan(self, example_query):
        """At exactly sqrt(1M) = 1000 pages sort-merge still takes 4 passes;
        the region [1000, next) optimized at its midpoint shipped the
        2-pass sort-merge plan, at 1.99x the optimum."""
        want = optimize_lsc(example_query, 1000.0).objective
        cm = CostModel(count_evaluations=False)
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        assert pset.n_regions == 2
        plan = pset.plan_for(1000.0)
        assert cm.plan_cost(plan, example_query, 1000.0) == pytest.approx(want)
        choice = build_choice_plan(example_query, 100.0, 5000.0)
        plan = choice.resolve(1000.0)
        assert cm.plan_cost(plan, example_query, 1000.0) == pytest.approx(want)

    @pytest.mark.parametrize("space", ["left-deep", "zig-zag", "bushy"])
    def test_lookup_is_never_worse_than_lsc_on_any_space(self, space):
        # Cut at left-deep steps only, the bushy set kept one plan over
        # [879, 1540) pages; at 908.318 it cost 14 944 805 pages against
        # LSC's 224 595.
        query = chain_query(6, np.random.default_rng(7))
        pset = parametric_optimize(query, 10.0, 20000.0, plan_space=space)
        cm = CostModel(count_evaluations=False)
        for m in [908.318, *np.geomspace(10.0, 20000.0, 24).tolist()]:
            lsc = optimize_lsc(query, m, plan_space=space).objective
            assert cm.plan_cost(pset.plan_for(m), query, m) <= lsc * (1 + 1e-12)

    def test_lookup_clamps_outside_range(self, example_query):
        pset = parametric_optimize(example_query, 500.0, 2000.0)
        assert pset.plan_for(1.0) == pset.regions[0].plan
        assert pset.plan_for(1e9) == pset.regions[-1].plan

    def test_adjacent_same_plan_regions_merged(self, three_way_query):
        pset = parametric_optimize(three_way_query, 10.0, 100000.0)
        for a, b in zip(pset.regions, pset.regions[1:]):
            assert a.plan != b.plan

    def test_invalid_range(self, example_query):
        with pytest.raises(ValueError):
            parametric_optimize(example_query, 0.0, 100.0)
        with pytest.raises(ValueError):
            parametric_optimize(example_query, 200.0, 100.0)

    def test_distinct_plans_and_stored_nodes(self, example_query):
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        assert len(pset.distinct_plans()) == 2
        # Shared Scan(A)/Scan(B) leaves are counted once.
        total_unshared = sum(
            len(list(p.nodes())) for p in pset.distinct_plans()
        )
        assert pset.stored_nodes() < total_unshared


class TestStartupVsCompileTime:
    def test_startup_lookup_beats_or_ties_lec(self, example_query, bimodal_memory):
        """Knowing the parameter at start-up can only help: the lookup's
        expected cost lower-bounds every compile-time commitment."""
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        lookup = pset.expected_cost_with_lookup(example_query, bimodal_memory)
        lec = optimize_algorithm_c(example_query, bimodal_memory)
        assert lookup <= lec.objective + 1e-9

    def test_lookup_equals_per_point_optimum(self, example_query, bimodal_memory):
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        cm = CostModel(count_evaluations=False)
        want = bimodal_memory.expectation(
            lambda m: optimize_lsc(example_query, m).objective
        )
        assert pset.expected_cost_with_lookup(
            example_query, bimodal_memory, cost_model=cm
        ) == pytest.approx(want)


class TestPrecomputedLEC:
    def test_stores_one_plan_per_distribution(self, example_query):
        dists = [
            two_point(2000.0, 0.8, 700.0),
            two_point(2000.0, 0.2, 700.0),
            uniform_over([3000.0, 5000.0]),
        ]
        triples = precompute_lec_plans(example_query, dists)
        assert len(triples) == 3
        for dist, plan, cost in triples:
            direct = optimize_algorithm_c(example_query, dist)
            assert cost == pytest.approx(direct.objective)

    def test_different_distributions_can_choose_differently(self, example_query):
        mostly_low = two_point(2000.0, 0.1, 700.0)
        mostly_high = uniform_over([3000.0, 5000.0])
        triples = precompute_lec_plans(example_query, [mostly_low, mostly_high])
        assert triples[0][1] != triples[1][1]


class TestChoicePlan:
    def test_build_and_resolve(self, example_query):
        cp = build_choice_plan(example_query, 100.0, 5000.0)
        assert cp.n_alternatives == 2
        assert "GH" in cp.resolve(700.0).signature()
        assert "SM" in cp.resolve(2000.0).signature()

    def test_resolution_boundaries(self, example_query):
        cp = build_choice_plan(example_query, 100.0, 5000.0)
        t = cp.thresholds[0]
        assert cp.resolve(t - 1e-9) == cp.alternatives[0]
        assert cp.resolve(t) == cp.alternatives[1]

    def test_expected_cost_matches_parametric(self, example_query, bimodal_memory):
        cp = build_choice_plan(example_query, 100.0, 5000.0)
        pset = parametric_optimize(example_query, 100.0, 5000.0)
        assert cp.expected_cost(example_query, bimodal_memory) == pytest.approx(
            pset.expected_cost_with_lookup(example_query, bimodal_memory)
        )

    def test_validation(self, example_query):
        from repro.plans.nodes import Plan, Scan

        with pytest.raises(ValueError):
            ChoicePlan(thresholds=[1.0], alternatives=[Plan(Scan("A"))])
        with pytest.raises(ValueError):
            ChoicePlan(
                thresholds=[2.0, 1.0],
                alternatives=[Plan(Scan("A"))] * 3,
            )

    def test_plan_size_grows_with_alternatives_unlike_lec(self, example_query):
        """The paper's plan-size point: LEC ships one plan; choice plans
        grow with the number of parameter regions."""
        cp = build_choice_plan(example_query, 100.0, 5000.0)
        lec_plan = optimize_algorithm_c(
            example_query, two_point(2000.0, 0.8, 700.0)
        ).plan
        lec_nodes = len(list(lec_plan.nodes()))
        assert cp.stored_nodes() > lec_nodes
