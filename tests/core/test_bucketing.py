"""Tests for the Section 3.7 bucketing strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.optimizer import memory_breakpoints, optimize_algorithm_c
from repro.core.bucketing import (
    equal_depth_buckets,
    equal_width_buckets,
    level_set_buckets,
    refine_adaptive,
)
from repro.core.distributions import (
    DiscreteDistribution,
    discretized_lognormal,
    uniform_over,
)
from repro.core.floats import COST_REL_TOL, costs_close
from repro.costmodel import formulas
from repro.costmodel.model import CostModel
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinQuery


@pytest.fixture
def fine_dist() -> DiscreteDistribution:
    return discretized_lognormal(
        1100.0, 1.0, n_buckets=64, rng=np.random.default_rng(0)
    )


class TestNaiveStrategies:
    def test_equal_width_respects_budget(self, fine_dist):
        for b in (1, 2, 5, 10):
            out = equal_width_buckets(fine_dist, b)
            assert out.n_buckets <= b
            assert out.mean() == pytest.approx(fine_dist.mean(), rel=COST_REL_TOL)

    def test_equal_depth_balances_mass(self, fine_dist):
        out = equal_depth_buckets(fine_dist, 4)
        assert out.n_buckets <= 4
        assert max(out.probs) <= 0.5  # roughly balanced


class TestBreakpointCollection:
    def test_example_1_1_breakpoints(self, example_query):
        bps = memory_breakpoints(example_query)
        assert any(math.isclose(b, math.sqrt(400_000)) for b in bps)
        assert any(math.isclose(b, math.sqrt(1_000_000)) for b in bps)

    def test_three_way_collects_intermediate_sizes(self, three_way_query):
        bps = memory_breakpoints(three_way_query)
        # The R ⋈ S intermediate is 800 pages; sqrt(800) must show up for
        # joins taking it as input.
        assert any(math.isclose(b, math.sqrt(800.0)) for b in bps)

    def test_sorted_and_positive(self, three_way_query):
        bps = memory_breakpoints(three_way_query)
        assert bps == sorted(bps)
        assert all(b > 0 for b in bps)

    def test_required_order_adds_sort_breakpoints(self, example_query):
        with_sort = memory_breakpoints(example_query)
        without = memory_breakpoints(
            JoinQuery(example_query.relations, example_query.predicates)
        )
        assert set(without) <= set(with_sort)
        assert len(with_sort) > len(without)


class TestLevelSetBuckets:
    def test_zero_regret_with_breakpoint_buckets(self, example_query, bimodal_memory):
        """Level-set buckets lose nothing: the optimizer's choice under
        the coarsened distribution matches the choice under the truth."""
        # A fine-grained 'true' distribution straddling 633 and 1000.
        fine = uniform_over([400, 500, 700, 800, 1200, 1500, 2500, 4000])
        bps = memory_breakpoints(example_query)
        coarse = level_set_buckets(fine, bps)
        eval_cm = CostModel(count_evaluations=False)
        truth = optimize_algorithm_c(example_query, fine)
        approx = optimize_algorithm_c(example_query, coarse)
        e_truth = eval_cm.plan_expected_cost(truth.plan, example_query, fine)
        e_approx = eval_cm.plan_expected_cost(approx.plan, example_query, fine)
        assert e_approx == pytest.approx(e_truth)

    def test_a_memory_on_a_breakpoint_keeps_its_own_bucket(self, example_query):
        """Sort-merge is 2 passes only *above* sqrt(1M) = 1000 pages: 1000
        and 1200 merged into one bucket at 1100 elected sort-merge, with
        49% regret."""
        fine = uniform_over([1000.0, 1200.0])
        coarse = level_set_buckets(fine, memory_breakpoints(example_query))
        assert coarse == fine
        eval_cm = CostModel(count_evaluations=False)
        truth = optimize_algorithm_c(example_query, fine)
        approx = optimize_algorithm_c(example_query, coarse)
        assert eval_cm.plan_expected_cost(
            approx.plan, example_query, fine
        ) == pytest.approx(truth.objective)

    def test_max_buckets_cap(self, fine_dist):
        out = level_set_buckets(fine_dist, list(range(100, 5000, 100)), max_buckets=5)
        assert out.n_buckets <= 5

    def test_mean_preserved(self, fine_dist):
        out = level_set_buckets(fine_dist, [500.0, 1000.0, 2000.0])
        assert out.mean() == pytest.approx(fine_dist.mean(), rel=COST_REL_TOL)


class TestAdaptive:
    def test_respects_budget_and_mean(self, fine_dist):
        def fn(m):
            return 1.0 if m > 1000 else 3.0
        out = refine_adaptive(fine_dist, [fn], 4)
        assert out.n_buckets <= 4
        assert out.mean() == pytest.approx(fine_dist.mean(), rel=COST_REL_TOL)

    def test_stops_splitting_flat_regions(self, fine_dist):
        # A constant cost function gives zero spread everywhere: a single
        # bucket suffices and no splits should happen.
        out = refine_adaptive(fine_dist, [lambda m: 42.0], 8)
        assert out.n_buckets == 1

    def test_splits_concentrate_on_discontinuity(self, fine_dist):
        def step(m):
            return 100.0 if m < fine_dist.quantile(0.5) else 0.0
        out = refine_adaptive(fine_dist, [step], 4)
        # The step must be isolated: expectation of the step function
        # under the coarse distribution should be close to the truth.
        got = out.expectation(step)
        want = fine_dist.expectation(step)
        assert got == pytest.approx(want, rel=0.25)

    def test_validates_args(self, fine_dist):
        with pytest.raises(ValueError):
            refine_adaptive(fine_dist, [], 2)
        with pytest.raises(ValueError):
            refine_adaptive(fine_dist, [lambda m: m], 0)

    def test_converges_exactly_on_step_cost(self, fine_dist):
        """Adaptive refinement hunts the discontinuity down: with a
        moderate budget it isolates the step exactly, where equal-width
        still oscillates with the bucket count."""
        cut = fine_dist.quantile(0.8)
        def step(m):
            return 1000.0 if m < cut else 0.0
        want = fine_dist.expectation(step)
        adaptive_err = abs(
            refine_adaptive(fine_dist, [step], 7).expectation(step) - want
        )
        assert adaptive_err == pytest.approx(0.0, abs=1e-9)
        width_err = abs(
            equal_width_buckets(fine_dist, 7).expectation(step) - want
        )
        assert adaptive_err < width_err


class TestLevelSetExpectation:
    def test_exact_for_piecewise_constant(self, fine_dist):
        from repro.core.bucketing import level_set_expectation

        def step(m):
            if m < 600:
                return 6.0
            if m < 1500:
                return 4.0
            return 2.0

        got = level_set_expectation(step, fine_dist, [600.0, 1500.0])
        want = fine_dist.expectation(step)
        assert got == pytest.approx(want)

    def test_exact_for_join_formula(self, example_query, fine_dist):
        from repro.core.bucketing import level_set_expectation
        from repro.costmodel import formulas

        def fn(m):
            return formulas.sort_merge_cost(1_000_000, 400_000, m)
        bps = formulas.sort_merge_breakpoints(1_000_000, 400_000)
        got = level_set_expectation(fn, fine_dist, bps)
        want = fine_dist.expectation(fn)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize(
        "outer, inner",
        [(1_000_000.0, 400_000.0), (400_000.0, 3000.0), (800.0, 50.0), (9.0, 16.0)],
    )
    def test_exact_on_and_beside_every_breakpoint(self, outer, inner):
        """NL and GH switch on ``M >= e``, sort-merge on ``M > e``: a
        support point on an edge is a level set of its own.  With one cell
        ``[e, next edge)``, SM(1M, 400k) read 7.47M where the truth is 6.07M."""
        from repro.core.bucketing import level_set_expectation

        methods = (JoinMethod.NESTED_LOOP, JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH)
        for method in methods:
            bps = formulas.join_breakpoints(method, outer, inner)
            dist = uniform_over(
                [p for e in bps
                 for p in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
            )

            def fn(m):
                return formulas.join_cost(method, outer, inner, m)
            got = level_set_expectation(fn, dist, bps)
            assert costs_close(got, dist.expectation(fn)), (method, got)

    def test_evaluation_count_is_level_sets_not_buckets(self, fine_dist):
        from repro.core.bucketing import level_set_expectation

        calls = []

        def counting(m):
            calls.append(m)
            return 1.0 if m < 1000 else 2.0

        level_set_expectation(counting, fine_dist, [1000.0])
        # At most one evaluation per occupied cell (2), far below the
        # 64-point support.
        assert len(calls) <= 2

    def test_no_breakpoints_single_evaluation(self, fine_dist):
        from repro.core.bucketing import level_set_expectation

        calls = []

        def constant(m):
            calls.append(m)
            return 42.0

        assert level_set_expectation(constant, fine_dist, []) == pytest.approx(42.0)
        assert len(calls) == 1
