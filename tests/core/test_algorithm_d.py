"""Tests for Algorithm D (multi-parameter LEC) and its plan evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import plan_expected_cost_multiparam
from repro.optimizer import optimize_algorithm_c, optimize_algorithm_d
from repro.core.distributions import DiscreteDistribution, point_mass
from repro.core.floats import COST_REL_TOL
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import exhaustive_best
from repro.workloads.queries import (
    chain_query,
    star_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)


@pytest.fixture
def memory3() -> DiscreteDistribution:
    return DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


class TestReduction:
    def test_no_uncertainty_reduces_to_algorithm_c(self, memory3):
        rng = np.random.default_rng(0)
        for _ in range(4):
            q = chain_query(4, rng, require_order=True)
            c = optimize_algorithm_c(q, memory3)
            d = optimize_algorithm_d(q, memory3)
            assert d.plan == c.plan
            assert d.objective == pytest.approx(c.objective)

    def test_point_memory_and_sizes_reduce_to_lsc_cost(self, three_way_query):
        d = optimize_algorithm_d(three_way_query, point_mass(900.0))
        cm = CostModel(count_evaluations=False)
        assert d.objective == pytest.approx(
            cm.plan_cost(d.plan, three_way_query, 900.0)
        )


class TestExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_dp_equals_exhaustive_under_multiparam_objective(self, seed, memory3):
        rng = np.random.default_rng(seed)
        q = with_selectivity_uncertainty(
            star_query(4, rng, require_order=bool(seed % 2)), 1.5, n_buckets=4
        )
        mb = 8
        res = optimize_algorithm_d(q, memory3, max_buckets=mb)
        truth, _ = exhaustive_best(
            q,
            lambda p: plan_expected_cost_multiparam(
                p, q, memory3, max_buckets=mb
            ),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    def test_objective_matches_evaluator(self, memory3):
        rng = np.random.default_rng(9)
        q = with_size_uncertainty(
            with_selectivity_uncertainty(chain_query(3, rng), 1.0, n_buckets=3),
            0.5,
            n_buckets=3,
        )
        res = optimize_algorithm_d(q, memory3, max_buckets=10)
        ev = plan_expected_cost_multiparam(res.plan, q, memory3, max_buckets=10)
        assert res.objective == pytest.approx(ev)

    def test_fast_flag_preserves_choice_and_value(self, memory3):
        # The DP runs the naive grid; C7's linear-time kernel, through the
        # whole-plan evaluator, finds the same optimum at the same value.
        rng = np.random.default_rng(5)
        q = with_selectivity_uncertainty(chain_query(4, rng), 2.0, n_buckets=4)
        res = optimize_algorithm_d(q, memory3, max_buckets=8)

        def fast(plan):
            return plan_expected_cost_multiparam(plan, q, memory3, max_buckets=8, fast=True)

        truth, _ = exhaustive_best(q, fast, DEFAULT_METHODS)
        assert fast(res.plan) == pytest.approx(res.objective, rel=COST_REL_TOL)
        assert truth.objective == pytest.approx(res.objective, rel=COST_REL_TOL)

    def test_fast_uses_fewer_formula_evaluations(self, memory3):
        rng = np.random.default_rng(6)
        q = with_selectivity_uncertainty(chain_query(4, rng), 2.0, n_buckets=5)
        plan = optimize_algorithm_d(q, memory3, max_buckets=12).plan
        cm_naive, cm_fast = CostModel(), CostModel()
        for cm, fast in ((cm_naive, False), (cm_fast, True)):
            plan_expected_cost_multiparam(plan, q, memory3, cm, max_buckets=12, fast=fast)
        assert cm_fast.eval_count < cm_naive.eval_count


class TestUncertaintyEffects:
    def test_jensen_gap_is_real(self, memory3):
        """Mean-preserving selectivity spread must change expected cost
        through the discontinuous formulas (it wouldn't under linearity)."""
        rng = np.random.default_rng(21)
        base = star_query(4, rng, require_order=True)
        tight = plan_expected_cost_multiparam(
            optimize_algorithm_d(base, memory3).plan, base, memory3
        )
        wide_q = with_selectivity_uncertainty(base, 4.0, n_buckets=5)
        wide = plan_expected_cost_multiparam(
            optimize_algorithm_d(wide_q, memory3).plan, wide_q, memory3
        )
        assert wide != pytest.approx(tight, rel=1e-6)

    def test_d_dominates_c_under_its_objective(self, memory3):
        rng = np.random.default_rng(13)
        for _ in range(4):
            q = with_selectivity_uncertainty(
                star_query(4, rng, require_order=True), 2.0, n_buckets=4
            )
            c = optimize_algorithm_c(q, memory3)
            d = optimize_algorithm_d(q, memory3, max_buckets=10)
            e_c = plan_expected_cost_multiparam(c.plan, q, memory3, max_buckets=10)
            assert d.objective <= e_c + 1e-6


class TestInterestingOrdersUnderUncertainty:
    def test_dp_matches_evaluator_with_equiv_classes(self, memory3):
        """The multiparam DP grants sort-merge cascades their order
        credit; the independent evaluator must apply the same credit."""
        from repro.workloads.queries import chain_query

        rng = np.random.default_rng(77)
        base = chain_query(4, rng, shared_attribute=True)
        q = with_selectivity_uncertainty(base, 1.5, n_buckets=4)
        res = optimize_algorithm_d(q, memory3, max_buckets=8)
        ev = plan_expected_cost_multiparam(res.plan, q, memory3, max_buckets=8)
        assert res.objective == pytest.approx(ev)

    def test_dp_matches_exhaustive_with_equiv_classes(self, memory3):
        from repro.optimizer.exhaustive import exhaustive_best
        from repro.workloads.queries import chain_query

        rng = np.random.default_rng(78)
        base = chain_query(3, rng, shared_attribute=True)
        q = with_selectivity_uncertainty(base, 2.0, n_buckets=4)
        res = optimize_algorithm_d(q, memory3, max_buckets=8)
        truth, _ = exhaustive_best(
            q,
            lambda p: plan_expected_cost_multiparam(p, q, memory3, max_buckets=8),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)
