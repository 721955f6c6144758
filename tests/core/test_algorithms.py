"""Tests for the LSC baseline and Algorithms A, B, C (static memory).

These encode the paper's comparative claims directly: the algorithms form
a quality ladder, C is exactly optimal (Theorem 3.3), and all of them are
well-behaved on the motivating example.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import (
    lsc_at_mean,
    lsc_at_mode,
    optimize_algorithm_a,
    optimize_algorithm_b,
    optimize_algorithm_c,
    optimize_lsc,
)
from repro.core.distributions import DiscreteDistribution, point_mass
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import exhaustive_best
from repro.workloads.queries import chain_query, star_query


class TestLSC:
    def test_lsc_picks_sm_at_high_memory(self, example_query):
        res = optimize_lsc(example_query, 2000.0)
        assert "SM" in res.plan.signature()

    def test_lsc_picks_hash_at_low_memory(self, example_query):
        res = optimize_lsc(example_query, 700.0)
        assert "GH" in res.plan.signature()

    def test_mean_and_mode_helpers(self, example_query, bimodal_memory):
        mean_res = lsc_at_mean(example_query, bimodal_memory)
        mode_res = lsc_at_mode(example_query, bimodal_memory)
        # 1740 and 2000 both sit in the two-pass region: same plan.
        assert mean_res.plan == mode_res.plan

    def test_lsc_is_one_bucket_lec(self, example_query, bimodal_memory):
        # The paper: the traditional approach == our approach with one
        # bucket.  LSC at m must equal Algorithm C on point_mass(m).
        for m in (700.0, 2000.0):
            lsc = optimize_lsc(example_query, m)
            lec = optimize_algorithm_c(example_query, point_mass(m))
            assert lsc.plan == lec.plan
            assert lsc.objective == pytest.approx(lec.objective)


class TestAlgorithmA:
    def test_beats_or_ties_lsc_when_mean_included(self, bimodal_memory):
        rng = np.random.default_rng(0)
        cm_eval = CostModel(count_evaluations=False)
        for i in range(6):
            q = chain_query(4, rng, require_order=True)
            a = optimize_algorithm_a(q, bimodal_memory)
            lsc = lsc_at_mean(q, bimodal_memory)
            e_a = cm_eval.plan_expected_cost(a.plan, q, bimodal_memory)
            e_lsc = cm_eval.plan_expected_cost(lsc.plan, q, bimodal_memory)
            assert e_a <= e_lsc + 1e-6

    def test_objective_is_true_expected_cost(self, example_query, bimodal_memory):
        res = optimize_algorithm_a(example_query, bimodal_memory)
        cm = CostModel(count_evaluations=False)
        assert res.objective == pytest.approx(
            cm.plan_expected_cost(res.plan, example_query, bimodal_memory)
        )

    def test_candidates_sorted(self, example_query, bimodal_memory):
        res = optimize_algorithm_a(example_query, bimodal_memory)
        objs = [c.objective for c in res.candidates]
        assert objs == sorted(objs)

    def test_invocation_count(self, example_query):
        # One black-box invocation per occupied level-set cell: 500, 700
        # and 2000 pages sit below sqrt(400k), between sqrt(400k) and
        # sqrt(1M), and above sqrt(1M).
        memory = DiscreteDistribution([500.0, 700.0, 2000.0], [0.2, 0.3, 0.5])
        res = optimize_algorithm_a(example_query, memory, include_mean=False)
        assert res.stats.invocations == 3

    def test_points_in_one_cell_share_one_invocation(self, example_query, bimodal_memory):
        # The mean, 1740 pages, shares 2000's cell (and its enforcer-sort
        # cost): b=2 buckets + the mean point = 2 invocations.
        res = optimize_algorithm_a(example_query, bimodal_memory, include_mean=True)
        assert res.stats.invocations == 2

    def test_can_miss_true_lec(self):
        """Algorithm A is an approximation: it only sees per-point winners.

        We verify its guarantee (>= LSC) rather than optimality, and that
        Algorithm C never does worse than A.
        """
        rng = np.random.default_rng(33)
        memory = DiscreteDistribution(
            [150.0, 400.0, 1000.0, 2600.0], [0.25, 0.25, 0.25, 0.25]
        )
        eval_cm = CostModel(count_evaluations=False)
        for _ in range(8):
            q = star_query(4, rng, require_order=True)
            a = optimize_algorithm_a(q, memory)
            c = optimize_algorithm_c(q, memory)
            e_a = eval_cm.plan_expected_cost(a.plan, q, memory)
            assert c.objective <= e_a + 1e-6


class TestAlgorithmB:
    def test_generates_superset_of_a_candidates(self, bimodal_memory):
        rng = np.random.default_rng(1)
        q = chain_query(4, rng, require_order=True)
        a = optimize_algorithm_a(q, bimodal_memory)
        b = optimize_algorithm_b(q, bimodal_memory, c=3)
        a_sigs = {c_.plan.signature() for c_ in a.candidates}
        b_sigs = {c_.plan.signature() for c_ in b.candidates}
        assert a_sigs <= b_sigs

    def test_never_worse_than_a(self, bimodal_memory):
        rng = np.random.default_rng(2)
        eval_cm = CostModel(count_evaluations=False)
        for _ in range(6):
            q = star_query(4, rng, require_order=True)
            a = optimize_algorithm_a(q, bimodal_memory)
            b = optimize_algorithm_b(q, bimodal_memory, c=3)
            e_a = eval_cm.plan_expected_cost(a.plan, q, bimodal_memory)
            e_b = eval_cm.plan_expected_cost(b.plan, q, bimodal_memory)
            assert e_b <= e_a + 1e-6

    def test_c_one_equals_a(self, example_query, bimodal_memory):
        a = optimize_algorithm_a(example_query, bimodal_memory)
        b = optimize_algorithm_b(example_query, bimodal_memory, c=1)
        assert a.plan == b.plan

    def test_rejects_bad_c(self, example_query, bimodal_memory):
        with pytest.raises(ValueError):
            optimize_algorithm_b(example_query, bimodal_memory, c=0)


class TestAlgorithmC:
    def test_motivating_example_choice(self, example_query, bimodal_memory):
        res = optimize_algorithm_c(example_query, bimodal_memory)
        assert "GH" in res.plan.signature()
        assert res.objective == pytest.approx(2_815_000.0)

    def test_theorem_3_3_exactness(self, small_memory_dist):
        """Algorithm C == exhaustive LEC on every random query (Thm 3.3)."""
        rng = np.random.default_rng(7)
        eval_cm = CostModel(count_evaluations=False)
        for i in range(10):
            maker = chain_query if i % 2 else star_query
            q = maker(4 + i % 2, rng, require_order=bool(i % 3))
            res = optimize_algorithm_c(q, small_memory_dist)
            truth, _ = exhaustive_best(
                q,
                lambda p: eval_cm.plan_expected_cost(p, q, small_memory_dist),
                DEFAULT_METHODS,
            )
            assert res.objective == pytest.approx(truth.objective)

    def test_ladder_ordering(self, small_memory_dist):
        """E[LSC] >= E[A] >= E[B] >= E[C] on every query."""
        rng = np.random.default_rng(11)
        eval_cm = CostModel(count_evaluations=False)
        for _ in range(6):
            q = star_query(4, rng, require_order=True)

            def e(plan):
                return eval_cm.plan_expected_cost(plan, q, small_memory_dist)

            e_lsc = e(lsc_at_mean(q, small_memory_dist).plan)
            e_a = e(optimize_algorithm_a(q, small_memory_dist).plan)
            e_b = e(optimize_algorithm_b(q, small_memory_dist, c=3).plan)
            e_c = optimize_algorithm_c(q, small_memory_dist).objective
            assert e_a <= e_lsc + 1e-6
            assert e_b <= e_a + 1e-6
            assert e_c <= e_b + 1e-6

    def test_rejects_wrong_memory_type(self, example_query):
        with pytest.raises(TypeError):
            optimize_algorithm_c(example_query, 2000.0)

    def test_dominance_over_every_specific_lsc(self, example_query, bimodal_memory):
        """The headline guarantee: E[LEC] <= E[LSC plan] for any point."""
        eval_cm = CostModel(count_evaluations=False)
        lec = optimize_algorithm_c(example_query, bimodal_memory)
        for m in (500.0, 700.0, 1000.0, 1740.0, 2000.0, 5000.0):
            lsc = optimize_lsc(example_query, m)
            e_lsc = eval_cm.plan_expected_cost(
                lsc.plan, example_query, bimodal_memory
            )
            assert lec.objective <= e_lsc + 1e-6
