"""Tests for interesting-order propagation (attribute equivalence classes).

The classic System-R effect: a sort-merge join's output order can make a
*later* sort-merge join of the same attribute class skip its sorting
passes.  These tests exercise the order-aware SM formula, the plan-level
costing, the DP's per-presorted-flag combination (which must not pool away
order-carrying subplans), and the DP-vs-exhaustive equality under
equivalence classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_c, optimize_lsc
from repro.core.distributions import DiscreteDistribution, point_mass
from repro.costmodel import formulas
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import exhaustive_best
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.workloads.queries import chain_query


@pytest.fixture
def shared_chain() -> JoinQuery:
    """R - S - T all joining on the same attribute class 'k'."""
    return JoinQuery(
        [
            RelationSpec("R", pages=40_000.0),
            RelationSpec("S", pages=30_000.0),
            RelationSpec("T", pages=20_000.0),
        ],
        [
            JoinPredicate("R", "S", selectivity=2.5e-8, label="R=S", equiv_class="k"),
            JoinPredicate("S", "T", selectivity=3e-8, label="S=T", equiv_class="k"),
        ],
        rows_per_page=100,
    )


class TestFormula:
    A, B, M = 10_000.0, 4_000.0, 80.0  # k = 4 regime (63.2 < 80 <= 100)

    def test_unsorted_matches_paper_formula(self):
        assert formulas.sort_merge_cost_with_orders(
            self.A, self.B, self.M, False, False
        ) == formulas.sort_merge_cost(self.A, self.B, self.M)

    def test_one_side_presorted(self):
        got = formulas.sort_merge_cost_with_orders(self.A, self.B, self.M, True, False)
        assert got == 1.0 * self.A + 4.0 * self.B
        swapped = formulas.sort_merge_cost_with_orders(
            self.A, self.B, self.M, False, True
        )
        assert swapped == 4.0 * self.A + 1.0 * self.B

    def test_both_presorted_is_pure_merge(self):
        got = formulas.sort_merge_cost_with_orders(self.A, self.B, self.M, True, True)
        assert got == self.A + self.B

    def test_credit_never_increases_cost(self):
        for m in (10.0, 80.0, 150.0, 10_000.0):
            base = formulas.sort_merge_cost(self.A, self.B, m)
            for flags in ((True, False), (False, True), (True, True)):
                assert formulas.sort_merge_cost_with_orders(
                    self.A, self.B, m, *flags
                ) <= base


class TestPlanCosting:
    def test_sm_cascade_gets_credit(self, shared_chain):
        cm = CostModel(count_evaluations=False)
        m = 500.0
        cascade = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S", "k"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
                "k",
            )
        )
        # Same structure but the inner join hashes: no order to inherit.
        hashed_inner = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S", "k"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
                "k",
            )
        )
        c_cascade = cm.plan_cost(cascade, shared_chain, m)
        c_hashed = cm.plan_cost(hashed_inner, shared_chain, m)
        # The cascade's top SM join reads its sorted left input once
        # instead of k times; the hashed variant pays full sorting there.
        gh_inner = formulas.grace_hash_cost(40_000, 30_000, m)
        sm_inner = formulas.sort_merge_cost(40_000, 30_000, m)
        assert c_cascade - sm_inner < c_hashed - gh_inner

    def test_no_credit_across_different_classes(self):
        q = JoinQuery(
            [
                RelationSpec("R", pages=40_000.0),
                RelationSpec("S", pages=30_000.0),
                RelationSpec("T", pages=20_000.0),
            ],
            [
                JoinPredicate("R", "S", selectivity=2.5e-8, label="R=S"),
                JoinPredicate("S", "T", selectivity=3e-8, label="S=T"),
            ],
        )
        cm = CostModel(count_evaluations=False)
        m = 500.0
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S"),
                Scan("T"),
                JoinMethod.SORT_MERGE,
                "S=T",
            )
        )
        # Without equivalence classes the inner order "R=S" does not match
        # the outer label "S=T": full cost.
        inner = formulas.sort_merge_cost(40_000, 30_000, m)
        from repro.costmodel.estimates import subset_size

        mid = subset_size(frozenset(["R", "S"]), q).pages
        outer_full = formulas.sort_merge_cost(mid, 20_000, m)
        assert cm.plan_cost(plan, q, m) == pytest.approx(
            inner + mid + outer_full
        )


class TestOptimizer:
    def test_dp_matches_exhaustive_with_classes(self, shared_chain):
        memory = DiscreteDistribution([200.0, 900.0, 4000.0], [0.3, 0.4, 0.3])
        cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(shared_chain, memory)
        truth, _ = exhaustive_best(
            shared_chain,
            lambda p: cm.plan_expected_cost(p, shared_chain, memory),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    @pytest.mark.parametrize("seed", range(6))
    def test_dp_matches_exhaustive_random_shared_chains(self, seed):
        rng = np.random.default_rng(seed)
        q = chain_query(
            4, rng, shared_attribute=True, require_order=bool(seed % 2)
        )
        memory = DiscreteDistribution(
            [150.0, 700.0, 2500.0], [0.3, 0.4, 0.3]
        )
        cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(q, memory)
        truth, _ = exhaustive_best(
            q, lambda p: cm.plan_expected_cost(p, q, memory), DEFAULT_METHODS
        )
        assert res.objective == pytest.approx(truth.objective)
        # Where a join input's views matter: bushy, three plans kept per
        # (subset, order), against the three best of every bushy plan
        # (n = 5 enumerates for ~3 s: one draw with a required order,
        # one without).
        for n in (4, 5) if seed < 2 else (4,):
            q = chain_query(
                n, np.random.default_rng(seed), shared_attribute=True,
                require_order=bool(seed % 2),
            )
            res = optimize_algorithm_c(q, memory, plan_space="bushy", top_k=3)
            _, ranked = exhaustive_best(
                q, lambda p: cm.plan_expected_cost(p, q, memory),
                DEFAULT_METHODS, space="bushy",
            )
            assert [c.objective for c in res.candidates] == pytest.approx(
                [c.objective for c in ranked[:3]]
            )

    def test_order_carrying_subplan_survives_pruning(self):
        """A hash inner join may be locally cheaper, yet the SM inner join
        wins globally by making the outer SM join cheap — the DP must
        keep both order classes alive to find it."""
        q = JoinQuery(
            [
                RelationSpec("R", pages=50_000.0),
                RelationSpec("S", pages=40_000.0),
                RelationSpec("T", pages=45_000.0),
            ],
            [
                JoinPredicate("R", "S", selectivity=2e-8, label="R=S", equiv_class="k"),
                JoinPredicate("S", "T", selectivity=2e-8, label="S=T", equiv_class="k"),
            ],
            rows_per_page=100,
        )
        # Memory above every sqrt threshold (sqrt(50k) ~ 224), so both SM
        # and GH run two-pass and the cascade's merge-only top join makes
        # SM-over-SM strictly cheapest: it avoids re-sorting the 4000-page
        # intermediate that GH-over-GH must stream twice.
        memory = point_mass(250.0)
        res = optimize_algorithm_c(q, memory)
        cm = CostModel(count_evaluations=False)
        truth, all_plans = exhaustive_best(
            q, lambda p: cm.plan_cost(p, q, 250.0), DEFAULT_METHODS
        )
        assert res.objective == pytest.approx(truth.objective)
        # And the true optimum is an SM-over-SM cascade (both joins SM).
        methods = [j.method for j in truth.plan.joins()]
        assert methods == [JoinMethod.SORT_MERGE, JoinMethod.SORT_MERGE]

    def test_required_order_can_be_class_label(self, shared_chain):
        q = JoinQuery(
            list(shared_chain.relations),
            list(shared_chain.predicates),
            required_order="k",
            rows_per_page=100,
        )
        res = optimize_lsc(q, 500.0)
        assert res.plan.order == "k"

    def test_objective_equals_plan_cost_with_classes(self, shared_chain):
        cm = CostModel()
        res = optimize_lsc(shared_chain, 400.0, cost_model=cm)
        check = CostModel(count_evaluations=False)
        assert check.plan_cost(res.plan, shared_chain, 400.0) == pytest.approx(
            res.objective
        )
