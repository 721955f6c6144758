"""Tests for the pipelining extension (Section 4, first bullet)."""

from __future__ import annotations

import pytest

from repro.optimizer import optimize_algorithm_c
from repro.core.distributions import DiscreteDistribution, point_mass
from repro.costmodel import formulas
from repro.costmodel.estimates import subset_size
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.costers import MarkovCoster, PointCoster
from repro.optimizer.exhaustive import exhaustive_best
from repro.optimizer.systemr import SystemRDP
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec


@pytest.fixture
def pipe_cm() -> CostModel:
    return CostModel(pipelined_methods=[JoinMethod.NESTED_LOOP])


@pytest.fixture
def nl_chain_query() -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec("R", pages=2_000.0),
            RelationSpec("S", pages=400.0),
            RelationSpec("T", pages=100.0),
        ],
        [
            JoinPredicate("R", "S", selectivity=5e-7, label="R=S"),
            JoinPredicate("S", "T", selectivity=1e-5, label="S=T"),
        ],
        rows_per_page=100,
    )


def _nl_cascade(query) -> Plan:
    return Plan(
        Join(
            Join(Scan("R"), Scan("S"), JoinMethod.NESTED_LOOP, "R=S"),
            Scan("T"),
            JoinMethod.NESTED_LOOP,
            "S=T",
        )
    )


class TestValidation:
    def test_only_nested_loops_pipeline(self):
        with pytest.raises(ValueError):
            CostModel(pipelined_methods=[JoinMethod.SORT_MERGE])

    def test_block_nested_loop_allowed(self):
        cm = CostModel(pipelined_methods=[JoinMethod.BLOCK_NESTED_LOOP])
        assert JoinMethod.BLOCK_NESTED_LOOP in cm.pipelined_methods

    def test_markov_objective_refuses_pipelining(self, pipe_cm, bimodal_memory):
        from repro.core.markov import sticky_chain

        chain = sticky_chain(bimodal_memory, 0.5)
        with pytest.raises(ValueError):
            MarkovCoster(chain, cost_model=pipe_cm)


class TestPlanCosting:
    def test_pipelined_cascade_skips_intermediate_write(
        self, nl_chain_query, pipe_cm
    ):
        plain = CostModel(count_evaluations=False)
        plan = _nl_cascade(nl_chain_query)
        m = 10_000.0
        mid_pages = subset_size(frozenset(["R", "S"]), nl_chain_query).pages
        with_write = plain.plan_cost(plan, nl_chain_query, m)
        without = pipe_cm.plan_cost(plan, nl_chain_query, m)
        assert with_write - without == pytest.approx(mid_pages)

    def test_non_pipelined_methods_unaffected(self, nl_chain_query, pipe_cm):
        plain = CostModel(count_evaluations=False)
        plan = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S"),
                Scan("T"),
                JoinMethod.GRACE_HASH,
                "S=T",
            )
        )
        m = 10_000.0
        assert pipe_cm.plan_cost(plan, nl_chain_query, m) == pytest.approx(
            plain.plan_cost(plan, nl_chain_query, m)
        )

    def test_consumer_pays_accounting_unchanged_without_pipelining(
        self, three_way_query
    ):
        """The consumer-pays refactor must not change any plan's cost."""
        cm = CostModel(count_evaluations=False)
        for method in (JoinMethod.GRACE_HASH, JoinMethod.SORT_MERGE):
            plan = Plan(
                Join(
                    Join(Scan("R"), Scan("S"), method, "R=S"),
                    Scan("T"),
                    method,
                    "S=T",
                )
            )
            m = 777.0
            inner = subset_size(frozenset(["R", "S"]), three_way_query)
            # independent recomputation: inner join + its write + outer.
            if method is JoinMethod.GRACE_HASH:
                inner_cost = formulas.grace_hash_cost(50_000, 8_000, m)
                outer_cost = formulas.grace_hash_cost(inner.pages, 1_000, m)
            else:
                inner_cost = formulas.sort_merge_cost(50_000, 8_000, m)
                outer_cost = formulas.sort_merge_cost(inner.pages, 1_000, m)
            want = inner_cost + inner.pages + outer_cost
            assert cm.plan_cost(plan, three_way_query, m) == pytest.approx(want)


class TestOptimizerIntegration:
    def test_dp_objective_matches_plan_cost(self, nl_chain_query, pipe_cm):
        engine = SystemRDP(PointCoster(10_000.0, cost_model=pipe_cm))
        res = engine.optimize(nl_chain_query)
        check = CostModel(
            count_evaluations=False, pipelined_methods=[JoinMethod.NESTED_LOOP]
        )
        assert check.plan_cost(
            res.plan, nl_chain_query, 10_000.0
        ) == pytest.approx(res.objective)

    def test_dp_matches_exhaustive_with_pipelining(self, nl_chain_query):
        mem = DiscreteDistribution([50.0, 600.0, 10_000.0], [0.3, 0.4, 0.3])
        cm = CostModel(
            count_evaluations=False, pipelined_methods=[JoinMethod.NESTED_LOOP]
        )
        from repro.optimizer.costers import ExpectedCoster

        res = SystemRDP(
            ExpectedCoster(mem, cost_model=CostModel(
                pipelined_methods=[JoinMethod.NESTED_LOOP]
            ))
        ).optimize(nl_chain_query)
        truth, _ = exhaustive_best(
            nl_chain_query,
            lambda p: cm.plan_expected_cost(p, nl_chain_query, mem),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    def test_pipelining_can_change_the_chosen_plan(self):
        """With a large intermediate, skipping its write can flip the
        method choice toward the pipelined nested loop."""
        q = JoinQuery(
            [
                RelationSpec("A", pages=90.0),
                RelationSpec("B", pages=80.0),
                RelationSpec("C", pages=100.0),
            ],
            [
                # Fat intermediate: A ⋈ B produces ~7000 pages.
                JoinPredicate("A", "B", selectivity=1e-2, label="A=B"),
                JoinPredicate("B", "C", selectivity=1e-6, label="B=C"),
            ],
            rows_per_page=100,
        )
        m = point_mass(50_000.0)  # everything fits: NL is |A|+|B| anyway
        plain = optimize_algorithm_c(q, m, cost_model=CostModel())
        piped = optimize_algorithm_c(
            q, m, cost_model=CostModel(pipelined_methods=[JoinMethod.NESTED_LOOP])
        )
        assert piped.objective <= plain.objective
        # The top join of the pipelined winner is a nested loop.
        top_method = piped.plan.joins()[-1].method
        assert top_method is JoinMethod.NESTED_LOOP
