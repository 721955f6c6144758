"""SPJU optimization end-to-end: every algorithm, both objectives.

Union blocks must be reachable through every optimizer entry point with
``plan_space="spju"``, produce structurally valid plans (a Union root
over per-arm trees, projections on sub-unit-ratio arms), agree with
exhaustive enumeration where that is affordable, and fail loudly on
spaces that do not admit unions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import DiscreteDistribution
from repro.core.floats import COST_REL_TOL
from repro.core.markov import sticky_chain
from repro.costmodel import CostModel, DEFAULT_METHODS
from repro.optimizer import (
    OptimizerConfigError,
    exhaustive_best,
    iterative_improvement,
    optimize,
)
from repro.optimizer.facade import clear_context_cache
from repro.plans import SPJU, Project, UnionNode, UnionQuery
from repro.plans.nodes import Join, Scan, Sort
from repro.workloads.queries import union_query

MEMORY = DiscreteDistribution(
    [300.0, 1200.0, 4000.0], [0.3, 0.4, 0.3]
)

OBJECTIVES = ["lsc", "lec", "algorithm_a", "algorithm_b", "multiparam"]


@pytest.fixture(scope="module")
def union_all():
    rng = np.random.default_rng(3)
    return union_query(
        2, 3, rng, min_pages=200, max_pages=50000, rows_per_page=100
    )


@pytest.fixture(scope="module")
def union_distinct():
    rng = np.random.default_rng(4)
    return union_query(
        3, 2, rng, distinct=True, projection_ratios=[1.0, 0.5, 0.3],
        min_pages=200, max_pages=50000, rows_per_page=100,
    )


class TestAllAlgorithmsProduceValidUnionPlans:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_union_all(self, union_all, objective):
        clear_context_cache()
        res = optimize(union_all, objective, memory=MEMORY, plan_space="spju")
        root = res.plan.root
        assert isinstance(root, UnionNode)
        assert not root.distinct
        assert len(root.inputs) == 2
        assert SPJU.admits(res.plan)
        assert res.objective > 0
        assert res.plan.relations() == frozenset(
            r.name for r in union_all.relations
        )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_union_distinct_with_projections(self, union_distinct, objective):
        clear_context_cache()
        res = optimize(
            union_distinct, objective, memory=MEMORY, plan_space="spju"
        )
        root = res.plan.root
        assert isinstance(root, UnionNode)
        assert root.distinct
        assert len(root.inputs) == 3
        # Arms with projection_ratio < 1 carry a Project at the arm root.
        projected = sum(isinstance(n, Project) for n in root.inputs)
        assert projected == 2

    def test_distinct_costs_at_least_all(self, union_all):
        clear_context_cache()
        all_res = optimize(union_all, "lec", memory=MEMORY, plan_space="spju")
        distinct_q = UnionQuery(union_all.arms, distinct=True)
        clear_context_cache()
        distinct_res = optimize(
            distinct_q, "lec", memory=MEMORY, plan_space="spju"
        )
        assert distinct_res.objective > all_res.objective


class TestAgainstExhaustive:
    @pytest.mark.parametrize("distinct", [False, True])
    def test_lec_dp_matches_exhaustive(self, distinct):
        rng = np.random.default_rng(11)
        query = union_query(
            2, 2, rng, distinct=distinct,
            min_pages=200, max_pages=50000, rows_per_page=100,
        )
        clear_context_cache()
        res = optimize(query, "lec", memory=MEMORY, plan_space="spju")
        eval_cm = CostModel(count_evaluations=False)
        truth, _ = exhaustive_best(
            query,
            lambda p: eval_cm.plan_expected_cost(p, query, MEMORY),
            DEFAULT_METHODS,
            space="spju",
        )
        assert res.objective == pytest.approx(truth.objective, rel=COST_REL_TOL)


class TestRejections:
    @pytest.mark.parametrize("space", ["left-deep", "zig-zag", "bushy"])
    def test_union_query_needs_union_space(self, union_all, space):
        clear_context_cache()
        with pytest.raises(OptimizerConfigError, match="union"):
            optimize(union_all, "lec", memory=MEMORY, plan_space=space)

    def test_markov_objective_rejects_bushy_spaces(self, union_all):
        chain = sticky_chain(MEMORY, 0.8)
        clear_context_cache()
        with pytest.raises(OptimizerConfigError):
            optimize(union_all, "markov", memory=chain, plan_space="spju")

    def test_randomized_search_rejects_unions(self, union_all):
        with pytest.raises(ValueError, match="union"):
            iterative_improvement(
                union_all,
                lambda p: 0.0,
                np.random.default_rng(0),
                plan_space="spju",
            )


class TestPlanShape:
    def test_arm_subtrees_stay_inside_their_arms(self, union_all):
        clear_context_cache()
        res = optimize(union_all, "lec", memory=MEMORY, plan_space="spju")
        arm_names = [
            frozenset(r.name for r in arm.relations)
            for arm in union_all.arms
        ]
        for child in res.plan.root.inputs:
            leaves = {
                n.table
                for n in Plan_nodes(child)
                if isinstance(n, Scan)
            }
            assert leaves in arm_names


def Plan_nodes(node):
    yield node
    if isinstance(node, (Project, Sort)):
        yield from Plan_nodes(node.child)
    elif isinstance(node, Join):
        yield from Plan_nodes(node.left)
        yield from Plan_nodes(node.right)
    elif isinstance(node, UnionNode):
        for child in node.inputs:
            yield from Plan_nodes(child)
