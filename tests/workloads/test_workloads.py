"""Tests for data generation, query generators and scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.floats import COST_REL_TOL
from repro.core.markov import MarkovParameter
from repro.costmodel.model import CostModel
from repro.plans.query import JoinQuery
from repro.workloads.datagen import ColumnSpec, build_database, generate_table
from repro.plans.spju import UnionQuery
from repro.workloads.queries import (
    chain_query,
    clique_query,
    random_query,
    star_query,
    union_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)
from repro.workloads.scenarios import (
    example_1_1,
    long_running_batch,
    reporting_chain,
    warehouse_star,
)


class TestDatagen:
    def test_generate_table_shapes(self, rng):
        gt = generate_table(
            "t",
            500,
            [ColumnSpec("id", "serial"), ColumnSpec("grp", "uniform", domain=10)],
            rng,
            rows_per_page=50,
        )
        assert gt.file.n_rows == 500
        assert gt.file.n_pages == 10
        assert gt.table.n_pages == 10
        assert gt.file.schema.fields == ("t.id", "t.grp")

    def test_serial_column_is_key(self, rng):
        gt = generate_table("t", 100, [ColumnSpec("id", "serial")], rng)
        assert list(gt.values["id"]) == list(range(100))

    def test_zipf_column_within_domain(self, rng):
        gt = generate_table(
            "t", 1000, [ColumnSpec("z", "zipf", domain=50, skew=1.7)], rng
        )
        assert gt.values["z"].min() >= 0
        assert gt.values["z"].max() < 50

    def test_zipf_is_skewed(self, rng):
        gt = generate_table(
            "t", 5000, [ColumnSpec("z", "zipf", domain=100, skew=2.0)], rng
        )
        values, counts = np.unique(gt.values["z"], return_counts=True)
        assert counts.max() > 5000 * 0.3  # the head value dominates

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "gaussian")
        with pytest.raises(ValueError):
            ColumnSpec("x", "uniform", domain=0)

    def test_build_database_wires_everything(self, rng):
        catalog, stats, storage = build_database(
            {
                "a": (200, [ColumnSpec("id", "serial"), ColumnSpec("b_id", "fk", domain=20)]),
                "b": (20, [ColumnSpec("id", "serial")]),
            },
            rng,
            rows_per_page=10,
        )
        assert len(catalog) == 2
        assert storage.get("a").n_pages == 20
        assert stats.table_stats("a").histograms  # ANALYZE ran
        sel = stats.join_selectivity("a", "b", "b_id", "id")
        assert sel == pytest.approx(1 / 20, rel=0.2)


class TestQueryGenerators:
    def test_chain_structure(self, rng):
        q = chain_query(5, rng)
        assert q.n_relations == 5
        assert len(q.predicates) == 4
        assert q.is_connected()

    def test_star_structure(self, rng):
        q = star_query(5, rng)
        hub_degree = sum(
            1 for p in q.predicates if "R0" in (p.left, p.right)
        )
        assert hub_degree == 4

    def test_clique_structure(self, rng):
        q = clique_query(4, rng)
        assert len(q.predicates) == 6

    def test_require_order_flag(self, rng):
        q = chain_query(3, rng, require_order=True)
        assert q.required_order is not None

    def test_random_query_shapes(self, rng):
        for shape in ("chain", "star", "clique"):
            q = random_query(4, rng, shape=shape)
            assert q.n_relations == 4
        with pytest.raises(ValueError):
            random_query(4, rng, shape="tree")

    def test_selectivities_keep_results_reasonable(self, rng):
        from repro.costmodel.estimates import subset_size

        for _ in range(5):
            q = chain_query(4, rng)
            full = subset_size(frozenset(q.relation_names()), q)
            assert full.pages >= 1.0

    def test_size_bounds_respected(self, rng):
        q = chain_query(4, rng, min_pages=50, max_pages=5000)
        for r in q.relations:
            assert 1 <= r.pages <= 5001


class TestUncertaintyLifting:
    def test_selectivity_lift_mean_preserving(self, rng):
        q = chain_query(3, rng)
        lifted = with_selectivity_uncertainty(q, 1.0, n_buckets=5)
        for p0, p1 in zip(q.predicates, lifted.predicates):
            assert p1.selectivity_dist is not None
            assert p1.selectivity_dist.mean() == pytest.approx(
                p0.selectivity, rel=COST_REL_TOL
            )

    def test_size_lift_mean_preserving(self, rng):
        q = chain_query(3, rng)
        lifted = with_size_uncertainty(q, 0.5, n_buckets=5)
        for r0, r1 in zip(q.relations, lifted.relations):
            assert r1.pages_dist is not None
            assert r1.pages_dist.mean() == pytest.approx(r0.pages, rel=COST_REL_TOL)

    def test_zero_error_is_identity(self, rng):
        q = chain_query(3, rng)
        assert with_selectivity_uncertainty(q, 0.0) is q
        assert with_size_uncertainty(q, 0.0) is q

    def test_negative_error_rejected(self, rng):
        q = chain_query(3, rng)
        with pytest.raises(ValueError):
            with_selectivity_uncertainty(q, -1.0)

    def test_selectivity_support_clamped(self, rng):
        q = chain_query(3, rng)
        lifted = with_selectivity_uncertainty(q, 10.0, n_buckets=7)
        for p in lifted.predicates:
            assert p.selectivity_dist.max() <= 1.0


class TestUnionGenerator:
    def test_arm_structure_and_namespacing(self, rng):
        q = union_query(2, 3, rng)
        assert isinstance(q, UnionQuery)
        assert not q.distinct
        assert len(q.arms) == 2
        for a, arm in enumerate(q.arms):
            assert arm.n_relations == 3
            assert all(r.name.startswith(f"U{a}") for r in arm.relations)
            assert all(
                p.left.startswith(f"U{a}") and p.right.startswith(f"U{a}")
                for p in arm.predicates
            )
        names = [r.name for arm in q.arms for r in arm.relations]
        assert len(names) == len(set(names))

    def test_distinct_and_projection_ratios(self, rng):
        q = union_query(
            3, 2, rng, distinct=True, projection_ratios=[1.0, 0.5, 0.3]
        )
        assert q.distinct
        assert [arm.projection_ratio for arm in q.arms] == [1.0, 0.5, 0.3]

    def test_needs_at_least_two_arms(self, rng):
        with pytest.raises(ValueError, match="two arms"):
            union_query(1, 3, rng)

    def test_projection_ratio_length_must_match(self, rng):
        with pytest.raises(ValueError, match="per arm"):
            union_query(2, 3, rng, projection_ratios=[0.5])

    def test_lifts_recurse_into_arms(self, rng):
        q = union_query(2, 2, rng, distinct=True, projection_ratios=[1.0, 0.4])
        lifted = with_size_uncertainty(
            with_selectivity_uncertainty(q, 1.0), 0.5
        )
        assert isinstance(lifted, UnionQuery)
        assert lifted.distinct
        assert [arm.projection_ratio for arm in lifted.arms] == [1.0, 0.4]
        for arm0, arm1 in zip(q.arms, lifted.arms):
            for p0, p1 in zip(arm0.predicates, arm1.predicates):
                assert p1.selectivity_dist is not None
                assert p1.selectivity_dist.mean() == pytest.approx(
                    p0.selectivity, rel=COST_REL_TOL
                )
            for r0, r1 in zip(arm0.relations, arm1.relations):
                assert r1.pages_dist is not None
                assert r1.pages_dist.mean() == pytest.approx(
                    r0.pages, rel=COST_REL_TOL
                )


class TestScenarios:
    def test_example_1_1_reproduces_paper_numbers(self):
        from repro.plans.nodes import Join, Plan, Scan
        from repro.plans.properties import JoinMethod

        query, memory = example_1_1()
        cm = CostModel(count_evaluations=False)
        sm = Plan(Join(Scan("B"), Scan("A"), JoinMethod.SORT_MERGE, "A=B"))
        assert cm.plan_cost(sm, query, 2000.0) == 2_800_000.0
        assert memory.mean() == pytest.approx(1740.0)

    def test_all_scenarios_are_valid_queries(self):
        for maker in (example_1_1, reporting_chain, warehouse_star):
            query, memory = maker()
            assert isinstance(query, JoinQuery)
            assert query.is_connected()
            assert memory.n_buckets >= 2

    def test_long_running_batch_is_markov(self):
        query, chain = long_running_batch()
        assert isinstance(chain, MarkovParameter)
        assert query.n_relations == 5
        # Sticky chain: marginals stationary.
        assert chain.marginal(0).mean() == pytest.approx(
            chain.marginal(3).mean(), rel=COST_REL_TOL
        )


class TestNewScenarios:
    def test_snowflake_valid_and_optimizable(self):
        from repro.optimizer import lsc_at_mean, optimize_algorithm_c
        from repro.workloads import snowflake_analytics

        query, memory = snowflake_analytics()
        assert query.is_connected()
        res = optimize_algorithm_c(query, memory)
        assert res.plan.relations() == frozenset(query.relation_names())
        lsc = lsc_at_mean(query, memory)
        cm = CostModel(count_evaluations=False)
        assert res.objective <= cm.plan_expected_cost(
            lsc.plan, query, memory
        ) + 1e-6

    def test_snowflake_shares_suppkey_class(self):
        from repro.workloads import snowflake_analytics

        query, _ = snowflake_analytics()
        classes = [p.order_label for p in query.predicates]
        assert classes.count("suppkey") == 2

    def test_elastic_cloud_memory_rises(self):
        from repro.workloads import elastic_cloud_batch

        query, chain = elastic_cloud_batch()
        means = [chain.marginal(k).mean() for k in range(query.n_relations - 1)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_elastic_cloud_phase_awareness_matters(self):
        from repro.optimizer import optimize_algorithm_c
        from repro.workloads import elastic_cloud_batch

        query, chain = elastic_cloud_batch()
        dyn = optimize_algorithm_c(query, chain)
        static = optimize_algorithm_c(query, chain.marginal(0))
        cm = CostModel(count_evaluations=False)
        e_dyn = cm.plan_expected_cost_markov(dyn.plan, query, chain)
        e_static = cm.plan_expected_cost_markov(static.plan, query, chain)
        assert e_dyn <= e_static + 1e-6
