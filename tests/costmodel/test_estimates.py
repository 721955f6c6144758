"""Tests for subset size estimation (point and distributional)."""

from __future__ import annotations

import pytest

from repro.core.distributions import two_point, uniform_over
from repro.core.floats import COST_REL_TOL
from repro.costmodel.estimates import (
    annotate_sizes,
    node_size,
    subset_size,
    subset_size_distribution,
)
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.workloads.queries import with_selectivity_uncertainty, with_size_uncertainty


class TestSubsetSizePoint:
    def test_single_relation(self, three_way_query):
        est = subset_size(frozenset(["R"]), three_way_query)
        assert est.pages == 50_000.0
        assert est.rows == 5_000_000.0

    def test_two_relation_join(self, three_way_query):
        est = subset_size(frozenset(["R", "S"]), three_way_query)
        # rows = 5e6 * 8e5 * 2e-8 = 80_000 -> pages = 800
        assert est.rows == pytest.approx(80_000.0)
        assert est.pages == pytest.approx(800.0)

    def test_full_join_applies_all_internal_predicates(self, three_way_query):
        est = subset_size(frozenset(["R", "S", "T"]), three_way_query)
        # rows = 5e6 * 8e5 * 1e5 * 2e-8 * 1e-6 = 8_000_000 -> wait:
        # 5e6*8e5=4e12 *2e-8=8e4; *1e5=8e9 *1e6 sel -> 8e3 rows.
        assert est.rows == pytest.approx(8_000.0)
        assert est.pages == pytest.approx(80.0)

    def test_pages_floor_of_one(self):
        q = JoinQuery(
            [RelationSpec("X", pages=10.0), RelationSpec("Y", pages=10.0)],
            [JoinPredicate("X", "Y", selectivity=1e-12)],
        )
        est = subset_size(frozenset(["X", "Y"]), q)
        assert est.pages == 1.0

    def test_override_pins_result_pages(self, example_query):
        est = subset_size(frozenset(["A", "B"]), example_query)
        assert est.pages == 3000.0

    def test_empty_subset_rejected(self, three_way_query):
        with pytest.raises(ValueError):
            subset_size(frozenset(), three_way_query)

    def test_local_filter_shrinks_relation(self):
        q = JoinQuery([RelationSpec("X", pages=100.0, filter_selectivity=0.2)])
        est = subset_size(frozenset(["X"]), q)
        assert est.pages == pytest.approx(20.0)

    def test_order_independence(self, three_way_query):
        # Size depends only on the subset, never on join order: this is
        # the invariant the DP relies on.
        a = subset_size(frozenset(["R", "S", "T"]), three_way_query)
        b = subset_size(frozenset(["T", "S", "R"]), three_way_query)
        assert a == b


class TestSubsetSizeDistribution:
    def test_point_query_gives_point_mass(self, three_way_query):
        d = subset_size_distribution(frozenset(["R", "S"]), three_way_query)
        assert d.is_point_mass()
        assert d.mean() == pytest.approx(800.0)

    def test_mean_matches_point_estimate_under_unbiased_uncertainty(
        self, three_way_query
    ):
        q = with_selectivity_uncertainty(three_way_query, 1.0, n_buckets=5)
        point = subset_size(frozenset(["R", "S"]), q).pages
        dist = subset_size_distribution(frozenset(["R", "S"]), q, max_buckets=32)
        assert dist.mean() == pytest.approx(point, rel=COST_REL_TOL)

    def test_rebucket_cap_respected(self, three_way_query):
        q = with_selectivity_uncertainty(
            with_size_uncertainty(three_way_query, 0.5, n_buckets=5), 0.5, n_buckets=5
        )
        d = subset_size_distribution(frozenset(["R", "S", "T"]), q, max_buckets=8)
        assert d.n_buckets <= 8

    def test_override_is_point_mass(self, example_query):
        d = subset_size_distribution(frozenset(["A", "B"]), example_query)
        assert d.is_point_mass()
        assert d.mean() == 3000.0

    def test_single_relation_uses_pages_dist(self):
        dist = two_point(100.0, 0.5, 300.0)
        q = JoinQuery([RelationSpec("X", pages=200.0, pages_dist=dist)])
        d = subset_size_distribution(frozenset(["X"]), q)
        assert d.mean() == pytest.approx(200.0)
        assert d.n_buckets == 2

    def test_pages_clamped_at_one(self):
        q = JoinQuery(
            [
                RelationSpec("X", pages=10.0, pages_dist=uniform_over([5.0, 15.0])),
                RelationSpec("Y", pages=10.0),
            ],
            [JoinPredicate("X", "Y", selectivity=1e-15)],
        )
        d = subset_size_distribution(frozenset(["X", "Y"]), q)
        assert d.min() >= 1.0


class TestAnnotate:
    def test_annotate_covers_every_node(self, three_way_query):
        plan = Plan(
            Join(
                left=Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S"),
                right=Scan("T"),
                method=JoinMethod.SORT_MERGE,
                predicate_label="S=T",
            )
        )
        sizes = annotate_sizes(plan, three_way_query)
        assert len(sizes) == len(list(plan.nodes()))
        assert sizes[Scan("T")].pages == 1_000.0

    def test_node_size_matches_subset(self, three_way_query):
        node = Join(Scan("R"), Scan("S"), JoinMethod.NESTED_LOOP, "R=S")
        assert node_size(node, three_way_query) == subset_size(
            frozenset(["R", "S"]), three_way_query
        )
