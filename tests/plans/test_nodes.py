"""Tests for plan trees and their derived views."""

from __future__ import annotations

import pytest

from repro.costmodel.model import CostModel
from repro.plans.nodes import Join, Plan, Scan, Sort, left_deep_plan
from repro.plans.properties import AccessPath, JoinMethod


@pytest.fixture
def deep_plan() -> Plan:
    """((R SM S) GH T) with a final sort."""
    j1 = Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S")
    j2 = Join(j1, Scan("T"), JoinMethod.GRACE_HASH, "S=T")
    return Plan(Sort(child=j2, sort_order="R=S"))


@pytest.fixture
def bushy_plan() -> Plan:
    """(R SM S) NL (T GH U)."""
    left = Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S")
    right = Join(Scan("T"), Scan("U"), JoinMethod.GRACE_HASH, "T=U")
    return Plan(Join(left, right, JoinMethod.NESTED_LOOP, "S=T"))


class TestTraversal:
    def test_postorder_children_before_parents(self, deep_plan):
        nodes = list(deep_plan.nodes())
        labels = [type(n).__name__ for n in nodes]
        assert labels == ["Scan", "Scan", "Join", "Scan", "Join", "Sort"]

    def test_joins_in_execution_order(self, deep_plan):
        joins = deep_plan.joins()
        assert [j.predicate_label for j in joins] == ["R=S", "S=T"]

    def test_scans_and_sorts(self, deep_plan):
        assert [s.table for s in deep_plan.scans()] == ["R", "S", "T"]
        assert sum(isinstance(n, Sort) for n in deep_plan.nodes()) == 1

    def test_relations(self, deep_plan):
        assert deep_plan.relations() == frozenset({"R", "S", "T"})

    def test_n_phases(self, deep_plan):
        assert deep_plan.n_joins == 2
        assert deep_plan.n_phases == 2

    def test_single_scan_has_one_phase(self):
        assert Plan(Scan("X")).n_phases == 1


class TestOrders:
    def test_sort_merge_produces_order(self):
        j = Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "R=S")
        assert j.order == "R=S"

    def test_hash_produces_no_order(self):
        j = Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S")
        assert j.order is None

    def test_sort_enforces_order(self, deep_plan):
        assert deep_plan.order == "R=S"

    def test_scan_has_no_order(self):
        assert Scan("R").order is None


class TestShape:
    def test_left_deep_detection(self, deep_plan, bushy_plan):
        assert deep_plan.is_left_deep()
        assert not bushy_plan.is_left_deep()

    def test_join_order_left_deep(self, deep_plan):
        assert deep_plan.join_order() == ["R", "S", "T"]

    def test_join_order_rejects_bushy(self, bushy_plan):
        with pytest.raises(ValueError):
            bushy_plan.join_order()

    def test_join_order_single_relation(self):
        assert Plan(Scan("X")).join_order() == ["X"]

    # The phase rule lives in ``CostModel.node_terms``: a join gets its
    # own phase, other nodes the nearest enclosing join's.
    def test_phase_of_join(self, deep_plan, three_way_query):
        terms = CostModel().node_terms(deep_plan, three_way_query)
        phases = {id(t.node): t.phase for t in terms}
        joins = deep_plan.joins()
        assert phases[id(joins[0])] == 0
        assert phases[id(joins[1])] == 1

    def test_phase_of_root_sort_is_last(self, deep_plan, three_way_query):
        terms = CostModel().node_terms(deep_plan, three_way_query)
        assert terms[-1].node is deep_plan.root
        assert terms[-1].phase == 1


class TestIdentity:
    def test_signature_distinguishes_methods(self):
        a = Plan(Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "p"))
        b = Plan(Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "p"))
        assert a.signature() != b.signature()
        assert a != b

    def test_signature_distinguishes_order(self):
        a = Plan(Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "p"))
        b = Plan(Join(Scan("S"), Scan("R"), JoinMethod.SORT_MERGE, "p"))
        assert a != b

    def test_equal_plans_hash_equal(self):
        a = Plan(Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "p"))
        b = Plan(Join(Scan("R"), Scan("S"), JoinMethod.SORT_MERGE, "p"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_pretty_contains_structure(self, deep_plan):
        text = deep_plan.pretty()
        assert "Sort[R=S]" in text
        assert "Join[GH on S=T]" in text
        assert "Scan(R)" in text

    def test_scan_signature_with_access_and_filter(self):
        s = Scan("R", access=AccessPath.INDEX_SCAN, filter_label="f")
        assert "index" in s.signature()
        assert "[f]" in s.signature()


class TestBuilder:
    def test_left_deep_plan_builder(self):
        plan = left_deep_plan(
            ["R", "S", "T"],
            [JoinMethod.GRACE_HASH, JoinMethod.SORT_MERGE],
            ["R=S", "S=T"],
        )
        assert plan.is_left_deep()
        assert plan.join_order() == ["R", "S", "T"]
        assert plan.order == "S=T"

    def test_builder_adds_sort_when_needed(self):
        plan = left_deep_plan(
            ["R", "S"], [JoinMethod.GRACE_HASH], ["R=S"], final_sort="R=S"
        )
        assert isinstance(plan.root, Sort)

    def test_builder_skips_sort_when_order_free(self):
        plan = left_deep_plan(
            ["R", "S"], [JoinMethod.SORT_MERGE], ["R=S"], final_sort="R=S"
        )
        assert isinstance(plan.root, Join)

    def test_builder_validates_lengths(self):
        with pytest.raises(ValueError):
            left_deep_plan(["R", "S"], [], ["R=S"])
        with pytest.raises(ValueError):
            left_deep_plan([], [], [])
