"""Tests for access-path selection (the 'LEC access path' DP step)."""

from __future__ import annotations

import pytest

from repro.optimizer import optimize_algorithm_c, optimize_lsc
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.optimizer.exhaustive import enumerate_left_deep_plans, exhaustive_best
from repro.plans.nodes import Scan
from repro.plans.properties import AccessPath
from repro.plans.query import IndexInfo, JoinPredicate, JoinQuery, QueryError, RelationSpec


def _query(filter_sel: float, index: IndexInfo | None) -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec(
                "F",
                pages=10_000.0,
                filter_selectivity=filter_sel,
                index=index,
            ),
            RelationSpec("D", pages=200.0),
        ],
        [JoinPredicate("F", "D", selectivity=1e-6, label="F=D")],
        rows_per_page=100,
    )


class TestIndexInfo:
    def test_height_validated(self):
        with pytest.raises(QueryError):
            IndexInfo(height=0)

    def test_has_index_path_requires_filter(self):
        spec = RelationSpec("R", pages=10.0, index=IndexInfo())
        assert not spec.has_index_path()  # no filter to evaluate
        spec2 = RelationSpec(
            "R", pages=10.0, filter_selectivity=0.1, index=IndexInfo()
        )
        assert spec2.has_index_path()


class TestScanCosting:
    def test_clustered_index_scan_cost(self):
        q = _query(0.01, IndexInfo(height=3, clustered=True))
        cm = CostModel(count_evaluations=False)
        cost = cm.scan_node_cost(Scan("F", access=AccessPath.INDEX_SCAN), q)
        # height + selected pages + output write.
        assert cost == pytest.approx(3 + 100.0 + 100.0)

    def test_unclustered_index_scan_cost(self):
        q = _query(0.01, IndexInfo(height=2, clustered=False))
        cm = CostModel(count_evaluations=False)
        cost = cm.scan_node_cost(Scan("F", access=AccessPath.INDEX_SCAN), q)
        # matching rows 10_000 exceed pages 10_000? rows = 1e6*0.01=1e4
        # -> min(1e4, 1e4 pages)=1e4... pages=10_000 so min is 10_000.
        assert cost == pytest.approx(2 + 10_000.0 + 100.0)

    def test_index_scan_without_index_rejected(self):
        q = _query(0.01, None)
        cm = CostModel(count_evaluations=False)
        with pytest.raises(ValueError):
            cm.scan_node_cost(Scan("F", access=AccessPath.INDEX_SCAN), q)


class TestOptimizerChoice:
    def test_picks_index_when_selective_and_clustered(self):
        q = _query(0.001, IndexInfo(height=2, clustered=True))
        res = optimize_lsc(q, 1000.0)
        scans = {s.table: s.access for s in res.plan.scans()}
        assert scans["F"] is AccessPath.INDEX_SCAN

    def test_picks_full_scan_when_unselective(self):
        q = _query(0.9, IndexInfo(height=2, clustered=False))
        res = optimize_lsc(q, 1000.0)
        scans = {s.table: s.access for s in res.plan.scans()}
        assert scans["F"] is AccessPath.FULL_SCAN

    def test_dp_matches_exhaustive_with_index_choices(self, small_memory_dist):
        q = _query(0.01, IndexInfo(height=2, clustered=True))
        cm = CostModel(count_evaluations=False)
        res = optimize_algorithm_c(q, small_memory_dist)
        truth, _ = exhaustive_best(
            q,
            lambda p: cm.plan_expected_cost(p, q, small_memory_dist),
            DEFAULT_METHODS,
        )
        assert res.objective == pytest.approx(truth.objective)

    def test_exhaustive_enumerates_both_paths(self):
        q = _query(0.01, IndexInfo())
        plans = list(enumerate_left_deep_plans(q, DEFAULT_METHODS))
        accesses = {
            s.access for p in plans for s in p.scans() if s.table == "F"
        }
        assert accesses == {AccessPath.FULL_SCAN, AccessPath.INDEX_SCAN}

    def test_objective_consistent_with_plan_cost(self, small_memory_dist):
        q = _query(0.05, IndexInfo(height=3, clustered=True))
        cm = CostModel()
        res = optimize_algorithm_c(q, small_memory_dist, cost_model=cm)
        check = CostModel(count_evaluations=False)
        assert check.plan_expected_cost(
            res.plan, q, small_memory_dist
        ) == pytest.approx(res.objective)
