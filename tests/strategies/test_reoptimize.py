"""Tests for mid-execution re-optimization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_lsc
from repro.costmodel.model import CostModel
from repro.engine.simulator import realize_query
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.strategies.reoptimize import (
    INTERMEDIATE,
    _remainder_query,
    run_with_reoptimization,
)
from repro.workloads.queries import chain_query, with_selectivity_uncertainty


@pytest.fixture
def est_query() -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec("R", pages=40_000.0),
            RelationSpec("S", pages=6_000.0),
            RelationSpec("T", pages=900.0),
            RelationSpec("U", pages=120.0),
        ],
        [
            JoinPredicate("R", "S", selectivity=3e-8, label="R=S"),
            JoinPredicate("S", "T", selectivity=2e-6, label="S=T"),
            JoinPredicate("T", "U", selectivity=1e-4, label="T=U"),
        ],
        rows_per_page=100,
    )


def _surprise_query(est: JoinQuery, label: str, factor: float) -> JoinQuery:
    """True world where one predicate is ``factor``x more selective."""
    preds = [
        JoinPredicate(
            p.left,
            p.right,
            selectivity=min(1.0, p.selectivity * (factor if p.label == label else 1.0)),
            label=p.label,
        )
        for p in est.predicates
    ]
    return JoinQuery(list(est.relations), preds, rows_per_page=est.rows_per_page)


class TestRemainderQuery:
    def test_structure(self, est_query):
        remainder, label_map = _remainder_query(
            est_query, frozenset(["R", "S"]), actual_pages=500.0
        )
        names = remainder.relation_names()
        assert INTERMEDIATE in names
        assert set(names) == {INTERMEDIATE, "T", "U"}
        assert remainder.relation(INTERMEDIATE).pages == 500.0
        cross = [p for p in remainder.predicates if INTERMEDIATE in (p.left, p.right)]
        assert len(cross) == 1  # S=T re-rooted
        assert label_map[cross[0].label] == "S=T"

    def test_internal_predicates_kept(self, est_query):
        remainder, _ = _remainder_query(
            est_query, frozenset(["R", "S"]), actual_pages=10.0
        )
        labels = {p.label for p in remainder.predicates}
        assert "T=U" in labels

    def test_multiple_cross_predicates_multiply(self):
        q = JoinQuery(
            [
                RelationSpec("A", pages=100.0),
                RelationSpec("B", pages=100.0),
                RelationSpec("C", pages=100.0),
            ],
            [
                JoinPredicate("A", "B", selectivity=0.1, label="A=B"),
                JoinPredicate("A", "C", selectivity=0.2, label="A=C"),
                JoinPredicate("B", "C", selectivity=0.5, label="B=C"),
            ],
        )
        remainder, _ = _remainder_query(q, frozenset(["A", "B"]), 50.0)
        cross = [p for p in remainder.predicates if INTERMEDIATE in (p.left, p.right)]
        assert len(cross) == 1
        assert cross[0].selectivity == pytest.approx(0.2 * 0.5)


class TestAdaptiveExecution:
    def test_disabled_matches_plan_cost_on_true_world(self, est_query):
        true_q = _surprise_query(est_query, "R=S", 50.0)
        plan = optimize_lsc(est_query, 800.0).plan
        trace = [800.0] * plan.n_joins
        cm = CostModel(count_evaluations=False)
        res = run_with_reoptimization(
            est_query, true_q, plan, trace, cost_model=cm, enabled=False
        )
        # Realized cost must equal costing the fixed plan on true stats
        # (scans are free here: no filters).
        want = cm.plan_cost_dynamic(plan, true_q, trace)
        assert res.realized_cost == pytest.approx(want)
        assert res.n_reoptimizations == 0

    def test_no_reopt_when_estimates_accurate(self, est_query):
        plan = optimize_lsc(est_query, 800.0).plan
        trace = [800.0] * plan.n_joins
        res = run_with_reoptimization(
            est_query, est_query, plan, trace, deviation_threshold=2.0
        )
        assert res.n_reoptimizations == 0

    def test_reopt_triggered_by_large_surprise(self, est_query):
        true_q = _surprise_query(est_query, "R=S", 200.0)
        plan = optimize_lsc(est_query, 800.0).plan
        if plan.join_order()[0] not in ("R", "S"):
            # Ensure the surprising join actually runs first by forcing a
            # plan that starts with R ⋈ S.
            from repro.plans import JoinMethod, left_deep_plan

            plan = left_deep_plan(
                ["R", "S", "T", "U"],
                [JoinMethod.GRACE_HASH] * 3,
                ["R=S", "S=T", "T=U"],
            )
        trace = [800.0] * plan.n_joins
        res = run_with_reoptimization(
            est_query, true_q, plan, trace, deviation_threshold=2.0
        )
        assert res.n_reoptimizations >= 1
        assert any(p.triggered_reoptimization for p in res.phases)

    def test_adaptive_helps_on_average(self):
        """Across random worlds, re-optimization should help in aggregate.

        It is *not* guaranteed to help on every world: the replanned
        remainder still relies on the (wrong) estimates for the joins not
        yet executed, so individual overcorrections are possible.  The
        aggregate, however, should improve, and wins must exist.
        """
        rng = np.random.default_rng(0)
        better = 0
        static_total = adaptive_total = 0.0
        for i in range(10):
            est = chain_query(4, np.random.default_rng(100 + i))
            lifted = with_selectivity_uncertainty(est, 6.0, n_buckets=5)
            true_q = realize_query(lifted, rng)
            plan = optimize_lsc(est, 600.0).plan
            trace = [600.0] * plan.n_joins
            static = run_with_reoptimization(
                est, true_q, plan, trace, enabled=False
            )
            adaptive = run_with_reoptimization(
                est, true_q, plan, trace, enabled=True, deviation_threshold=1.5
            )
            static_total += static.realized_cost
            adaptive_total += adaptive.realized_cost
            if adaptive.realized_cost < static.realized_cost * (1 - 1e-9):
                better += 1
        assert better >= 1
        assert adaptive_total <= static_total * 1.05

    def test_phase_log_complete(self, est_query):
        plan = optimize_lsc(est_query, 800.0).plan
        trace = [800.0] * plan.n_joins
        res = run_with_reoptimization(est_query, est_query, plan, trace)
        assert len(res.phases) == plan.n_joins
        assert res.phases[-1].joined == ("R", "S", "T", "U")

    def test_rejects_bushy_plan(self, est_query):
        from repro.plans.nodes import Join, Plan, Scan
        from repro.plans.properties import JoinMethod

        bushy = Plan(
            Join(
                Join(Scan("R"), Scan("S"), JoinMethod.GRACE_HASH, "R=S"),
                Join(Scan("T"), Scan("U"), JoinMethod.GRACE_HASH, "T=U"),
                JoinMethod.GRACE_HASH,
                "S=T",
            )
        )
        with pytest.raises(ValueError):
            run_with_reoptimization(est_query, est_query, bushy, [1.0] * 3)

    def test_rejects_short_trace(self, est_query):
        plan = optimize_lsc(est_query, 800.0).plan
        with pytest.raises(ValueError):
            run_with_reoptimization(est_query, est_query, plan, [800.0])
