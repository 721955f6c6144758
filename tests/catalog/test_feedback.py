"""Tests for the cardinality feedback loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.feedback import SelectivityFeedback
from repro.core.floats import COST_REL_TOL
from repro.db import Database
from repro.engine.executor import JoinObservation
from repro.workloads.datagen import ColumnSpec


def _obs(label: str, sel: float, left=100_000, right=100_000) -> JoinObservation:
    return JoinObservation(
        predicate_label=label,
        left_rows=left,
        right_rows=right,
        out_rows=int(round(sel * left * right)),
    )


class TestObservation:
    def test_actual_selectivity(self):
        o = JoinObservation("p", 100, 200, 40)
        assert o.actual_selectivity == pytest.approx(40 / 20_000)

    def test_zero_inputs(self):
        assert JoinObservation("p", 0, 10, 0).actual_selectivity == 0.0


class TestCollector:
    def test_prior_without_history(self):
        fb = SelectivityFeedback()
        d = fb.distribution("p", 1e-4)
        assert d.mean() == pytest.approx(1e-4, rel=COST_REL_TOL)
        assert d.n_buckets > 1

    def test_empirical_after_enough_observations(self):
        fb = SelectivityFeedback(min_observations=3)
        fb.record([_obs("p", 2e-4) for _ in range(5)])
        d = fb.distribution("p", 1e-6)  # wildly wrong catalog estimate
        assert d.mean() == pytest.approx(2e-4, rel=0.05)

    def test_partial_history_blends(self):
        fb = SelectivityFeedback(min_observations=10)
        fb.record([_obs("p", 1e-3)])
        d = fb.distribution("p", 1e-5)
        # Mean between the (wrong) prior and the single observation.
        assert 1e-5 < d.mean() < 1e-3

    def test_empty_results_recorded_as_tiny(self):
        fb = SelectivityFeedback(min_observations=1)
        fb.record([JoinObservation("p", 100, 100, 0)])
        assert fb.n_observations("p") == 1
        assert fb.distribution("p", 0.5).mean() < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectivityFeedback(n_buckets=0)
        with pytest.raises(ValueError):
            SelectivityFeedback(min_observations=0)

    def test_apply_to_query_lifts_all_predicates(self, three_way_query):
        fb = SelectivityFeedback(min_observations=1)
        fb.record([_obs("R=S", 5e-8)])
        lifted = fb.apply_to_query(three_way_query)
        for p in lifted.predicates:
            assert p.selectivity_dist is not None
        learned = next(p for p in lifted.predicates if p.label == "R=S")
        assert learned.selectivity == pytest.approx(5e-8, rel=0.05)


class TestEndToEndLoop:
    def test_feedback_corrects_a_bad_estimate(self):
        """Execute with a biased catalog; the learned selectivity converges
        to the truth measured on real tuples."""
        db = Database(rows_per_page=20)
        db.generate_table(
            "fact",
            2000,
            [ColumnSpec("id", "serial"), ColumnSpec("dim", "fk", domain=40)],
            seed=3,
        )
        db.create_table("dim", ["id"], [(i,) for i in range(40)])
        query = db.join_query(["fact", "dim"], {("fact", "dim"): ("dim", "id")})
        label = query.predicates[0].label

        feedback = SelectivityFeedback(min_observations=2)
        res = db.optimize(query, 50.0)
        for _ in range(3):
            out = db.execute(res.plan, memory_pages=30, feedback=feedback)
        assert out.n_rows == 2000
        # Every fact row matches exactly one dim row, so the true per-pair
        # selectivity is out / (left x right) = 2000 / (2000 x 40) = 1/40.
        learned = feedback.distribution(label, 1e-9).mean()
        assert learned == pytest.approx(1 / 40, rel=0.05)

    def test_learned_distribution_feeds_algorithm_d(self):
        db = Database(rows_per_page=20)
        db.generate_table(
            "a",
            1500,
            [ColumnSpec("id", "serial"), ColumnSpec("b_id", "fk", domain=30)],
            seed=5,
        )
        db.create_table("b", ["id"], [(i,) for i in range(30)])
        query = db.join_query(["a", "b"], {("a", "b"): ("b_id", "id")})
        feedback = SelectivityFeedback(min_observations=1)
        plan = db.optimize(query, 40.0).plan
        db.execute(plan, memory_pages=20, feedback=feedback)
        lifted = feedback.apply_to_query(query)
        assert lifted.has_uncertain_sizes() or all(
            p.selectivity_dist is not None for p in lifted.predicates
        )
        from repro.core import point_mass
        from repro.optimizer import optimize_algorithm_d

        res = optimize_algorithm_d(lifted, point_mass(40.0), max_buckets=8)
        assert res.objective > 0
