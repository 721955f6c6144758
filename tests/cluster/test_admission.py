"""Policy tests for the queue-depth/deadline-aware admission controller."""

from __future__ import annotations

import pytest

from repro.cluster.admission import (
    ADMIT,
    DEGRADE,
    HARD_LIMIT,
    MIN_DEADLINE,
    SHED,
    SOFT_LIMIT,
    AdmissionController,
)


class TestPolicy:
    def test_admits_below_soft_limit_with_client_deadline(self):
        ctl = AdmissionController()
        decision = ctl.decide(queue_depth=0, deadline=1.5)
        assert decision.action == ADMIT
        assert decision.accepted
        assert decision.effective_deadline == 1.5

    def test_admits_unbounded_when_idle(self):
        decision = AdmissionController().decide(SOFT_LIMIT - 1, deadline=None)
        assert decision.action == ADMIT
        assert decision.effective_deadline is None

    def test_degrades_between_soft_and_hard(self):
        ctl = AdmissionController()
        decision = ctl.decide(SOFT_LIMIT + 1, deadline=1.0)
        assert decision.action == DEGRADE
        assert decision.accepted
        # Squeezed, but never below the floor and never above the
        # client's own budget.
        assert MIN_DEADLINE <= decision.effective_deadline < 1.0

    def test_squeeze_tightens_with_pressure(self):
        ctl = AdmissionController()
        mild = ctl.decide(SOFT_LIMIT, deadline=1.0)
        heavy = ctl.decide(HARD_LIMIT - 1, deadline=1.0)
        assert heavy.effective_deadline < mild.effective_deadline

    def test_degrade_without_client_deadline_uses_ewma(self):
        ctl = AdmissionController()
        ctl.observe_service_time(0.1)
        decision = ctl.decide(SOFT_LIMIT + 1, deadline=None)
        assert decision.action == DEGRADE
        # Derived from 4x the predicted service time, then squeezed.
        assert decision.effective_deadline is not None
        assert decision.effective_deadline <= 0.4

    def test_squeeze_never_goes_below_floor(self):
        ctl = AdmissionController()
        decision = ctl.decide(HARD_LIMIT - 1, deadline=MIN_DEADLINE / 10)
        assert decision.action == DEGRADE
        assert decision.effective_deadline == pytest.approx(MIN_DEADLINE / 10)
        unbounded = ctl.decide(HARD_LIMIT - 1, deadline=None)
        assert unbounded.effective_deadline >= MIN_DEADLINE

    def test_sheds_at_hard_limit(self):
        decision = AdmissionController().decide(HARD_LIMIT, deadline=None)
        assert decision.action == SHED
        assert not decision.accepted
        assert decision.effective_deadline is None
        assert "hard limit" in decision.reason


class TestObservations:
    def test_ewma_folds_observations(self):
        ctl = AdmissionController()
        assert ctl.predicted_service_time is None
        ctl.observe_service_time(0.2)
        assert ctl.predicted_service_time == pytest.approx(0.2)
        ctl.observe_service_time(0.7)
        assert ctl.predicted_service_time == pytest.approx(0.3)  # EWMA_ALPHA 0.2

    def test_stats_count_decisions(self):
        ctl = AdmissionController()
        ctl.decide(0, None)
        ctl.decide(SOFT_LIMIT + 1, None)
        ctl.decide(HARD_LIMIT + 1, None)
        stats = ctl.stats()
        assert stats[ADMIT] == 1
        assert stats[DEGRADE] == 1
        assert stats[SHED] == 1
