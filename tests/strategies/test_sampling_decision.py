"""Tests for the EVSI sampling decision."""

from __future__ import annotations

import pytest

from repro.core.distributions import DiscreteDistribution, point_mass, two_point
from repro.core.floats import COST_REL_TOL
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.strategies.sampling_decision import (
    evaluate_sampling,
    posterior_given_outcome,
)


@pytest.fixture
def sel_prior() -> DiscreteDistribution:
    return DiscreteDistribution([0.01, 0.2, 0.6], [0.4, 0.3, 0.3])


class TestPosterior:
    def test_concentrates_on_consistent_value(self, sel_prior):
        post, evidence = posterior_given_outcome(sel_prior, n=50, k=30)
        # 30/50 = 0.6: posterior mass should pile on 0.6.
        assert post.prob_of(0.6) > 0.99
        assert 0 < evidence < 1

    def test_zero_matches_favors_small(self, sel_prior):
        post, _ = posterior_given_outcome(sel_prior, n=50, k=0)
        assert post.mode() == pytest.approx(0.01)

    def test_predictive_probabilities_sum_to_one(self, sel_prior):
        n = 12
        total = sum(
            posterior_given_outcome(sel_prior, n, k)[1] for k in range(n + 1)
        )
        assert total == pytest.approx(1.0)

    def test_posterior_mean_martingale(self, sel_prior):
        """E_outcomes[posterior mean] == prior mean (law of total exp.)."""
        n = 10
        acc = 0.0
        for k in range(n + 1):
            post, evidence = posterior_given_outcome(sel_prior, n, k)
            acc += evidence * post.mean()
        assert acc == pytest.approx(sel_prior.mean(), rel=COST_REL_TOL)

    def test_invalid_outcome(self, sel_prior):
        with pytest.raises(ValueError):
            posterior_given_outcome(sel_prior, n=5, k=6)

    def test_degenerate_prior_edges(self):
        prior = two_point(0.0, 0.5, 1.0)
        post, evidence = posterior_given_outcome(prior, n=3, k=0)
        assert post.prob_of(0.0) == pytest.approx(1.0)
        assert evidence == pytest.approx(0.5)


def _query_with_prior(prior: DiscreteDistribution) -> JoinQuery:
    # Selectivity controls whether the R ⋈ S intermediate is tiny or
    # huge, which flips the preferred continuation.
    return JoinQuery(
        [
            RelationSpec("R", pages=60_000.0),
            RelationSpec("S", pages=9_000.0),
            RelationSpec("T", pages=1_200.0),
        ],
        [
            JoinPredicate(
                "R", "S",
                selectivity=prior.mean(),
                selectivity_dist=prior,
                label="R=S",
            ),
            JoinPredicate("S", "T", selectivity=2e-6, label="S=T"),
        ],
        rows_per_page=100,
    )


class TestEvaluateSampling:
    MEMORY = DiscreteDistribution([250.0, 900.0, 2500.0], [0.3, 0.4, 0.3])

    def test_point_prior_rejected(self):
        q = _query_with_prior(point_mass(1e-7))
        # point_mass makes selectivity certain -> rebuild without dist.
        q2 = JoinQuery(
            list(q.relations),
            [
                JoinPredicate("R", "S", selectivity=1e-7, label="R=S"),
                JoinPredicate("S", "T", selectivity=2e-6, label="S=T"),
            ],
            rows_per_page=100,
        )
        with pytest.raises(ValueError):
            evaluate_sampling(q2, "R=S", self.MEMORY, 10, 10.0)

    def test_unknown_predicate_rejected(self, sel_prior):
        q = _query_with_prior(sel_prior.scale(1e-7))
        with pytest.raises(ValueError):
            evaluate_sampling(q, "nope", self.MEMORY, 10, 10.0)

    def test_sample_size_validated(self, sel_prior):
        q = _query_with_prior(sel_prior.scale(1e-7))
        with pytest.raises(ValueError):
            evaluate_sampling(q, "R=S", self.MEMORY, 0, 10.0)

    def test_evsi_non_negative(self):
        """Information can never hurt in expectation (when free)."""
        prior = DiscreteDistribution([1e-8, 2e-6], [0.5, 0.5])
        q = _query_with_prior(prior)
        dec = evaluate_sampling(q, "R=S", self.MEMORY, sample_size=8, probe_cost_pages=0.0)
        assert dec.evsi >= -1e-6 * max(abs(dec.cost_without), 1.0)

    def test_evsi_zero_when_plan_never_changes(self):
        """A prior too narrow to flip the plan has zero decision value."""
        prior = DiscreteDistribution([1.0e-8, 1.1e-8], [0.5, 0.5])
        q = _query_with_prior(prior)
        dec = evaluate_sampling(q, "R=S", self.MEMORY, sample_size=5, probe_cost_pages=5.0)
        assert dec.evsi == pytest.approx(0.0, abs=1e-6 * dec.cost_without)
        assert not dec.worthwhile

    def test_worthwhile_accounting(self):
        prior = DiscreteDistribution([1e-8, 2e-6], [0.5, 0.5])
        q = _query_with_prior(prior)
        free = evaluate_sampling(q, "R=S", self.MEMORY, 8, probe_cost_pages=0.0)
        pricey = evaluate_sampling(
            q, "R=S", self.MEMORY, 8, probe_cost_pages=free.evsi + 1000.0
        )
        assert pricey.net_benefit < 0
        assert not pricey.worthwhile
        assert free.net_benefit == pytest.approx(free.evsi)
