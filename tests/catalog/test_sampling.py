"""Tests for sampling-based selectivity estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.sampling import (
    SampleEstimate,
    estimate_selectivity,
    selectivity_posterior,
)


class TestEstimate:
    def test_point_estimate_and_se(self):
        est = SampleEstimate(n_sampled=100, n_matched=25, cost_pages=10.0)
        assert est.point_estimate == 0.25

    def test_zero_sample(self):
        est = SampleEstimate(n_sampled=0, n_matched=0, cost_pages=0.0)
        assert est.point_estimate == 0.0

    def test_estimate_selectivity_unbiased(self, rng):
        values = np.arange(10_000)
        est = estimate_selectivity(
            values, lambda v: v < 2_500, sample_size=2_000, rng=rng
        )
        assert est.point_estimate == pytest.approx(0.25, abs=0.05)
        assert est.cost_pages > 0

    def test_sampling_cost_capped_by_relation_pages(self, rng):
        values = np.arange(200)  # 2 pages at 100 rows/page
        est = estimate_selectivity(
            values, lambda v: True, sample_size=150, rng=rng, rows_per_page=100
        )
        assert est.cost_pages <= 2

    def test_sample_size_validation(self, rng):
        with pytest.raises(ValueError):
            estimate_selectivity([1.0], lambda v: True, sample_size=0, rng=rng)

    def test_empty_relation(self, rng):
        est = estimate_selectivity([], lambda v: True, sample_size=5, rng=rng)
        assert est.n_sampled == 0


class TestPosterior:
    def test_posterior_mean_matches_beta(self):
        est = SampleEstimate(n_sampled=100, n_matched=30, cost_pages=1.0)
        post = selectivity_posterior(est, n_buckets=9)
        analytic_mean = (1 + 30) / (2 + 100)
        assert post.mean() == pytest.approx(analytic_mean, abs=1e-6)

    def test_posterior_tightens_with_more_samples(self):
        small = selectivity_posterior(
            SampleEstimate(n_sampled=10, n_matched=3, cost_pages=1.0), n_buckets=9
        )
        large = selectivity_posterior(
            SampleEstimate(n_sampled=1_000, n_matched=300, cost_pages=1.0),
            n_buckets=9,
        )
        assert large.std() < small.std()

    def test_posterior_support_in_unit_interval(self):
        post = selectivity_posterior(
            SampleEstimate(n_sampled=5, n_matched=5, cost_pages=1.0), n_buckets=7
        )
        assert post.min() >= 0.0
        assert post.max() <= 1.0

    def test_single_bucket_is_mean(self):
        est = SampleEstimate(n_sampled=50, n_matched=10, cost_pages=1.0)
        post = selectivity_posterior(est, n_buckets=1)
        assert post.is_point_mass()

    def test_bucket_validation(self):
        est = SampleEstimate(n_sampled=50, n_matched=10, cost_pages=1.0)
        with pytest.raises(ValueError):
            selectivity_posterior(est, n_buckets=0)
