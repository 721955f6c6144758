"""Tests for repro.core.distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    DiscreteDistribution,
    DistributionError,
    discretized_lognormal,
    discretized_normal,
    from_samples,
    independent_product,
    point_mass,
    two_point,
    uniform_over,
)
from repro.core.floats import COST_REL_TOL, probs_close


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------


class TestConstruction:
    def test_values_sorted_on_construction(self):
        d = DiscreteDistribution([5.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        assert list(d.values) == [1.0, 3.0, 5.0]
        assert list(d.probs) == [0.5, 0.3, 0.2]

    def test_duplicate_values_merged(self):
        d = DiscreteDistribution([2.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        assert d.n_buckets == 2
        assert d.prob_of(2.0) == pytest.approx(0.5)

    def test_zero_probability_points_dropped(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert d.n_buckets == 2
        assert 2.0 not in d.support()

    def test_probs_renormalised_within_tolerance(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5000001, 0.5000001])
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_probs_not_summing_to_one(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([1.0, 2.0], [0.5, 0.3])

    def test_rejects_negative_probs(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([1.0, 2.0], [1.2, -0.2])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([1.0, 2.0], [1.0])

    def test_rejects_nan_values(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([float("nan")], [1.0])

    def test_immutable_arrays(self):
        d = two_point(10.0, 0.4, 20.0)
        with pytest.raises(ValueError):
            d.values[0] = 99.0


class TestConstructors:
    def test_point_mass(self):
        d = point_mass(42.0)
        assert d.is_point_mass()
        assert d.mean() == 42.0
        assert d.variance() == 0.0

    def test_two_point_matches_paper_example(self):
        d = two_point(2000.0, 0.8, 700.0)
        assert d.mean() == pytest.approx(1740.0)
        assert d.mode() == 2000.0

    def test_uniform_over(self):
        d = uniform_over([1, 2, 3, 4])
        assert d.prob_of(3.0) == pytest.approx(0.25)
        assert d.mean() == pytest.approx(2.5)

    def test_uniform_over_empty_rejected(self):
        with pytest.raises(DistributionError):
            uniform_over([])

    def test_from_samples_preserves_mean_of_small_sample(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        d = from_samples(samples, n_buckets=10)
        assert d.mean() == pytest.approx(25.0)

    def test_from_samples_rebuckets_to_requested_count(self):
        rng = np.random.default_rng(0)
        d = from_samples(rng.uniform(0, 100, 1000), n_buckets=7)
        assert d.n_buckets <= 7

    def test_discretized_lognormal_mean(self):
        d = discretized_lognormal(1000.0, 0.5, n_buckets=16)
        assert d.mean() == pytest.approx(1000.0, rel=0.05)

    def test_discretized_lognormal_cv_zero_is_point_mass(self):
        assert discretized_lognormal(500.0, 0.0).is_point_mass()

    def test_discretized_normal_mean_and_spread(self):
        d = discretized_normal(100.0, 10.0, n_buckets=32)
        assert d.mean() == pytest.approx(100.0, abs=0.5)
        assert d.std() == pytest.approx(10.0, rel=0.15)

    def test_discretized_normal_zero_std(self):
        assert discretized_normal(5.0, 0.0).is_point_mass()

    def test_discretized_normal_clipping(self):
        d = discretized_normal(10.0, 50.0, n_buckets=16, lo=0.0)
        assert d.min() >= 0.0


# ----------------------------------------------------------------------
# Moments
# ----------------------------------------------------------------------


class TestMoments:
    def test_expectation_identity(self, bimodal_memory):
        assert bimodal_memory.expectation() == pytest.approx(1740.0)

    def test_expectation_of_function(self, bimodal_memory):
        # E[f(M)] for a step function mirrors the paper's bucket costing.
        e = bimodal_memory.expectation(lambda m: 2.0 if m > 1000 else 4.0)
        assert e == pytest.approx(0.8 * 2.0 + 0.2 * 4.0)

    def test_variance_two_point(self):
        d = two_point(0.0, 0.5, 10.0)
        assert d.variance() == pytest.approx(25.0)
        assert d.std() == pytest.approx(5.0)

    def test_coefficient_of_variation(self):
        d = two_point(0.0, 0.5, 10.0)
        assert d.coefficient_of_variation() == pytest.approx(1.0)

    def test_cv_of_point_mass_is_zero(self):
        assert point_mass(7.0).coefficient_of_variation() == 0.0

    def test_mode_tie_breaks_to_smallest(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        assert d.mode() == 1.0

    def test_min_max(self, small_memory_dist):
        assert small_memory_dist.min() == 300.0
        assert small_memory_dist.max() == 5000.0


# ----------------------------------------------------------------------
# CDF machinery
# ----------------------------------------------------------------------


class TestCdf:
    def test_cdf_at_support_points(self, small_memory_dist):
        assert small_memory_dist.cdf(300.0) == pytest.approx(0.2)
        assert small_memory_dist.cdf(800.0) == pytest.approx(0.5)
        assert small_memory_dist.cdf(5000.0) == pytest.approx(1.0)

    def test_cdf_below_support(self, small_memory_dist):
        assert small_memory_dist.cdf(100.0) == 0.0

    def test_sf_complements_cdf(self, small_memory_dist):
        for x in (0.0, 300.0, 900.0, 10000.0):
            assert small_memory_dist.sf(x) == pytest.approx(
                1.0 - small_memory_dist.cdf(x)
            )

    def test_prob_lt_strict(self, small_memory_dist):
        assert small_memory_dist.prob_lt(800.0) == pytest.approx(0.2)
        assert small_memory_dist.cdf(800.0) == pytest.approx(0.5)

    def test_prob_ge(self, small_memory_dist):
        assert small_memory_dist.prob_ge(800.0) == pytest.approx(0.8)

    def test_quantile_basics(self, small_memory_dist):
        assert small_memory_dist.quantile(0.0) == 300.0
        assert small_memory_dist.quantile(0.2) == 300.0
        assert small_memory_dist.quantile(0.5) == 800.0
        assert small_memory_dist.quantile(1.0) == 5000.0

    def test_quantile_out_of_range(self, small_memory_dist):
        with pytest.raises(ValueError):
            small_memory_dist.quantile(1.5)

    def test_partial_expectation_le(self, small_memory_dist):
        # E[X; X <= 800] = 300*0.2 + 800*0.3
        assert small_memory_dist.partial_expectation_le(800.0) == pytest.approx(
            300 * 0.2 + 800 * 0.3
        )

    def test_partial_expectation_ge(self, small_memory_dist):
        # E[X; X >= 800] = 800*0.3 + 2000*0.3 + 5000*0.2
        assert small_memory_dist.partial_expectation_ge(800.0) == pytest.approx(
            800 * 0.3 + 2000 * 0.3 + 5000 * 0.2
        )

    def test_partials_sum_to_expectation(self, small_memory_dist):
        x = 800.0
        le = small_memory_dist.partial_expectation_le(x)
        ge = small_memory_dist.partial_expectation_ge(x)
        at = x * small_memory_dist.prob_of(x)
        assert le + ge - at == pytest.approx(small_memory_dist.mean())

    def test_conditional_expectations(self, small_memory_dist):
        le = small_memory_dist.conditional_expectation_le(800.0)
        assert le == pytest.approx((300 * 0.2 + 800 * 0.3) / 0.5)
        ge = small_memory_dist.conditional_expectation_ge(2000.0)
        assert ge == pytest.approx((2000 * 0.3 + 5000 * 0.2) / 0.5)

    def test_conditional_on_null_event_raises(self, small_memory_dist):
        with pytest.raises(ValueError):
            small_memory_dist.conditional_expectation_le(10.0)
        with pytest.raises(ValueError):
            small_memory_dist.conditional_expectation_ge(1e9)


class TestPointQueries:
    """Edge cases of the searchsorted-backed point lookups."""

    def test_prob_of_between_buckets(self, small_memory_dist):
        # Between buckets the mass is exactly 0.0 — searchsorted either
        # misses or lands on a non-equal support point.
        assert math.isclose(
            small_memory_dist.prob_of(550.0), 0.0, rel_tol=0.0, abs_tol=0.0
        )
        assert math.isclose(
            small_memory_dist.prob_of(4999.999), 0.0, rel_tol=0.0, abs_tol=0.0
        )

    def test_prob_of_exact_boundary(self, small_memory_dist):
        assert probs_close(small_memory_dist.prob_of(300.0), 0.2)
        assert probs_close(small_memory_dist.prob_of(5000.0), 0.2)

    def test_prob_of_outside_support(self, small_memory_dist):
        assert math.isclose(
            small_memory_dist.prob_of(1.0), 0.0, rel_tol=0.0, abs_tol=0.0
        )
        assert math.isclose(
            small_memory_dist.prob_of(1e9), 0.0, rel_tol=0.0, abs_tol=0.0
        )

    def test_cdf_between_buckets(self, small_memory_dist):
        assert probs_close(small_memory_dist.cdf(550.0), 0.2)
        assert probs_close(small_memory_dist.cdf(2500.0), 0.8)

    def test_cdf_above_support(self, small_memory_dist):
        assert probs_close(small_memory_dist.cdf(1e9), 1.0)

    def test_many_variants_on_empty_query(self, small_memory_dist):
        assert small_memory_dist.cdf_many([]).shape == (0,)
        assert small_memory_dist.sf_many([]).shape == (0,)
        assert small_memory_dist.prob_of_many([]).shape == (0,)

    def test_many_variants_match_scalars(self, small_memory_dist):
        xs = [1.0, 300.0, 550.0, 800.0, 2500.0, 5000.0, 1e9]
        np.testing.assert_array_equal(
            small_memory_dist.cdf_many(xs),
            [small_memory_dist.cdf(x) for x in xs],
        )
        np.testing.assert_array_equal(
            small_memory_dist.sf_many(xs),
            [small_memory_dist.sf(x) for x in xs],
        )
        np.testing.assert_array_equal(
            small_memory_dist.prob_of_many(xs),
            [small_memory_dist.prob_of(x) for x in xs],
        )

    def test_sf_arrays_cached_and_frozen(self, small_memory_dist):
        incl, excl = small_memory_dist.sf_arrays()
        incl2, excl2 = small_memory_dist.sf_arrays()
        assert incl.base is incl2.base  # computed once, cached
        with pytest.raises(ValueError):
            incl[0] = 0.5
        np.testing.assert_allclose(incl, [1.0, 0.8, 0.5, 0.2])
        np.testing.assert_allclose(excl, [0.8, 0.5, 0.2, 0.0])


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------


class TestTransforms:
    def test_map_merges_equal_outcomes(self, small_memory_dist):
        d = small_memory_dist.map(lambda v: 1.0 if v > 500 else 0.0)
        assert d.n_buckets == 2
        assert d.prob_of(1.0) == pytest.approx(0.8)

    def test_scale_and_shift(self):
        d = two_point(10.0, 0.5, 20.0)
        assert d.scale(2.0).mean() == pytest.approx(30.0)
        assert d.shift(5.0).mean() == pytest.approx(20.0)

    def test_clip(self):
        d = uniform_over([1, 2, 3, 4])
        c = d.clip(lo=2.0, hi=3.0)
        assert c.min() == 2.0 and c.max() == 3.0
        assert c.mean() == pytest.approx((2 + 2 + 3 + 3) / 4)

    def test_mixture_weights(self):
        a, b = point_mass(0.0), point_mass(10.0)
        m = a.mixture(b, 0.25)
        assert m.prob_of(0.0) == pytest.approx(0.25)
        assert m.mean() == pytest.approx(7.5)

    def test_mixture_invalid_weight(self):
        with pytest.raises(ValueError):
            point_mass(1.0).mixture(point_mass(2.0), 1.5)

    def test_convolve_means_add(self):
        a = uniform_over([1, 2])
        b = uniform_over([10, 20])
        c = a.convolve(b)
        assert c.mean() == pytest.approx(a.mean() + b.mean())
        assert c.n_buckets == 4

    def test_multiply_means_multiply_for_independent(self):
        a = uniform_over([1, 2])
        b = uniform_over([3, 5])
        c = a.multiply(b)
        assert c.mean() == pytest.approx(a.mean() * b.mean())

    def test_independent_product_three_way(self):
        a = uniform_over([1, 2])
        b = uniform_over([1, 3])
        c = uniform_over([2, 4])
        d = independent_product(lambda x, y, z: x * y * z, a, b, c)
        assert d.mean() == pytest.approx(a.mean() * b.mean() * c.mean())

    def test_sampling_matches_distribution(self, rng):
        d = two_point(1.0, 0.3, 2.0)
        samples = d.sample(rng, size=20000)
        assert np.mean(samples == 1.0) == pytest.approx(0.3, abs=0.02)

    def test_sample_scalar(self, rng):
        v = point_mass(9.0).sample(rng)
        assert v == 9.0


# ----------------------------------------------------------------------
# Rebucketing
# ----------------------------------------------------------------------


class TestRebucketing:
    def test_rebucket_noop_when_small(self, small_memory_dist):
        assert small_memory_dist.rebucket(10) is small_memory_dist

    def test_rebucket_preserves_mean_equidepth(self, rng):
        d = from_samples(rng.uniform(0, 1000, 500), n_buckets=100)
        for b in (1, 2, 5, 17):
            c = d.rebucket(b, strategy="equidepth")
            assert c.mean() == pytest.approx(d.mean(), rel=COST_REL_TOL)
            assert c.n_buckets <= b

    def test_rebucket_preserves_mean_equiwidth(self, rng):
        d = from_samples(rng.uniform(0, 1000, 500), n_buckets=100)
        for b in (1, 3, 8):
            c = d.rebucket(b, strategy="equiwidth")
            assert c.mean() == pytest.approx(d.mean(), rel=COST_REL_TOL)
            assert c.n_buckets <= b

    def test_rebucket_rejects_bad_args(self, small_memory_dist):
        with pytest.raises(ValueError):
            small_memory_dist.rebucket(0)
        with pytest.raises(ValueError):
            small_memory_dist.rebucket(2, strategy="nope")

    def test_rebucket_by_edges_splits_at_breakpoints(self):
        d = uniform_over([100, 500, 900, 1300])
        c = d.rebucket_by_edges([700.0])
        assert c.n_buckets == 2
        assert c.prob_of(300.0) == pytest.approx(0.5)  # mean of 100,500
        assert c.prob_of(1100.0) == pytest.approx(0.5)

    def test_rebucket_by_edges_outside_support_merges_all(self):
        # No boundary falls inside the support, so the induced partition
        # has one cell: everything merges to the (mean-preserving) rep.
        d = uniform_over([10, 20])
        c = d.rebucket_by_edges([1000.0])
        assert c.is_point_mass()
        assert c.mean() == pytest.approx(15.0)

    def test_rebucket_to_one_bucket_is_mean(self, small_memory_dist):
        c = small_memory_dist.rebucket(1)
        assert c.is_point_mass()
        assert c.mean() == pytest.approx(small_memory_dist.mean())


# ----------------------------------------------------------------------
# Equality / hashing / repr
# ----------------------------------------------------------------------


class TestIdentity:
    def test_truth_table(self):
        # ``__eq__`` is bytewise over the sorted support, and a dict probe agrees.
        base = DiscreteDistribution([300.0, 900.0], [0.25, 0.75])
        twin = DiscreteDistribution([900.0, 300.0], [0.75, 0.25])  # given in another order
        assert base == base and base == twin and twin == base
        assert hash(base) == hash(twin)
        assert {base: 1}[twin] == 1 and {("k", base): 2}[("k", twin)] == 2
        assert base != DiscreteDistribution([300.0, 901.0], [0.25, 0.75])
        assert base != DiscreteDistribution([300.0, 900.0], [0.5, 0.5])
        assert base != DiscreteDistribution([300.0, 600.0, 900.0],
                                            [0.25, 0.25, 0.5])
        assert base != DiscreteDistribution([300.0], [1.0])
        assert base != "300@0.25, 900@0.75" and base != 300.0
        assert base.__eq__(object()) is NotImplemented

    def test_equality_independent_of_input_order(self):
        a = DiscreteDistribution([1.0, 2.0], [0.3, 0.7])
        b = DiscreteDistribution([2.0, 1.0], [0.7, 0.3])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert two_point(1.0, 0.5, 2.0) != two_point(1.0, 0.6, 2.0)

    def test_repr_roundtrippable_info(self):
        r = repr(two_point(1.0, 0.5, 2.0))
        assert "1" in r and "2" in r

    def test_len_and_iter(self, small_memory_dist):
        assert len(small_memory_dist) == 4
        pairs = list(small_memory_dist)
        assert pairs[0][0] == 300.0


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

dist_strategy = st.builds(
    lambda vals, seed: DiscreteDistribution(
        vals, np.random.default_rng(seed).dirichlet(np.ones(len(vals)))
    ),
    st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    st.integers(min_value=0, max_value=2**31),
)


class TestProperties:
    @given(dist_strategy)
    @settings(max_examples=60, deadline=None)
    def test_probs_sum_to_one(self, d):
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    @given(dist_strategy)
    @settings(max_examples=60, deadline=None)
    def test_mean_within_support_bounds(self, d):
        assert d.min() - 1e-9 <= d.mean() <= d.max() + 1e-9

    @given(dist_strategy)
    @settings(max_examples=60, deadline=None)
    def test_variance_non_negative(self, d):
        assert d.variance() >= -1e-9

    @given(dist_strategy, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_quantile_monotone_in_q(self, d, q):
        assert d.quantile(0.0) <= d.quantile(q) <= d.quantile(1.0)

    @given(dist_strategy, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_rebucket_mean_invariant(self, d, b):
        assert d.rebucket(b).mean() == pytest.approx(d.mean(), rel=1e-6)

    @given(dist_strategy, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_rebucket_variance_never_increases(self, d, b):
        # Merging points to their conditional means cannot add spread.
        assert d.rebucket(b).variance() <= d.variance() + 1e-6 * max(d.variance(), 1.0)

    @given(dist_strategy, dist_strategy)
    @settings(max_examples=40, deadline=None)
    def test_convolution_mean_additive(self, a, b):
        assert a.convolve(b).mean() == pytest.approx(
            a.mean() + b.mean(), rel=COST_REL_TOL
        )

    @given(dist_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cdf_monotone(self, d):
        points = sorted(list(d.values) + [d.min() - 1, d.max() + 1])
        cdfs = [d.cdf(x) for x in points]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))
