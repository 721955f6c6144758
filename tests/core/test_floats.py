"""Tolerance helpers: costs_close, probs_close, negligible_mass."""

from __future__ import annotations

import numpy as np

from repro.core.distributions import DiscreteDistribution, point_mass
from repro.core.expected_cost import expected_nested_loop_cost
from repro.core.floats import (
    COST_ABS_TOL,
    MASS_EPS,
    PROB_ABS_TOL,
    costs_close,
    negligible_mass,
    probs_close,
)


class TestCostsClose:
    def test_exact_equality(self):
        assert costs_close(123.456, 123.456)

    def test_relative_tolerance_scales_with_magnitude(self):
        # 1e9-scale costs differing in the 12th digit are "the same plan".
        assert costs_close(1e9, 1e9 + 0.5)
        assert not costs_close(1e9, 1e9 * (1 + 1e-6))

    def test_absolute_floor_near_zero(self):
        assert costs_close(0.0, COST_ABS_TOL / 2)
        assert not costs_close(0.0, 1e-3)

    def test_accumulated_sum_noise(self):
        # The classic: a long weighted sum vs. its algebraic value.
        parts = [0.1] * 10
        assert sum(parts) != 1.0  # the hazard these helpers exist for
        assert costs_close(sum(parts), 1.0)

    def test_asymmetric_arguments(self):
        assert costs_close(1.0 + 1e-12, 1.0) == costs_close(1.0, 1.0 + 1e-12)


class TestProbsClose:
    def test_renormalization_drift(self):
        probs = np.array([0.2, 0.3, 0.5])
        renorm = probs / probs.sum()
        assert all(probs_close(a, b) for a, b in zip(probs, renorm))

    def test_absolute_not_relative(self):
        # Tiny masses are compared absolutely: 1e-12 vs 2e-12 is "equal"
        # even though they differ by 2x relatively.
        assert probs_close(1e-12, 2e-12)
        assert not probs_close(0.1, 0.1 + 2 * PROB_ABS_TOL)

    def test_zero_and_one_endpoints(self):
        assert probs_close(0.0, 0.0)
        assert probs_close(1.0, 1.0 - 1e-16)


class TestNegligibleMass:
    def test_true_zero(self):
        assert negligible_mass(0.0)

    def test_negative_drift_counts_as_zero(self):
        # Prefix-sum cancellation can leave a "zero" at -1e-17; an exact
        # ``== 0.0`` guard would have divided by it.
        assert negligible_mass(-1e-17)

    def test_positive_drift_counts_as_zero(self):
        assert negligible_mass(1e-16)

    def test_real_mass_is_not_negligible(self):
        assert not negligible_mass(1e-9)
        assert not negligible_mass(0.5)

    def test_threshold_is_inclusive(self):
        assert negligible_mass(MASS_EPS)
        assert not negligible_mass(np.nextafter(MASS_EPS, 1.0))

    def test_custom_eps(self):
        assert negligible_mass(1e-7, eps=1e-6)
        assert not negligible_mass(1e-5, eps=1e-6)


class TestExpectedCostGuard:
    """The expected-cost branch guards tolerate drifted zero masses.

    ``expected_nested_loop_cost`` conditions on ``P[B >= a]`` per outer
    size; the guard must skip branches whose conditional mass is
    numerically zero without tripping on ±1e-16 prefix-sum residue.
    """

    def test_empty_suffix_branch_contributes_nothing(self):
        # Every inner size is below every outer size, so branch 1's
        # suffix mass P[B >= a] is an exact-or-drifted zero for all a;
        # the result must equal the pure branch-2 sum (finite, > 0).
        outer = DiscreteDistribution([100.0, 200.0], [0.5, 0.5])
        inner = point_mass(10.0)
        mem = point_mass(4.0)
        cost = expected_nested_loop_cost(outer, inner, mem)
        assert np.isfinite(cost) and cost > 0

    def test_many_tiny_buckets_stay_finite(self):
        # 64 buckets whose masses renormalize with 1e-17-scale residue.
        rng = np.random.default_rng(3)
        vals = np.sort(rng.uniform(2.0, 400.0, size=64))
        probs = rng.dirichlet(np.full(64, 0.1))
        outer = DiscreteDistribution(vals, probs)
        inner = DiscreteDistribution(vals + 1.0, probs[::-1])
        mem = DiscreteDistribution([4.0, 40.0, 400.0], [0.2, 0.5, 0.3])
        cost = expected_nested_loop_cost(outer, inner, mem)
        assert np.isfinite(cost) and cost > 0
