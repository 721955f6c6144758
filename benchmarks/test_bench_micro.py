"""Micro-benchmarks for the hot paths of the library.

These time the primitives whose complexity the paper argues about:
single-invocation DP throughput, the b-scaling of Algorithm C, the
linear-time vs naive expected cost, and the distribution kernel ops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_c, optimize_lsc
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.expected_cost import (
    expected_join_cost_fast,
    expected_join_cost_naive,
)
from repro.costmodel import formulas
from repro.costmodel.model import CostModel
from repro.plans.properties import JoinMethod
from repro.workloads.queries import chain_query


@pytest.fixture(scope="module")
def query6():
    return chain_query(
        6, np.random.default_rng(0), min_pages=500, max_pages=200000,
        require_order=True,
    )


@pytest.fixture(scope="module")
def memory8():
    rng = np.random.default_rng(1)
    vals = np.sort(rng.uniform(50, 5000, 8))
    return DiscreteDistribution(vals, rng.dirichlet(np.ones(8)))


def _dist(seed, b, lo, hi):
    rng = np.random.default_rng(seed)
    return DiscreteDistribution(
        np.sort(rng.uniform(lo, hi, b)), rng.dirichlet(np.ones(b))
    )


class TestOptimizerThroughput:
    def test_lsc_single_invocation(self, benchmark, query6):
        benchmark(lambda: optimize_lsc(query6, 1200.0, cost_model=CostModel(count_evaluations=False)))

    def test_algorithm_c_8_buckets(self, benchmark, query6, memory8):
        benchmark(
            lambda: optimize_algorithm_c(
                query6, memory8, cost_model=CostModel(count_evaluations=False)
            )
        )

    def test_algorithm_c_bushy(self, benchmark, memory8):
        from repro.workloads.queries import clique_query

        q = clique_query(5, np.random.default_rng(3))
        benchmark(
            lambda: optimize_algorithm_c(
                q,
                memory8,
                cost_model=CostModel(count_evaluations=False),
                plan_space="bushy",
            )
        )


class TestExpectedCostKernels:
    @pytest.mark.parametrize("b", [8, 32])
    def test_naive_triple_loop(self, benchmark, b):
        left = _dist(10, b, 100, 1e6)
        right = _dist(11, b, 100, 1e6)
        memory = _dist(12, b, 10, 5000)
        benchmark(
            lambda: expected_join_cost_naive(
                formulas.join_cost, JoinMethod.SORT_MERGE, left, right, memory
            )
        )

    @pytest.mark.parametrize("b", [8, 32])
    def test_fast_linear(self, benchmark, b):
        left = _dist(10, b, 100, 1e6)
        right = _dist(11, b, 100, 1e6)
        memory = _dist(12, b, 10, 5000)
        benchmark(
            lambda: expected_join_cost_fast(
                JoinMethod.SORT_MERGE, left, right, memory
            )
        )


class TestDistributionKernels:
    def test_rebucket(self, benchmark):
        d = _dist(20, 512, 0, 1e6)
        benchmark(lambda: d.rebucket(16))

    def test_independent_product(self, benchmark):
        a = _dist(21, 24, 1, 1e3)
        b = _dist(22, 24, 1, 1e3)
        benchmark(lambda: a.multiply(b))

    def test_expectation_of_step_function(self, benchmark):
        d = _dist(23, 256, 0, 1e6)
        benchmark(lambda: d.expectation(lambda v: 2.0 if v > 5e5 else 6.0))
