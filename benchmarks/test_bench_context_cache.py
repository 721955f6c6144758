"""Context-cache micro-benchmark: warm vs cold multi-parameter runs.

The headline claim of the OptimizationContext layer: re-optimizing a
query whose context is already warm (sizes, size distributions, step
costs, level columns and DP skeletons memoized) is at least 2x faster
than a cold run —
with bit-identical plans and costs.  Algorithm D is the stress case: it
folds page-count distributions per subset and takes full distributional
expectations per join step, all of which the context absorbs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.optimizer import optimize_algorithm_d
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import OptimizationContext
from repro.costmodel.model import CostModel
from repro.workloads.queries import star_query, with_selectivity_uncertainty


def _setup():
    rng = np.random.default_rng(99)
    base = star_query(5, rng, min_pages=500, max_pages=200000, require_order=True)
    query = with_selectivity_uncertainty(base, 2.0, n_buckets=5)
    memory = DiscreteDistribution(
        [400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25]
    )
    return query, memory


def _run(query, memory, context):
    return optimize_algorithm_d(
        query,
        memory,
        cost_model=CostModel(count_evaluations=False),
        max_buckets=12,
        context=context,
    )


def test_warm_context_at_least_2x_faster_with_identical_result():
    query, memory = _setup()

    t0 = time.perf_counter()
    cold_ctx = OptimizationContext(query)
    cold = _run(query, memory, cold_ctx)
    cold_s = time.perf_counter() - t0

    # Same context again: every size distribution and step cost is a hit.
    t0 = time.perf_counter()
    warm = _run(query, memory, cold_ctx)
    warm_s = time.perf_counter() - t0

    assert warm.plan.signature() == cold.plan.signature()
    assert abs(warm.objective - cold.objective) < 1e-9
    assert cold_ctx.total_hits() > 0
    speedup = cold_s / warm_s
    print(
        f"\ncold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms "
        f"({speedup:.1f}x); cache stats: {cold_ctx.stats()}"
    )
    assert speedup >= 2.0, f"warm run only {speedup:.2f}x faster"


def test_bench_cold_multiparam(benchmark):
    """Baseline: Algorithm D with a fresh context every round."""
    query, memory = _setup()
    result = benchmark.pedantic(
        lambda: _run(query, memory, OptimizationContext(query)),
        rounds=3,
        iterations=1,
    )
    assert result.plan is not None


def test_bench_warm_multiparam(benchmark):
    """Algorithm D against a pre-warmed shared context."""
    query, memory = _setup()
    ctx = OptimizationContext(query)
    cold = _run(query, memory, ctx)  # warm it up
    result = benchmark.pedantic(
        lambda: _run(query, memory, ctx),
        rounds=3,
        iterations=1,
    )
    assert result.plan.signature() == cold.plan.signature()
    assert abs(result.objective - cold.objective) < 1e-9
