"""Serving-layer benchmark: warm-cache throughput, hit rate, degradation.

The headline claims of `repro.serving`:

* a repeated-query workload served from the plan cache is at least 5x
  faster than re-optimizing every request (the acceptance bar; in
  practice the gap is orders of magnitude — a cache hit is one JSON
  deserialization vs a full Algorithm C run);
* the replayed workload's hit rate matches its repetition structure;
* under deadline pressure the degradation ladder answers from the LSC
  rung within budget instead of blowing the deadline at full quality.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.distributions import DiscreteDistribution
from repro.serving.service import (
    RUNG_COARSE,
    RUNG_FULL,
    RUNG_LSC,
    Ladder,
    LatencyEstimator,
    OptimizeRequest,
    OptimizerService,
)
from repro.workloads.queries import star_query, with_selectivity_uncertainty


def _workload(n_distinct=4, repeats=10):
    rng = np.random.default_rng(42)
    memory = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
    queries = [
        with_selectivity_uncertainty(
            star_query(4, rng, min_pages=500, max_pages=200000), 1.0, n_buckets=4
        )
        for _ in range(n_distinct)
    ]
    requests = [
        OptimizeRequest(query=q, objective="lec", memory=memory)
        for _ in range(repeats)
        for q in queries
    ]
    return queries, memory, requests


def test_warm_cache_at_least_5x_faster_on_repeated_workload():
    queries, memory, requests = _workload()

    with OptimizerService(max_workers=1) as svc:
        # Cold: every distinct query optimized once.
        t0 = time.perf_counter()
        for q in queries:
            svc.optimize(q, "lec", memory=memory)
        cold_s = time.perf_counter() - t0
        cold_per_q = cold_s / len(queries)

        # Warm: the full repeated workload, all cache hits.
        t0 = time.perf_counter()
        results = svc.optimize_batch(requests)
        warm_s = time.perf_counter() - t0
        warm_per_q = warm_s / len(requests)

    assert all(r.cache_hit for r in results)
    speedup = cold_per_q / warm_per_q
    print(
        f"\ncold {cold_per_q * 1e3:.2f} ms/q, warm {warm_per_q * 1e3:.3f} ms/q "
        f"({speedup:.0f}x); cache stats: {svc.cache.stats()}"
    )
    assert speedup >= 5.0, f"warm serving only {speedup:.1f}x faster"


def test_hit_rate_matches_workload_repetition():
    queries, memory, requests = _workload(n_distinct=5, repeats=8)
    with OptimizerService(max_workers=2) as svc:
        svc.optimize_batch(requests)
        stats = svc.cache.stats()
    # 5 distinct queries, 40 requests: >= 35 hits no matter how the pool
    # interleaved the first arrivals (racing duplicates may both miss).
    assert stats["misses"] <= 2 * len(queries)
    assert stats["hit_rate"] >= 0.8
    snap = svc.metrics_snapshot()
    assert snap["derived"]["plan_cache.hit_rate"] == pytest.approx(
        stats["hit_rate"]
    )


def test_degradation_under_deadline_pressure_stays_within_budget():
    queries, memory, _ = _workload(n_distinct=2, repeats=1)
    est = LatencyEstimator()
    for n_rels in (3, 4, 5):
        est.record(RUNG_FULL, "expected", n_rels, 60.0)
        est.record(RUNG_COARSE, "expected", n_rels, 60.0)
    deadline = 10.0  # generous wall-clock; tiny vs the 60s estimates
    ladder = Ladder(estimator=est)
    t0 = time.perf_counter()
    results = [
        ladder.run(OptimizeRequest(query=q, objective="lec", memory=memory,
                                   deadline=deadline))
        for q in queries
    ]
    elapsed = time.perf_counter() - t0
    snap = ladder.metrics.snapshot()
    assert all(r.rung == RUNG_LSC for r in results)
    assert all(r.latency <= deadline for r in results)
    assert not any(r.deadline_exceeded for r in results)
    assert snap["counters"]["serving.rung.lsc"] == len(results)
    assert snap["counters"]["serving.degraded"] == len(results)
    print(
        f"\n{len(results)} deadline-pressured requests answered from the "
        f"LSC rung in {elapsed * 1e3:.1f} ms total"
    )


def test_bench_cold_serving(benchmark):
    """Baseline: the repeated workload through the ladder alone, no tier."""
    _, memory, requests = _workload(n_distinct=2, repeats=3)

    def run():
        ladder = Ladder()
        return [ladder.run(request) for request in requests]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not any(r.cache_hit for r in results)


def test_bench_warm_serving(benchmark):
    """The same workload against a pre-warmed plan cache."""
    queries, memory, requests = _workload(n_distinct=2, repeats=3)
    svc = OptimizerService(max_workers=1)
    try:
        for q in queries:
            svc.optimize(q, "lec", memory=memory)
        results = benchmark.pedantic(
            lambda: svc.optimize_batch(requests), rounds=1, iterations=1
        )
        assert all(r.cache_hit for r in results)
    finally:
        svc.close()
