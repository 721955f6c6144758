"""E7 — linear-time expected join costs (claim C7, Sections 3.6.1-3.6.2).

The naive expected cost of one join with distributional sizes and memory
takes ``b_M·b_L·b_R`` formula evaluations; the paper's algorithms take
``O(b_M + b_L + b_R)``.  We verify exact numerical agreement and measure
the evaluation-count and wall-time advantage as ``b`` grows.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..costmodel.expected_cost import (
    expected_join_cost_fast,
    expected_join_cost_naive,
)
from ..costmodel import CostModel
from ..plans.properties import JoinMethod
from .harness import ExperimentTable

__all__ = ["run"]


def _random_dist(rng: np.random.Generator, b: int, lo: float, hi: float) -> DiscreteDistribution:
    vals = np.sort(rng.uniform(lo, hi, size=b))
    probs = rng.dirichlet(np.ones(b))
    return DiscreteDistribution(vals, probs)


def run(quick: bool = False, seed: int = 0) -> List[ExperimentTable]:
    """Sweep b per method; check agreement and measure speedup."""
    rng = np.random.default_rng(seed)
    buckets = [4, 16, 64] if quick else [4, 8, 16, 32, 64]
    methods = [JoinMethod.SORT_MERGE, JoinMethod.NESTED_LOOP, JoinMethod.GRACE_HASH]
    repeats = 3 if quick else 5

    table = ExperimentTable(
        experiment_id="E7",
        title="Naive (b^3) vs linear-time expected join cost",
        columns=["method", "b", "naive_evals", "max_rel_diff", "time_speedup"],
    )
    for method in methods:
        for b in buckets:
            cm = CostModel()
            max_diff = 0.0
            naive_time = 0.0
            fast_time = 0.0
            for _ in range(repeats):
                left = _random_dist(rng, b, 100.0, 500000.0)
                right = _random_dist(rng, b, 100.0, 500000.0)
                memory = _random_dist(rng, b, 50.0, 5000.0)
                t0 = time.perf_counter()
                naive = expected_join_cost_naive(
                    cm.join_cost, method, left, right, memory
                )
                naive_time += time.perf_counter() - t0
                t0 = time.perf_counter()
                fast = expected_join_cost_fast(method, left, right, memory)
                fast_time += time.perf_counter() - t0
                max_diff = max(max_diff, abs(naive - fast) / max(abs(naive), 1.0))
            table.add(
                method=method.value,
                b=b,
                naive_evals=b**3,
                max_rel_diff=max_diff,
                time_speedup=naive_time / max(fast_time, 1e-9),
            )
    table.notes = (
        "Values agree to float precision; the advantage grows roughly "
        "as b^2 (b^3 naive evaluations vs O(b) work)."
    )
    return [table]


if __name__ == "__main__":
    for t in run():
        print(t)
