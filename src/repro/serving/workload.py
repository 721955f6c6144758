"""The seeded replay workload both drivers share.

``python -m repro.serving`` and ``python -m repro.cluster`` (and
``benchmarks/test_bench_cluster.py``) replay the same generator: a mix
of chain/star/clique join queries with distributional selectivities and
a schedule of picks over them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..workloads.queries import random_query, with_selectivity_uncertainty
from .service import OptimizeRequest

__all__ = ["build_workload"]

#: The memory-size distribution every replay request optimizes under.
_MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


def build_workload(
    n_distinct: int,
    n_requests: int,
    rng: np.random.Generator,
    min_relations: int = 4,
    max_relations: int = 6,
    deadline: Optional[float] = None,
    schedule: str = "zipf",
) -> List[OptimizeRequest]:
    """Distinct queries plus a replay schedule over them.

    ``schedule="zipf"`` (default) draws ``n_requests`` picks with
    1/rank weights — the realistic serving mix, where the cache and
    coalescing carry the popular head.  ``schedule="unique"`` cycles
    through the distinct queries round-robin, so with ``n_requests ==
    n_distinct`` every request is a fresh optimization — the CPU-bound
    setting the shard-scaling benchmark measures.

    ``min_relations``/``max_relations`` set the per-query DP size — 4–6
    relations keeps a single optimization in the multi-millisecond range,
    so the replay is CPU-bound in the workers rather than wire-bound.
    """
    queries = []
    for _ in range(n_distinct):
        base = random_query(
            int(rng.integers(min_relations, max_relations + 1)), rng
        )
        queries.append(with_selectivity_uncertainty(base, 1.0, n_buckets=4))
    if schedule == "zipf":
        weights = 1.0 / np.arange(1, n_distinct + 1)
        weights /= weights.sum()
        picks = rng.choice(n_distinct, size=n_requests, p=weights)
    elif schedule == "unique":
        picks = np.arange(n_requests) % n_distinct
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return [
        OptimizeRequest(
            query=queries[i], objective="lec", memory=_MEMORY,
            deadline=deadline,
        )
        for i in picks
    ]
