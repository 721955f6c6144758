"""The one replay driver: a seeded workload through either serving front.

:func:`build_workload` draws the mix, :func:`replay` sends it through
the in-process service (``shards=0``) or a gateway over N worker
processes and reports what its clients saw, and :func:`run_replay` does
both.  The ``python -m repro.cluster`` CLI and
``benchmarks/test_bench_cluster.py`` both drive :func:`run_replay`, so
the benchmark measures exactly what the CLI reports.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import time
from collections import Counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..serving.metrics import quantiles
from ..serving.service import OptimizeRequest, OptimizerService
from ..workloads.queries import random_query, with_selectivity_uncertainty
from .gateway import ClusterGateway

__all__ = ["build_workload", "replay", "run_replay"]

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


async def replay(
    workload: List[OptimizeRequest],
    shards: int,
    concurrency: int = 8,
    kill_worker_at: Optional[int] = None,
    bump_every: Optional[int] = None,
) -> Dict[str, Any]:
    """Replay ``workload`` through a fresh front; return the report.

    ``shards=0`` serves it from an :class:`OptimizerService` whose pool
    has ``concurrency`` threads; ``shards >= 1`` from a
    :class:`ClusterGateway` over that many worker processes.
    ``concurrency`` closed-loop clients share one iterator over the
    workload: each sends its next request as soon as its last one is
    answered, and times it.  The report is what the clients saw —
    throughput, p50/p99, the tier's hit share of answered requests, the
    rungs of fresh answers and the loss accounting (every accepted
    request is answered, even when a worker dies) — plus what only a
    gateway knows (worker memo, restarts, admission; zero in process).

    ``kill_worker_at`` hard-kills worker 0 when that many requests have
    been answered — the crash-resilience drill: the report's ``lost``
    must stay 0 because the gateway replays in-flight work.
    ``bump_every`` moves a catalog version source after every that many
    answers: the fence empties the tier, and in a cluster the repeats
    that follow reach workers that remember them (``worker_memo``).
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if kill_worker_at is not None and shards < 1:
        raise ValueError("the kill drill needs a worker process (shards >= 1)")
    answered = 0
    results: List[Any] = [None] * len(workload)
    latencies: List[float] = []
    source = SimpleNamespace(version=0)

    async with contextlib.AsyncExitStack() as stack:
        if shards:
            gateway = ClusterGateway(shards=shards, catalog_sources=[source])
            await stack.enter_async_context(gateway)
            ask, tier = gateway.optimize, gateway.shared_tier
        else:
            service = OptimizerService(max_workers=concurrency, catalog_sources=[source])
            tier = stack.enter_context(service).cache

            async def ask(request):  # ASYNC001 walks it: no Future.result()
                return await asyncio.wrap_future(service.submit(request))

        queue = iter(enumerate(workload))

        async def client() -> None:
            nonlocal answered
            for index, request in queue:
                sent = time.perf_counter()
                result = results[index] = await ask(request)
                if result.ok:
                    latencies.append(time.perf_counter() - sent)
                if result.status != "shed":
                    answered += 1
                    if bump_every and answered % bump_every == 0:
                        source.version += 1
                    if answered == kill_worker_at:
                        gateway.kill_worker(0)

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(concurrency)))
        wall = time.perf_counter() - t0
        cluster = await gateway.snapshot() if shards else {
            "worker_memo": {"requests": 0, "remembered": 0}, "admission": {}, "restarts": 0}
        entries = tier.stats()["entries"]
        # Must equal the shard count: the tier runs no helper process.
        processes = len(multiprocessing.active_children())

    done = [r for r in results if r is not None]
    ok = [r for r in done if r.ok]
    shed = sum(1 for r in done if r.status == "shed")
    hits = sum(1 for r in ok if r.cache_hit)
    rungs = Counter(r.rung for r in ok if not (r.cache_hit or r.coalesced))
    optimized = sum(rungs.values())
    ordered = sorted(latencies)  # a replay is finite: every answer counts

    return {
        "config": {
            "shards": shards,
            "requests": len(workload),
            "distinct": len({id(r.query) for r in workload}),
            "concurrency": concurrency,
            "kill_worker_at": kill_worker_at,
            "cpu_count": os.cpu_count(),
        },
        "wall_seconds": wall,
        "throughput_qps": len(ok) / wall if wall > 0 else 0.0,
        "optimize_throughput_qps": optimized / wall if wall > 0 else 0.0,
        "accepted": len(done) - shed,
        "answered": len(ok),
        "errors": len(done) - len(ok) - shed,
        "shed": shed,
        "lost": len(workload) - len(done),
        "retried": sum(1 for r in ok if r.retries > 0),
        "coalesced": sum(1 for r in ok if r.coalesced),
        "latency": {"count": len(ordered), "mean": sum(latencies) / len(ordered),
                    "min": ordered[0], "max": ordered[-1], **quantiles(ordered)}
                   if ordered else {"count": 0},
        "rungs": dict(rungs),
        "cache": {"hits": hits, "entries": entries,
                  "hit_rate": hits / len(ok) if ok else 0.0},
        **{key: cluster[key] for key in ("worker_memo", "admission", "restarts")},
        "processes": processes,
    }


def run_replay(
    shards: int = 2,
    n_distinct: int = 16,
    n_requests: int = 64,
    seed: int = 0,
    concurrency: int = 8,
    deadline: Optional[float] = None,
    min_relations: int = 4,
    max_relations: int = 6,
    kill_worker_at: Optional[int] = None,
    schedule: str = "zipf",
    bump_every: Optional[int] = None,
) -> Dict[str, Any]:
    """Synchronous entry point: build the workload and replay it."""
    rng = np.random.default_rng(seed)
    workload = build_workload(
        n_distinct, n_requests, rng,
        min_relations=min_relations, max_relations=max_relations,
        deadline=deadline, schedule=schedule,
    )
    return asyncio.run(replay(
        workload, shards=shards, concurrency=concurrency,
        kill_worker_at=kill_worker_at, bump_every=bump_every,
    ))
