"""Zipf replay harness for the cluster tier.

Replays the seeded :func:`repro.serving.workload.build_workload` mix
(chain/star/clique join queries, Zipf-weighted schedule) through a
:class:`~repro.cluster.gateway.ClusterGateway` under bounded client
concurrency, and reports the numbers that justify the tier:
optimize throughput versus shard count, p50/p99 end-to-end latency,
the shared tier's hit rate, the rung distribution, and the loss accounting
(accepted requests must all be answered — degraded or retried, never
dropped — even when a worker is killed mid-replay).

Both the ``python -m repro.cluster`` CLI and
``benchmarks/test_bench_cluster.py`` drive :func:`run_replay`; keeping
one harness means the benchmark measures exactly what the CLI reports.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

from ..serving.service import OptimizeRequest
from ..serving.workload import build_workload
from .admission import AdmissionController
from .gateway import ClusterGateway, ClusterResult

__all__ = ["build_workload", "replay", "run_replay"]


async def replay(
    workload: List[OptimizeRequest],
    shards: int,
    concurrency: int = 8,
    catalog_sources=(),
    admission: Optional[AdmissionController] = None,
    kill_worker_at: Optional[int] = None,
    bump_every: Optional[int] = None,
) -> Dict[str, Any]:
    """Replay ``workload`` through a fresh gateway; return the report.

    ``concurrency`` closed-loop clients share one iterator over the
    workload: each sends its next request as soon as its last one is
    answered.

    ``kill_worker_at`` hard-kills worker 0 after that many requests have
    been answered — the crash-resilience drill: the report's ``lost``
    must stay 0 because the gateway replays in-flight work.
    ``bump_every`` moves a catalog version source after every that many
    answers: the fence empties the gateway's tier, and the repeats that
    follow reach workers that remember them (``worker_memo``).
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    answered = 0
    killed = False
    results: List[Optional[ClusterResult]] = [None] * len(workload)
    source = SimpleNamespace(version=0)

    async with ClusterGateway(
        shards=shards,
        catalog_sources=[*catalog_sources, source],
        admission=admission,
    ) as gateway:
        queue = iter(enumerate(workload))

        async def client() -> None:
            nonlocal answered, killed
            for index, request in queue:
                result = results[index] = await gateway.optimize(request)
                if result.status != "shed":
                    answered += 1
                    if bump_every and answered % bump_every == 0:
                        source.version += 1
                if (
                    kill_worker_at is not None
                    and not killed
                    and answered >= kill_worker_at
                ):
                    killed = True
                    gateway.kill_worker(0)

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(concurrency)))
        wall = time.perf_counter() - t0
        snapshot = await gateway.snapshot()
        # Must equal the shard count: the tier runs no helper process.
        processes = len(multiprocessing.active_children())

    done = [r for r in results if r is not None]
    ok = [r for r in done if r.status == "ok"]
    shed = [r for r in done if r.status == "shed"]
    errors = [r for r in done if r.status == "error"]
    accepted = len(done) - len(shed)
    lost = len(workload) - len(done)
    retried = sum(1 for r in ok if r.retries > 0)
    coalesced = sum(1 for r in ok if r.coalesced)
    optimized = sum(1 for r in ok if not r.cache_hit and not r.coalesced)

    return {
        "config": {
            "shards": shards,
            "requests": len(workload),
            "concurrency": concurrency,
            "kill_worker_at": kill_worker_at,
            "cpu_count": os.cpu_count(),
        },
        "wall_seconds": wall,
        "throughput_qps": len(ok) / wall if wall > 0 else 0.0,
        "optimize_throughput_qps": optimized / wall if wall > 0 else 0.0,
        "accepted": accepted,
        "answered": len(ok),
        "errors": len(errors),
        "shed": len(shed),
        "lost": lost,
        "retried": retried,
        "coalesced": coalesced,
        "latency": snapshot["latency"],
        "rungs": snapshot["rungs"],
        "cache_tiers": snapshot["cache_tiers"],
        "worker_memo": snapshot["worker_memo"],
        "admission": snapshot["admission"],
        "restarts": snapshot["restarts"],
        "shards": snapshot["shards"],
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
    admission: Optional[AdmissionController] = None,
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
        admission=admission, kill_worker_at=kill_worker_at,
        bump_every=bump_every,
    ))
