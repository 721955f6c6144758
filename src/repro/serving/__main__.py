"""Replayable serving workload driver: ``python -m repro.serving``.

Generates a seeded mix of chain/star/clique queries, replays them
through an :class:`~repro.serving.service.OptimizerService` with a
Zipf-ish repetition pattern (a few hot queries, a long tail), and
reports cold- vs warm-cache throughput, the cache hit rate, the
degradation-ladder counters and the latency percentiles — the numbers
that justify a plan cache in the first place.

``--quick`` shrinks everything for CI smoke testing; ``--deadline``
adds a budget (in milliseconds) to every request so the degradation
ladder is exercised too.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .service import OptimizerService
from .workload import build_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Replay a synthetic workload through OptimizerService.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for smoke testing")
    parser.add_argument("--distinct", type=int, default=12,
                        help="number of distinct queries (default 12)")
    parser.add_argument("--requests", type=int, default=120,
                        help="total requests to replay (default 120)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service thread-pool size (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (default 0)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request budget in milliseconds")
    args = parser.parse_args(argv)

    if args.quick:
        args.distinct, args.requests, args.workers = 3, 12, 2

    rng = np.random.default_rng(args.seed)
    workload = build_workload(
        args.distinct, args.requests, rng, min_relations=3, max_relations=5
    )
    deadline = None if args.deadline is None else args.deadline / 1000.0

    with OptimizerService(
        max_workers=args.workers, default_deadline=deadline
    ) as service:
        # Cold pass: every distinct query once, cache initially empty.
        distinct = {id(r.query): r for r in workload}
        t0 = time.perf_counter()
        for request in distinct.values():
            service.optimize_batch([request])
        cold_s = time.perf_counter() - t0

        # Warm pass: replay the whole schedule through the pool.
        t0 = time.perf_counter()
        results = service.optimize_batch(workload)
        warm_s = time.perf_counter() - t0

        snap = service.metrics_snapshot()
        cache = service.cache.stats()

    hits = sum(1 for r in results if r.cache_hit)
    rungs = {}
    for r in results:
        if not r.cache_hit:
            rungs[r.rung] = rungs.get(r.rung, 0) + 1

    print(f"workload: {len(distinct)} distinct queries, "
          f"{len(workload)} requests, seed {args.seed}")
    print(f"cold pass:  {len(distinct)} optimizations in {cold_s:.3f}s "
          f"({len(distinct) / cold_s:.1f} q/s)")
    print(f"warm replay: {len(workload)} requests in {warm_s:.3f}s "
          f"({len(workload) / warm_s:.1f} q/s), "
          f"{hits}/{len(workload)} cache hits")
    if rungs:
        print(f"ladder rungs on misses: {rungs}")
    print(f"plan cache: {cache}")
    lat = snap["histograms"].get("serving.latency.optimize", {})
    if lat.get("count"):
        print(f"optimize latency: p50 {lat['p50'] * 1e3:.1f} ms, "
              f"p95 {lat['p95'] * 1e3:.1f} ms over {lat['count']} runs")
    hit_lat = snap["histograms"].get("serving.latency.cache_hit", {})
    if hit_lat.get("count"):
        print(f"cache-hit latency: p50 {hit_lat['p50'] * 1e6:.0f} us "
              f"over {hit_lat['count']} hits")
    degraded = snap["counters"].get("serving.degraded", 0)
    if degraded:
        print(f"degraded answers: {degraded} "
              f"(deadline {args.deadline} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
