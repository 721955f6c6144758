"""The replay driver: ``python -m repro.cluster``.

Replays a seeded Zipf workload through the in-process
:class:`~repro.serving.service.OptimizerService` (``--shards 0``) or
through a gateway over that many worker processes, and prints one
report for either: throughput, latency percentiles, the tier's hit
share, the degradation-rung distribution and the loss accounting.

Examples::

    python -m repro.cluster --quick --shards 0 --concurrency 1  # CI smoke
    python -m repro.cluster --requests 1000 --shards 4
    python -m repro.cluster --requests 500 --shards 4 --kill-worker
"""

from __future__ import annotations

import argparse
import sys

from .replay import run_replay


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Replay a Zipf workload through the in-process service "
                    "(--shards 0) or the sharded cluster tier.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for smoke testing")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes; 0 serves in process (default 2)")
    parser.add_argument("--distinct", type=int, default=16,
                        help="number of distinct queries (default 16)")
    parser.add_argument("--requests", type=int, default=64,
                        help="total requests to replay (default 64)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop clients (default 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (default 0)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request budget in milliseconds")
    parser.add_argument("--relations", type=int, nargs=2, default=(4, 6),
                        metavar=("MIN", "MAX"),
                        help="per-query relation count range (default 4 6)")
    parser.add_argument("--kill-worker", action="store_true",
                        help="kill worker 0 mid-replay (crash drill)")
    parser.add_argument("--bump-every", type=int, default=None, metavar="N",
                        help="move a catalog version source every N answers")
    args = parser.parse_args(argv)
    if args.kill_worker and args.shards < 1:
        parser.error("--kill-worker needs a worker process (--shards >= 1)")

    if args.quick:
        args.distinct, args.requests = 4, 12
        args.relations = (3, 4)
        args.concurrency = min(args.concurrency, 4)

    report = run_replay(
        shards=args.shards,
        n_distinct=args.distinct,
        n_requests=args.requests,
        seed=args.seed,
        concurrency=args.concurrency,
        deadline=None if args.deadline is None else args.deadline / 1000.0,
        min_relations=args.relations[0],
        max_relations=args.relations[1],
        kill_worker_at=args.requests // 2 if args.kill_worker else None,
        bump_every=args.bump_every,
    )
    cfg = report["config"]
    print(f"replay: {cfg['requests']} requests over {cfg['distinct']} "
          f"distinct queries, {cfg['shards']} shards, concurrency {cfg['concurrency']}, "
          f"seed {args.seed}, {cfg['cpu_count']} cpus")
    print(f"throughput: {report['throughput_qps']:.1f} q/s "
          f"({report['optimize_throughput_qps']:.1f} optimizations/s) "
          f"over {report['wall_seconds']:.3f}s")
    print(f"accounting: accepted {report['accepted']}, "
          f"answered {report['answered']}, errors {report['errors']}, "
          f"shed {report['shed']}, lost {report['lost']}, "
          f"retried {report['retried']}, coalesced {report['coalesced']}")
    lat = report["latency"]
    if lat.get("count"):
        print(f"latency: p50 {lat['p50'] * 1e3:.1f} ms, "
              f"p99 {lat['p99'] * 1e3:.1f} ms over {lat['count']} requests")
    cache = report["cache"]
    print(f"cache: hit {cache['hits']} of {report['answered']} answered "
          f"({cache['hit_rate']:.0%}), {cache['entries']} entries")
    memo = report["worker_memo"]
    print(f"worker memo: reused {memo['remembered']} of {memo['requests']} misses")
    print(f"rungs: {report['rungs']}")
    print(f"processes: {report['processes']}")
    if report["restarts"]:
        print(f"worker restarts: {report['restarts']}")
    if report["admission"]:
        adm = report["admission"]
        print(f"admission: admit {adm.get('admit', 0):.0f}, "
              f"degrade {adm.get('degrade', 0):.0f}, "
              f"shed {adm.get('shed', 0):.0f}")
    return 0 if report["lost"] == 0 and report["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
