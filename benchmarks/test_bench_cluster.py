"""Cluster-tier benchmark: optimize throughput vs shard count + crash drill.

The headline claims of ``repro.cluster``:

* on a CPU-bound, all-unique workload, worker processes let the DP runs
  escape the GIL: the test prints optimize throughput at 0 (the
  in-process service), 1, 2 and 4 shards, and on hosts with at least 4
  CPUs asserts that 4 shards reach >= 1.5x of 1 (skipped on fewer CPUs,
  where the speedup cannot physically exist — the printed line names
  the CPU count).  Measured on a 2-CPU host over 480 requests
  (EXPERIMENTS.md, "One replay driver"), 2 shards optimize 1.33x as
  fast as 1 and 1.9x as fast as the in-process service; no host with 4
  CPUs has been measured;
* killing a worker mid-replay loses no accepted request: the gateway
  respawns the worker and replays the in-flight work (workers cache
  nothing, so there is nothing else to restore).

Ratios are printed (``-s``), not snapshotted: the timings tracked
across commits are ``bench/run.py``'s.
"""

from __future__ import annotations

import os

from repro.cluster.replay import run_replay

#: Shard counts replayed: 0 is the in-process service, 1 the one-worker
#: baseline the 4-shard gate compares against.
_SHARD_COUNTS = (0, 1, 2, 4)

#: Mostly-unique workload: every request a distinct query, so throughput
#: measures optimization work, not cache luck.
_REQUESTS = 48

_SPEEDUP_FLOOR = 1.5


def _unique_replay(requests: int = _REQUESTS, **kwargs) -> dict:
    """Replay ``requests`` distinct queries: every one a fresh optimization."""
    return run_replay(
        n_distinct=requests,
        n_requests=requests,
        seed=7,
        concurrency=8,
        min_relations=4,
        max_relations=5,
        schedule="unique",
        **kwargs,
    )


def test_optimize_throughput_scales_with_shards():
    reports = {}
    for shards in _SHARD_COUNTS:
        report = _unique_replay(shards=shards)
        assert report["lost"] == 0 and report["errors"] == 0
        reports[shards] = report

    qps = {n: report["optimize_throughput_qps"] for n, report in reports.items()}
    speedup = qps[4] / qps[1] if qps[1] > 0 else 0.0
    cpus = os.cpu_count() or 1

    print("\noptimize throughput: " + ", ".join(
        f"{n} shards {rate:.1f}/s" for n, rate in qps.items()
    ) + f" (4 vs 1: {speedup:.2f}x on {cpus} CPUs)")

    if cpus >= 4:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"4-shard optimize throughput only {speedup:.2f}x the 1-shard "
            f"baseline on {cpus} CPUs (floor {_SPEEDUP_FLOOR}x)"
        )


def test_worker_kill_loses_no_accepted_request():
    report = run_replay(
        shards=2,
        n_distinct=16,
        n_requests=32,
        seed=11,
        concurrency=8,
        min_relations=3,
        max_relations=4,
        kill_worker_at=12,
    )
    assert report["restarts"] >= 1, "the drill must actually kill a worker"
    assert report["lost"] == 0
    assert report["errors"] == 0
    assert report["answered"] + report["shed"] == report["accepted"] + report["shed"]
    assert report["answered"] == report["accepted"]

