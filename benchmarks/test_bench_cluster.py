"""Cluster-tier benchmark: optimize throughput vs shard count + crash drill.

The headline claims of ``repro.cluster``:

* on a CPU-bound, mostly-unique workload, 4 worker processes deliver at
  least 2x the optimize throughput of 1 (the DP runs escape the GIL);
  CI asserts >= 1.5x to absorb runner noise, and the assertion is
  skipped on hosts with fewer than 4 CPUs, where the speedup cannot
  physically exist — the printed line names the CPU count so the
  reading is interpretable either way;
* killing a worker mid-replay loses no accepted request: the gateway
  respawns the worker and replays the in-flight work (workers cache
  nothing, so there is nothing else to restore).

Ratios are printed (``-s``), not snapshotted: the timings tracked
across commits are ``bench/run.py``'s.
"""

from __future__ import annotations

import os

from repro.cluster.replay import run_replay

#: Shard counts replayed (1 is the GIL baseline).
_SHARD_COUNTS = (1, 4)

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

    base = reports[_SHARD_COUNTS[0]]["optimize_throughput_qps"]
    wide = reports[_SHARD_COUNTS[-1]]["optimize_throughput_qps"]
    speedup = wide / base if base > 0 else 0.0
    cpus = os.cpu_count() or 1

    print(f"\noptimize throughput: 1 shard {base:.1f}/s, "
          f"{_SHARD_COUNTS[-1]} shards {wide:.1f}/s "
          f"(speedup {speedup:.2f}x on {cpus} CPUs)")

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

