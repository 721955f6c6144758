"""The replay driver that ``python -m repro.cluster`` and the cluster
benchmarks share: closed-loop clients over one iterator, and a report
whose shape the CLI and CI read."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterGateway
from repro.cluster.replay import build_workload, replay

_REPORT_KEYS = {
    "accepted", "admission", "answered", "cache_tiers", "coalesced",
    "config", "errors", "latency", "lost", "optimize_throughput_qps",
    "processes", "restarts", "retried", "rungs", "shards", "shed",
    "throughput_qps", "wall_seconds", "worker_memo",
}
_CONFIG_KEYS = {
    "concurrency", "cpu_count", "kill_worker_at", "requests", "shards",
}


def _workload():
    """Twelve tiny (3–4 relation) requests, Zipf over six queries."""
    return build_workload(6, 12, np.random.default_rng(3),
                          min_relations=3, max_relations=4)


@pytest.mark.parametrize("concurrency", [1, 32])
def test_every_request_is_answered_exactly_once(concurrency, monkeypatch):
    workload = _workload()
    asked = []
    real = ClusterGateway.optimize

    async def counting(self, request=None, **kwargs):
        asked.append(request)
        return await real(self, request, **kwargs)

    monkeypatch.setattr(ClusterGateway, "optimize", counting)
    report = asyncio.run(replay(workload, shards=2, concurrency=concurrency))

    assert sorted(map(id, asked)) == sorted(map(id, workload))
    assert report["lost"] == report["errors"] == report["shed"] == 0
    assert report["answered"] == report["accepted"] == len(workload)
    assert set(report) == _REPORT_KEYS
    assert set(report["config"]) == _CONFIG_KEYS
    assert report["config"]["concurrency"] == concurrency
    assert report["processes"] == 2


def test_a_version_bump_sends_repeats_to_workers_that_remember_them():
    # One client, a bump after every answer: each request misses the
    # emptied tier and reaches its shard, which has decoded every
    # repeat of a query before.
    workload = _workload()
    report = asyncio.run(replay(workload, shards=2, concurrency=1,
                                bump_every=1))
    distinct = len({id(r.query) for r in workload})
    assert distinct < len(workload)
    assert report["lost"] == 0 and report["answered"] == len(workload)
    assert report["worker_memo"] == {
        "requests": len(workload), "remembered": len(workload) - distinct,
    }


def test_no_client_is_refused():
    with pytest.raises(ValueError, match="concurrency"):
        asyncio.run(replay(_workload(), shards=1, concurrency=0))
