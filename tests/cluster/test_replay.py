"""The one replay driver that ``python -m repro.cluster`` and the cluster
benchmarks share: closed-loop clients over one iterator, through the
in-process service (``shards=0``) or the gateway, and a report whose
shape the CLI and CI read."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterGateway
from repro.cluster.__main__ import main
from repro.cluster.replay import build_workload, replay
from repro.serving.service import OptimizerService

_REPORT_KEYS = {
    "accepted", "admission", "answered", "cache", "coalesced",
    "config", "errors", "latency", "lost", "optimize_throughput_qps",
    "processes", "restarts", "retried", "rungs", "shed",
    "throughput_qps", "wall_seconds", "worker_memo",
}
_CONFIG_KEYS = {
    "concurrency", "cpu_count", "distinct", "kill_worker_at", "requests",
    "shards",
}


def _workload():
    """Twelve tiny (3–4 relation) requests, Zipf over six queries."""
    return build_workload(6, 12, np.random.default_rng(3),
                          min_relations=3, max_relations=4)


# Ids name the concurrency; the in-process front's carry a prefix.
@pytest.mark.parametrize(
    "shards, concurrency", [(2, 1), (2, 32), (0, 1), (0, 32)],
    ids=["1", "32", "in-process-1", "in-process-32"],
)
def test_every_request_is_answered_exactly_once(shards, concurrency,
                                                monkeypatch):
    workload = _workload()
    asked = []
    front, name = (ClusterGateway, "optimize") if shards else (
        OptimizerService, "submit")
    real = getattr(front, name)

    def counting(self, request=None, **kwargs):
        asked.append(request)
        return real(self, request, **kwargs)

    monkeypatch.setattr(front, name, counting)
    report = asyncio.run(replay(workload, shards=shards,
                                concurrency=concurrency))

    assert sorted(map(id, asked)) == sorted(map(id, workload))
    assert report["lost"] == report["errors"] == report["shed"] == 0
    assert report["answered"] == report["accepted"] == len(workload)
    # Every answer is timed, a coalesced one too.
    assert report["latency"]["count"] == report["answered"]
    assert set(report) == _REPORT_KEYS
    assert set(report["config"]) == _CONFIG_KEYS
    assert report["config"]["concurrency"] == concurrency
    assert report["processes"] == shards


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


def test_an_in_process_version_bump_empties_the_tier_every_time():
    workload = _workload()
    report = asyncio.run(replay(workload, shards=0, concurrency=1,
                                bump_every=1))
    assert report["lost"] == 0 and report["answered"] == len(workload)
    assert report["cache"]["hits"] == 0
    assert sum(report["rungs"].values()) == len(workload)
    assert report["worker_memo"] == {"requests": 0, "remembered": 0}


def test_no_client_is_refused():
    with pytest.raises(ValueError, match="concurrency"):
        asyncio.run(replay(_workload(), shards=1, concurrency=0))


def test_the_cli_replays_in_process_and_refuses_a_kill_without_workers():
    assert main(["--quick", "--shards", "0", "--concurrency", "1"]) == 0
    with pytest.raises(SystemExit) as refused:
        main(["--shards", "0", "--kill-worker"])
    assert refused.value.code == 2
