"""The one replay driver that ``python -m repro.cluster`` and the cluster
benchmarks share: closed-loop clients over one iterator, through the
in-process service (``shards=0``) or the gateway, and a report whose
shape the CLI and CI read."""

from __future__ import annotations

import asyncio
import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import ClusterGateway
from repro.cluster.__main__ import main
from repro.cluster.replay import build_workload, replay
from repro.serving.service import OptimizerService

# The package re-exports the function ``replay`` under the module's name.
replay_module = importlib.import_module("repro.cluster.replay")

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


def test_the_latency_quantiles_cover_every_answer(monkeypatch):
    # One client on a fake clock: the i-th answer takes i seconds.  Over
    # 3 000 answers the median is 1 500; a window over the last 2 048
    # would report 1 976.
    n = 3000
    ticks = iter([0.0, *(t for i in range(1, n + 1) for t in (0.0, float(i))), 1.0])
    monkeypatch.setattr(replay_module, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    report = asyncio.run(replay(_workload()[:1] * n, shards=0, concurrency=1))
    assert report["latency"] == {"count": n, "mean": 1500.5, "min": 1.0,
                                 "max": 3000.0, "p50": 1500.0, "p95": 2850.0,
                                 "p99": 2970.0}


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
