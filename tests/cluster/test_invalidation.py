"""Cluster cache invalidation: a catalog bump on the gateway side must
fence out every cached plan in the cluster.

This is the cluster version of ``tests/serving/test_invalidation.py``:
same StatisticsCatalog / SelectivityFeedback version sources.  The fence
is asserted where it lives — the gateway's one plan tier
(``gw.shared_tier``), emptied in the same synchronous step that notices
the bump; workers cache nothing and are never told.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.catalog.feedback import SelectivityFeedback
from repro.catalog.schema import Catalog, Column, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.cluster import ClusterGateway
from repro.core.distributions import DiscreteDistribution
from repro.engine.executor import JoinObservation
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizeRequest

_MEMORY = DiscreteDistribution([300.0, 900.0], [0.5, 0.5])


@pytest.fixture
def stats_catalog() -> StatisticsCatalog:
    schema = Catalog(
        [
            Table("R", [Column("a"), Column("b")], n_rows=5_000_000),
            Table("S", [Column("b"), Column("c")], n_rows=800_000),
            Table("T", [Column("c")], n_rows=100_000),
        ]
    )
    return StatisticsCatalog(schema)


def _fixed_query() -> JoinQuery:
    """A stable query (constant fingerprint) independent of the catalog."""
    rels = [
        RelationSpec(name="R", pages=5000.0),
        RelationSpec(name="S", pages=800.0),
        RelationSpec(name="T", pages=100.0),
    ]
    return JoinQuery(
        rels,
        [
            JoinPredicate("R", "S", 0.001, label="R=S"),
            JoinPredicate("S", "T", 0.01, label="S=T"),
        ],
    )


def _request() -> OptimizeRequest:
    return OptimizeRequest(query=_fixed_query(), objective="lec",
                           memory=_MEMORY)


def _sized_request(pages: float) -> OptimizeRequest:
    """Distinct fingerprint per ``pages``, so requests never coalesce."""
    query = JoinQuery(
        [RelationSpec(name="R", pages=pages), RelationSpec(name="S", pages=80.0)],
        [JoinPredicate("R", "S", 0.01, label="R=S")],
    )
    return OptimizeRequest(query=query, objective="lec", memory=_MEMORY)


class TestClusterInvalidation:
    def test_analyze_fences_every_tier_on_every_shard(self, stats_catalog):
        async def scenario():
            async with ClusterGateway(
                shards=2, catalog_sources=[stats_catalog]
            ) as gw:
                miss = await gw.optimize(_request())
                hit = await gw.optimize(_request())
                shared_before = len(gw.shared_tier)

                # ANALYZE lands on the gateway side of the wall.
                stats_catalog.analyze_column("R", "a", np.arange(2_000.0))

                after = await gw.optimize(_request())
                shared_after = len(gw.shared_tier)
                re_hit = await gw.optimize(_request())
                snapshot = await gw.snapshot()
                return miss, hit, shared_before, after, shared_after, re_hit, snapshot

        miss, hit, shared_before, after, shared_after, re_hit, snapshot = (
            asyncio.run(scenario())
        )
        assert not miss.cache_hit and hit.cache_hit
        assert shared_before == 1

        # The stale plan was refused: the first answer after the bump is
        # a miss a worker re-computed, and the tier holds only the fresh
        # entry — the stale one was dropped, not left to LRU pressure.
        assert not after.cache_hit and after.worker_latency > 0
        assert after.objective_value == pytest.approx(miss.objective_value)
        assert shared_after == 1
        assert snapshot["cache_tiers"]["invalidations"] == 1
        assert re_hit.cache_hit

    def test_feedback_fences_like_analyze(self, stats_catalog):
        feedback = SelectivityFeedback()

        async def scenario():
            async with ClusterGateway(
                shards=2, catalog_sources=[stats_catalog, feedback]
            ) as gw:
                await gw.optimize(_request())
                hit = await gw.optimize(_request())

                # The fence is the tuple of *all* source versions: a bump
                # of either one moves it.
                feedback.record([JoinObservation("R=S", 1000, 1000, 42)])
                after_feedback = await gw.optimize(_request())
                stats_catalog.analyze_column("R", "a", np.arange(2_000.0))
                after_analyze = await gw.optimize(_request())
                return hit, after_feedback, after_analyze, len(gw.shared_tier)

        hit, after_feedback, after_analyze, entries = asyncio.run(scenario())
        assert hit.cache_hit
        assert not after_feedback.cache_hit
        assert not after_analyze.cache_hit
        assert entries == 1

    def test_fresh_version_caches_normally_after_fence(self, stats_catalog):
        async def scenario():
            async with ClusterGateway(
                shards=1, catalog_sources=[stats_catalog]
            ) as gw:
                await gw.optimize(_request())
                stats_catalog.set_size_distribution(
                    "T", DiscreteDistribution([80.0, 120.0], [0.5, 0.5])
                )
                re_opt = await gw.optimize(_request())
                re_hit = await gw.optimize(_request())
                return re_opt, re_hit

        re_opt, re_hit = asyncio.run(scenario())
        assert not re_opt.cache_hit
        assert re_hit.cache_hit  # the new world caches under the new fence

    def test_bump_racing_a_burst_serves_no_stale_hit(self):
        # Eight requests arrive in one loop iteration right after a bump.
        # The first to be named moves the fence and empties the tier
        # before it — or any of the others — looks a key up, so every
        # first answer per key is a miss; nothing can interleave, because
        # naming, purge and lookup share no suspension point.
        source = SimpleNamespace(version=0)
        requests = [_sized_request(1000.0 + 100.0 * k) for k in range(8)]

        async def burst(gw):
            return await asyncio.gather(*(gw.optimize(r) for r in requests))

        async def scenario():
            async with ClusterGateway(
                shards=2, catalog_sources=[source]
            ) as gw:
                await burst(gw)
                warm = await burst(gw)
                source.version += 1
                return warm, await burst(gw), len(gw.shared_tier)

        warm, after, entries = asyncio.run(scenario())
        assert all(r.ok and r.cache_hit for r in warm)
        assert all(r.ok for r in after)
        assert [r.cache_hit for r in after] == [False] * len(requests)
        assert entries == len(requests)
