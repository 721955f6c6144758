"""End-to-end cache invalidation: catalog mutations must force re-optimization.

The serving layer's correctness hinges on one property: after catalog
statistics change (an ANALYZE) or cardinality feedback arrives, the next
request must never be answered from the plan cache — the cached plan was
optimized against a world that no longer exists.  These tests drive the
whole stack: StatisticsCatalog / SelectivityFeedback versioning →
OptimizerService cache keys → metrics.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.catalog.feedback import SelectivityFeedback
from repro.catalog.schema import Catalog, Column, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.core.distributions import DiscreteDistribution
from repro.engine.executor import JoinObservation
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizerService


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


def query_from_catalog(stats: StatisticsCatalog) -> JoinQuery:
    """Build the R-S-T chain from the catalog's current statistics."""
    rels = [
        RelationSpec(name=t, pages=float(stats.pages(t)),
                     rows=float(stats.rows(t)))
        for t in ("R", "S", "T")
    ]
    return JoinQuery(
        rels,
        [
            JoinPredicate("R", "S", stats.join_selectivity("R", "S", "b", "b"),
                          label="R=S"),
            JoinPredicate("S", "T", stats.join_selectivity("S", "T", "c", "c"),
                          label="S=T"),
        ],
    )


class TestCatalogVersioning:
    def test_analyze_bumps_version(self, stats_catalog):
        v0 = stats_catalog.version
        stats_catalog.analyze_column("R", "a", np.arange(1000.0))
        assert stats_catalog.version == v0 + 1

    def test_size_distribution_bumps_version(self, stats_catalog):
        v0 = stats_catalog.version
        stats_catalog.set_size_distribution(
            "T", DiscreteDistribution([800.0, 1200.0], [0.5, 0.5])
        )
        assert stats_catalog.version == v0 + 1

    def test_explicit_bump(self, stats_catalog):
        v0 = stats_catalog.version
        stats_catalog.table_stats("R").n_pages = 123  # out-of-band edit
        assert stats_catalog.bump_version() == v0 + 1

    def test_feedback_bumps_version_only_on_new_observations(self):
        fb = SelectivityFeedback()
        assert fb.version == 0
        fb.record([])
        assert fb.version == 0
        fb.record([JoinObservation("R=S", 100, 100, 5)])
        assert fb.version == 1


class TestServiceInvalidation:
    def test_analyze_after_hit_forces_reoptimization(self, stats_catalog,
                                                     small_memory_dist):
        with OptimizerService(catalog_sources=[stats_catalog]) as svc:
            query = query_from_catalog(stats_catalog)
            first = svc.optimize(query, "lec", memory=small_memory_dist)
            hit = svc.optimize(query, "lec", memory=small_memory_dist)
            assert not first.cache_hit and hit.cache_hit

            # ANALYZE lands: histogram changes R.a's distinct count.
            stats_catalog.analyze_column("R", "a", np.arange(2_000.0))

            # Same query object, same memory — but the catalog moved on,
            # so the service must re-optimize rather than serve stale.
            after = svc.optimize(query, "lec", memory=small_memory_dist)
            assert not after.cache_hit

            snap = svc.metrics_snapshot()
            assert snap["counters"]["serving.catalog_invalidations"] == 1
            assert svc.cache.stats()["invalidations"] == 1
            # The stale entry was evicted eagerly; only the fresh one lives.
            assert len(svc.cache) == 1

    def test_feedback_after_hit_forces_reoptimization(self, stats_catalog,
                                                      small_memory_dist):
        feedback = SelectivityFeedback()
        with OptimizerService(
            catalog_sources=[stats_catalog, feedback]
        ) as svc:
            query = query_from_catalog(stats_catalog)
            svc.optimize(query, "lec", memory=small_memory_dist)
            assert svc.optimize(query, "lec",
                                memory=small_memory_dist).cache_hit

            feedback.record([JoinObservation("R=S", 1000, 1000, 42)])

            # The learned distribution would change the optimizer's view;
            # the stale plan must not be served.
            after = svc.optimize(query, "lec", memory=small_memory_dist)
            assert not after.cache_hit
            assert svc.cache.stats()["invalidations"] == 1

            # And the feedback-updated query caches under the new version.
            updated = feedback.apply_to_query(query)
            served = svc.optimize(updated, "multiparam",
                                  memory=small_memory_dist)
            assert not served.cache_hit
            assert svc.optimize(updated, "multiparam",
                                memory=small_memory_dist).cache_hit

    def test_rebuilt_query_after_analyze_misses_by_fingerprint(
        self, stats_catalog, small_memory_dist
    ):
        """Even without version plumbing, changed statistics change the
        query fingerprint — versioning and fingerprints are two
        independent fences against staleness."""
        with OptimizerService(catalog_sources=[stats_catalog]) as svc:
            query = query_from_catalog(stats_catalog)
            svc.optimize(query, "lec", memory=small_memory_dist)

            # New statistics change the derived join selectivity.
            stats_catalog.analyze_column("S", "b", np.arange(500.0))
            rebuilt = query_from_catalog(stats_catalog)

            after = svc.optimize(rebuilt, "lec", memory=small_memory_dist)
            assert not after.cache_hit


def test_a_miss_that_finishes_after_a_bump_is_answered_but_not_kept(
    monkeypatch, three_way_query, small_memory_dist
):
    """The in-process twin of the cluster's ``test_a_reply_that_lands_after_
    a_bump_is_delivered_but_not_stored``: while the first request's ladder
    runs, the catalog moves on and a second request moves the fence.  The
    first answer still reaches its caller; the tier does not keep it."""
    source = SimpleNamespace(version=0)
    other = query_from_catalog(StatisticsCatalog(Catalog(
        [Table(t, [Column("b"), Column("c")], n_rows=10_000 * (i + 1))
         for i, t in enumerate("RST")]
    )))
    inner = service_module._optimize

    with OptimizerService(catalog_sources=[source]) as svc:
        def bump_inside_the_ladder(*args, **kwargs):
            monkeypatch.setattr(service_module, "_optimize", inner)  # once
            source.version += 1
            assert not svc.optimize(other, "lec", memory=small_memory_dist).cache_hit
            return inner(*args, **kwargs)

        monkeypatch.setattr(service_module, "_optimize", bump_inside_the_ladder)
        late = svc.optimize(three_way_query, "lec", memory=small_memory_dist)
        assert late.rung == "full" and not late.cache_hit
        # ``other`` alone: ``late`` names a world that is gone.
        assert [key.catalog_version for key in svc.cache._entries] == [(1,)]
        assert svc.cache.version == (1,)
        redo = svc.optimize(three_way_query, "lec", memory=small_memory_dist)

    assert not redo.cache_hit
    assert repr(redo.objective_value) == repr(late.objective_value)
