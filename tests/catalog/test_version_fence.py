"""Regression tests for the catalog version fence (VER001).

The serving plan cache keys on ``StatisticsCatalog.version``; any code
path that can move the version *backwards* (or leave a mutation
unbumped) can resurrect a plan optimized against dead statistics.
``Database._register_stats`` used to rebuild the catalog from scratch on
every CREATE TABLE, resetting the version to 0 — exactly that hazard.
"""

from __future__ import annotations


from repro.catalog.schema import Catalog, Column, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.core.distributions import two_point
from repro.db import Database
from repro.workloads.datagen import ColumnSpec


def _db_with_table(name="emp", n=120):
    db = Database(rows_per_page=20)
    db.create_table(name, ["id", "dept"], [(i, i % 7) for i in range(n)])
    return db


class TestVersionStart:
    def test_default_starts_at_zero(self):
        cat = Catalog()
        cat.add(Table("t", [Column("c")], n_rows=10, rows_per_page=10))
        assert StatisticsCatalog(cat).version == 0

    def test_version_start_continues_sequence(self):
        cat = Catalog()
        cat.add(Table("t", [Column("c")], n_rows=10, rows_per_page=10))
        stats = StatisticsCatalog(cat, version_start=41)
        assert stats.version == 41
        assert stats.bump_version() == 42


class TestDatabaseDDLBumpsVersion:
    def test_create_table_never_rewinds_version(self):
        db = _db_with_table()
        v1 = db.stats.version
        assert v1 > 0  # per-column ANALYZE already bumped
        db.create_table("dept", ["id", "budget"],
                        [(i, 10.0 * i) for i in range(30)])
        v2 = db.stats.version
        assert v2 > v1
        db.generate_table("proj", 200, [ColumnSpec("id", "serial")])
        assert db.stats.version > v2

    def test_ddl_is_a_mutation_even_without_rows(self):
        db = _db_with_table()
        v1 = db.stats.version
        db.create_table("empty", ["id"], [])
        # No columns analyzed, but the schema changed: the fence moves.
        assert db.stats.version > v1

    def test_histograms_survive_rebuild(self):
        db = _db_with_table()
        before = db.stats.table_stats("emp").histograms["dept"]
        db.create_table("other", ["id"], [(i,) for i in range(10)])
        assert db.stats.table_stats("emp").histograms["dept"] is before

    def test_size_distribution_survives_rebuild_with_bump(self):
        db = _db_with_table()
        dist = two_point(40.0, 0.8, 10.0)
        db.stats.set_size_distribution("emp", dist)
        v = db.stats.version
        db.create_table("other", ["id"], [(i,) for i in range(10)])
        assert db.stats.pages_distribution("emp") == dist
        assert db.stats.version > v


class TestServingSeesDDL:
    def test_plan_cache_key_changes_across_create_table(self):
        """A service keyed on db.stats.version must observe DDL."""
        from repro.serving.service import OptimizerService

        db = _db_with_table()
        service = OptimizerService(catalog_sources=(db.stats,))
        try:
            v_before = service.cache.version  # the plan tier's fence
            db.create_table("dept2", ["id"], [(i,) for i in range(12)])
            v_after = service._catalog_version()
            assert v_after != v_before
            # Strictly greater: versions are a fence, not just "different".
            assert v_after > v_before
        finally:
            service.close()


class TestMutationsStillBump:
    def test_analyze_and_size_distribution_bump(self):
        db = _db_with_table()
        v = db.stats.version
        db.stats.analyze_column("emp", "id", [float(i) for i in range(50)])
        assert db.stats.version == v + 1
        db.stats.set_size_distribution("emp", two_point(40.0, 0.5, 20.0))
        assert db.stats.version == v + 2

    def test_bump_version_is_monotonic(self):
        db = _db_with_table()
        seen = [db.stats.version]
        for _ in range(3):
            db.stats.bump_version()
            seen.append(db.stats.version)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
