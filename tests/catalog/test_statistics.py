"""Tests for the statistics catalog."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Catalog, Column, SchemaError, Table
from repro.catalog.statistics import StatisticsCatalog, default_join_selectivity
from repro.core.distributions import two_point


@pytest.fixture
def catalog() -> Catalog:
    return Catalog(
        [
            Table(
                "emp",
                [Column("id", n_distinct=10_000), Column("dept", n_distinct=50)],
                n_rows=10_000,
                rows_per_page=100,
            ),
            Table(
                "dept",
                [Column("id", n_distinct=50), Column("budget")],
                n_rows=50,
                rows_per_page=50,
            ),
        ]
    )


@pytest.fixture
def stats(catalog) -> StatisticsCatalog:
    return StatisticsCatalog(catalog)


class TestBasics:
    def test_sizes_seeded_from_schema(self, stats):
        assert stats.rows("emp") == 10_000
        assert stats.pages("emp") == 100
        assert stats.pages("dept") == 1

    def test_missing_table(self, stats):
        with pytest.raises(SchemaError):
            stats.table_stats("ghost")

    def test_pages_distribution_default_point(self, stats):
        d = stats.pages_distribution("emp")
        assert d.is_point_mass()
        assert d.mean() == 100.0

    def test_size_distribution_attachment(self, stats):
        dist = two_point(80.0, 0.5, 120.0)
        stats.set_size_distribution("emp", dist)
        assert stats.pages_distribution("emp") is dist


class TestJoinSelectivity:
    def test_classic_rule_uses_max_distinct(self, stats):
        sel = stats.join_selectivity("emp", "dept", "dept", "id")
        assert sel == pytest.approx(1.0 / 50)

    def test_fallback_without_distinct_counts(self):
        from repro.catalog.statistics import TableStats

        a = TableStats(n_rows=1000, n_pages=10)
        b = TableStats(n_rows=500, n_pages=5)
        assert default_join_selectivity(a, b, "x", "y") == pytest.approx(1 / 1000)


class TestAnalyze:
    def test_analyze_builds_histogram_and_distinct(self, stats, rng):
        values = rng.integers(0, 50, size=10_000)
        hist = stats.analyze_column("emp", "dept", values, n_buckets=10)
        assert hist.total_rows == 10_000
        assert stats.table_stats("emp").n_distinct["dept"] <= 50

    def test_analyze_unknown_column(self, stats):
        with pytest.raises(SchemaError):
            stats.analyze_column("emp", "salary", [1.0, 2.0])
