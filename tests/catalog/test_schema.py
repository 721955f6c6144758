"""Tests for schema objects."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Catalog, Column, Index, SchemaError, Table


class TestColumn:
    def test_valid(self):
        c = Column("id", dtype="int", n_distinct=100)
        assert c.name == "id"

    def test_rejects_bad_dtype(self):
        with pytest.raises(SchemaError):
            Column("x", dtype="varchar")

    def test_rejects_nonpositive_distinct(self):
        with pytest.raises(SchemaError):
            Column("x", n_distinct=0)


class TestIndex:
    def test_valid(self):
        idx = Index(table="t", column="c", clustered=True, height=3)
        assert idx.height == 3

    def test_rejects_zero_height(self):
        with pytest.raises(SchemaError):
            Index(table="t", column="c", height=0)


class TestTable:
    def _table(self, **kwargs):
        defaults = dict(
            name="emp",
            columns=[Column("id"), Column("dept")],
            n_rows=1000,
            rows_per_page=100,
        )
        defaults.update(kwargs)
        return Table(**defaults)

    def test_page_count_rounds_up(self):
        assert self._table(n_rows=1001).n_pages == 11
        assert self._table(n_rows=1000).n_pages == 10

    def test_empty_table_zero_pages(self):
        assert self._table(n_rows=0).n_pages == 0

    def test_tiny_table_one_page(self):
        assert self._table(n_rows=1).n_pages == 1

    def test_column_lookup(self):
        t = self._table()
        assert t.column("dept").name == "dept"
        assert t.has_column("id")
        assert not t.has_column("nope")
        with pytest.raises(SchemaError):
            t.column("nope")

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            self._table(columns=[Column("id"), Column("id")])

    def test_rejects_foreign_index(self):
        with pytest.raises(SchemaError):
            self._table(indexes=[Index(table="other", column="id")])

    def test_rejects_index_on_missing_column(self):
        with pytest.raises(SchemaError):
            self._table(indexes=[Index(table="emp", column="ghost")])

    def test_rejects_bad_sizes(self):
        with pytest.raises(SchemaError):
            self._table(n_rows=-1)
        with pytest.raises(SchemaError):
            self._table(rows_per_page=0)
        with pytest.raises(SchemaError):
            self._table(name="")


class TestCatalog:
    def test_add_and_lookup(self):
        t = Table("a", [Column("x")], n_rows=10)
        cat = Catalog([t])
        assert cat.table("a") is t
        assert "a" in cat
        assert len(cat) == 1
        assert [t.name for t in cat] == ["a"]

    def test_duplicate_rejected(self):
        t = Table("a", [Column("x")], n_rows=10)
        cat = Catalog([t])
        with pytest.raises(SchemaError):
            cat.add(Table("a", [Column("y")], n_rows=5))

    def test_missing_lookup(self):
        with pytest.raises(SchemaError):
            Catalog().table("ghost")

    def test_iteration_order(self):
        cat = Catalog(
            [Table("b", [Column("x")], n_rows=1), Table("a", [Column("x")], n_rows=1)]
        )
        assert [t.name for t in cat] == ["b", "a"]
