"""Schema objects: tables, columns, indexes, and the catalog that holds them.

The optimizer consumes relations through :class:`TableStats` (sizes in
pages and rows, per-column statistics).  The schema layer is deliberately
small — just enough structure for the System-R substrate to reason about
access paths, join predicates and interesting orders — but it is a real
catalog: the tuple-level execution engine (:mod:`repro.engine`) loads data
into these tables and the statistics module derives histograms from that
data, exactly as a DBMS's ANALYZE would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = ["Column", "Index", "Table", "Catalog", "SchemaError"]


class SchemaError(ValueError):
    """Raised on inconsistent schema definitions or lookups."""


@dataclass(frozen=True)
class Column:
    """A column of a relation.

    Attributes
    ----------
    name:
        Column name, unique within its table.
    dtype:
        Logical type tag; the engine supports ``"int"`` and ``"float"``.
    n_distinct:
        Estimated number of distinct values (used for default join
        selectivities via the classic ``1/max(V(A), V(B))`` rule).
    """

    name: str
    dtype: str = "int"
    n_distinct: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "float"):
            raise SchemaError(f"unsupported column dtype {self.dtype!r}")
        if self.n_distinct is not None and self.n_distinct <= 0:
            raise SchemaError("n_distinct must be positive when given")


@dataclass(frozen=True)
class Index:
    """A secondary index over one column of a table.

    Only what the cost model needs: the indexed column, whether the index
    is clustered (determines whether matching rows are contiguous in the
    base table), and its height in levels (each probed level costs one
    page I/O).
    """

    table: str
    column: str
    clustered: bool = False
    height: int = 2

    def __post_init__(self) -> None:
        if self.height < 1:
            raise SchemaError("index height must be >= 1")


@dataclass
class Table:
    """A base relation.

    Sizes are carried both in *rows* (for selectivity arithmetic) and in
    *pages* (the cost unit of the paper).  ``rows_per_page`` ties the two
    together; the executor uses the same figure when paging real tuples.
    """

    name: str
    columns: List[Column]
    n_rows: int
    rows_per_page: int = 100
    indexes: List[Index] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if self.n_rows < 0:
            raise SchemaError("n_rows must be >= 0")
        if self.rows_per_page <= 0:
            raise SchemaError("rows_per_page must be positive")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        for idx in self.indexes:
            if idx.table != self.name:
                raise SchemaError(
                    f"index on table {idx.table!r} attached to {self.name!r}"
                )
            if idx.column not in names:
                raise SchemaError(
                    f"index column {idx.column!r} not in table {self.name!r}"
                )

    @property
    def n_pages(self) -> int:
        """Size of the relation in pages (at least 1 for non-empty tables)."""
        if self.n_rows == 0:
            return 0
        return max(1, -(-self.n_rows // self.rows_per_page))

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        """True when the table has a column of that name."""
        return any(c.name == name for c in self.columns)


class Catalog:
    """A named collection of tables; the optimizer's view of the database."""

    def __init__(self, tables: Iterable[Table] = ()):
        self._tables: Dict[str, Table] = {}
        for t in tables:
            self.add(t)

    def add(self, table: Table) -> None:
        """Register a table; names must be unique."""
        if table.name in self._tables:
            raise SchemaError(f"table {table.name!r} already in catalog")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r} in catalog") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Catalog({', '.join(self._tables)})"
