"""Table- and column-level statistics consumed by the optimizer.

This is the paper's category-1/-2 parameter plumbing: the DBMS "typically
maintains estimates" of data properties (cardinalities, value
distributions) and derives predicate selectivities from them.  The
:class:`StatisticsCatalog` stores, per table, a :class:`TableStats` with
row/page counts and per-column histograms, and answers both the classical
*point-estimate* queries (for the LSC baseline) and *distributional*
queries (for the LEC algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


from ..core.distributions import DiscreteDistribution, point_mass
from .histogram import EquiDepthHistogram, Histogram
from .schema import Catalog, SchemaError, Table

__all__ = ["TableStats", "StatisticsCatalog", "default_join_selectivity"]


@dataclass
class TableStats:
    """Statistics for one table.

    ``size_distribution`` optionally replaces the point page count with a
    distribution — e.g. for remote tables whose cardinality is only known
    approximately — and is what Algorithm D consumes for ``|A_j|``.
    """

    n_rows: int
    n_pages: int
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    n_distinct: Dict[str, int] = field(default_factory=dict)
    size_distribution: Optional[DiscreteDistribution] = None

    def pages_distribution(self) -> DiscreteDistribution:
        """Distribution of the table size in pages (point mass by default)."""
        if self.size_distribution is not None:
            return self.size_distribution
        return point_mass(float(self.n_pages))

    def distinct_values(self, column: str) -> Optional[int]:
        """Distinct-count estimate for a column, if known."""
        if column in self.n_distinct:
            return self.n_distinct[column]
        hist = self.histograms.get(column)
        if hist is not None:
            return hist.n_distinct()
        return None


def default_join_selectivity(
    left: TableStats, right: TableStats, left_col: str, right_col: str
) -> float:
    """The classical System-R equijoin selectivity ``1 / max(V(l), V(r))``.

    Falls back to ``1 / max(rows)`` (a key-foreign-key guess) when distinct
    counts are unavailable.
    """
    vl = left.distinct_values(left_col)
    vr = right.distinct_values(right_col)
    candidates = [v for v in (vl, vr) if v]
    if candidates:
        return 1.0 / max(candidates)
    denom = max(left.n_rows, right.n_rows, 1)
    return 1.0 / denom


class StatisticsCatalog:
    """Statistics for every table in a :class:`~repro.catalog.schema.Catalog`.

    The catalog carries a monotonically increasing :attr:`version`,
    bumped by every mutation (``analyze_column``,
    ``set_size_distribution``, or an explicit :meth:`bump_version` after
    out-of-band edits to a :class:`TableStats`).  The serving layer's
    plan cache embeds this version in its keys, so a plan optimized
    against stale statistics can never be served after an ANALYZE.
    """

    def __init__(self, schema: Catalog, *, version_start: int = 0):
        """``version_start`` lets a rebuilt catalog continue its
        predecessor's version sequence instead of restarting at 0 —
        restarting could collide with a version already baked into plan
        cache keys and resurrect stale plans."""
        self.schema = schema
        self._version = int(version_start)
        self._stats: Dict[str, TableStats] = {
            table.name: self._fresh_table_stats(table) for table in schema
        }

    @staticmethod
    def _fresh_table_stats(table: Table) -> TableStats:
        return TableStats(
            n_rows=table.n_rows,
            n_pages=table.n_pages,
            n_distinct={
                c.name: c.n_distinct
                for c in table.columns
                if c.n_distinct is not None
            },
        )

    # ------------------------------------------------------------------
    # Versioning (cache-invalidation hook)
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter."""
        return self._version

    def bump_version(self) -> int:
        """Record an out-of-band statistics mutation; returns the new version."""
        self._version += 1
        return self._version

    def refresh_schema(self) -> int:
        """Synchronise per-table stats with the schema (the DDL hook).

        New tables get fresh :class:`TableStats`, dropped tables are
        forgotten, existing tables keep their analyzed state — all *in
        place*, so external holders of this catalog (a serving layer
        keyed on :attr:`version`) observe the DDL as a version bump
        rather than being stranded on a replaced object.
        """
        live = set()
        for table in self.schema:
            live.add(table.name)
            if table.name not in self._stats:
                self._stats[table.name] = self._fresh_table_stats(table)
        for name in list(self._stats):
            if name not in live:
                del self._stats[name]
        return self.bump_version()

    # ------------------------------------------------------------------
    # Maintenance (the ANALYZE path)
    # ------------------------------------------------------------------

    def analyze_column(
        self,
        table: str,
        column: str,
        values: Iterable[float],
        n_buckets: int = 10,
    ) -> Histogram:
        """Build (and store) an equi-depth histogram from column data."""
        stats = self.table_stats(table)
        if not self.schema.table(table).has_column(column):
            raise SchemaError(f"no column {column!r} in table {table!r}")
        hist = EquiDepthHistogram.build(values, n_buckets=n_buckets)
        stats.histograms[column] = hist
        stats.n_distinct[column] = hist.n_distinct()
        self._version += 1
        return hist

    def set_size_distribution(
        self, table: str, dist: DiscreteDistribution
    ) -> None:
        """Attach an uncertain page-count distribution to a table."""
        self.table_stats(table).size_distribution = dist
        self._version += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def table_stats(self, table: str) -> TableStats:
        """Statistics record for ``table``."""
        try:
            return self._stats[table]
        except KeyError:
            raise SchemaError(f"no statistics for table {table!r}") from None

    def pages(self, table: str) -> int:
        """Point estimate of a table's size in pages."""
        return self.table_stats(table).n_pages

    def rows(self, table: str) -> int:
        """Point estimate of a table's row count."""
        return self.table_stats(table).n_rows

    def pages_distribution(self, table: str) -> DiscreteDistribution:
        """Distribution of a table's size in pages."""
        return self.table_stats(table).pages_distribution()

    def join_selectivity(
        self, left: str, right: str, left_col: str, right_col: str
    ) -> float:
        """Point equijoin selectivity between two table columns.

        Prefers the histogram bucket-overlap estimate when both columns
        have been analyzed (it accounts for partially aligned value
        ranges); otherwise falls back to the classical ``1/max(V)`` rule.
        """
        from .histogram import join_selectivity_from_histograms

        lh = self.table_stats(left).histograms.get(left_col)
        rh = self.table_stats(right).histograms.get(right_col)
        if lh is not None and rh is not None and lh.n_buckets and rh.n_buckets:
            return join_selectivity_from_histograms(lh, rh)
        return default_join_selectivity(
            self.table_stats(left), self.table_stats(right), left_col, right_col
        )
