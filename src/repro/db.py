"""A high-level facade: the library as a tiny, adoptable database.

:class:`Database` wires the substrates together behind four verbs —
load data, declare a join query, optimize it under an uncertain
environment, execute the chosen plan on the tuple engine:

    >>> db = Database(rows_per_page=25)
    >>> db.create_table("dept", ["id", "name_len"],
    ...                 [(i, i % 7) for i in range(40)])
    >>> db.generate_table("emp", 2000, [
    ...     ColumnSpec("id", "serial"), ColumnSpec("dept", "fk", domain=40)])
    >>> q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
    >>> result = db.optimize(q, two_point(50, 0.7, 10))
    >>> rows, io = db.execute(result.plan, memory_pages=30)

Optimization dispatches on the environment's type: a float runs the LSC
baseline, a :class:`DiscreteDistribution` runs Algorithm C (or D when the
query carries distributional sizes/selectivities), a
:class:`MarkovParameter` runs the dynamic variant, and a
:class:`DiscreteBayesNet` runs the dependence-aware optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .catalog.schema import Catalog, Column, Table
from .catalog.feedback import SelectivityFeedback
from .catalog.statistics import StatisticsCatalog
from .core.bayesnet import DiscreteBayesNet
from .core.distributions import DiscreteDistribution
from .core.markov import MarkovParameter
from .costmodel.model import CostModel
from .engine.buffer import BufferPool, IOCounters
from .engine.executor import ExecutionContext, execute_plan
from .engine.pages import PagedFile, Schema, StorageManager
from .optimizer.dependent import optimize_dependent
from .optimizer.facade import optimize_algorithm_c, optimize_algorithm_d, optimize_lsc
from .optimizer.result import OptimizationResult
from .plans.nodes import Plan
from .plans.query import JoinQuery
from .workloads.datagen import ColumnSpec, generate_table

__all__ = ["Database", "QueryResult"]

Environment = Union[
    float, DiscreteDistribution, MarkovParameter, DiscreteBayesNet
]


@dataclass
class QueryResult:
    """Materialised output of an executed plan."""

    rows: List[tuple]
    io: IOCounters
    plan: Plan

    @property
    def n_rows(self) -> int:
        """Number of result tuples."""
        return len(self.rows)


class Database:
    """Catalog + statistics + storage + optimizer + executor, in one box."""

    def __init__(self, rows_per_page: int = 50, histogram_buckets: int = 10):
        if rows_per_page <= 0:
            raise ValueError("rows_per_page must be positive")
        self.rows_per_page = rows_per_page
        self.histogram_buckets = histogram_buckets
        self.catalog = Catalog()
        self.stats = StatisticsCatalog(self.catalog)
        self.storage = StorageManager()
        self._bindings: Dict[str, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Data definition / loading
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[tuple],
    ) -> Table:
        """Load explicit tuples as a new table and ANALYZE every column."""
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(column_names):
                raise ValueError(
                    f"row arity {len(r)} does not match columns {column_names}"
                )
        columns = [Column(c) for c in column_names]
        table = Table(
            name=name,
            columns=columns,
            n_rows=len(rows),
            rows_per_page=self.rows_per_page,
        )
        self.catalog.add(table)
        schema = Schema(tuple(f"{name}.{c}" for c in column_names))
        self.storage.register(
            PagedFile.from_rows(name, schema, rows, self.rows_per_page)
        )
        self._register_stats(table, column_names, rows)
        return table

    def _register_stats(self, table, column_names, rows) -> None:
        # DDL refreshes the shared statistics catalog *in place*: external
        # holders (e.g. a serving OptimizerService keyed on stats.version)
        # must observe the new table as a version bump on the same object,
        # not be stranded on a replaced catalog with a reset fence.
        self.stats.refresh_schema()
        if rows:
            for idx, col in enumerate(column_names):
                values = [float(r[idx]) for r in rows]
                self.stats.analyze_column(
                    table.name, col, values, n_buckets=self.histogram_buckets
                )

    def generate_table(
        self,
        name: str,
        n_rows: int,
        specs: Sequence[ColumnSpec],
        seed: int = 0,
    ) -> Table:
        """Create a synthetic table from column specs (see workloads)."""
        rng = np.random.default_rng(seed)
        gt = generate_table(
            name, n_rows, specs, rng, rows_per_page=self.rows_per_page
        )
        self.catalog.add(gt.table)
        self.storage.register(gt.file)
        self._register_stats(
            gt.table,
            [s.name for s in specs],
            list(zip(*[gt.values[s.name] for s in specs])) if specs and n_rows else [],
        )
        return gt.table

    def table_names(self) -> List[str]:
        """Names of all loaded tables."""
        return self.catalog.names()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def join_query(
        self,
        tables: Sequence[str],
        on: Mapping[Tuple[str, str], Tuple[str, str]],
        required_order: Optional[str] = None,
    ) -> JoinQuery:
        """Declare an equijoin over loaded tables.

        ``on`` maps table pairs to the column pair they join on; join
        selectivities come from the catalog's distinct counts, and the
        executor key bindings are remembered for :meth:`execute`.
        """
        query = JoinQuery.from_catalog(
            self.stats,
            tables,
            dict(on),
            required_order=required_order,
            rows_per_page=self.rows_per_page,
        )
        for (ta, tb), (ca, cb) in on.items():
            label = f"{ta}.{ca}={tb}.{cb}"
            self._bindings[label] = (f"{ta}.{ca}", f"{tb}.{cb}")
        return query

    def optimize(
        self,
        query: JoinQuery,
        environment: Environment,
        cost_model: Optional[CostModel] = None,
        plan_space: str = "left-deep",
    ) -> OptimizationResult:
        """Pick a plan; the optimizer is chosen by the environment's type."""
        if isinstance(environment, DiscreteBayesNet):
            row = optimize_dependent
        elif isinstance(environment, DiscreteDistribution) and query.has_uncertain_sizes():
            row = optimize_algorithm_d
        elif isinstance(environment, (DiscreteDistribution, MarkovParameter)):
            row = optimize_algorithm_c
        elif isinstance(environment, (int, float)):
            row = optimize_lsc
        else:
            raise TypeError(
                f"unsupported environment type {type(environment).__name__}"
            )
        return row(query, environment, cost_model=cost_model, plan_space=plan_space)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        memory_pages: int,
        filters: Optional[Dict[str, "Callable"]] = None,
        feedback: Optional["SelectivityFeedback"] = None,
    ) -> QueryResult:
        """Run a plan on the tuple engine with the given buffer budget.

        ``filters`` maps scan filter labels to row predicates (see
        :func:`repro.engine.executor.execute_plan`).  Passing a
        :class:`~repro.catalog.feedback.SelectivityFeedback` records the
        joins' measured cardinalities into it — the feedback loop.
        """
        if memory_pages < 1:
            raise ValueError("memory_pages must be >= 1")
        pool = BufferPool(memory_pages)
        ctx = ExecutionContext(
            storage=self.storage, pool=pool, rows_per_page=self.rows_per_page
        )
        result_file, io = execute_plan(plan, ctx, self._bindings, filters=filters)
        if feedback is not None:
            feedback.record(ctx.observations)
        rows = [row for page in result_file.pages for row in page.rows]
        ctx.drop_temp(result_file)
        return QueryResult(rows=rows, io=io, plan=plan)

    def run(
        self,
        tables: Sequence[str],
        on: Mapping[Tuple[str, str], Tuple[str, str]],
        environment: Environment,
        memory_pages: int,
        required_order: Optional[str] = None,
    ) -> QueryResult:
        """One-shot convenience: declare, optimize, execute."""
        query = self.join_query(tables, on, required_order=required_order)
        chosen = self.optimize(query, environment)
        return self.execute(chosen.plan, memory_pages)

    def explain(self, plan: Plan) -> str:
        """Human-readable plan rendering."""
        return plan.pretty()
