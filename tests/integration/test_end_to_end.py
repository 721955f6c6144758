"""End-to-end integration: generate data → catalog → optimize → execute.

The full pipeline a user of the library would run: synthesize a database,
derive statistics, build a query from the catalog, optimize it under an
uncertain environment, and actually execute the chosen plan on the
tuple-level engine — checking that the result is correct and that the LEC
plan's measured I/O beats or ties the LSC plan's across environments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizer import lsc_at_mean, optimize_algorithm_c
from repro.core.distributions import DiscreteDistribution
from repro.engine.buffer import BufferPool
from repro.engine.executor import ExecutionContext, execute_plan
from repro.plans.query import JoinQuery
from repro.workloads.datagen import ColumnSpec, build_database


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(2024)
    return build_database(
        {
            "orders": (
                6000,
                [
                    ColumnSpec("id", "serial"),
                    ColumnSpec("cust", "fk", domain=400),
                ],
            ),
            "customers": (
                400,
                [
                    ColumnSpec("id", "serial"),
                    ColumnSpec("region", "fk", domain=20),
                ],
            ),
            "regions": (20, [ColumnSpec("id", "serial")]),
        },
        rng,
        rows_per_page=25,
    )


@pytest.fixture(scope="module")
def query(database) -> JoinQuery:
    _, stats, _ = database
    return JoinQuery.from_catalog(
        stats,
        ["orders", "customers", "regions"],
        {
            ("orders", "customers"): ("cust", "id"),
            ("customers", "regions"): ("region", "id"),
        },
    )


BINDINGS = {
    "orders.cust=customers.id": ("orders.cust", "customers.id"),
    "customers.region=regions.id": ("customers.region", "regions.id"),
}


class TestPipeline:
    def test_catalog_derived_query_is_sane(self, query):
        assert query.n_relations == 3
        assert query.is_connected()
        # 1/max(V) rule: customers.id has 400 distinct values.
        pred = next(p for p in query.predicates if "cust" in p.label)
        assert pred.selectivity == pytest.approx(1 / 400, rel=0.05)

    def test_optimizer_runs_on_catalog_query(self, query):
        memory = DiscreteDistribution([8.0, 30.0, 120.0], [0.3, 0.4, 0.3])
        res = optimize_algorithm_c(query, memory)
        assert res.plan.relations() == frozenset(
            ["orders", "customers", "regions"]
        )

    @pytest.mark.parametrize("capacity", [6, 20, 100])
    def test_chosen_plan_executes_correctly(self, database, query, capacity):
        _, _, storage = database
        memory = DiscreteDistribution([8.0, 30.0, 120.0], [0.3, 0.4, 0.3])
        res = optimize_algorithm_c(query, memory)
        pool = BufferPool(capacity)
        ctx = ExecutionContext(storage=storage, pool=pool, rows_per_page=25)
        result, io = execute_plan(res.plan, ctx, BINDINGS)
        # Every order matches exactly one customer and one region.
        assert result.n_rows == 6000
        assert io.total > 0

    def test_lec_measured_io_beats_or_ties_lsc_on_average(self, database, query):
        """The paper's bottom line, measured on real page I/Os.

        Each plan is executed at every memory level; the probability-
        weighted measured I/O of the LEC plan must not exceed the LSC
        plan's.
        """
        _, _, storage = database
        memory = DiscreteDistribution([6.0, 14.0, 90.0], [0.35, 0.35, 0.3])
        lec = optimize_algorithm_c(query, memory)
        lsc = lsc_at_mean(query, memory)

        def weighted_io(plan) -> float:
            total = 0.0
            for m, p in memory.items():
                pool = BufferPool(int(m))
                ctx = ExecutionContext(
                    storage=storage, pool=pool, rows_per_page=25
                )
                result, io = execute_plan(plan, ctx, BINDINGS)
                ctx.drop_temp(result)
                total += p * io.total
            return total

        io_lec = weighted_io(lec.plan)
        io_lsc = weighted_io(lsc.plan)
        # Allow a modest tolerance: the analytic model and the executor
        # differ in constants, but the ordering should hold.
        assert io_lec <= io_lsc * 1.1

    def test_all_join_orders_execute_to_same_result(self, database, query):
        """Executor sanity: every valid plan computes the same join."""
        from repro.costmodel.model import DEFAULT_METHODS
        from repro.optimizer.exhaustive import enumerate_left_deep_plans

        _, _, storage = database
        counts = set()
        plans = list(enumerate_left_deep_plans(query, DEFAULT_METHODS))[:6]
        for plan in plans:
            pool = BufferPool(30)
            ctx = ExecutionContext(storage=storage, pool=pool, rows_per_page=25)
            result, _ = execute_plan(plan, ctx, BINDINGS)
            counts.add(result.n_rows)
            ctx.drop_temp(result)
        assert counts == {6000}
