"""Tests for the Database facade."""

from __future__ import annotations

import pytest

from repro.core.bayesnet import DiscreteBayesNet
from repro.core.distributions import two_point, uniform_over
from repro.core.markov import sticky_chain
from repro.db import Database, QueryResult
from repro.workloads.datagen import ColumnSpec
from repro.workloads.queries import with_selectivity_uncertainty


@pytest.fixture
def db() -> Database:
    database = Database(rows_per_page=20)
    database.create_table(
        "dept",
        ["id", "region"],
        [(i, i % 5) for i in range(40)],
    )
    database.generate_table(
        "emp",
        1500,
        [ColumnSpec("id", "serial"), ColumnSpec("dept", "fk", domain=40)],
        seed=7,
    )
    database.create_table("region", ["id"], [(r,) for r in range(5)])
    return database


ON = {
    ("emp", "dept"): ("dept", "id"),
    ("dept", "region"): ("region", "id"),
}


class TestDataDefinition:
    def test_tables_registered(self, db):
        assert {t.name for t in db.catalog} == {"dept", "emp", "region"}

    def test_catalog_sizes(self, db):
        assert db.catalog.table("emp").n_rows == 1500
        assert db.catalog.table("emp").n_pages == 75

    def test_histograms_built_for_loaded_data(self, db):
        sel = db.stats.table_stats("dept").histograms["region"].selectivity_range(0, 2)
        assert sel == pytest.approx(0.4, abs=0.1)

    def test_arity_checked(self, db):
        with pytest.raises(ValueError):
            db.create_table("bad", ["a", "b"], [(1,)])

    def test_duplicate_table_rejected(self, db):
        from repro.catalog.schema import SchemaError

        with pytest.raises(SchemaError):
            db.create_table("emp", ["x"], [(1,)])

    def test_earlier_histograms_survive_new_tables(self, db):
        # dept was analyzed before emp/region were added.
        assert db.stats.table_stats("dept").histograms


class TestQueries:
    def test_join_query_selectivity_from_catalog(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        pred = q.predicates[0]
        assert pred.selectivity == pytest.approx(1 / 40, rel=0.1)

    def test_optimize_dispatch_lsc(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        res = db.optimize(q, 100.0)
        assert res.plan.relations() == {"emp", "dept"}

    def test_optimize_dispatch_lec(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        res = db.optimize(q, two_point(100.0, 0.5, 10.0))
        assert res.objective > 0

    def test_optimize_dispatch_algorithm_d(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        q = with_selectivity_uncertainty(q, 1.0, n_buckets=3)
        res = db.optimize(q, two_point(100.0, 0.5, 10.0))
        assert res.objective > 0

    def test_optimize_dispatch_markov(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        chain = sticky_chain(uniform_over([10.0, 100.0]), 0.5)
        res = db.optimize(q, chain)
        assert res.objective > 0

    def test_optimize_dispatch_bayesnet(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        net = DiscreteBayesNet()
        net.add_node("M", [10.0, 100.0], probs=[0.5, 0.5])
        res = db.optimize(q, net)
        assert res.objective > 0

    def test_optimize_rejects_unknown_environment(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        with pytest.raises(TypeError):
            db.optimize(q, "lots of memory")


class TestExecution:
    def test_two_way_result_correct(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        res = db.optimize(q, 50.0)
        out = db.execute(res.plan, memory_pages=30)
        assert isinstance(out, QueryResult)
        assert out.n_rows == 1500  # every emp matches exactly one dept
        assert out.io.total > 0

    def test_three_way_roundtrip(self, db):
        out = db.run(
            ["emp", "dept", "region"],
            ON,
            two_point(60.0, 0.6, 8.0),
            memory_pages=25,
        )
        assert out.n_rows == 1500

    def test_execution_result_independent_of_memory(self, db):
        q = db.join_query(["emp", "dept", "region"], ON)
        res = db.optimize(q, 40.0)
        counts = {
            db.execute(res.plan, memory_pages=m).n_rows for m in (5, 20, 200)
        }
        assert counts == {1500}

    def test_more_memory_never_more_io(self, db):
        q = db.join_query(["emp", "dept", "region"], ON)
        res = db.optimize(q, 40.0)
        ios = [
            db.execute(res.plan, memory_pages=m).io.total for m in (5, 20, 200)
        ]
        assert ios[0] >= ios[1] >= ios[2]

    def test_memory_validated(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        res = db.optimize(q, 50.0)
        with pytest.raises(ValueError):
            db.execute(res.plan, memory_pages=0)

    def test_explain_is_readable(self, db):
        q = db.join_query(["emp", "dept"], {("emp", "dept"): ("dept", "id")})
        res = db.optimize(q, 50.0)
        text = db.explain(res.plan)
        assert "Scan" in text and "Join" in text
