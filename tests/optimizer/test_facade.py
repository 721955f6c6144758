"""repro.optimize facade: parity with direct construction, errors, caching."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.optimizer import optimize_algorithm_c, optimize_algorithm_d, optimize_lsc
from repro.core.markov import MarkovParameter, sticky_chain
from repro.costmodel.model import CostModel
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.optimizer.errors import OptimizerConfigError
from repro.optimizer.facade import clear_context_cache, last_context, optimize
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import star_query
from repro.workloads.scenarios import example_1_1


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture
def four_way_query():
    rng = np.random.default_rng(2024)
    return star_query(4, rng, min_pages=500, max_pages=200000, require_order=True)


def _assert_same(result, direct):
    assert result.plan.signature() == direct.plan.signature()
    assert abs(result.objective - direct.objective) < 1e-9


class TestParityExample11:
    """Facade == direct SystemRDP construction on the motivating scenario."""

    def test_point(self):
        query, memory = example_1_1()
        direct = SystemRDP(PointCoster(memory.mean(), cost_model=CostModel()))
        _assert_same(
            optimize(query, "point", memory=memory.mean(), cost_model=CostModel()),
            direct.optimize(query),
        )

    def test_expected(self):
        query, memory = example_1_1()
        direct = SystemRDP(ExpectedCoster(memory, cost_model=CostModel()))
        _assert_same(
            optimize(query, "lec", memory=memory, cost_model=CostModel()),
            direct.optimize(query),
        )

    def test_markov(self):
        query, memory = example_1_1()
        chain = sticky_chain(memory, 0.7)
        direct = SystemRDP(MarkovCoster(chain, cost_model=CostModel()))
        _assert_same(
            optimize(query, "markov", memory=chain, cost_model=CostModel()),
            direct.optimize(query),
        )

    def test_multiparam(self):
        query, memory = example_1_1()
        direct = SystemRDP(MultiParamCoster(memory, cost_model=CostModel()))
        _assert_same(
            optimize(query, "multiparam", memory=memory, cost_model=CostModel()),
            direct.optimize(query),
        )


class TestParityFourWay:
    """Same four objectives on a 4-relation workload query."""

    def test_point(self, four_way_query, small_memory_dist):
        direct = SystemRDP(
            PointCoster(small_memory_dist.mean(), cost_model=CostModel())
        )
        _assert_same(
            optimize(
                four_way_query,
                "lsc",
                memory=small_memory_dist,
                cost_model=CostModel(),
            ),
            direct.optimize(four_way_query),
        )

    def test_expected(self, four_way_query, small_memory_dist):
        direct = SystemRDP(ExpectedCoster(small_memory_dist, cost_model=CostModel()))
        _assert_same(
            optimize(
                four_way_query,
                "expected",
                memory=small_memory_dist,
                cost_model=CostModel(),
            ),
            direct.optimize(four_way_query),
        )

    def test_markov(self, four_way_query, small_memory_dist):
        chain = sticky_chain(small_memory_dist, 0.5)
        direct = SystemRDP(MarkovCoster(chain, cost_model=CostModel()))
        _assert_same(
            optimize(
                four_way_query, "dynamic", memory=chain, cost_model=CostModel()
            ),
            direct.optimize(four_way_query),
        )

    def test_multiparam(self, four_way_query, small_memory_dist):
        direct = SystemRDP(
            MultiParamCoster(small_memory_dist, cost_model=CostModel(), max_buckets=8)
        )
        _assert_same(
            optimize(
                four_way_query,
                "multi_param",
                memory=small_memory_dist,
                cost_model=CostModel(),
                max_buckets=8,
            ),
            direct.optimize(four_way_query),
        )

    def test_algorithm_wrappers(self, four_way_query, small_memory_dist):
        a = optimize(
            four_way_query, "algorithm_a", memory=small_memory_dist,
            cost_model=CostModel(),
        )
        b = optimize(
            four_way_query, "algorithm_b", memory=small_memory_dist, top_k=3,
            cost_model=CostModel(),
        )
        c = optimize_algorithm_c(
            four_way_query, small_memory_dist, cost_model=CostModel()
        )
        # A and B return candidates scored by true expected cost; their
        # winners can never beat the exact LEC optimum.
        assert a.objective >= c.objective - 1e-9
        assert b.objective >= c.objective - 1e-9
        assert b.objective <= a.objective + 1e-9


class TestTopK:
    def test_top_k_candidates(self, four_way_query, small_memory_dist):
        res = optimize(
            four_way_query,
            "lec",
            memory=small_memory_dist,
            top_k=3,
            cost_model=CostModel(),
        )
        assert len(res.candidates) > 1
        objectives = [c.objective for c in res.candidates]
        assert objectives == sorted(objectives)


class TestErrors:
    def test_unknown_objective(self, example_query, bimodal_memory):
        with pytest.raises(OptimizerConfigError, match="unknown objective"):
            optimize(example_query, "speed", memory=bimodal_memory)

    def test_missing_memory(self, example_query):
        with pytest.raises(OptimizerConfigError, match="memory"):
            optimize(example_query, "lec")

    def test_wrong_memory_type(self, example_query, bimodal_memory):
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "point", memory="lots")
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "lec", memory=1350.0)
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "markov", memory=bimodal_memory)
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "multiparam", memory=1350.0)

    def test_engine_config_errors(self, example_query, bimodal_memory):
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "lec", memory=bimodal_memory, plan_space="star")
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "lec", memory=bimodal_memory, top_k=0)
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "algorithm_b", memory=bimodal_memory, top_k=0)
        with pytest.raises(OptimizerConfigError):
            optimize(example_query, "point", memory=-5.0)

    def test_config_errors_are_value_errors(self, example_query, bimodal_memory):
        with pytest.raises(ValueError):
            optimize(example_query, "nope", memory=bimodal_memory)

    def test_systemr_raises_config_error_directly(self, cost_model):
        with pytest.raises(OptimizerConfigError):
            SystemRDP(PointCoster(100.0, cost_model=cost_model), plan_space="star")
        with pytest.raises(OptimizerConfigError):
            SystemRDP(PointCoster(100.0, cost_model=cost_model), top_k=0)


class TestContextSharing:
    def test_repeat_calls_share_context_and_hit(self, example_query, bimodal_memory):
        optimize(example_query, "lec", memory=bimodal_memory)
        ctx = last_context()
        assert ctx is not None
        optimize(example_query, "lec", memory=bimodal_memory)
        assert last_context() is ctx
        stats = ctx.stats()
        assert ctx.total_hits() > 0
        assert stats["step_costs"]["hits"] > 0

    def test_context_shared_across_objectives(self, example_query, bimodal_memory):
        optimize(example_query, "point", memory=bimodal_memory)
        ctx = last_context()
        optimize(example_query, "lec", memory=bimodal_memory)
        assert last_context() is ctx
        assert ctx.stats()["subset_sizes"]["hits"] > 0

    def test_explicit_context_wins(self, example_query, bimodal_memory, cost_model):
        ctx = repro.OptimizationContext(example_query)
        optimize(
            example_query,
            "lec",
            memory=bimodal_memory,
            cost_model=cost_model,
            context=ctx,
        )
        assert last_context() is ctx

    def test_clear_context_cache(self, example_query, bimodal_memory):
        optimize(example_query, "lec", memory=bimodal_memory)
        assert last_context() is not None
        clear_context_cache()
        assert last_context() is None


class TestCatalogMutation:
    """Mutating catalog statistics between calls must rebuild the context."""

    def _catalog(self):
        from repro.catalog.schema import Catalog, Column, Table
        from repro.catalog.statistics import StatisticsCatalog

        schema = Catalog(
            [
                Table(
                    name="orders",
                    columns=[Column("o_custkey", n_distinct=5_000)],
                    n_rows=600_000,
                ),
                Table(
                    name="customers",
                    columns=[Column("c_custkey", n_distinct=5_000)],
                    n_rows=5_000,
                ),
            ]
        )
        return StatisticsCatalog(schema)

    def _query(self, stats):
        from repro.plans.query import JoinQuery

        return JoinQuery.from_catalog(
            stats,
            ["orders", "customers"],
            {("orders", "customers"): ("o_custkey", "c_custkey")},
        )

    def test_fresh_context_after_mutation(self, bimodal_memory):
        stats = self._catalog()
        first = optimize(self._query(stats), "lec", memory=bimodal_memory)
        ctx_before = last_context()

        # ANALYZE-style update: the orders table grew tenfold.
        stats.table_stats("orders").n_rows = 6_000_000
        stats.table_stats("orders").n_pages = 60_000

        second = optimize(self._query(stats), "lec", memory=bimodal_memory)
        ctx_after = last_context()
        assert ctx_after is not ctx_before
        # The new context saw the new sizes, not the cached old ones.
        assert (
            ctx_after.subset_pages(frozenset({"orders"}))
            != ctx_before.subset_pages(frozenset({"orders"}))
        )
        assert first.objective != second.objective

    def test_unchanged_catalog_reuses_context(self, bimodal_memory):
        stats = self._catalog()
        optimize(self._query(stats), "lec", memory=bimodal_memory)
        ctx = last_context()
        optimize(self._query(stats), "lec", memory=bimodal_memory)
        assert last_context() is ctx


class TestThreadedEntrypoints:
    """Direct algorithm entry points accept and exploit a shared context."""

    def test_lsc_facade_vs_direct_helper(self, four_way_query, small_memory_dist):
        cm = CostModel()
        helper = optimize_lsc(four_way_query, small_memory_dist.mean(), cost_model=cm)
        facade = optimize(
            four_way_query, "point", memory=small_memory_dist, cost_model=cm
        )
        _assert_same(facade, helper)

    def test_algorithm_d_shared_context(self, four_way_query, small_memory_dist):
        cm = CostModel()
        ctx = repro.OptimizationContext(four_way_query)
        cold = optimize_algorithm_d(
            four_way_query, small_memory_dist, cost_model=cm, context=ctx
        )
        warm = optimize_algorithm_d(
            four_way_query, small_memory_dist, cost_model=cm, context=ctx
        )
        _assert_same(warm, cold)
        assert ctx.total_hits() > 0

    def test_markov_roundtrip_through_lec_alias(self, example_query):
        chain = MarkovParameter(
            [700.0, 2000.0],
            [0.2, 0.8],
            [[0.6, 0.4], [0.1, 0.9]],
        )
        via_lec = optimize(example_query, "lec", memory=chain)
        via_markov = optimize(example_query, "markov", memory=chain)
        _assert_same(via_lec, via_markov)


class TestPackageSurface:
    def test_top_level_exports(self):
        assert repro.optimize is optimize
        assert repro.OptimizerConfigError is OptimizerConfigError
        for name in (
            "optimize",
            "last_context",
            "clear_context_cache",
            "OptimizationContext",
            "CacheStats",
            "OptimizerConfigError",
        ):
            assert name in repro.__all__


class TestContextCacheThreadSafety:
    """The facade's context LRU must survive concurrent optimize() calls.

    OrderedDict get/move_to_end/popitem are not atomic; before the lock
    was added, the serving layer's thread pool could corrupt the LRU or
    crash mid-eviction.  This hammers the cache with more distinct
    (query, model) keys than its capacity, from many threads, and checks
    both survival and answer parity with a single-threaded run.
    """

    def _queries(self, n=12):
        rng = np.random.default_rng(7)
        return [
            star_query(3, rng, min_pages=500, max_pages=50000) for _ in range(n)
        ]

    def test_concurrent_optimize_is_safe_and_correct(self, small_memory_dist):
        import threading

        queries = self._queries()
        expected = {
            i: optimize(q, "lec", memory=small_memory_dist)
            for i, q in enumerate(queries)
        }
        clear_context_cache()

        errors = []
        mismatches = []

        def worker(tid: int):
            try:
                for i in range(30):
                    qi = (tid + i) % len(queries)
                    result = optimize(
                        queries[qi], "lec", memory=small_memory_dist
                    )
                    if (
                        result.plan != expected[qi].plan
                        or abs(result.objective - expected[qi].objective) > 1e-9
                    ):
                        mismatches.append(qi)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not mismatches

    def test_concurrent_callers_share_one_context(self, four_way_query,
                                                  small_memory_dist):
        import threading

        clear_context_cache()
        contexts = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            optimize(four_way_query, "lec", memory=small_memory_dist)
            contexts.append(last_context())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in contexts}) == 1

    def test_clear_during_concurrent_optimizes(self, small_memory_dist):
        import threading

        queries = self._queries(6)
        errors = []
        stop = threading.Event()

        def optimizer(tid: int):
            try:
                for i in range(20):
                    optimize(
                        queries[(tid + i) % len(queries)],
                        "lec",
                        memory=small_memory_dist,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def clearer():
            while not stop.is_set():
                clear_context_cache()

        workers = [threading.Thread(target=optimizer, args=(t,)) for t in range(4)]
        cl = threading.Thread(target=clearer)
        cl.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        cl.join()
        assert not errors

    def test_last_context_published_under_lock(self, small_memory_dist):
        """LOCK001 regression: _last_context is written under the cache lock.

        An unguarded write could interleave with clear_context_cache()
        so that a just-cleared context is resurrected for observers of
        last_context().  Hammer optimize() against a concurrent clearer
        and check the observable invariant: last_context() is always
        either None or a live OptimizationContext, and once all
        optimizers have finished, a final clear really sticks.
        """
        import threading

        from repro.costmodel.context import OptimizationContext

        queries = self._queries(4)
        errors = []
        stop = threading.Event()

        def optimizer(tid: int):
            try:
                for i in range(15):
                    optimize(
                        queries[(tid + i) % len(queries)],
                        "lec",
                        memory=small_memory_dist,
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def observer():
            try:
                while not stop.is_set():
                    ctx = last_context()
                    if ctx is not None and not isinstance(
                        ctx, OptimizationContext
                    ):  # pragma: no cover - failure path
                        errors.append(TypeError(type(ctx)))
                    clear_context_cache()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=optimizer, args=(t,)) for t in range(3)]
        obs = threading.Thread(target=observer)
        obs.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        obs.join()
        assert not errors
        clear_context_cache()
        assert last_context() is None
