"""Tests for OptimizerService: parity, caching, deadlines, concurrency."""

from __future__ import annotations

import time

import pytest

from repro import optimize
from repro.core.markov import MarkovParameter
from repro.optimizer.errors import MemoryTypeError, OptimizerConfigError
from repro.optimizer.facade import canonical_objective
from repro.serving.service import (
    RUNG_FULL,
    RUNG_LSC,
    Ladder,
    LatencyEstimator,
    OptimizeRequest,
    OptimizerService,
)
from repro.workloads.queries import with_selectivity_uncertainty


@pytest.fixture
def uncertain_query(three_way_query):
    """The 3-chain with selectivity distributions (for multiparam)."""
    return with_selectivity_uncertainty(three_way_query, 1.0, n_buckets=3)


@pytest.fixture
def service():
    with OptimizerService(max_workers=2) as svc:
        yield svc


class TestLatencyEstimator:
    def test_first_observation_is_the_estimate(self):
        est = LatencyEstimator()
        assert est.estimate("expected", 3) is None
        est.record("expected", 3, 0.5)
        assert est.estimate("expected", 3) == pytest.approx(0.5)

    def test_ewma_moves_toward_new_observations(self):
        est = LatencyEstimator()
        est.record("expected", 3, 1.0)
        est.record("expected", 3, 0.0)
        assert est.estimate("expected", 3) == pytest.approx(0.7)  # EWMA_ALPHA 0.3

    def test_cold_start_has_no_estimates(self):
        est = LatencyEstimator()
        est.record("expected", 3, 0.5)
        # Keyed by (objective, query size): neighbours stay unobserved.
        assert est.estimate("expected", 4) is None
        assert est.estimate("markov", 3) is None


class TestParityWithDirectOptimize:
    """Cold cache + no deadline: service answers == repro.optimize()."""

    @pytest.mark.parametrize("objective", ["point", "lec", "multiparam",
                                           "algorithm_b"])
    def test_four_objectives(self, service, uncertain_query,
                             small_memory_dist, objective):
        direct = optimize(uncertain_query, objective, memory=small_memory_dist)
        served = service.optimize(uncertain_query, objective,
                                  memory=small_memory_dist)
        assert served.rung == RUNG_FULL
        assert not served.cache_hit
        assert not served.degraded
        assert served.plan == direct.plan
        assert abs(served.objective_value - direct.objective) < 1e-9

    def test_markov_memory(self, service, three_way_query):
        chain = MarkovParameter(
            [500.0, 2000.0], [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]]
        )
        direct = optimize(three_way_query, "markov", memory=chain)
        served = service.optimize(three_way_query, "markov", memory=chain)
        assert served.plan == direct.plan
        assert abs(served.objective_value - direct.objective) < 1e-9

    def test_config_errors_propagate(self, service, three_way_query):
        with pytest.raises(OptimizerConfigError):
            service.optimize(three_way_query, "warp-drive", memory=500.0)
        with pytest.raises(OptimizerConfigError):
            service.optimize(three_way_query, "lec", memory=None)
        # A memory the objective does not take: repro.optimize's error,
        # raised before the cache is probed or written.
        with pytest.raises(MemoryTypeError, match="needs memory"):
            service.submit(OptimizeRequest(three_way_query, "lec", "800")).result()
        with pytest.raises(MemoryTypeError, match="needs memory"):
            service.optimize(three_way_query, "lec", memory=800.0)
        assert len(service.cache) == 0
        assert "plan_cache.misses" not in service.metrics_snapshot()["counters"]


class TestCaching:
    def test_snapshot_reads_the_tier(self, three_way_query, small_memory_dist):
        # The tier counts; the snapshot reads its counters when it is taken.
        with OptimizerService() as svc:
            svc.optimize(three_way_query, "lec", memory=small_memory_dist)
            svc.optimize(three_way_query, "lec", memory=small_memory_dist)
            svc.optimize(three_way_query, "lec", memory=small_memory_dist)
            snap = svc.metrics_snapshot()
        assert {k: v for k, v in snap["counters"].items()
                if k.startswith("plan_cache.")} == {
            "plan_cache.hits": 2, "plan_cache.misses": 1,
        }
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert snap["derived"]["plan_cache.hit_rate"] == pytest.approx(2 / 3)


class TestLadder:
    def test_a_ladder_keeps_no_plan(self, three_way_query, small_memory_dist):
        ladder = Ladder()
        request = OptimizeRequest(query=three_way_query, objective="lec",
                                  memory=small_memory_dist)
        first, again = ladder.run(request), ladder.run(request)
        assert not first.cache_hit and not again.cache_hit
        assert first.rung == again.rung == RUNG_FULL
        assert again.plan == first.plan
        assert repr(again.objective_value) == repr(first.objective_value)
        counters = ladder.metrics.snapshot()["counters"]
        assert counters["serving.rung.full"] == 2
        assert not any(name.startswith("plan_cache.") for name in counters)

    def test_a_spent_budget_runs_lsc_on_a_cold_estimator(
        self, three_way_query, small_memory_dist
    ):
        ladder = Ladder()  # no estimate yet: nothing predicts the full rung
        request = OptimizeRequest(query=three_way_query, objective="lec",
                                  memory=small_memory_dist, deadline=0.5)
        result = ladder.run(request, started=time.perf_counter() - 1.0)
        assert result.rung == RUNG_LSC
        assert result.deadline_exceeded
        assert ladder.estimator.estimate("expected", 3) is None

    def test_a_ladder_refuses_what_the_service_refuses(self, three_way_query):
        ladder = Ladder()
        with pytest.raises(OptimizerConfigError):
            ladder.run(OptimizeRequest(query=three_way_query,
                                       objective="warp-drive", memory=500.0))
        with pytest.raises(OptimizerConfigError):
            ladder.run(OptimizeRequest(query=three_way_query, memory=None))
        with pytest.raises(MemoryTypeError, match="needs memory"):
            ladder.run(OptimizeRequest(query=three_way_query, memory=800.0))
        assert ladder.metrics.snapshot()["counters"] == {}


class TestDegradationLadder:
    def _pressured_service(self):
        """Service whose estimator believes the full rung takes ~10s."""
        est = LatencyEstimator()
        for n_rels in (2, 3, 4, 5):
            for kind in ("expected", "multiparam", "algorithm_a",
                         "algorithm_b", "markov"):
                est.record(kind, n_rels, 10.0)
        svc = OptimizerService()
        svc.ladder.estimator = est
        return svc

    def test_deadline_pressure_returns_lsc_within_budget(
        self, uncertain_query, small_memory_dist
    ):
        chain = MarkovParameter(
            [500.0, 2000.0], [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]]
        )
        deadline = 5.0  # generous wall-clock, tiny vs the 10s estimates
        for objective in ("lec", "markov", "multiparam", "algorithm_a",
                          "algorithm_b"):
            memory = chain if objective == "markov" else small_memory_dist
            with self._pressured_service() as svc:
                result = svc.optimize(uncertain_query, objective,
                                      memory=memory, deadline=deadline)
                learned = svc.ladder.estimator.estimate(
                    canonical_objective(objective), 3)
            assert result.rung == RUNG_LSC, objective
            assert result.degraded
            assert result.latency <= deadline
            assert not result.deadline_exceeded
            assert learned == 10.0  # an LSC run teaches the estimator nothing
            # The LSC fallback is the classical point optimization at the
            # mean (a Markov chain's: its first marginal's).
            mean = (chain.marginal(0) if memory is chain else memory).mean()
            direct = optimize(uncertain_query, "point", memory=mean)
            assert result.plan == direct.plan, objective
            assert abs(result.objective_value - direct.objective) < 1e-9

    def test_fallback_recorded_in_metrics_snapshot(
        self, three_way_query, small_memory_dist
    ):
        with self._pressured_service() as svc:
            svc.optimize(three_way_query, "lec", memory=small_memory_dist,
                         deadline=5.0)
            snap = svc.metrics_snapshot()
        counters = snap["counters"]
        assert counters["serving.rung.lsc"] == 1
        assert counters["serving.degraded"] == 1
        assert counters.get("serving.rung.full", 0) == 0
        assert snap["histograms"]["serving.latency.optimize"]["count"] == 1

    def test_degraded_answers_are_not_cached(
        self, three_way_query, small_memory_dist
    ):
        with self._pressured_service() as svc:
            svc.optimize(three_way_query, "lec", memory=small_memory_dist,
                         deadline=5.0)
            assert len(svc.cache) == 0
            # Without pressure the same request re-optimizes at full
            # quality and only then lands in the cache.
            full = svc.optimize(three_way_query, "lec",
                                memory=small_memory_dist)
            assert full.rung == RUNG_FULL
            assert len(svc.cache) == 1

    def test_no_deadline_always_runs_full(
        self, three_way_query, small_memory_dist
    ):
        with self._pressured_service() as svc:
            result = svc.optimize(three_way_query, "lec",
                                  memory=small_memory_dist)
        assert result.rung == RUNG_FULL

    def test_point_objective_has_single_rung(self, three_way_query):
        with self._pressured_service() as svc:
            result = svc.optimize(three_way_query, "point", memory=500.0,
                                  deadline=5.0)
        assert result.rung == RUNG_FULL

    def test_full_latency_is_learned(self, service, three_way_query,
                                     small_memory_dist):
        service.optimize(three_way_query, "lec", memory=small_memory_dist)
        learned = service.ladder.estimator.estimate("expected", 3)
        assert learned is not None and learned > 0.0


class TestConcurrency:
    def test_submit_returns_future(self, service, three_way_query,
                                   small_memory_dist):
        future = service.submit(OptimizeRequest(three_way_query, "lec", small_memory_dist))
        result = future.result(timeout=60)
        assert result.plan is not None

    def test_batch_preserves_order_and_agrees(
        self, three_way_query, example_query, small_memory_dist, bimodal_memory
    ):
        requests = [
            OptimizeRequest(query=three_way_query, objective="lec",
                            memory=small_memory_dist),
            OptimizeRequest(query=example_query, objective="lec",
                            memory=bimodal_memory),
            OptimizeRequest(query=three_way_query, objective="point",
                            memory=500.0),
        ] * 3
        with OptimizerService(max_workers=4) as svc:
            results = svc.optimize_batch(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            direct = optimize(request.query, request.objective,
                              memory=request.memory)
            assert result.plan == direct.plan
            assert abs(result.objective_value - direct.objective) < 1e-9

    def test_many_concurrent_identical_requests_one_optimization(
        self, three_way_query, small_memory_dist
    ):
        with OptimizerService(max_workers=8) as svc:
            futures = [
                svc.submit(OptimizeRequest(three_way_query, "lec", small_memory_dist))
                for _ in range(32)
            ]
            results = [f.result(timeout=120) for f in futures]
        signatures = {r.plan.signature() for r in results}
        objectives = {round(r.objective_value, 9) for r in results}
        assert len(signatures) == 1
        assert len(objectives) == 1
        stats = svc.cache.stats()
        assert stats["hits"] + stats["misses"] == 32
        assert stats["hits"] >= 1


class TestLifecycle:
    def test_close_is_idempotent_and_refuses_new_work(
        self, three_way_query, small_memory_dist
    ):
        svc = OptimizerService(max_workers=2)
        assert not svc.closed
        svc.close()
        assert svc.closed
        svc.close()  # second close is a no-op, not an error
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(OptimizeRequest(three_way_query, "lec", small_memory_dist))

    def test_close_cancels_queued_requests(self, three_way_query):
        svc = OptimizerService(max_workers=1)
        futures = [
            # Distinct memory values defeat the cache so each request
            # really occupies the single worker thread.
            svc.submit(OptimizeRequest(three_way_query, "point", float(100 + i)))
            for i in range(16)
        ]
        svc.close()
        cancelled = [f for f in futures if f.cancelled()]
        finished = [f for f in futures if f.done() and not f.cancelled()]
        assert len(cancelled) + len(finished) == 16
        assert cancelled, "a 16-deep queue on one thread must cancel some"
        for f in finished:
            assert f.result().plan is not None

    def test_cache_hit_reports_its_tier(
        self, service, three_way_query, small_memory_dist
    ):
        first = service.optimize(three_way_query, "lec",
                                 memory=small_memory_dist)
        hit = service.optimize(three_way_query, "lec",
                               memory=small_memory_dist)
        assert first.cache_tier is None  # a miss came from the optimizer
        assert hit.cache_hit and hit.cache_tier == "hot"
