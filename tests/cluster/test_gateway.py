"""End-to-end gateway tests: real worker processes over real sockets.

Each test spins up a small cluster (one Manager process plus 1–2
workers), so the file trades breadth per test for a handful of spawns.
Queries are kept tiny (2–3 relations) to make each optimization cheap;
the crash drill kills the worker *before* dispatch, which exercises the
same EOF → respawn → replay path as a mid-flight crash but without
racing the optimizer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import AdmissionController, ClusterGateway
from repro.cluster.protocol import FrameDecoder
from repro.core.distributions import DiscreteDistribution
from repro.optimizer.errors import OptimizerConfigError
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizeRequest

_MEMORY = DiscreteDistribution([300.0, 900.0], [0.5, 0.5])


def _query(names=("R", "S", "T"), scale=1.0) -> JoinQuery:
    rels = [
        RelationSpec(name=n, pages=scale * 100.0 * (i + 1))
        for i, n in enumerate(names)
    ]
    preds = [
        JoinPredicate(names[i], names[i + 1], 0.01,
                      label=f"{names[i]}={names[i + 1]}")
        for i in range(len(names) - 1)
    ]
    return JoinQuery(rels, preds)


def _request(query=None, **kw) -> OptimizeRequest:
    fields = dict(objective="lec", memory=_MEMORY)
    fields.update(kw)
    return OptimizeRequest(
        query=query if query is not None else _query(), **fields,
    )


class TestOptimize:
    def test_end_to_end_and_cache_hit(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                first = await gw.optimize(_request())
                again = await gw.optimize(_request())
                return first, again

        first, again = asyncio.run(scenario())
        assert first.ok and not first.cache_hit
        assert first.rung == "full"
        assert first.plan.root is not None
        assert first.objective_value > 0

        assert again.ok and again.cache_hit
        assert again.cache_tier in ("hot", "shared")
        assert again.objective_value == pytest.approx(first.objective_value)

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                return await asyncio.gather(
                    *(gw.optimize(_request()) for _ in range(3))
                )

        results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        # One leader does the work; the rest ride its future.
        assert sum(1 for r in results if r.coalesced) == 2
        values = {round(r.objective_value, 9) for r in results}
        assert len(values) == 1

    def test_routing_is_deterministic_per_fingerprint(self):
        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                queries = [_query(names=(f"A{i}", f"B{i}")) for i in range(6)]
                results = [await gw.optimize(_request(q)) for q in queries]
                repeats = [await gw.optimize(_request(q)) for q in queries]
                return results, repeats

        results, repeats = asyncio.run(scenario())
        assert {r.shard for r in results} == {0, 1}  # both shards used
        for first, second in zip(results, repeats):
            assert second.shard == first.shard
            assert second.cache_hit

    def test_validation_errors_raise_before_dispatch(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                with pytest.raises(OptimizerConfigError, match="objective"):
                    await gw.optimize(_request(objective="nonsense"))
                with pytest.raises(OptimizerConfigError, match="memory"):
                    await gw.optimize(query=_query(), objective="lec")
                with pytest.raises(OptimizerConfigError, match="cost model"):
                    from repro.costmodel.model import CostModel
                    await gw.optimize(_request(cost_model=CostModel()))

        asyncio.run(scenario())


class TestOptimizeMany:
    @staticmethod
    def _tap_request_frames(gw):
        """Record every request-bearing frame each shard's writer sends."""
        frames = {shard.index: [] for shard in gw.shards}
        for shard in gw.shards:
            def write(data, _real=shard.writer.write, _index=shard.index):
                for message in FrameDecoder().feed(data):
                    if message["type"] in ("optimize", "optimize_batch"):
                        frames[_index].append(message)
                _real(data)

            shard.writer.write = write
        return frames

    def test_results_come_back_in_request_order(self):
        queries = [
            _query(names=(f"A{i}", f"B{i}"), scale=float(i + 1))
            for i in range(6)
        ]

        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                batch = await gw.optimize_many([_request(q) for q in queries])
                single = [await gw.optimize(_request(q)) for q in queries]
                return batch, single

        batch, single = asyncio.run(scenario())
        assert all(r.ok for r in batch)
        assert {r.shard for r in batch} == {0, 1}
        for query, got, want in zip(queries, batch, single):
            assert got.plan.root.relations() == frozenset(query.relation_names())
            assert got.shard == want.shard
            assert got.objective_value == want.objective_value

    def test_duplicate_inside_a_batch_coalesces_onto_first_occurrence(self):
        a, b = _query(names=("A", "B")), _query(names=("C", "D"), scale=3.0)

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                frames = self._tap_request_frames(gw)
                results = await gw.optimize_many(
                    [_request(a), _request(b), _request(a)]
                )
                return results, frames[0]

        results, frames = asyncio.run(scenario())
        assert [r.coalesced for r in results] == [False, False, True]
        assert results[2].objective_value == results[0].objective_value
        assert results[1].objective_value != results[0].objective_value
        # The duplicate never crossed the wire.
        assert [len(f["requests"]) for f in frames] == [2]

    def test_same_shard_requests_leave_in_one_batch_frame(self):
        queries = [_query(names=(f"A{i}", f"B{i}")) for i in range(6)]

        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                frames = self._tap_request_frames(gw)
                results = await gw.optimize_many([_request(q) for q in queries])
                return results, frames

        results, frames = asyncio.run(scenario())
        assert all(r.ok for r in results)
        for index in (0, 1):
            routed = sum(1 for r in results if r.shard == index)
            (frame,) = frames[index]  # one write per shard, however many
            if routed == 1:  # a singleton keeps the legacy frame
                assert frame["type"] == "optimize"
            else:
                assert frame["type"] == "optimize_batch"
                assert len(frame["requests"]) == routed
        assert any(f[0]["type"] == "optimize_batch" for f in frames.values())

    def test_worker_killed_with_a_batch_in_flight_loses_no_request(self):
        queries = [
            _query(names=(f"K{i}", f"L{i}", f"M{i}", f"N{i}")) for i in range(4)
        ]

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                frames = self._tap_request_frames(gw)
                task = asyncio.ensure_future(
                    gw.optimize_many([_request(q) for q in queries])
                )
                while not frames[0]:  # until the batch frame is written
                    await asyncio.sleep(0)
                gw.kill_worker(0)
                results = await asyncio.wait_for(task, timeout=60)
                return results, frames[0], await gw.snapshot()

        results, frames, snapshot = asyncio.run(scenario())
        assert frames[0]["type"] == "optimize_batch"
        assert snapshot["restarts"] >= 1
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            # Answered (by the dying worker or by the replay) or failed
            # explicitly — never dropped.
            if result.ok:
                assert result.plan.root.relations() == frozenset(
                    query.relation_names()
                )
            else:
                assert result.status == "error" and result.error


class TestAdmission:
    def test_overload_sheds_at_the_door(self):
        async def scenario():
            admission = AdmissionController(soft_limit=1, hard_limit=2)
            async with ClusterGateway(shards=1, admission=admission) as gw:
                queries = [_query(names=(f"X{i}", f"Y{i}", f"Z{i}"))
                           for i in range(4)]
                return await asyncio.gather(
                    *(gw.optimize(_request(q)) for q in queries)
                )

        results = asyncio.run(scenario())
        shed = [r for r in results if r.status == "shed"]
        answered = [r for r in results if r.ok]
        assert shed, "hard limit 2 with 4 concurrent requests must shed"
        assert len(answered) + len(shed) == 4
        for r in shed:
            assert not r.ok
            assert r.admission is not None and not r.admission.accepted
        for r in answered:
            assert r.plan.root is not None


class TestCrashResilience:
    def test_dead_worker_is_restarted_and_request_replayed(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                await gw.optimize(_request())  # seed the shared tier
                gw.kill_worker(0)
                # The next request hits the dead socket: the gateway must
                # respawn the worker and replay, never drop.
                result = await gw.optimize(
                    _request(_query(names=("U", "V")))
                )
                pongs = await gw.check_health()
                snapshot = await gw.snapshot()
                return result, pongs, snapshot

        result, pongs, snapshot = asyncio.run(scenario())
        assert result.ok
        assert result.retries >= 1
        assert snapshot["restarts"] >= 1
        assert pongs[0] is not None and pongs[0]["shard"] == 0
        # The respawned worker re-warmed its hot tier from the shared one.
        assert pongs[0]["warmed"] >= 1


class TestHealth:
    def test_ping_reports_worker_state(self):
        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                await gw.optimize(_request())
                return await gw.check_health()

        pongs = asyncio.run(scenario())
        assert len(pongs) == 2
        for i, pong in enumerate(pongs):
            assert pong is not None
            assert pong["shard"] == i
            assert pong["queue_depth"] == 0
            assert "cache" in pong and "metrics" in pong
