"""End-to-end gateway tests: real worker processes over real sockets.

Each test spins up a small cluster (1–2 worker processes, nothing
else), so the file trades breadth per test for a handful of spawns.
Queries are kept tiny (2–3 relations) to make each optimization cheap;
the crash drill kills the worker *before* dispatch, which exercises the
same EOF → respawn → replay path as a mid-flight crash but without
racing the optimizer.
"""

from __future__ import annotations

import asyncio
import gc
import os
import signal
import time
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.cluster.admission as admission_module
import repro.cluster.gateway as gateway_module
from repro.cluster import ClusterGateway
from repro.cluster.protocol import FrameDecoder, ProtocolError
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import query_fingerprint
from repro.optimizer.errors import MemoryTypeError, OptimizerConfigError
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.plans.space import BUSHY
from repro.serving.service import OptimizeRequest
from repro.tools.serialize import query_to_dict
from repro.workloads.queries import random_query, with_selectivity_uncertainty

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


def _tap_request_frames(gw):
    """Record every request frame each shard's current writer sends."""
    frames = {shard.index: [] for shard in gw.shards}
    for shard in gw.shards:
        def write(data, _real=shard.writer.write, _index=shard.index):
            for message in FrameDecoder().feed(data):
                if message["type"] == "optimize":
                    frames[_index].append(message)
            _real(data)

        shard.writer.write = write
    return frames


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
        assert again.cache_tier == "shared"
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
                    await gw.optimize(OptimizeRequest(_query(), "lec"))
                with pytest.raises(OptimizerConfigError, match="cost model"):
                    from repro.costmodel.model import CostModel
                    await gw.optimize(_request(cost_model=CostModel()))
                # A memory the objective does not take, refused as
                # repro.optimize refuses it: before anything is registered.
                for memory in (800.0, "800"):
                    with pytest.raises(MemoryTypeError, match="needs memory"):
                        await gw.optimize(_request(memory=memory))
                assert not gw._inflight and not gw.shards[0].pending
                assert len(gw.shared_tier) == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("point", ["name", "document", "frame"])
    def test_a_refused_request_leaves_nothing_behind(self, point, monkeypatch):
        # A request is refused while it is named, while its document is
        # built, or while its frame is encoded — each before it is
        # registered.  An orphan in ``pending``/``_inflight`` would make
        # the follow-up (same key, where the refused one had a key) hang
        # coalesced onto a frame that was never written.
        good = _request(_query(names=("G", "H")), top_k=2)
        refused, error = {
            "name": (replace(good, objective="nonsense"), OptimizerConfigError),
            "document": (good, ProtocolError),
            # np.int64(2) names the key 2 names, but JSON cannot spell it.
            "frame": (replace(good, top_k=np.int64(2)), ProtocolError),
        }[point]
        if point == "document":
            real, calls = gateway_module.encode_request, []

            def first_call_fails(request_id, request, *query_doc):
                calls.append(request_id)
                if len(calls) == 1:
                    raise ProtocolError("unsupported")
                return real(request_id, request, *query_doc)

            monkeypatch.setattr(gateway_module, "encode_request", first_call_fails)

        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                with pytest.raises(error):
                    await gw.optimize(refused)
                pending = [len(s.pending) for s in gw.shards]
                inflight = len(gw._inflight)
                follow_up = await asyncio.wait_for(gw.optimize(good), timeout=30)
                return pending, inflight, follow_up

        pending, inflight, follow_up = asyncio.run(scenario())
        assert pending == [0, 0] and inflight == 0
        assert follow_up.ok and not follow_up.coalesced and not follow_up.cache_hit

    def test_a_plan_space_object_is_served_like_its_spelling(self):
        # ``OptimizeRequest`` takes a ``PlanSpace`` object wherever it
        # takes a string; it crosses the wire as its canonical key and
        # shares the string's cache slot.
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                pair = await asyncio.gather(
                    gw.optimize(_request(plan_space=BUSHY)),
                    gw.optimize(_request(plan_space="bushy")),
                )
                return pair, await gw.optimize(_request(plan_space=BUSHY))

        (first, second), again = asyncio.run(scenario())
        assert first.ok and not first.coalesced
        assert second.ok and second.coalesced
        assert again.cache_hit and again.plan_doc == first.plan_doc


def _churn_fingerprints():
    """The 400 distinct queries ``bench``'s ``cluster_churn`` draws at
    seed 11, as fingerprints."""
    rng = np.random.default_rng([11, 4])
    return [
        query_fingerprint(with_selectivity_uncertainty(
            random_query(int(rng.integers(3, 6)), rng), 1.0, n_buckets=4
        ))
        for _ in range(400)
    ]


class TestRouting:
    """A miss is routed by a digest computed once per fingerprint."""

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_the_route_is_the_digest_route(self, shards):
        gw = ClusterGateway(shards=shards)
        fingerprints = _churn_fingerprints()
        assert len(set(fingerprints)) == 400
        for _ in range(2):  # a remembered route too
            for fp in fingerprints:
                assert gw.shard_for(fp) == (
                    int(gateway_module.fingerprint_digest(fp)[:8], 16) % shards
                )

    def test_the_digest_runs_once_per_fingerprint(self, monkeypatch):
        digested = []
        real = gateway_module.fingerprint_digest

        def counting(fp):
            digested.append(fp)
            return real(fp)

        monkeypatch.setattr(gateway_module, "fingerprint_digest", counting)
        gw = ClusterGateway(shards=2)
        fingerprints = _churn_fingerprints()[:50]
        routes = [gw.shard_for(fp) for fp in fingerprints]
        for _ in range(3):
            assert [gw.shard_for(fp) for fp in fingerprints] == routes
        assert digested == fingerprints

    def test_remembered_routes_are_bounded_like_the_tier(self, monkeypatch):
        digested = []
        real = gateway_module.fingerprint_digest
        monkeypatch.setattr(
            gateway_module, "fingerprint_digest",
            lambda fp: digested.append(fp) or real(fp),
        )
        monkeypatch.setattr(gateway_module, "SHARED_MAX_ENTRIES", 8)
        gw = ClusterGateway(shards=2)
        fingerprints = _churn_fingerprints()[:12]
        routes = [gw.shard_for(fp) for fp in fingerprints]
        assert len(gw._routes) == 8
        # The four oldest routes made room; asking again re-digests them.
        digested.clear()
        assert [gw.shard_for(fp) for fp in fingerprints[4:]] == routes[4:]
        assert digested == []
        assert gw.shard_for(fingerprints[0]) == routes[0]
        assert digested == fingerprints[:1]


class TestAdmission:
    def test_overload_sheds_at_the_door(self, monkeypatch):
        monkeypatch.setattr(admission_module, "SOFT_LIMIT", 1)
        monkeypatch.setattr(admission_module, "HARD_LIMIT", 2)

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
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


def _dies_at_once(sock, shard_id) -> None:
    """A worker that never serves: stands in for a crash-looping shard."""
    sock.close()


class TestCrashResilience:
    def test_dead_worker_is_restarted_and_request_replayed(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                cached = await gw.optimize(_request())
                gw.kill_worker(0)
                # What the tier holds never needed the worker: a hit, with
                # nothing registered towards the (dead) shard.
                hit = await gw.optimize(_request())
                pending = [len(s.pending) for s in gw.shards]
                # An uncached request hits the dead socket: the gateway
                # must respawn the worker and replay, never drop.
                result = await gw.optimize(
                    _request(_query(names=("U", "V")))
                )
                pongs = await gw.check_health()
                snapshot = await gw.snapshot()
                return cached, hit, pending, result, pongs, snapshot

        cached, hit, pending, result, pongs, snapshot = asyncio.run(scenario())
        assert hit.ok and hit.cache_hit and pending == [0]
        assert hit.objective_value == cached.objective_value
        assert result.ok
        assert result.retries >= 1
        assert snapshot["restarts"] >= 1
        assert pongs[0] is not None and pongs[0]["shard"] == 0

    def test_with_every_worker_dead_hits_answer_and_misses_fail_explicitly(
        self, monkeypatch
    ):
        cached = [_request(_query(names=(f"A{i}", f"B{i}"))) for i in range(6)]
        monkeypatch.setattr(gateway_module, "MAX_RETRIES", 1)

        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                first = [await gw.optimize(r) for r in cached]
                assert {r.shard for r in first} == {0, 1}
                # From here on every respawn dies at once: the shards
                # crash-loop for the rest of the test.
                monkeypatch.setattr(gateway_module, "worker_main", _dies_at_once)
                gw.kill_worker(0)
                gw.kill_worker(1)
                hits = [await gw.optimize(r) for r in cached]
                miss = await asyncio.wait_for(
                    gw.optimize(_request(_query(names=("U", "V")))), timeout=60
                )
                return first, hits, miss, len(gw._inflight)

        first, hits, miss, inflight = asyncio.run(scenario())
        for before, after in zip(first, hits):
            assert after.ok and after.cache_hit
            assert after.objective_value == before.objective_value
        # Replayed once onto a respawned (and again dead) worker, then
        # given up on — loudly.
        assert miss.status == "error" and miss.retries == 1
        assert "retried 1 times" in miss.error
        assert inflight == 0

    def test_a_kill_after_the_frames_loses_no_request(self):
        queries = [
            _query(names=(f"K{i}", f"L{i}", f"M{i}", f"N{i}")) for i in range(4)
        ]

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                frames = _tap_request_frames(gw)
                tasks = [asyncio.ensure_future(gw.optimize(_request(q)))
                         for q in queries]
                while len(frames[0]) < len(queries):  # every frame written
                    await asyncio.sleep(0)
                gw.kill_worker(0)
                results = await asyncio.wait_for(asyncio.gather(*tasks), 60)
                return results, frames[0], await gw.snapshot()

        results, frames, snapshot = asyncio.run(scenario())
        # One request per frame, in the order the callers sent them.
        assert [f["query"] for f in frames] == [
            query_to_dict(q) for q in queries
        ]
        assert snapshot["restarts"] >= 1
        for query, result in zip(queries, results):
            # Answered (by the dying worker or by the replay) or failed
            # explicitly — never dropped.
            if result.ok:
                assert result.plan.root.relations() == frozenset(
                    query.relation_names()
                )
            else:
                assert result.status == "error" and result.error

    def test_a_crash_loop_strands_no_replay(self, monkeypatch):
        # A respawned worker that dies at once can break a replay's write.
        # Every replay is registered before that write, so each request
        # still comes back, answered or failed explicitly, and nothing is
        # left in ``_inflight`` for a follow-up to coalesce onto.
        # The backoff is shrunk to milliseconds: what is tested is that
        # no replay is stranded, not how long the loop waits.
        queries = [_query(names=(f"C{i}", f"D{i}", f"E{i}")) for i in range(4)]
        for name, value in (("MAX_RETRIES", 5), ("_WAIT_FIRST", 0.001),
                            ("_WAIT_CAP", 0.004)):
            monkeypatch.setattr(gateway_module, name, value)

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                monkeypatch.setattr(gateway_module, "worker_main", _dies_at_once)
                gw.kill_worker(0)
                answers = await asyncio.wait_for(asyncio.gather(
                    *(gw.optimize(_request(q)) for q in queries)
                ), timeout=20)
                follow_up = await asyncio.wait_for(
                    gw.optimize(_request(queries[0])), timeout=20
                )
                return answers, follow_up, gw.shards[0].pending, gw._inflight

        answers, follow_up, pending, inflight = asyncio.run(scenario())
        for r in [*answers, follow_up]:
            assert r.ok or (r.status == "error" and r.error)
            assert not r.coalesced
        assert not pending and not inflight

    def test_a_crash_loop_backs_off_and_a_served_worker_respawns_at_once(
        self, monkeypatch
    ):
        # Each death soon after a spawn, with nothing answered, doubles
        # the wait before the next spawn, up to the cap; the first respawn
        # after a worker that answered waits nothing.  The constants are
        # shrunk: what is tested is the doubling, not the seconds.
        first, cap = 0.1, 0.4
        for name, value in (("_CRASH_WINDOW", 0.5), ("_WAIT_FIRST", first),
                            ("_WAIT_CAP", cap)):
            monkeypatch.setattr(gateway_module, name, value)

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                assert (await gw.optimize(_request())).ok
                spawned, spawn = [], gw._spawn

                async def counted(shard):
                    # ``_restart`` has just waited ``shard.backoff``.
                    spawned.append((time.monotonic(), shard.backoff))
                    await spawn(shard)

                gw._spawn = counted
                monkeypatch.setattr(gateway_module, "worker_main", _dies_at_once)
                gw.kill_worker(0)
                while len(spawned) < 5:
                    await asyncio.sleep(0.01)
                return list(spawned)

        spawned = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
        times, waits = zip(*spawned[:5])
        assert waits == (0.0, first, 2 * first, cap, cap)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap > 0.9 * wait for gap, wait in zip(gaps, waits[1:])), (gaps, waits)

    def test_killing_a_worker_costs_its_warmth_and_no_answer(self):
        # A worker remembers the requests it decoded; none of that is a
        # plan, so a kill can only make the next run cold again.
        requests = [_request(_query(names=(f"W{i}", f"X{i}", f"Y{i}")))
                    for i in range(3)]
        source = SimpleNamespace(version=0)

        async def ask_all(gw):
            source.version += 1  # every round is a gateway miss
            return await asyncio.wait_for(
                asyncio.gather(*(gw.optimize(r) for r in requests)), timeout=60
            )

        async def scenario():
            async with ClusterGateway(shards=1, catalog_sources=[source]) as gw:
                rounds = [await ask_all(gw), await ask_all(gw)]
                warm = (await gw.snapshot())["worker_memo"]
                gw.kill_worker(0)
                rounds += [await ask_all(gw), await ask_all(gw)]
                return rounds, warm, await gw.snapshot()

        rounds, warm, snapshot = asyncio.run(scenario())
        assert warm == {"requests": 6, "remembered": 3}
        assert snapshot["restarts"] >= 1
        # The respawned worker started empty: it decoded the replayed
        # round afresh and remembered the one after it.
        assert snapshot["shards"][0]["remembered"] == 3
        for answers in rounds:
            assert all(r.ok and not r.cache_hit for r in answers)  # lost: 0
            for got, want in zip(answers, rounds[0]):
                assert got.plan_doc == want.plan_doc
                assert repr(got.objective_value) == repr(want.objective_value)
        assert any(r.retries for r in rounds[2])

    def test_a_shard_stalled_past_the_deadline_loses_nothing(self):
        # SIGSTOP, not SIGKILL: the socket stays open, nothing respawns,
        # and the accepted requests simply wait.  After SIGCONT each is
        # answered (the worker's deadline clock starts when it picks a
        # request up, so the stall shows in the gateway's latency, not in
        # ``deadline_exceeded``) or fails explicitly; none is lost.
        deadline, stall = 0.2, 0.5
        queries = [_query(names=(f"S{i}", f"T{i}", f"U{i}")) for i in range(12)]

        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                by_shard = {0: [], 1: []}
                for q in queries:
                    by_shard[gw.shard_for(query_fingerprint(q))].append(q)
                stalled, live = by_shard[0][:3], by_shard[1][:3]
                assert len(stalled) == 3 and len(live) == 3
                pid = gw.shards[0].proc.pid
                os.kill(pid, signal.SIGSTOP)
                try:
                    t0 = time.monotonic()
                    tasks = [asyncio.ensure_future(
                        gw.optimize(_request(q, deadline=deadline))
                    ) for q in stalled]
                    meanwhile = []
                    while time.monotonic() - t0 < stall:
                        meanwhile += [await asyncio.wait_for(
                            gw.optimize(_request(q)), timeout=30
                        ) for q in live]
                    waiting = [len(s.pending) for s in gw.shards]
                    undone = [t.done() for t in tasks]
                finally:
                    os.kill(pid, signal.SIGCONT)
                answers = await asyncio.wait_for(asyncio.gather(*tasks), 60)
                return (waiting, undone, meanwhile, answers,
                        [len(s.pending) for s in gw.shards],
                        await gw.snapshot())

        waiting, undone, meanwhile, answers, drained, snapshot = asyncio.run(
            scenario()
        )
        assert waiting == [3, 0] and undone == [False] * 3
        assert len(meanwhile) >= 3 and all(r.ok for r in meanwhile)
        assert {r.shard for r in meanwhile} == {1}
        for r in answers:
            assert r.ok or (r.status == "error" and r.error)
            assert r.shard == 0 and r.latency > deadline
        assert drained == [0, 0]
        assert snapshot["restarts"] == 0  # stalled is not dead

    def test_close_with_requests_in_flight_fails_each_explicitly(self):
        queries = [_query(names=(f"P{i}", f"Q{i}")) for i in range(3)]

        async def scenario():
            gw = await ClusterGateway(shards=1).start()
            # The frames never reach the worker, so it cannot answer
            # while it drains: what resolves the callers is close().
            gw.shards[0].writer.write = lambda data: None
            tasks = [
                asyncio.ensure_future(gw.optimize(_request(q))) for q in queries
            ]
            duplicate = asyncio.ensure_future(gw.optimize(_request(queries[0])))
            await asyncio.sleep(0)
            assert len(gw.shards[0].pending) == len(queries)
            del gw.shards[0].writer.write  # let the shutdown frame through
            await gw.close()
            return await asyncio.wait_for(
                asyncio.gather(*tasks, duplicate), timeout=30
            )

        results = asyncio.run(scenario())
        assert len(results) == 4
        for result in results:
            assert result.status == "error"
            assert "closed with request in flight" in result.error
        assert results[-1].coalesced


class TestWorkerMemo:
    def test_a_version_bump_sends_back_a_request_the_worker_remembers(self):
        source = SimpleNamespace(version=0)

        async def scenario():
            async with ClusterGateway(shards=1, catalog_sources=[source]) as gw:
                first = await gw.optimize(_request())
                before = await gw.snapshot()
                source.version += 1
                second = await gw.optimize(_request())
                return first, second, before, await gw.snapshot()

        first, second, before, after = asyncio.run(scenario())
        assert first.ok and second.ok
        # The fence emptied the gateway's tier: a miss there ...
        assert not first.cache_hit and not second.cache_hit
        assert after["gateway"]["cluster.catalog_invalidations"] == 1
        # ... and a request the worker had already decoded.
        assert before["worker_memo"] == {"requests": 1, "remembered": 0}
        assert after["worker_memo"] == {"requests": 2, "remembered": 1}
        assert after["shards"][0]["remembered"] == 1
        assert second.plan_doc == first.plan_doc
        assert repr(second.objective_value) == repr(first.objective_value)
        assert second.rung == first.rung == "full"


class TestQueryDocuments:
    """A query's wire document is built once per query object, and only
    for it: never shared by fingerprint, never kept past the query."""

    def test_one_document_per_query_object(self, monkeypatch):
        source = SimpleNamespace(version=0)
        query = _query(names=("J", "K", "L"))
        built, real = [], gateway_module.query_to_dict

        def counted(q):
            built.append(q)
            return real(q)

        monkeypatch.setattr(gateway_module, "query_to_dict", counted)

        async def scenario():
            async with ClusterGateway(shards=1, catalog_sources=[source]) as gw:
                frames = _tap_request_frames(gw)
                answers = []
                for _ in range(4):
                    source.version += 1  # each round is a miss
                    answers.append(await gw.optimize(_request(query)))
                return answers, frames[0]

        answers, frames = asyncio.run(scenario())
        assert all(r.ok and not r.cache_hit for r in answers)
        assert built == [query]
        assert len(frames) == 4
        assert all(f["query"] == real(query) for f in frames)

    def test_queries_one_ulp_apart_send_their_own_digits(self):
        def with_selectivity(value):
            return JoinQuery(
                [RelationSpec(name="F", pages=100.0),
                 RelationSpec(name="G", pages=200.0)],
                [JoinPredicate("F", "G", 0.01, label="F=G",
                               selectivity_dist=DiscreteDistribution(
                                   [value, 0.02], [0.5, 0.5]))],
            )

        low = 0.01
        high = float(np.nextafter(low, 1.0))
        one, other = with_selectivity(low), with_selectivity(high)
        assert query_fingerprint(one) != query_fingerprint(other)
        source = SimpleNamespace(version=0)

        async def scenario():
            async with ClusterGateway(shards=1, catalog_sources=[source]) as gw:
                frames = _tap_request_frames(gw)
                for query in (one, other):
                    source.version += 1
                    assert (await gw.optimize(_request(query))).ok
                return frames[0]

        frames = asyncio.run(scenario())
        sent = [f["query"]["predicates"][0]["selectivity_dist"]["values"][0]
                for f in frames]
        assert sent == [low, high] and low != high

    def test_a_dropped_query_releases_its_document(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                query = _query(names=("Y", "Z"))
                assert (await gw.optimize(_request(query))).ok
                held = len(gw._query_docs)
                gone = weakref.ref(query)
                del query
                gc.collect()
                return held, gone() is None, len(gw._query_docs)

        assert asyncio.run(scenario()) == (1, True, 0)


class TestHealth:
    def test_a_ping_behind_queued_requests_is_answered_after_them(self):
        # One thread per worker: a ping is answered between requests,
        # never during one, and its queue_depth is 0 by construction.
        queries = [_query(names=(f"P{i}", f"Q{i}", f"R{i}", f"S{i}"))
                   for i in range(3)]

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                order, dispatch = [], gw._dispatch

                def tap(shard, message):
                    order.append(message["type"])
                    dispatch(shard, message)

                gw._dispatch = tap
                tasks = [asyncio.ensure_future(gw.optimize(_request(q)))
                         for q in queries]
                await asyncio.sleep(0)  # the three frames are written
                assert len(gw.shards[0].pending) == 3
                pong = await gw.ping(0, timeout=30)
                results = await asyncio.gather(*tasks)
                return list(order), pong, results  # before close's "bye"

        order, pong, results = asyncio.run(scenario())
        assert order == ["result", "result", "result", "pong"]
        assert all(r.ok for r in results)
        assert pong["queue_depth"] == 0
        assert pong["metrics"]["counters"]["serving.requests"] == 3

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
            assert "metrics" in pong
