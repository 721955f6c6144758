"""A query is named once: its fingerprint, key parts and hit instruments.

A query is immutable, so its fingerprint is taken on first use and kept;
a request's key parts (plan-space spelling, cost-model key) resolve once,
and a key is built as one positional tuple; a gateway hit records into
instruments it looked up once and builds one result tuple.  None of
that may change a key's value: that a rebuilt query or request names the
same entries and a moved statistic, knob or fence another is the warm
property (``tests/corpus/test_warm.py``); every query digests — so
routes — as it did before the fingerprint was kept.
"""

from __future__ import annotations

import asyncio
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cluster import ClusterGateway, ClusterResult, GatewayError
from repro.cluster import gateway as gateway_module
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.shared_cache import cache_key_digest, fingerprint_digest
from repro.core.context import query_fingerprint
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.model import CostModel
from repro.optimizer.errors import MemoryTypeError, OptimizerConfigError
from repro.plans.nodes import Plan, Scan
from repro.plans.query import HashedTuple, IndexInfo, JoinPredicate, JoinQuery, RelationSpec
from repro.plans.space import PlanSpace
from repro.plans.spju import UnionQuery
from repro.serving.metrics import MetricsRegistry
from repro.serving.service import OptimizeRequest, OptimizerService
from repro.tools.serialize import plan_to_dict
from repro.workloads.queries import chain_query, clique_query

_MEMORY = DiscreteDistribution([300.0, 900.0], [0.5, 0.5])


def _request(query, **kw) -> OptimizeRequest:
    return OptimizeRequest(query=query, objective="lec", memory=_MEMORY, **kw)


def _tiers(query):
    """A plan cache and an unstarted gateway, both filled by ``query``'s
    request (a hit needs no worker)."""
    service = OptimizerService(max_workers=1)  # no catalog source: version ()
    service.cache.put(_request(query).cache_key((), CostModel()),
                      plan_to_dict(Plan(Scan("R"))), 1.0, "expected")
    gw = ClusterGateway(shards=2)
    gw.shared_tier.put(gw._key_of(_request(query)), {"root": None}, 1.0, "expected", 0)
    return service, gw


def _without_suspending(coro):
    """Run ``coro`` to its end in one step; fail if it would suspend."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise AssertionError("suspended")


class TestKeysStayExact:
    def test_a_copy_elsewhere_hashes_afresh(self):
        # ``hash`` is salted per process, so a pickled fingerprint must not
        # carry the hash it was given here.
        fingerprint = query_fingerprint(_pinned_join())
        hash(fingerprint)
        back = pickle.loads(pickle.dumps(fingerprint))
        assert type(back) is HashedTuple and back == fingerprint
        assert "_hash" not in vars(back) and hash(back) == hash(fingerprint)


class TestNamedOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"fingerprint": 0, "parse": 0, "counter": 0, "histogram": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(JoinQuery, "_fingerprint_parts",
                            counting("fingerprint", JoinQuery._fingerprint_parts))
        monkeypatch.setattr(PlanSpace, "parse",
                            classmethod(counting("parse", PlanSpace.parse.__func__)))
        for name in ("counter", "histogram"):
            monkeypatch.setattr(MetricsRegistry, name,
                                counting(name, getattr(MetricsRegistry, name)))
        return counts

    def test_a_second_hit_derives_nothing_again(self, counts):
        query = chain_query(4, np.random.default_rng(7))
        service, gw = _tiers(query)  # the fingerprint is taken here

        async def two_rounds():
            async with gw:
                for _ in range(2):
                    request = _request(query)
                    before = dict(counts)
                    assert service.execute(request).cache_hit
                    served = dict(counts)
                    # A hit never suspends: no worker, no frame, no await.
                    result = _without_suspending(gw.optimize(request))
                    assert result.cache_tier == "shared"
            return before, served

        try:
            before, served = asyncio.run(two_rounds())
            # The second round: no fingerprint, no parse, and at the
            # gateway no instrument lookup.
            assert counts["fingerprint"] == before["fingerprint"] == 1
            assert counts["parse"] == before["parse"]
            assert counts["counter"] == served["counter"]
            assert counts["histogram"] == served["histogram"]
        finally:
            service.close()

    def test_a_valid_spelling_is_parsed_once(self, counts):
        query = chain_query(3, np.random.default_rng(1))
        # A spelling of zig-zag no other test uses, so it is new here.
        assert _request(query, plan_space=" Zig_Zag+Union ").knobs()[0] == "zig-zag+union"
        assert _request(query, plan_space=" Zig_Zag+Union ").knobs()[0] == "zig-zag+union"
        assert counts["parse"] == 1

    def test_an_unknown_spelling_is_not_remembered(self, counts):
        request = _request(chain_query(3, np.random.default_rng(1)), plan_space="star")
        assert request.knobs()[0] == request.knobs()[0] == "star"
        assert counts["parse"] == 2

    def test_an_answer_looks_its_instruments_up_once(self, counts):
        metrics = ClusterMetrics()
        kinds = [("full", True, False), ("full", False, False),
                 ("lsc", False, True), (None, False, False)]
        for rung, hit, retried in kinds:
            metrics.observe_request(1e-5, rung, hit, retried)
        looked_up = counts["counter"] + counts["histogram"]
        for rung, hit, retried in kinds * 3:
            metrics.observe_request(1e-5, rung, hit, retried)
        assert counts["counter"] + counts["histogram"] == looked_up
        counters = metrics.registry.snapshot()["counters"]
        assert counters == {
            "cluster.answered_after_retry": 4, "cluster.cache.hits": 4,
            "cluster.cache.misses": 12, "cluster.rung.full": 8,
            "cluster.rung.lsc": 4,
        }
        metrics.observe_arrival()
        metrics.observe_arrival()
        assert metrics.registry.snapshot()["counters"]["cluster.requests"] == 2

    def test_snapshots_name_what_they_named(self):
        # Recorded before the instruments were kept: one miss, one hit,
        # one request degraded to the LSC rung (and, at the gateway, one
        # worker error).
        a = JoinQuery([RelationSpec(n, 100.0 * (i + 1)) for i, n in enumerate("RST")],
                      [JoinPredicate("R", "S", 0.01), JoinPredicate("S", "T", 0.01)])
        b = JoinQuery([RelationSpec(n, 200.0 * (i + 1)) for i, n in enumerate("DEF")],
                      [JoinPredicate("D", "E", 0.01), JoinPredicate("E", "F", 0.01)])
        with OptimizerService(max_workers=1) as service:
            service.optimize(a, "lec", memory=_MEMORY)
            service.optimize(a, "lec", memory=_MEMORY)
            service.optimize(b, "lec", memory=_MEMORY, deadline=1e-9)
            snap = service.metrics_snapshot()
        assert sorted(snap["counters"]) == [
            "plan_cache.hits", "plan_cache.misses", "serving.deadline_exceeded",
            "serving.degraded", "serving.requests", "serving.rung.full",
            "serving.rung.lsc",
        ]
        assert sorted(snap["histograms"]) == [
            "serving.latency.cache_hit", "serving.latency.optimize",
        ]

        async def cluster():
            async with ClusterGateway(shards=1) as gw:
                for request in (_request(a), _request(a), _request(b, deadline=1e-9),
                                _request(b, plan_space="star")):
                    await gw.optimize(request)
                return gw.metrics.registry.snapshot()

        snap = asyncio.run(cluster())
        assert sorted(snap["counters"]) == [
            "cluster.cache.hits", "cluster.cache.misses", "cluster.errors",
            "cluster.requests", "cluster.rung.full", "cluster.rung.lsc",
        ]
        assert sorted(snap["histograms"]) == ["cluster.latency"]


class TestOneKeyOneResult:
    """A request is named the same whether it is resubmitted or rebuilt
    per arrival; a hit builds one key and one result, and nothing else."""

    @pytest.mark.parametrize("change, error", [
        ({"objective": "nonsense"}, OptimizerConfigError),
        ({"memory": None}, OptimizerConfigError),
        ({"memory": 2000.0}, MemoryTypeError),
    ])
    def test_an_invalid_request_raises_on_every_call(self, change, error):
        request = replace(_request(chain_query(3, np.random.default_rng(2))), **change)
        for _ in range(2):
            with pytest.raises(error):
                request.cache_key((), CostModel())

    def test_a_second_hit_builds_one_result_that_refuses_assignment(self, monkeypatch):
        query = chain_query(4, np.random.default_rng(7))
        service, gw = _tiers(query)
        service.close()
        gw._started = True  # a hit needs no worker, only the flag optimize checks
        request = _request(query)
        _without_suspending(gw.optimize(request))
        built = []

        def counting(*args, **kwargs):
            built.append(ClusterResult(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(gateway_module, "ClusterResult", counting)
        result = _without_suspending(gw.optimize(request))
        assert built == [result] and type(result) is ClusterResult
        assert isinstance(result, tuple)  # built without a setattr per field
        assert result.ok and result.cache_hit and result.cache_tier == "shared"
        with pytest.raises(AttributeError):
            result.status = "error"
        # the request holds its fields and nothing it derived from them
        assert set(vars(request)) == {f.name for f in fields(OptimizeRequest)}

    def test_a_result_is_a_named_tuple_with_ok_plan_and_replace(self):
        # The public surface: fields by name, ``ok``, ``plan`` and
        # ``_replace``; as a tuple it also equals a plain tuple of its
        # values, and ``dataclasses.replace`` no longer applies.
        shed = ClusterResult(status="shed", shard=1, error="queue full")
        assert not shed.ok and (shed.rung, shed.coalesced) == (None, False)
        with pytest.raises(GatewayError):
            shed.plan
        ok = shed._replace(status="ok", error=None, plan_doc=plan_to_dict(Plan(Scan("R"))))
        assert ok.ok and ok.plan == Plan(Scan("R")) and ok.plan is not ok.plan
        assert shed.status == "shed" and ok == tuple(ok)
        assert ClusterResult._fields[:3] == ("status", "shard", "rung")

    def test_a_coalesced_follower_gets_an_equal_tuple(self):
        request = _request(clique_query(4, np.random.default_rng(11)))

        async def leader_and_follower():
            async with ClusterGateway(shards=1) as gw:
                return await asyncio.gather(gw.optimize(request), gw.optimize(request))

        leader, follower = asyncio.run(leader_and_follower())
        assert leader.ok and not leader.cache_hit
        assert (leader.coalesced, follower.coalesced) == (False, True)
        assert type(follower) is ClusterResult
        assert follower == leader._replace(coalesced=True)


def _pinned_join() -> JoinQuery:
    return JoinQuery(
        [
            RelationSpec("R", 1200.0, rows=90000.0,
                         pages_dist=DiscreteDistribution([800.0, 1600.0], [0.5, 0.5]),
                         filter_selectivity=0.5, index=IndexInfo(3, True)),
            RelationSpec("S", 300.0),
            RelationSpec("T", 45.0),
        ],
        [
            JoinPredicate("R", "S", 0.001, label="R=S", equiv_class="x",
                          selectivity_dist=DiscreteDistribution([0.0005, 0.002], [0.7, 0.3])),
            JoinPredicate("S", "T", 0.01, label="S=T", result_pages_override=20.0),
        ],
        required_order="R=S", rows_per_page=50, projection_ratio=0.5,
    )


def _pinned_union() -> UnionQuery:
    return UnionQuery(
        [
            JoinQuery([RelationSpec("A", 500.0), RelationSpec("B", 70.0)],
                      [JoinPredicate("A", "B", 0.002)], projection_ratio=0.25),
            JoinQuery([RelationSpec("C", 900.0), RelationSpec("D", 30.0)],
                      [JoinPredicate("C", "D", 0.004, selectivity_dist=DiscreteDistribution(
                          [0.002, 0.006], [0.5, 0.5]))]),
        ],
        distinct=True,
    )


class TestRoutesArePinned:
    """Digests recorded on the tree that rebuilt the fingerprint per call:
    a kept fingerprint routes every query to the shard it went to then.
    The key digests were re-recorded when the kernel choice, and then the
    mean probe, left the knobs."""

    @pytest.mark.parametrize("make, space, fingerprint, key", [
        (_pinned_join, "zigzag", "499b045e503d2447bcd80965f424476a3f66b591",
         "db013ce165ea0b51b7190178ae24625cc87570b8"),
        (_pinned_union, "spju", "73f88ff708513d328cdaab136ebb3d98310fc35d",
         "229fdf357453ba1ae102fd8d1230c21f97958469"),
    ])
    def test_digests(self, make, space, fingerprint, key):
        query = make()
        for _ in range(2):  # computed, then kept
            assert fingerprint_digest(query_fingerprint(query)) == fingerprint
            request = _request(query, plan_space=space)
            assert cache_key_digest(request.cache_key((3, 1), CostModel())) == key
