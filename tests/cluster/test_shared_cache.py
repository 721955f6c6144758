"""The cluster's routing digests, the plan tier under its cluster name,
and the tier's life in the gateway.

The tier is the one ``PlanCache`` (its full unit tests are
``tests/serving/test_plan_cache.py``; ``TestSharedPlanTier`` checks it
through the name the cluster exports).  Which replies the gateway keeps
in it is tested here against a real one-worker cluster; that a hit hands
out the filling miss's answer is the warm property's gateway front
(``tests/corpus/test_corpus.py``), and the fence itself is
``test_invalidation.py``'s subject.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.cluster import ClusterGateway
from repro.cluster.shared_cache import (
    SharedPlanTier,
    cache_key_digest,
    fingerprint_digest,
)
from repro.core.distributions import DiscreteDistribution
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod
from repro.serving.plan_cache import PlanCacheKey
from repro.tools.serialize import plan_to_dict

from .test_gateway import _query, _request


def _key(fp="fp", version=(0,), memory=500.0) -> PlanCacheKey:
    return PlanCacheKey(
        fingerprint=fp,
        objective="expected",
        model_key=("m",),
        memory=("dist", DiscreteDistribution([memory, 2 * memory], [0.5, 0.5])),
        knobs=("left-deep", False, 1, 16, False, True),
        catalog_version=version,
    )


def _doc(left="R", right="S") -> dict:
    return plan_to_dict(
        Plan(Join(Scan(left), Scan(right), JoinMethod.SORT_MERGE, f"{left}={right}"))
    )


class TestDigests:
    def test_equal_valued_keys_digest_identically(self):
        # Separately constructed DiscreteDistribution objects hash
        # differently in-process; the digest must see only their values —
        # that is what makes the key meaningful across processes.
        assert cache_key_digest(_key()) == cache_key_digest(_key())

    def test_value_changes_change_the_digest(self):
        assert cache_key_digest(_key()) != cache_key_digest(_key(memory=600.0))
        assert cache_key_digest(_key()) != cache_key_digest(_key(fp="other"))
        assert cache_key_digest(_key()) != cache_key_digest(_key(version=(1,)))

    def test_fingerprint_digest_is_stable(self):
        fp = ("chain", ("R", 100.0), ("S", 50.0))
        assert fingerprint_digest(fp) == fingerprint_digest(
            ("chain", ("R", 100.0), ("S", 50.0))
        )
        assert fingerprint_digest(fp) != fingerprint_digest(("star",))

    _SCRIPT = """
from repro.cluster.shared_cache import cache_key_digest, fingerprint_digest
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.model import CostModel
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizeRequest

query = JoinQuery(
    [RelationSpec(name=n, pages=100.0 * (i + 1)) for i, n in enumerate("RST")],
    [JoinPredicate("R", "S", 0.01, label="R=S",
                   selectivity_dist=DiscreteDistribution(
                       [0.005, 0.02], [0.5, 0.5])),
     JoinPredicate("S", "T", 0.01, label="S=T")],
)
request = OptimizeRequest(
    query=query, objective="lec",
    memory=DiscreteDistribution([300.0, 900.0], [0.5, 0.5]),
)
key = request.cache_key((3, 1), CostModel())
print(fingerprint_digest(key.fingerprint))
print(cache_key_digest(key))
"""

    def test_digests_agree_between_interpreters_with_different_hash_seeds(self):
        # Routing must survive a gateway restart: the shard a query goes
        # to is a digest of its fingerprint, never a salted ``hash``.
        src = str(Path(repro.__file__).resolve().parents[1])

        def digests(hash_seed: int) -> str:
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", self._SCRIPT],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        first, second = digests(1), digests(2)
        assert len(first.split()) == 2
        assert first == second


class TestSharedPlanTier:
    """The tier under its cluster name, as the gateway uses it: plan
    documents keyed by value, fenced at one catalog version."""

    def test_put_get_and_stats(self):
        tier = SharedPlanTier(max_entries=8)
        tier.invalidate_stale((0,))
        assert tier.get(_key()) is None
        doc = _doc()
        tier.put(_key(), doc, 3.5, "expected", shard=1)
        stored = tier.get(_key())  # an equal key, separately built
        assert stored.plan_doc is doc
        assert stored.objective_value == 3.5
        assert stored.objective == "expected"
        assert stored.shard == 1
        assert len(tier) == 1
        assert tier.stats() == {
            "hits": 1, "misses": 1, "hit_rate": pytest.approx(0.5),
            "evictions": 0, "invalidations": 0, "entries": 1,
        }

    def test_evicts_coldest_on_overflow(self):
        tier = SharedPlanTier(max_entries=2)
        tier.invalidate_stale((0,))
        for name in ("a", "b"):
            tier.put(_key(fp=name), _doc(), 1.0, "expected", shard=0)
        tier.get(_key(fp="a"))  # "b" is now the least recently used
        tier.put(_key(fp="c"), _doc(), 1.0, "expected", shard=0)
        assert len(tier) == 2
        assert tier.get(_key(fp="b")) is None
        # Eviction follows recency of use, not insertion order.
        tier.put(_key(fp="d"), _doc(), 1.0, "expected", shard=0)
        assert tier.get(_key(fp="a")) is None
        assert tier.get(_key(fp="c")) is not None
        assert tier.get(_key(fp="d")) is not None

    def test_invalidate_stale_purges_old_versions(self):
        tier = SharedPlanTier(max_entries=8)
        tier.invalidate_stale((0,))
        tier.put(_key(fp="a", version=(0,)), _doc(), 1.0, "expected", shard=0)
        tier.put(_key(fp="b", version=(0,)), _doc(), 1.0, "expected", shard=0)
        # Only the fenced version is kept: a key named at another is refused.
        tier.put(_key(fp="a", version=(1,)), _doc(), 1.0, "expected", shard=0)
        assert len(tier) == 2
        assert tier.invalidate_stale((1,)) == 2
        assert tier.get(_key(fp="a", version=(0,))) is None
        tier.put(_key(fp="a", version=(1,)), _doc(), 1.0, "expected", shard=0)
        assert tier.get(_key(fp="a", version=(1,))) is not None
        assert tier.invalidate_stale((1,)) == 0
        assert tier.invalidate_stale((2,)) == 1
        assert len(tier) == 0
        assert tier.stats()["invalidations"] == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SharedPlanTier(max_entries=0)


class TestTierInTheGateway:
    def test_a_reply_that_lands_after_a_bump_is_delivered_but_not_stored(self):
        source = SimpleNamespace(version=0)
        slow = _request(_query(names=("K", "L", "M", "N")))

        async def scenario():
            async with ClusterGateway(shards=1, catalog_sources=[source]) as gw:
                task = asyncio.ensure_future(gw.optimize(slow))
                await asyncio.sleep(0)  # registered, frame written
                assert [len(s.pending) for s in gw.shards] == [1]
                source.version += 1
                other = await gw.optimize(_request())  # moves the fence
                late = await task
                entries = len(gw.shared_tier)
                return late, other, entries, await gw.optimize(slow)

        late, other, entries, redo = asyncio.run(scenario())
        assert late.ok and not late.cache_hit
        assert other.ok and not other.cache_hit
        assert entries == 1  # ``other`` alone: ``late`` names a world that is gone
        assert not redo.cache_hit and redo.worker_latency > 0
        assert redo.objective_value == late.objective_value

    def test_degraded_and_error_replies_are_never_stored(self):
        a, b = _query(names=("A", "B", "C")), _query(names=("D", "E", "F"), scale=2.0)

        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                full = await gw.optimize(_request(a))
                # The worker now has a full-rung estimate for this query
                # size, and no budget to spend: it answers from the LSC rung.
                degraded = await gw.optimize(_request(b, deadline=1e-9))
                error = await gw.optimize(_request(b, plan_space="star"))
                entries = len(gw.shared_tier)
                inflight = len(gw._inflight)
                return full, degraded, error, entries, inflight, await gw.optimize(_request(b))

        full, degraded, error, entries, inflight, redo = asyncio.run(scenario())
        assert full.rung == "full"
        assert degraded.ok and degraded.rung == "lsc"
        assert error.status == "error" and "star" in error.error
        assert entries == 1 and inflight == 0
        assert not redo.cache_hit and redo.rung == "full"
