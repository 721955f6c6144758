"""The one plan tier: ``PlanCache``, the LRU both serving fronts keep
their plans in (``OptimizerService.cache`` and the cluster gateway's
``shared_tier``), and the catalog fence it owns.

What each front does with the tier — which answers it keeps, what a hit
hands out — is tested with the front: ``test_service.py`` and
``tests/cluster/test_shared_cache.py``; the fence end to end is
``test_invalidation.py``'s subject in both packages.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.distributions import two_point
from repro.core.markov import MarkovParameter
from repro.cluster.shared_cache import SharedPlanTier
from repro.plans.nodes import Join, Plan, Scan
from repro.plans.properties import JoinMethod
from repro.serving.plan_cache import PlanCache, PlanCacheKey, memory_key
from repro.tools.serialize import plan_from_dict, plan_to_dict


def _plan(left="R", right="S") -> Plan:
    return Plan(Join(Scan(left), Scan(right), JoinMethod.SORT_MERGE, f"{left}={right}"))


def _doc(left="R", right="S") -> dict:
    return plan_to_dict(_plan(left, right))


def _key(fp="fp", objective="expected", version=(0,)) -> PlanCacheKey:
    return PlanCacheKey(
        fingerprint=fp,
        objective=objective,
        model_key=("m",),
        memory=("scalar", 500.0),
        knobs=("left-deep", False, 1, 16, False, True),
        catalog_version=version,
    )


class TestMemoryKey:
    def test_scalar(self):
        assert memory_key(500) == ("scalar", 500.0)
        assert memory_key(500.0) == memory_key(500)

    def test_distribution_keys_by_value(self):
        a = two_point(2000.0, 0.8, 700.0)
        b = two_point(2000.0, 0.8, 700.0)
        assert memory_key(a) == memory_key(b)
        assert hash(memory_key(a)) == hash(memory_key(b))

    def test_markov_full_content(self):
        chain = MarkovParameter([500.0, 2000.0], [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        same = MarkovParameter([500.0, 2000.0], [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        other = MarkovParameter([500.0, 2000.0], [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        assert memory_key(chain) == memory_key(same)
        assert memory_key(chain) != memory_key(other)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            memory_key("lots")


class TestPlanCache:
    def test_miss_then_hit_roundtrips_plan(self):
        cache = PlanCache()
        key = _key(version=())  # a fresh tier is fenced at ()
        assert cache.get(key) is None
        doc = _doc()
        cache.put(key, doc, 123.5, "expected", shard=1)
        hit = cache.get(key)
        assert hit is not None
        assert hit.plan_doc is doc  # the document as stored; callers decode
        assert plan_from_dict(hit.plan_doc) == _plan()
        assert hit.objective_value == 123.5
        assert hit.objective == "expected"
        assert hit.shard == 1
        assert cache.stats() == {
            "hits": 1, "misses": 1, "hit_rate": pytest.approx(0.5),
            "evictions": 0, "invalidations": 0, "entries": 1,
        }

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        k1, k2, k3, k4 = (_key(fp, version=()) for fp in "abcd")
        cache.put(k1, _doc(), 1.0, "expected")
        cache.put(k2, _doc(), 2.0, "expected")
        cache.get(k1)  # touch k1 so k2 is the LRU victim
        cache.put(k3, _doc(), 3.0, "expected")
        assert cache.get(k1) is not None
        assert cache.get(k2) is None
        assert cache.get(k3) is not None
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        # Eviction follows recency of use, not insertion order.
        cache.put(k4, _doc(), 4.0, "expected")
        assert cache.get(k1) is None
        assert cache.get(k3) is not None and cache.get(k4) is not None

    def test_overwriting_a_key_keeps_one_entry(self):
        cache = PlanCache(max_entries=2)
        cache.put(_key(version=()), _doc(), 1.0, "expected", shard=0)
        cache.put(_key(version=()), _doc(), 2.0, "expected", shard=1)
        assert len(cache) == 1
        assert cache.get(_key(version=())).objective_value == 2.0

    def test_invalidate_stale_by_catalog_version(self):
        cache = PlanCache()
        assert cache.version == ()
        assert cache.invalidate_stale((0,)) == 0
        assert cache.version == (0,)
        cache.put(_key("a", version=(0,)), _doc(), 1.0, "expected")
        cache.put(_key("b", version=(0,)), _doc(), 2.0, "expected")
        # Moving the fence drops every entry fenced elsewhere, in one call.
        assert cache.invalidate_stale((1,)) == 2
        assert cache.version == (1,) and len(cache) == 0
        cache.put(_key("a", version=(1,)), _doc(), 1.0, "expected")
        assert cache.invalidate_stale((1,)) == 0  # the fence did not move
        assert cache.get(_key("a", version=(1,))) is not None
        assert cache.invalidate_stale((2,)) == 1
        assert cache.stats()["invalidations"] == 3

    def test_put_refuses_a_key_fenced_elsewhere(self):
        cache = PlanCache()
        cache.invalidate_stale((1,))
        cache.put(_key("old", version=(0,)), _doc(), 1.0, "expected")
        cache.put(_key("new", version=(2,)), _doc(), 1.0, "expected")
        cache.put(_key("now", version=(1,)), _doc(), 1.0, "expected")
        assert len(cache) == 1
        assert cache.get(_key("now", version=(1,))) is not None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_the_cluster_name_is_the_one_class(self):
        assert SharedPlanTier is PlanCache

    def test_concurrent_mixed_operations_stay_consistent(self):
        cache = PlanCache(max_entries=16)
        doc = _doc()
        errors = []

        def worker(tid: int):
            try:
                for i in range(200):
                    key = _key(f"fp{(tid + i) % 24}", version=())
                    if cache.get(key) is None:
                        cache.put(key, doc, float(i), "expected")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert len(cache) <= 16

    def test_a_fence_moving_under_concurrent_puts_leaves_no_other_version(self):
        # Writers name their keys at the version they last saw, which lags
        # each fence move; at every moment the tier holds only entries
        # fenced at its own version.
        cache = PlanCache(max_entries=64)
        seen, stop, stale, errors = [0], [False], [], []

        def writer(tid: int):
            try:
                i = 0
                while not stop[0]:
                    i += 1
                    cache.put(_key(f"fp{tid}-{i % 40}", version=(seen[0],)),
                              _doc(), 1.0, "expected")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        try:
            for t in threads:
                t.start()
            for v in range(1, 300):
                cache.invalidate_stale((v,))
                seen[0] = v
                with cache._lock:
                    stale.extend(k for k in cache._entries
                                 if k.catalog_version != cache.version)
        finally:
            stop[0] = True
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert stale == []
