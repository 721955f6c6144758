"""A plan the cluster serves re-costs, bucket by bucket, to the optimizer's plan.

The cluster half of ``tests/serving/test_recost.py``.  A few ``lec``
queries go through a 2-shard gateway three times: the cold miss a worker
optimizes, the tier hit the gateway answers alone, and — after a catalog
bump empties the tier — the request the worker recognises from its memo
and re-optimizes warm.  All three must hand back one plan document, byte
for byte; and that document, decoded, must cost in every memory bucket
exactly what the plan :func:`repro.optimize` returns for the same query
costs: ``cost(deserialize(serialize(d))) == cost(d)``.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import numpy as np

import repro
from repro import CostModel
from repro.cluster import ClusterGateway
from repro.core.distributions import DiscreteDistribution
from repro.serving.service import OptimizeRequest
from repro.tools.serialize import plan_from_dict
from repro.workloads.queries import random_query, with_selectivity_uncertainty

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
_CASES = (("chain", 4, 1), ("star", 4, 2), ("clique", 3, 3), ("star", 5, 5))


def _query(shape: str, n: int, seed: int):
    query = random_query(n, np.random.default_rng(seed), shape=shape)
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_cold_tier_and_remembered_answers_are_one_document_that_recosts():
    source = SimpleNamespace(version=0)
    requests = [OptimizeRequest(query=_query(*case), objective="lec", memory=MEMORY)
                for case in _CASES]

    async def scenario():
        async with ClusterGateway(shards=2, catalog_sources=[source]) as gw:
            cold = [await gw.optimize(r) for r in requests]
            hits = [await gw.optimize(r) for r in requests]
            source.version += 1  # empties the tier; the workers remember
            remembered = [await gw.optimize(r) for r in requests]
            return cold, hits, remembered, await gw.snapshot()

    cold, hits, remembered, snapshot = asyncio.run(scenario())
    assert all(r.ok and not r.cache_hit and r.rung == "full" for r in cold)
    assert all(r.cache_hit and r.cache_tier == "shared" for r in hits)
    assert all(not r.cache_hit and r.worker_latency > 0 for r in remembered)
    assert snapshot["worker_memo"]["remembered"] == len(requests)
    assert len({r.shard for r in cold}) == 2  # both shards answered

    cm = CostModel()
    for request, miss, hit, again in zip(requests, cold, hits, remembered):
        assert _text(hit.plan_doc) == _text(miss.plan_doc) == _text(again.plan_doc)
        assert repr(hit.objective_value) == repr(miss.objective_value)
        assert repr(again.objective_value) == repr(miss.objective_value)

        query, served = request.query, plan_from_dict(miss.plan_doc)
        direct = repro.optimize(query, "lec", memory=MEMORY).plan
        for m in MEMORY.values:
            assert cm.plan_cost(served, query, float(m)) == cm.plan_cost(direct, query, float(m))
