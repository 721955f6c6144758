"""A plan the cluster serves re-costs, bucket by bucket, to the optimizer's plan.

The cluster half of ``tests/serving/test_recost.py``.  Queries go
through a 2-shard gateway three times: the cold miss a worker optimizes,
the tier hit the gateway answers alone, and — after a catalog bump
empties the tier — the request the worker recognises from its memo and
re-optimizes warm.  All three must hand back one plan document, byte for
byte, and one ``objective_value``: the one :func:`repro.optimize` reports
on a cold context.  That document, decoded, must cost in every memory
bucket exactly what the plan :func:`repro.optimize` returns for the same
query costs: ``cost(deserialize(serialize(d))) == cost(d)``.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CostModel
from repro.cluster import ClusterGateway, ClusterResult
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.costmodel.context import OptimizationContext
from repro.serving.service import OptimizeRequest
from repro.tools.serialize import plan_from_dict
from repro.workloads.queries import random_query, with_selectivity_uncertainty

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
CHAIN = MarkovParameter([500.0, 2000.0], [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]])
#: Every objective the wire carries, by the spelling a client sends.
OBJECTIVES = ("lec", "point", "markov", "multiparam", "algorithm_a", "algorithm_b")
_CASES = (("chain", 4, 1), ("star", 4, 2), ("clique", 3, 3), ("star", 5, 5))


def _query(shape: str, n: int, seed: int):
    query = random_query(n, np.random.default_rng(seed), shape=shape)
    return with_selectivity_uncertainty(query, 1.0, n_buckets=4)


def _request(objective: str, case) -> OptimizeRequest:
    memory = CHAIN if objective == "markov" else MEMORY
    return OptimizeRequest(query=_query(*case), objective=objective, memory=memory)


def _buckets(memory):
    """The memory values a plan is re-costed at: a chain's states, a
    distribution's buckets."""
    return memory.states if isinstance(memory, MarkovParameter) else memory.values


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _serve_three_times(requests):
    """Cold misses, tier hits, and after a bump the remembered requests."""
    source = SimpleNamespace(version=0)

    async def scenario():
        async with ClusterGateway(shards=2, catalog_sources=[source]) as gw:
            cold = [await gw.optimize(r) for r in requests]
            hits = [await gw.optimize(r) for r in requests]
            source.version += 1  # empties the tier; the workers remember
            remembered = [await gw.optimize(r) for r in requests]
            return cold, hits, remembered, await gw.snapshot()

    cold, hits, remembered, snapshot = asyncio.run(scenario())
    assert all(r.ok and not r.cache_hit and r.rung == "full" for r in cold)
    assert all(type(r) is ClusterResult and r.cache_hit and r.cache_tier == "shared"
               for r in hits)
    assert all(not r.cache_hit and r.worker_latency > 0 for r in remembered)
    assert snapshot["worker_memo"]["remembered"] == len(requests)

    cm = CostModel()
    for request, miss, hit, again in zip(requests, cold, hits, remembered):
        assert _text(hit.plan_doc) == _text(miss.plan_doc) == _text(again.plan_doc)
        assert repr(hit.objective_value) == repr(miss.objective_value)
        assert repr(again.objective_value) == repr(miss.objective_value)

        query, memory = request.query, request.memory
        direct = repro.optimize(query, request.objective, memory=memory,
                                context=OptimizationContext(query))
        assert repr(miss.objective_value) == repr(direct.objective)
        served = plan_from_dict(miss.plan_doc)
        for m in _buckets(memory):
            assert cm.plan_cost(served, query, float(m)) == cm.plan_cost(
                direct.plan, query, float(m))
    return cold


def test_cold_tier_and_remembered_answers_are_one_document_that_recosts():
    cold = _serve_three_times([_request("lec", case) for case in _CASES])
    assert len({r.shard for r in cold}) == 2  # both shards answered


@settings(max_examples=10)
@given(cases=st.lists(
    st.tuples(st.sampled_from(("chain", "star", "clique")), st.integers(2, 5),
              st.integers(0, 2 ** 16)),
    min_size=len(OBJECTIVES), max_size=len(OBJECTIVES),
))
def test_every_objective_serves_one_document_that_recosts(cases):
    _serve_three_times([_request(o, case) for o, case in zip(OBJECTIVES, cases)])
