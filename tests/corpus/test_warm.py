"""Warm equals cold: a memo layer never changes an answer.

Every front that keeps something between requests answers each op of
:mod:`.ops` byte for byte as :func:`repro.optimize` on a fresh context
does: the same plan document and ``repr`` of the objective, and on the
library fronts the same candidates and DP counters (all but
``formula_evaluations``, which warmth is there to save).  The fronts are
a context shared by every op of a query, in a drawn order; the facade's
context LRU, never cleared between ops; the service's plan tier; and a
cluster worker's request memo (``recall`` and ``Ladder.run``).  The
gateway's tier is the corpus's 2-shard run around a catalog version
bump (``test_corpus.py``).

Then one op is asked in every perturbed form.  One that must split an
entry — one ulp in one bucket of a ``pages_dist``, a ``selectivity_dist``
or the memory, one knob, the method set, a catalog bump — misses and
answers as the perturbed op does cold, even handed the original's
context; one that must not — an ``id``, a ``deadline``, a query and
memory rebuilt from their documents — hits and answers as the original.
"The same request" is spelled apart from every key under test: the
request's wire document and its method set.

A new memo layer adds its front here, with its must-split and
must-not-split perturbations (CONTRIBUTING.md).
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster.protocol import encode_frame, encode_request, split_request
from repro.cluster.worker import recall
from repro.core.context import OptimizationContext
from repro.costmodel.model import CostModel
from repro.optimizer.facade import canonical_objective
from repro.plans.properties import JoinMethod
from repro.serving.service import Ladder, OptimizerService
from repro.tools.serialize import plan_to_dict, query_to_dict
from repro.workloads.queries import chain_query, with_size_uncertainty

from .ops import MEMORY, OPS, Op, one_knob, one_ulp, rebuilt

#: The distinct requests on each query object of up to six relations,
#: in corpus order (a disconnected query would fail without cross products).
_by_query: dict = {}
for _op in OPS:
    _group = _by_query.setdefault(id(_op.query), [])
    if (len(_op.query.relations) <= 6 and not _op.knobs.get("allow_cross_products")
            and _op.request() not in [op.request() for op in _group]):
        _group.append(_op)
_GROUPS = [group for group in _by_query.values() if group]
_KINDS = ("pages_dist", "selectivity_dist", "memory", "top_k", "plan_space",
          "allow_cross_products", "max_buckets", "methods", "rebuilt")
_METHODS = ((JoinMethod.NESTED_LOOP, JoinMethod.SORT_MERGE), tuple(JoinMethod))


def _twin(op: Op, kind: str, pick: int) -> Op:
    """``op`` perturbed by ``kind``, in bucket or method set ``pick``."""
    if kind == "methods":
        return op._replace(knobs={**op.knobs, "cost_model": CostModel(_METHODS[pick % 2])})
    if kind in ("pages_dist", "selectivity_dist", "memory"):
        return one_ulp(op, kind, pick) or rebuilt(op)  # no such bucket: rebuilt
    return rebuilt(op) if kind == "rebuilt" else one_knob(op, kind)


def _asked(op: Op, spelled=False) -> str:
    """What ``op`` asks, as its wire document (objective canonical unless
    ``spelled``, as a worker reads it) and its method set."""
    request = op.request()
    if not spelled:
        request = dataclasses.replace(request, objective=canonical_objective(op.objective))
    methods = [m.value for m in (request.cost_model or CostModel()).methods]
    return json.dumps([encode_request(0, request), methods], sort_keys=True)


def _doc(plan) -> str:
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def _library(result) -> tuple:
    return (_doc(result.plan), repr(result.objective),
            [(c.plan.signature(), repr(c.objective)) for c in result.candidates],
            dataclasses.replace(result.stats, formula_evaluations=0))


def _served(result) -> tuple:
    return _doc(result.plan), repr(result.objective_value)


def _optimize(op: Op, **context):
    return repro.optimize(op.query, op.objective, memory=op.memory, **op.knobs, **context)


def assert_warm_equals_cold(ops, twins) -> None:
    """Every front answers ``ops`` (one query's) and then ``twins`` as each
    does on a cold context, hitting exactly where it asked the same before."""
    asked = ops + twins
    cold = {id(op): _library(_optimize(op, context=OptimizationContext(op.query)))
            for op in asked}
    by_request = {}
    for op in asked:  # the same request has one cold answer
        assert by_request.setdefault(_asked(op), cold[id(op)]) == cold[id(op)], op.id
    query_doc = query_to_dict(ops[0].query)

    context = OptimizationContext(ops[0].query)  # shared, and handed to every twin
    for op in asked:
        assert context.matches(op.query) == (query_to_dict(op.query) == query_doc), op.id
        assert _library(_optimize(op, context=context)) == cold[id(op)], op.id

    repro.clear_context_cache()  # then never between ops
    for op in asked:
        assert _library(_optimize(op)) == cold[id(op)], op.id
        if op.query is ops[0].query and "cost_model" not in op.knobs:
            shared = repro.last_context()
        elif op.query is not ops[0].query:
            same = query_to_dict(op.query) == query_doc
            assert (repro.last_context() is shared) == same, op.id

    source, seen = SimpleNamespace(version=0), set()
    with OptimizerService(max_workers=1, catalog_sources=[source]) as service:
        for op in asked:
            result = service.execute(op.request())
            assert result.cache_hit == (_asked(op) in seen), op.id
            assert _served(result) == cold[id(op)][:2], op.id
            seen.add(_asked(op))
        for op in ops:  # a deadline does not split
            result = service.execute(dataclasses.replace(op.request(), deadline=600.0))
            assert result.cache_hit and _served(result) == cold[id(op)][:2], op.id
        source.version += 1  # a catalog bump splits every entry
        for op in ops:
            result = service.execute(op.request())
            assert not result.cache_hit and _served(result) == cold[id(op)][:2], op.id

    memo, ladder, seen = OrderedDict(), Ladder(), set()

    def ask(op, request_id=0, layout=list, **fields):
        message = encode_request(request_id, dataclasses.replace(op.request(), **fields))
        payload = encode_frame(dict(layout(message.items())))[4:]
        request, known = recall(memo, *split_request(payload))
        return known, _served(ladder.run(request))

    for op in asked:
        if "cost_model" not in op.knobs:  # the wire carries the default model
            assert ask(op) == (_asked(op, spelled=True) in seen, cold[id(op)][:2]), op.id
            seen.add(_asked(op, spelled=True))
    for op in ops:
        assert ask(op, 7, deadline=600.0) == (True, cold[id(op)][:2]), op.id
        for _ in range(2):  # another member order: decoded whole, answered alike, never kept
            assert ask(op, 8, layout=reversed) == (False, cold[id(op)][:2]), op.id


@settings(max_examples=12, deadline=None)  # an example: up to 15 requests, five fronts
@given(st.data())
def test_warm_fronts_answer_as_cold_ones(data):
    group = data.draw(st.sampled_from(_GROUPS))
    ops = data.draw(st.permutations(group))[:4]
    picks = data.draw(st.lists(st.integers(0, 15), min_size=len(_KINDS), max_size=len(_KINDS)))
    assert_warm_equals_cold(ops, [_twin(ops[0], *kind) for kind in zip(_KINDS, picks)])


def test_one_ulp_in_one_pages_bucket_is_another_query():
    # The tolerant equality served this query the plan of the one an ulp
    # away: 41 889.37086017162 from every warm front, +0.24%.
    query = with_size_uncertainty(chain_query(4, np.random.default_rng(3)), 0.8)
    op = Op("ulp/chain4-multiparam", query, "multiparam", MEMORY, {"max_buckets": 16}, "ulp")
    twin = one_ulp(op, "pages_dist", 0)
    assert twin.query.relations[0].pages_dist.values[0] == np.nextafter(
        query.relations[0].pages_dist.values[0], np.inf)
    assert_warm_equals_cold([op], [twin])
    assert repr(_optimize(twin, context=OptimizationContext(twin.query)).objective) == (
        "41789.718116634125")
