"""The DP skeleton: derived by the first run on a context, replayed after.

``SystemRDP`` records what it walks that depends on no cost — the
sorted-name numbering, each mask's names, the level masks and each
mask's joinable splits — in the :class:`OptimizationContext`, keyed by
(relation names, plan-space shape, cross products, join methods).  A
later run on that context derives none of it again, yet must answer
exactly as a run that derived it: same plans, same costs, same counters.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.model import CostModel
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinQuery
from repro.plans.space import PlanSpace
from repro.workloads.queries import clique_query, star_query, union_query

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


@pytest.fixture
def derived(monkeypatch):
    """Counts calls of the routines a skeleton replaces."""
    calls = Counter()

    def count(cls, name, wrap=lambda f: f):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrap(counted))

    count(JoinQuery, "join_graph")
    count(PlanSpace, "split_masks")
    count(PlanSpace, "level_masks", staticmethod)
    return calls


def _answer(result):
    return (
        result.plan.signature(),
        repr(result.objective),
        [(c.plan.signature(), repr(c.objective)) for c in result.candidates],
        dataclasses.asdict(result.stats),
    )


def _skeletons(context):
    counts = context.stats()["skeletons"]
    return counts["hits"], counts["misses"]


@pytest.mark.parametrize("space", ["left-deep", "zig-zag", "bushy"])
@pytest.mark.parametrize("top_k", [1, 3])
@pytest.mark.parametrize(
    "first, then", [("point", "lec"), ("lec", "point"), ("point", "multiparam")]
)
def test_a_second_run_derives_nothing_and_answers_as_a_first(
    space, top_k, first, then, derived
):
    query = clique_query(5, np.random.default_rng(4))
    knobs = dict(plan_space=space, top_k=top_k)
    context = OptimizationContext(query)
    repro.optimize(query, first, memory=MEMORY, context=context, **knobs)
    assert derived["join_graph"] == 1 and derived["split_masks"] > 0
    derived.clear()
    replayed = repro.optimize(query, then, memory=MEMORY, context=context, **knobs)
    assert derived == Counter()
    assert _skeletons(context) == (1, 1)
    fresh = repro.optimize(
        query, then, memory=MEMORY, context=OptimizationContext(query), **knobs
    )
    assert _answer(replayed) == _answer(fresh)


def test_algorithms_a_and_b_derive_the_skeleton_once(derived):
    query = star_query(5, np.random.default_rng(5))
    for objective, probes in (("algorithm_a", 4), ("algorithm_b", 4)):
        context = OptimizationContext(query)
        derived.clear()
        repro.optimize(query, objective, memory=MEMORY, context=context)
        assert derived["join_graph"] == 1
        assert _skeletons(context) == (probes - 1, 1)


def test_each_shape_method_set_and_cross_setting_has_its_own():
    query = star_query(4, np.random.default_rng(6))
    runs = [
        dict(plan_space="left-deep"),
        dict(plan_space="zig-zag"),
        dict(plan_space="bushy"),
        dict(plan_space="bushy", allow_cross_products=True),
        dict(plan_space="bushy", cost_model=CostModel(tuple(JoinMethod))),
    ]
    context = OptimizationContext(query)
    first = [
        _answer(repro.optimize(query, "point", memory=MEMORY, context=context, **k))
        for k in runs
    ]
    assert _skeletons(context) == (0, len(runs))
    again = [
        _answer(repro.optimize(query, "point", memory=MEMORY, context=context, **k))
        for k in runs
    ]
    assert _skeletons(context) == (len(runs), len(runs))
    assert [a[:3] for a in again] == [a[:3] for a in first]


def test_each_union_arm_has_its_own(derived):
    query = union_query(2, 3, np.random.default_rng(7), distinct=True)
    context = OptimizationContext(query)
    first = repro.optimize(query, "lec", memory=MEMORY, context=context,
                           plan_space="spju")
    assert _skeletons(context) == (0, 2)
    derived.clear()
    again = repro.optimize(query, "point", memory=MEMORY, context=context,
                           plan_space="spju")
    assert _skeletons(context) == (2, 2) and derived == Counter()
    fresh = repro.optimize(query, "point", memory=MEMORY, plan_space="spju",
                           context=OptimizationContext(query))
    assert _answer(again) == _answer(fresh)
    assert first.plan.signature().startswith("union-distinct(")


def test_clear_drops_skeletons(derived):
    query = clique_query(4, np.random.default_rng(8))
    context = OptimizationContext(query)
    repro.optimize(query, "point", memory=MEMORY, context=context)
    assert _skeletons(context) == (0, 1)
    context.clear()
    assert _skeletons(context) == (0, 0)
    derived.clear()
    repro.optimize(query, "point", memory=MEMORY, context=context)
    assert derived["join_graph"] == 1 and _skeletons(context) == (0, 1)
