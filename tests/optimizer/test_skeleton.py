"""The DP skeleton: derived by the first run on a context, replayed after.

``SystemRDP`` records what it walks that depends on no cost — the
sorted-name numbering, each mask's names, the level masks and each
mask's joinable splits — in the :class:`OptimizationContext`, keyed by
(relation names, plan-space shape, cross products, join methods).  A
later run on that context derives none of it again.  That it answers
exactly as a run that derived it — same plans, costs and DP counters —
is the warm property's shared-context front (``tests/corpus/test_warm.py``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro
from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import OptimizationContext
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
    repro.optimize(query, then, memory=MEMORY, context=context, **knobs)
    assert derived == Counter()
    assert _skeletons(context) == (1, 1)


def test_algorithms_a_and_b_derive_the_skeleton_once(derived):
    # Four probe points (three buckets and the mean) in three occupied
    # level-set cells: three runs.  The first derives the skeleton, the
    # cell edges read it once and the other two runs replay it.
    query = star_query(5, np.random.default_rng(5))
    for objective, cells in (("algorithm_a", 3), ("algorithm_b", 3)):
        context = OptimizationContext(query)
        derived.clear()
        result = repro.optimize(query, objective, memory=MEMORY, context=context)
        assert result.stats.invocations == cells
        assert derived["join_graph"] == 1
        assert _skeletons(context) == (1 + cells - 1, 1)


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
    for hits in (0, len(runs)):
        for k in runs:
            repro.optimize(query, "point", memory=MEMORY, context=context, **k)
        assert _skeletons(context) == (hits, len(runs))


def test_each_union_arm_has_its_own(derived):
    query = union_query(2, 3, np.random.default_rng(7), distinct=True)
    context = OptimizationContext(query)
    first = repro.optimize(query, "lec", memory=MEMORY, context=context,
                           plan_space="spju")
    assert _skeletons(context) == (0, 2)
    derived.clear()
    repro.optimize(query, "point", memory=MEMORY, context=context, plan_space="spju")
    assert _skeletons(context) == (2, 2) and derived == Counter()
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
