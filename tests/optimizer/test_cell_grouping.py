"""Algorithms A and B run one point DP per occupied level-set cell.

Two probe points with no join breakpoint of any split between them (the
closed interval, on clamped memories) and the same enforcer-sort cost
give the point DP bit-identical costs, so the facade runs the first and
skips the rest.  The property: grouped, A and B answer exactly as they do
with one DP per probe point — the objective, every candidate's plan and
its objective — over drawn queries, plan spaces, method sets (BNL and
hybrid hash included, which turn the grouping off), pipelined NL,
required orders, ``include_mean`` and memories placed on, just beside and
between the breakpoints.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distributions import DiscreteDistribution
from repro.costmodel.context import OptimizationContext
from repro.costmodel.formulas import sort_breakpoints
from repro.costmodel.model import CostModel
from repro.optimizer import facade, optimize_algorithm_a, optimize_algorithm_b
from repro.plans.properties import JoinMethod
from repro.workloads.queries import chain_query, clique_query, star_query, union_query

NL, SM, GH = JoinMethod.NESTED_LOOP, JoinMethod.SORT_MERGE, JoinMethod.GRACE_HASH
BNL, HH = JoinMethod.BLOCK_NESTED_LOOP, JoinMethod.HYBRID_HASH
METHOD_SETS = [(NL, SM), (SM,), (NL, GH), (NL,), (NL, SM, GH, BNL), (GH, HH),
               tuple(JoinMethod)]


def _breakpoints(query):
    """NL/SM/GH's breakpoints at every split a bushy DP may join (two
    disjoint connected subsets with a predicate across), which holds every
    split of the other spaces too, and the enforcer sort's."""
    context = OptimizationContext(query)
    names = query.relation_names()
    subsets = [frozenset(s) for k in range(1, len(names) + 1)
               for s in itertools.combinations(names, k)
               if query.is_connected(frozenset(s))]
    edges = set()
    for a, b in itertools.combinations(subsets, 2):
        if not a & b and any(query.predicates_between(a, name) for name in b):
            small, large = sorted((context.subset_pages(a), context.subset_pages(b)))
            edges.update((small + 2.0, math.sqrt(small), math.sqrt(large)))
    if query.required_order is not None:
        full = context.subset_pages(names)
        edges.update((full, *sort_breakpoints(full)))
    return sorted(edges)


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = draw(st.sampled_from(["chain", "star", "clique"]))
    n = draw(st.sampled_from([4, 3, 5, 2, 6] if shape == "chain" else [4, 3, 5, 2]))
    ordered = draw(st.booleans())
    if shape == "clique":
        query = clique_query(n, rng)
    elif shape == "chain":  # one join attribute: sort-merge orders propagate
        query = chain_query(n, rng, require_order=ordered, shared_attribute=ordered)
    else:
        query = star_query(n, rng, require_order=ordered)
    edges = _breakpoints(query)
    points = []
    for edge in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2)):
        # One ulp either side of an edge, and perhaps on it.
        points += [math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        if draw(st.booleans()):
            points.append(edge)
    if draw(st.booleans()):
        points.append(draw(st.floats(1.0, 3.0 * edges[-1])))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(points),
                            max_size=len(points)))
    memory = DiscreteDistribution(points, [w / sum(weights) for w in weights])
    methods = (NL, SM, GH) if draw(st.booleans()) else draw(st.sampled_from(METHOD_SETS))
    pipelined = (NL,) if NL in methods and draw(st.booleans()) else ()
    knobs = dict(
        plan_space=draw(st.sampled_from(["left-deep", "zig-zag", "bushy"])),
        include_mean=draw(st.booleans()),
    )
    return query, memory, methods, pipelined, knobs


def _answer(result):
    return repr(result.objective), [
        (c.plan.signature(), repr(c.objective)) for c in result.candidates
    ]


def _both(run, query, memory, methods, pipelined, **knobs):
    """``run`` grouped, then with every probe point its own cell."""
    grouped = run(query, memory, cost_model=CostModel(methods, True, pipelined), **knobs)
    with mock.patch.object(facade, "memory_cells", lambda *args: float):
        every = run(query, memory, cost_model=CostModel(methods, True, pipelined), **knobs)
    return grouped, every


def _ordered_pair(points):
    """Two relations and a required order: SM's sqrt(L) edge sits at
    90.24965373894794 pages, NL's and GH's S + 2 at 647."""
    query = chain_query(2, np.random.default_rng(0), require_order=True,
                        shared_attribute=True)
    memory = DiscreteDistribution(points, [0.5] * len(points))
    return query, memory, (NL, SM, GH), (), dict(plan_space="left-deep", include_mean=False)


@settings(max_examples=120, deadline=None)
@given(case=cases(), c=st.integers(1, 3))
@example(case=_ordered_pair([90.24965373894793, 90.24965373894796]), c=1)  # astride sqrt(L)
@example(case=_ordered_pair([90.24965373894794, 90.24965373894796]), c=1)  # on sqrt(L), above
@example(case=_ordered_pair([646.9999999999999, 647.0]), c=1)  # below S + 2, on it
def test_grouping_answers_as_every_probe_point_does(case, c):
    query, memory, methods, pipelined, knobs = case
    for run in (optimize_algorithm_a,
                lambda *a, **k: optimize_algorithm_b(*a, c=c, **k)):
        grouped, every = _both(run, query, memory, methods, pipelined, **knobs)
        assert _answer(grouped) == _answer(every)
        assert grouped.stats.invocations <= every.stats.invocations
        if not set(methods) <= {NL, SM, GH}:
            assert grouped.stats.invocations == every.stats.invocations


def test_a_union_block_runs_every_probe_point():
    query = union_query(2, 3, np.random.default_rng(3))
    memory = DiscreteDistribution([1000.0, 1001.0, 1002.0], [0.3, 0.3, 0.4])
    grouped, every = _both(optimize_algorithm_a, query, memory, (NL, SM, GH), (),
                           plan_space="spju", include_mean=False)
    assert grouped.stats.invocations == every.stats.invocations == 3
    assert _answer(grouped) == _answer(every)
