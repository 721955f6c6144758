"""The one whole-plan walk against the per-node reference walk.

:class:`~repro.costmodel.model.CostModel` builds a plan's node terms
once per call and applies only their formulas per memory value;
:class:`reference_plan_cost.ReferenceCostModel` re-walks the plan and
re-sizes every node per memory value.  On hypothesis-drawn plans —
left-deep, zig-zag and bushy trees with index scans, sorts below joins
(presorted sort-merge inputs), an enforcer sort and a projection at the
root, UNION ALL / DISTINCT blocks with projected arms, the paper's three
methods or all five, pipelined nested loops or not — every whole-plan
method must return the same float (``==``) after the same number of
counted formula evaluations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import DiscreteDistribution
from repro.core.markov import sticky_chain
from repro.costmodel.context import OptimizationContext
from repro.costmodel.model import DEFAULT_METHODS, CostModel
from repro.plans.nodes import Plan, Project, Scan, Sort
from repro.plans.nodes import Union as UnionNode
from repro.plans.properties import AccessPath, JoinMethod
from repro.plans.query import IndexInfo, JoinQuery
from repro.plans.space import PlanSpace
from repro.workloads.queries import (
    chain_query,
    clique_query,
    star_query,
    union_query,
)

from .reference_plan_cost import ReferenceCostModel

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
CHAIN = sticky_chain(MEMORY, 0.8)
ALL_METHODS = tuple(JoinMethod)
POINTS = st.sampled_from([50.0, 400.0, 1500.0, 4000.0, 1e6])


def _indexed(query: JoinQuery, flags) -> JoinQuery:
    """``query`` with a filtered, indexed relation wherever ``flags`` says."""
    relations = [
        dataclasses.replace(
            r, filter_selectivity=0.05, index=IndexInfo(clustered=clustered)
        ) if flag else r
        for r, (flag, clustered) in zip(query.relations, flags)
    ]
    return JoinQuery(
        relations, query.predicates, query.required_order,
        query.rows_per_page, query.projection_ratio,
    )


def _tree(draw, subset, query, space, methods):
    """A random join tree over ``subset`` that ``space`` admits."""
    subset = frozenset(subset)
    if len(subset) == 1:
        (name,) = subset
        scans = [Scan(name)]
        if query.relation(name).has_index_path():
            scans.append(Scan(name, access=AccessPath.INDEX_SCAN))
        return draw(st.sampled_from(scans))
    splits = []
    for left, right in space.partitions(subset):
        crossing = [
            p for p in query.predicates_within(subset)
            if (p.left in left) != (p.right in left)
        ]
        if crossing and query.is_connected(left) and query.is_connected(right):
            splits.append((left, right, crossing[0]))
    splits.sort(key=lambda split: abs(len(split[0]) - len(split[1])))
    left, right, pred = draw(st.sampled_from(splits))  # bushiest first
    children = []
    for rels in (left, right):
        child = _tree(draw, rels, query, space, methods)
        if len(rels) > 1 and draw(st.booleans()):
            # A sort below a join: a presorted input when it sorts into
            # the join's order, a re-read of a materialised temp always.
            order = draw(st.sampled_from([pred.order_label, "elsewhere"]))
            child = Sort(child, order)
        children.append(child)
    return space.join(
        *children, draw(st.sampled_from(methods)), pred.label, pred.order_label
    )


# Hypothesis shrinks a ``sampled_from`` towards its first element, so the
# richer choice comes first: more relations, sort-merge (whose presorted
# inputs are the subtle case), DISTINCT, five methods.
@st.composite
def cases(draw):
    """``(query, plan, methods, pipelined)`` for one parity check."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    methods = draw(st.sampled_from([ALL_METHODS, DEFAULT_METHODS]))
    methods = sorted(methods, key=lambda m: m is not JoinMethod.SORT_MERGE)
    pipelined = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:  # an SPJU block
        query = union_query(
            2, draw(st.sampled_from([3, 2, 1])), rng,
            distinct=draw(st.sampled_from([True, False])),
            projection_ratios=[0.5, 1.0],
        )
        arms = []
        for arm in query.arms:
            node = _tree(draw, arm.relation_names(), query, PlanSpace.parse("bushy"),
                         methods)
            if draw(st.booleans()):  # an arm delivered sorted is written too
                node = Sort(node, "arm order")
            arms.append(Project(node) if arm.projection_ratio < 1.0 else node)
        return query, Plan(UnionNode(tuple(arms), query.distinct)), methods, pipelined
    shape = draw(st.sampled_from(["chain", "star", "clique"]))
    n = draw(st.sampled_from([4, 5, 3, 2, 1]))
    if shape == "chain":
        ordered = draw(st.booleans())
        query = chain_query(n, rng, shared_attribute=ordered, require_order=ordered)
    else:
        query = (star_query if shape == "star" else clique_query)(max(n, 2), rng)
    flags = draw(st.lists(
        st.tuples(st.booleans(), st.booleans()),
        min_size=len(query.relations), max_size=len(query.relations),
    ))
    query = _indexed(query, flags)
    if draw(st.booleans()):
        query = JoinQuery(query.relations, query.predicates, query.required_order,
                          projection_ratio=0.5)
    space = PlanSpace.parse(draw(st.sampled_from(["left-deep", "zig-zag", "bushy"])))
    node = _tree(draw, query.relation_names(), query, space, methods)
    if query.required_order is not None and node.order != query.required_order:
        node = Sort(node, query.required_order)
    if query.projection_ratio < 1.0:
        node = Project(node)
    return query, Plan(node), methods, pipelined


def _models(methods, pipelined):
    methods = tuple(methods)
    piped = [JoinMethod.NESTED_LOOP] if pipelined else []
    return (
        CostModel(methods, pipelined_methods=piped),
        ReferenceCostModel(methods, pipelined_methods=piped),
    )


def _same(call, new, ref):
    """``call(model)`` on both models: equal floats (or equal errors) and
    equal evaluation counts."""
    outcomes = []
    for model in (new, ref):
        before = model.eval_count
        try:
            outcomes.append((call(model), model.eval_count - before))
        except ValueError as exc:
            outcomes.append((str(exc), model.eval_count - before))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


def _check(query, plan, methods, pipelined, memory, seq):
    """Every whole-plan method, ``context=`` included, on both models."""
    new, ref = _models(methods, pipelined)
    n = plan.n_phases
    _same(lambda cm: cm.plan_cost(plan, query, memory), new, ref)
    _same(lambda cm: cm.plan_cost_dynamic(plan, query, seq), new, ref)
    _same(lambda cm: cm.plan_cost_dynamic(plan, query, seq[: n - 1]), new, ref)
    _same(lambda cm: cm.plan_expected_cost(plan, query, MEMORY), new, ref)
    _same(lambda cm: cm.plan_expected_cost_markov(plan, query, CHAIN), new, ref)
    if n <= 4:
        _same(lambda cm: cm.plan_expected_cost_bruteforce(plan, query, CHAIN),
              new, ref)
    # Sizes from a context give the same floats and count nothing more.
    context = OptimizationContext(query)
    _same(
        lambda cm: cm.plan_expected_cost(plan, query, MEMORY, context=context)
        if cm is new else cm.plan_expected_cost(plan, query, MEMORY),
        new, ref,
    )


def _first_plan(query):
    space = PlanSpace.parse("left-deep")
    names = sorted(query.relation_names())
    node = Scan(names[0])
    for name in names[1:]:
        pred = query.predicates_between(node.relations(), name)[0]
        node = space.join(node, Scan(name), JoinMethod.SORT_MERGE, pred.label,
                          pred.order_label)
    return node


@given(case=cases(), memory=POINTS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_whole_plan_method_matches_the_per_node_walk(case, memory, data):
    n = case[1].n_phases
    _check(*case, memory, data.draw(st.lists(POINTS, min_size=n, max_size=n + 1)))


@pytest.mark.parametrize("wrap", [None, Sort, Project])
@pytest.mark.parametrize("access", list(AccessPath))
def test_a_lone_scan_matches_too(wrap, access):
    query = _indexed(chain_query(1, np.random.default_rng(3)), [(True, True)])
    node = Scan("R0", access=access)
    if wrap is Sort:
        node = Sort(node, "R0")
    elif wrap is Project:
        node = Project(node)
    _check(query, Plan(node), DEFAULT_METHODS, False, 400.0, [700.0])


def test_a_context_serves_scan_join_and_sort_sizes():
    """With ``context=``, scan, join and sort sizes are context hits."""
    rng = np.random.default_rng(7)
    query = chain_query(4, rng, shared_attribute=True, require_order=True)
    plan = Plan(Sort(_first_plan(query), query.required_order))
    context = OptimizationContext(query)
    cm = CostModel()
    first = cm.plan_expected_cost(plan, query, MEMORY, context=context)
    sized = context.stats()["subset_sizes"]
    assert sized["misses"] > 0
    assert cm.plan_expected_cost(plan, query, MEMORY, context=context) == first
    assert context.stats()["subset_sizes"]["misses"] == sized["misses"]
    assert first == ReferenceCostModel().plan_expected_cost(plan, query, MEMORY)


def test_a_context_for_other_statistics_is_ignored():
    rng = np.random.default_rng(8)
    query, other = chain_query(3, rng), chain_query(3, rng)
    plan = Plan(_first_plan(query))
    context = OptimizationContext(other)
    cm = CostModel()
    assert cm.plan_expected_cost(plan, query, MEMORY, context=context) == (
        ReferenceCostModel().plan_expected_cost(plan, query, MEMORY)
    )
    assert context.stats()["subset_sizes"]["misses"] == 0


@pytest.mark.parametrize("methods", [DEFAULT_METHODS, ALL_METHODS])
def test_node_terms_cover_every_node_once_in_post_order(methods):
    rng = np.random.default_rng(9)
    query = chain_query(4, rng, shared_attribute=True, require_order=True)
    plan = Plan(Project(Sort(_first_plan(query), "elsewhere")))
    terms = CostModel(methods).node_terms(plan, query)
    assert [t.node for t in terms] == list(plan.nodes())
    assert [t.phase for t in terms] == [0, 0, 0, 1, 1, 2, 2, 2, 2]
