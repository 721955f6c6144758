"""Algorithm D's objective, evaluated on a whole plan (Section 3.6).

Memory, every relation's size, and every predicate's selectivity are all
distributions.  Under the independence assumption the paper shows each
dag node needs only four distributions — memory, ``|B_j|``, ``|A_j|`` and
the join selectivity — with result-size distributions propagated upward
(and rebucketed, Section 3.6.3) for the parents.

The DP is :func:`repro.optimize_algorithm_d` (the ``multiparam`` row of
:mod:`repro.optimizer.facade`).  :func:`plan_expected_cost_multiparam`
is the independent evaluator of the same objective: the tests and
``bench/check.py`` verify the DP's objective values against it.
"""

from __future__ import annotations

from typing import Optional

from ..core.expected_cost import (
    FAST_METHODS,
    expected_external_sort_cost_model,
    expected_join_cost_naive,
    expected_join_cost_naive_model,
)
from ..costmodel.model import CostModel
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import JoinMethod
from ..plans.query import JoinQuery
from ..plans.spju import UnionQuery
from .context import OptimizationContext
from .distributions import DiscreteDistribution

__all__ = ["plan_expected_cost_multiparam"]


def plan_expected_cost_multiparam(
    plan: Plan,
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    max_buckets: int = 16,
    fast: bool = False,
    context: Optional[OptimizationContext] = None,
) -> float:
    """``E[Φ(plan, V)]`` with V = (memory, sizes, selectivities).

    Walks the plan tree once, taking the same expectations the
    MultiParamCoster takes during the DP; usable on arbitrary plans (e.g.
    the LSC plan, for regret measurements in E6).  A shared ``context``
    reuses the DP's cached size distributions instead of rebuilding them.
    """
    cm = cost_model if cost_model is not None else CostModel()
    if context is None or not context.matches(query):
        context = OptimizationContext(query)

    def size_dist(rels) -> DiscreteDistribution:
        return context.size_distribution(frozenset(rels), max_buckets=max_buckets)

    # Output-write exemptions, mirroring the DP invariant: the block root
    # never pays its own write, and that exemption streams down through
    # projections and through a union root to every arm (ALL arms stream;
    # DISTINCT arm writes are charged inside the union handler instead,
    # at their projected width).
    exempt = set()

    def mark_exempt(node: PlanNode) -> None:
        exempt.add(id(node))
        if isinstance(node, Project):
            mark_exempt(node.child)
        elif isinstance(node, UnionNode):
            for child in node.inputs:
                mark_exempt(child)

    mark_exempt(plan.root)

    def ratio_of(node: Project) -> float:
        if isinstance(query, UnionQuery):
            return query.projection_ratio_of(node.relations())
        return getattr(query, "projection_ratio", 1.0)

    def union_cost(node: UnionNode) -> float:
        # Mirrors MultiParamCoster.union_overhead: projected arm writes
        # plus the expected dedup sort over the clamped convolution.
        if not node.distinct:
            return 0.0
        total = 0.0
        arm_dists = []
        lo_sum = 0.0
        hi_sum = 0.0
        for child in node.inputs:
            stripped = child
            ratio = 1.0
            while isinstance(stripped, Project):
                ratio *= ratio_of(stripped)
                stripped = stripped.child
            rels = frozenset(child.relations())
            dist = size_dist(rels)
            lo, hi = context.subset_bounds(rels)
            if ratio < 1.0:
                dist = dist.scale(ratio).clip(lo=1.0)
                lo, hi = max(1.0, lo * ratio), max(1.0, hi * ratio)
            if isinstance(stripped, (Join, Sort)):
                total += dist.mean()
            arm_dists.append(dist)
            lo_sum += lo
            hi_sum += hi
        acc = arm_dists[0]
        for nxt in arm_dists[1:]:
            acc = context.rebucket(context.convolve(acc, nxt), max_buckets)
        acc = acc.clip(lo=lo_sum * (1.0 - 1e-9), hi=hi_sum * (1.0 + 1e-9))
        return total + expected_external_sort_cost_model(cm, acc, memory)

    def join_presorted(node: Join):
        target = node.output_order_label
        lsorted = node.left.order == target
        rsorted = node.right.order == target
        presorted = node.method is JoinMethod.SORT_MERGE and (lsorted or rsorted)
        return presorted, lsorted, rsorted

    # Pass 1: hand every fast-path join to the batched kernel in one call;
    # the accumulation below then walks nodes in the original order, so
    # the running total matches the sequential evaluator bit-for-bit.
    batched_costs = {}
    if fast:
        fast_nodes = [
            node
            for node in plan.nodes()
            if isinstance(node, Join)
            and node.method in FAST_METHODS
            and not join_presorted(node)[0]
        ]
        if fast_nodes:
            costs = context.batched_join_costs(
                [
                    (
                        node.method,
                        size_dist(node.left.relations()),
                        size_dist(node.right.relations()),
                    )
                    for node in fast_nodes
                ],
                memory,
            )
            batched_costs = {id(n): c for n, c in zip(fast_nodes, costs)}

    total = 0.0
    for node in plan.nodes():
        if isinstance(node, Scan):
            total += cm.scan_node_cost(node, query)
        elif isinstance(node, Project):
            pass  # projection streams: pure width reduction
        elif isinstance(node, UnionNode):
            total += union_cost(node)
        elif isinstance(node, Sort):
            total += expected_external_sort_cost_model(
                cm, size_dist(node.child.relations()), memory
            )
        else:
            assert isinstance(node, Join)
            ld = size_dist(node.left.relations())
            rd = size_dist(node.right.relations())
            presorted, lsorted, rsorted = join_presorted(node)
            if presorted:
                # Interesting-order credit: same formula the DP's coster
                # applies; no linear-time path exists for this variant.
                def fn(_method, l, r, m):
                    return cm.sort_merge_cost_ordered(l, r, m, lsorted, rsorted)

                total += expected_join_cost_naive(fn, node.method, ld, rd, memory)
            elif id(node) in batched_costs:
                total += batched_costs[id(node)]
            else:
                total += expected_join_cost_naive_model(
                    cm, node.method, ld, rd, memory
                )
            if id(node) not in exempt:
                total += size_dist(node.relations()).mean()
    return total
