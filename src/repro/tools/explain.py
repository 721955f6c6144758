"""EXPLAIN-style cost breakdowns: where does a plan's expected cost go?

``explain_costs`` walks a plan and attributes cost to each node under a
point memory value or a distribution — the optimizer-side analogue of
EXPLAIN ANALYZE, useful both for debugging the cost model and for
understanding *why* the LEC plan differs from the LSC plan (typically:
one node whose cost distribution has a fat tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..core.context import OptimizationContext
from ..core.distributions import DiscreteDistribution, point_mass
from ..core.markov import MarkovParameter
from ..costmodel.estimates import node_size
from ..costmodel.model import CostModel
from ..optimizer.facade import last_context, optimize
from ..optimizer.result import OptimizationResult
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.query import JoinQuery

__all__ = [
    "NodeCostLine",
    "explain_costs",
    "explain_query",
    "render_explanation",
]


@dataclass
class NodeCostLine:
    """Cost attribution for one plan node."""

    depth: int
    label: str
    out_rows: float
    out_pages: float
    expected_cost: float
    worst_cost: float
    share: float  # fraction of the whole plan's expected cost


def explain_costs(
    plan: Plan,
    query: JoinQuery,
    memory: Union[float, DiscreteDistribution, MarkovParameter],
    cost_model: Optional[CostModel] = None,
    context: Optional[OptimizationContext] = None,
) -> List[NodeCostLine]:
    """Per-node expected/worst costs; lines in top-down plan order.  Under
    a :class:`~repro.core.markov.MarkovParameter` a node is charged under
    its phase's marginal.

    A shared ``context`` (e.g. the one the optimizer just used — see
    :func:`explain_query`) serves node sizes from its memo instead of
    re-estimating them.
    """
    cm = cost_model if cost_model is not None else CostModel(count_evaluations=False)
    dist = point_mass(float(memory)) if isinstance(memory, (int, float)) else memory
    if context is not None and not context.matches(query):
        context = None
    terms = {id(term.node): term for term in cm.node_terms(plan, query, context)}

    lines: List[NodeCostLine] = []

    def visit(node: PlanNode, depth: int) -> None:
        term = terms[id(node)]
        at = dist.marginal(term.phase) if isinstance(dist, MarkovParameter) else dist
        per_value = [term.cost(m) for m in at.support()]
        expected = sum(
            p * c for (_, p), c in zip(at.items(), per_value)
        )
        if context is not None and not isinstance(node, (Project, UnionNode)):
            est = context.subset_size(node.relations())
        else:
            # Projection/union output sizes are node-shaped (projected
            # width, summed arms), not plain subset estimates.
            est = node_size(node, query)
        if isinstance(node, Scan):
            label = f"Scan({node.signature()})"
        elif isinstance(node, Sort):
            label = f"Sort[{node.sort_order}]"
        elif isinstance(node, Project):
            label = "Project" if node.label is None else f"Project[{node.label}]"
        elif isinstance(node, UnionNode):
            label = "UnionDistinct" if node.distinct else "UnionAll"
        else:
            assert isinstance(node, Join)
            label = f"Join[{node.method.value} on {node.predicate_label}]"
        lines.append(
            NodeCostLine(
                depth=depth,
                label=label,
                out_rows=est.rows,
                out_pages=est.pages,
                expected_cost=expected,
                worst_cost=max(per_value),
                share=0.0,
            )
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(plan.root, 0)
    total = sum(line.expected_cost for line in lines)
    for line in lines:
        line.share = line.expected_cost / total if total > 0 else 0.0
    return lines


def explain_query(
    query: JoinQuery,
    objective: str = "lec",
    *,
    memory: Union[float, DiscreteDistribution, MarkovParameter, None] = None,
    cost_model: Optional[CostModel] = None,
    **optimize_kwargs,
) -> Tuple[OptimizationResult, List[NodeCostLine]]:
    """Optimize through :func:`repro.optimize` and explain the winner.

    One-stop EXPLAIN: returns the optimization result plus the per-node
    cost attribution of the chosen plan.  The explanation reuses the
    optimizer's own context, so size estimates come straight from the DP's
    memo.  Extra keyword arguments are forwarded to the facade
    (``plan_space``, ``top_k``, ``max_buckets``, ...).
    """
    result = optimize(
        query, objective, memory=memory, cost_model=cost_model, **optimize_kwargs
    )
    lines = explain_costs(
        result.plan, query, memory, cost_model=cost_model, context=last_context()
    )
    return result, lines


def render_explanation(lines: List[NodeCostLine]) -> str:
    """Aligned text rendering of an explanation."""
    out = [
        f"{'operator':<46}{'out pages':>12}{'E[cost]':>14}{'worst':>14}{'share':>8}"
    ]
    for line in lines:
        name = "  " * line.depth + line.label
        out.append(
            f"{name:<46}{line.out_pages:>12,.0f}{line.expected_cost:>14,.0f}"
            f"{line.worst_cost:>14,.0f}{line.share:>8.1%}"
        )
    return "\n".join(out)
