"""The per-node whole-plan walk: the reference ``CostModel.node_terms`` is held to.

:class:`ReferenceCostModel` is a :class:`~repro.costmodel.model.CostModel`
whose whole-plan methods cost a plan the straightforward way: every
memory value walks the plan again and re-runs ``node_size`` at every
node, through ``_node_cost``.  The primitives (``join_cost``,
``sort_merge_cost_ordered``, ``sort_cost``, ``scan_node_cost``) are the
library's own, so ``eval_count`` is counted the same way.
``test_plan_cost_parity.py`` asserts the library's walk is float-for-float
and evaluation-for-evaluation equal to this one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.costmodel.estimates import node_size
from repro.costmodel.model import CostModel
from repro.plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from repro.plans.nodes import Union as UnionNode
from repro.plans.properties import JoinMethod
from repro.plans.query import JoinQuery

__all__ = ["ReferenceCostModel"]


class ReferenceCostModel(CostModel):
    """A cost model whose whole-plan costing re-walks per memory value."""

    # ------------------------------------------------------------------
    # Whole-plan costing
    # ------------------------------------------------------------------

    def plan_cost(self, plan: Plan, query: JoinQuery, memory: float) -> float:
        """Φ(plan, v) with static memory ``v = memory``."""
        return self._cost_with_memory(plan, query, lambda phase: memory)

    def plan_cost_dynamic(
        self, plan: Plan, query: JoinQuery, memory_by_phase: Sequence[float]
    ) -> float:
        """Φ(plan, v) where ``v`` is one memory value per join phase.

        ``memory_by_phase`` must have at least ``plan.n_phases`` entries.
        """
        seq = list(memory_by_phase)
        if len(seq) < plan.n_phases:
            raise ValueError(
                f"need {plan.n_phases} phase memories, got {len(seq)}"
            )
        return self._cost_with_memory(plan, query, lambda phase: seq[phase])

    def phase_cost(
        self, plan: Plan, query: JoinQuery, phase: int, memory: float
    ) -> float:
        """Cost charged to a single execution phase at the given memory."""
        total = 0.0
        for node, node_phase in self._phases(plan):
            if node_phase != phase:
                continue
            total += self._node_cost(node, plan, query, memory)
        return total

    # ------------------------------------------------------------------
    # Expected costs (memory as the only uncertain parameter)
    # ------------------------------------------------------------------

    def plan_expected_cost(
        self, plan: Plan, query: JoinQuery, memory: DiscreteDistribution
    ) -> float:
        """``E[Φ(plan, M)]`` for static random memory ``M``."""
        return memory.expectation(lambda m: self.plan_cost(plan, query, m))

    def plan_expected_cost_markov(
        self, plan: Plan, query: JoinQuery, chain: MarkovParameter
    ) -> float:
        """``E[Σ_k Φ_k(plan, M_k)]`` under a Markov memory process.

        Uses only the per-phase marginals: expectation distributes over
        the sum of phase costs, so no sequence enumeration is needed
        (the insight behind Theorem 3.4).
        """
        if self.pipelined_methods:
            raise ValueError(
                "pipelined joins merge execution phases; the per-phase "
                "Markov objective does not support them"
            )
        if any(isinstance(n, UnionNode) for n in plan.nodes()):
            raise ValueError(
                "union plans have no canonical phase order; the per-phase "
                "Markov objective does not support them"
            )
        total = 0.0
        for phase in range(plan.n_phases):
            marginal = chain.marginal(phase)
            total += marginal.expectation(
                lambda m, _ph=phase: self.phase_cost(plan, query, _ph, m)
            )
        return total

    def plan_expected_cost_bruteforce(
        self, plan: Plan, query: JoinQuery, chain: MarkovParameter
    ) -> float:
        """Expected cost by enumerating all memory sequences (verification).

        Exponential in the number of phases; used by tests/experiments to
        confirm :meth:`plan_expected_cost_markov`.
        """
        total = 0.0
        for seq, prob in chain.sequences(plan.n_phases):
            total += prob * self.plan_cost_dynamic(plan, query, list(seq))
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _phases(self, plan: Plan) -> List[Tuple[PlanNode, int]]:
        joins = plan.joins()
        join_phase = {id(j): i for i, j in enumerate(joins)}
        out: List[Tuple[PlanNode, int]] = []
        # Walk with explicit parent tracking so each node is charged to the
        # nearest enclosing join's phase.
        def visit(node: PlanNode, enclosing: int) -> None:
            if isinstance(node, Join):
                my_phase = join_phase[id(node)]
            else:
                my_phase = enclosing
            for child in node.children:
                visit(child, my_phase)
            out.append((node, my_phase))

        visit(plan.root, max(0, len(joins) - 1))
        return out

    def _node_cost(
        self, node: PlanNode, plan: Plan, query: JoinQuery, memory: float
    ) -> float:
        if isinstance(node, Scan):
            return self.scan_node_cost(node, query)
        if isinstance(node, Project):
            return 0.0  # projection streams: pure width reduction
        if isinstance(node, UnionNode):
            return self._union_cost(node, query, memory)
        if isinstance(node, Sort):
            child_pages = node_size(node.child, query).pages
            cost = self.sort_cost(child_pages, memory)
            if isinstance(_strip_projects(node.child), Join):
                cost += child_pages  # the sort re-reads a materialised temp
            return cost
        assert isinstance(node, Join)
        left = node_size(node.left, query)
        right = node_size(node.right, query)
        if node.method is JoinMethod.SORT_MERGE:
            target = node.output_order_label
            cost = self.sort_merge_cost_ordered(
                left.pages,
                right.pages,
                memory,
                outer_presorted=node.left.order == target,
                inner_presorted=node.right.order == target,
            )
        else:
            cost = self.join_cost(node.method, left.pages, right.pages, memory)
        cost += self._child_write_cost(node, query)
        return cost

    def _child_write_cost(self, node: Join, query: JoinQuery) -> float:
        """Materialisation writes this join pays for its join-children.

        The outer (left) input of a pipelined nested-loop join streams
        from its producer and is never written.  Projections are
        transparent here: a projected join output is still materialised
        (at its projected width, via ``node_size``).
        """
        total = 0.0
        pipeline_left = node.method in self.pipelined_methods
        if isinstance(_strip_projects(node.left), Join) and not pipeline_left:
            total += node_size(node.left, query).pages
        if isinstance(_strip_projects(node.right), Join):
            total += node_size(node.right, query).pages
        return total

    def _union_cost(self, node: UnionNode, query: JoinQuery, memory: float) -> float:
        """Cost charged at a union node over its already-costed arms.

        UNION ALL streams: arms feed the output directly, the node is
        free, and no arm output is materialised.  DISTINCT must
        de-duplicate: every arm whose (projection-stripped) root is a
        join is written out at its projected width, then one external
        sort runs over the combined pages.
        """
        if not node.distinct:
            return 0.0
        total = 0.0
        total_pages = 0.0
        for child in node.inputs:
            pages = node_size(child, query).pages
            if isinstance(_strip_projects(child), (Join, Sort)):
                total += pages  # materialise the arm before deduplication
            total_pages += pages
        return total + self.sort_cost(total_pages, memory)

    def _cost_with_memory(self, plan: Plan, query: JoinQuery, memory_at) -> float:
        total = 0.0
        for node, phase in self._phases(plan):
            total += self._node_cost(node, plan, query, memory_at(phase))
        return total


def _strip_projects(node: PlanNode) -> PlanNode:
    """Peel streaming projection wrappers off a node."""
    while isinstance(node, Project):
        node = node.child
    return node
