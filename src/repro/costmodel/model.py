"""The cost model Φ(plan, v): costing whole plans under parameter settings.

:class:`CostModel` evaluates the paper's cost function Φ for a plan and a
parameter setting, under this library's execution model:

* every intermediate result (join output, filtered scan output) is
  materialised; a join's formula charges for reading its inputs, and the
  *consumer* of a join's output pays one write for materialising it —
  unless the consumer is a nested-loop join declared *pipelined*
  (``pipelined_methods``), whose outer input streams straight from its
  producer (the Section 4 pipelining extension);
* execution proceeds in *phases*, one per join (Section 3.5): a node's
  work is charged to its join's phase, an enforcer sort rides with the
  final phase;
* memory is either a single value (static) or one value per phase
  (dynamic).

The model counts cost-formula evaluations (``eval_count``) so experiments
can verify the paper's overhead claims (LEC optimization ≈ ``b ×`` one
LSC invocation) without relying on wall-clock noise.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, JoinMethod
from ..plans.query import JoinQuery
from . import formulas
from .estimates import node_size

__all__ = ["CostModel", "DEFAULT_METHODS", "NodeTerm"]

#: The paper's method set: the three classic algorithms.
DEFAULT_METHODS: Tuple[JoinMethod, ...] = (
    JoinMethod.NESTED_LOOP,
    JoinMethod.SORT_MERGE,
    JoinMethod.GRACE_HASH,
)


class NodeTerm(NamedTuple):
    """A plan node's share of Φ: ``fixed`` (a scan, the child pages a join
    writes or a sort re-reads) plus, if it has one, its counted join or
    sort ``formula`` at the memory of its ``phase``."""

    node: PlanNode
    phase: int
    fixed: float
    formula: Optional[Callable[[float], float]]

    def cost(self, memory: float) -> float:
        """The node's cost at ``memory``."""
        return self.fixed if self.formula is None else self.formula(memory) + self.fixed


class CostModel:
    """Evaluates Φ(plan, v) and its building blocks.

    Parameters
    ----------
    methods:
        Join methods the optimizer may choose from.  Defaults to the
        paper's trio (NL, SM, GH); pass the extended set to enable the
        BNL/HH refinements.
    count_evaluations:
        When True (default) every join/sort formula evaluation increments
        :attr:`eval_count` — the optimizer-overhead metric of E4/E7.
    """

    def __init__(
        self,
        methods: Sequence[JoinMethod] = DEFAULT_METHODS,
        count_evaluations: bool = True,
        pipelined_methods: Sequence[JoinMethod] = (),
    ):
        if not methods:
            raise ValueError("at least one join method is required")
        self._methods: Tuple[JoinMethod, ...] = tuple(methods)
        self._count = count_evaluations
        self.eval_count = 0
        allowed = {JoinMethod.NESTED_LOOP, JoinMethod.BLOCK_NESTED_LOOP}
        bad = set(pipelined_methods) - allowed
        if bad:
            raise ValueError(
                "only nested-loop joins can pipeline their outer input, "
                f"got {sorted(m.value for m in bad)}"
            )
        self._pipelined: frozenset = frozenset(pipelined_methods)

    @property
    def methods(self) -> Tuple[JoinMethod, ...]:
        """The join methods the optimizer may choose from (read-only)."""
        return self._methods

    @property
    def pipelined_methods(self) -> frozenset:
        """The methods whose outer input streams from its producer (read-only)."""
        return self._pipelined

    def reset_counters(self) -> None:
        """Zero the formula-evaluation counter."""
        self.eval_count = 0

    # ------------------------------------------------------------------
    # Primitive costs
    # ------------------------------------------------------------------

    def join_cost(
        self, method: JoinMethod, outer: float, inner: float, memory: float
    ) -> float:
        """Cost of one join (reading both inputs; no output write)."""
        if self._count:
            self.eval_count += 1
        return formulas.join_cost(method, outer, inner, memory)

    def sort_merge_cost_ordered(
        self,
        outer: float,
        inner: float,
        memory: float,
        outer_presorted: bool,
        inner_presorted: bool,
    ) -> float:
        """Sort-merge cost with interesting-order credit for sorted inputs."""
        if self._count:
            self.eval_count += 1
        return formulas.sort_merge_cost_with_orders(
            outer, inner, memory, outer_presorted, inner_presorted
        )

    def sort_cost(self, pages: float, memory: float) -> float:
        """Cost of an enforcer sort over ``pages``."""
        if self._count:
            self.eval_count += 1
        return formulas.external_sort_cost(pages, memory)

    def join_costs(
        self, method: JoinMethod, outer: Sequence[float], inner: Sequence[float],
        memory: float, outer_presorted: bool = False, inner_presorted: bool = False,
    ) -> List[float]:
        """:meth:`join_cost` per aligned ``outer`` / ``inner`` size at one
        memory (:meth:`sort_merge_cost_ordered` for sort-merge with a
        presorted input), float for float, the formula looked up once;
        ``eval_count`` advances by the number of pairs."""
        if method is JoinMethod.SORT_MERGE and (outer_presorted or inner_presorted):
            out = list(map(
                formulas.sort_merge_cost_with_orders, outer, inner, repeat(memory),
                repeat(outer_presorted), repeat(inner_presorted),
            ))
        else:
            out = list(map(formulas._JOIN_COST[method], outer, inner, repeat(memory)))
        if self._count:
            self.eval_count += len(out)
        return out

    # ------------------------------------------------------------------
    # Batched primitive costs
    # ------------------------------------------------------------------
    #
    # Array counterparts of the primitives above.  Each element of the
    # result is bit-identical to the corresponding scalar call, and
    # ``eval_count`` advances by the number of grid points — one per
    # formula evaluation, exactly as if the scalar method had been called
    # in a loop — so the E4/E7 overhead accounting is unchanged.  Operands
    # may broadcast; the grid is their broadcast whatever the result's
    # shape (sort-merge over two presorted inputs ignores memory).

    def join_cost_many(
        self,
        method: JoinMethod,
        outer: np.ndarray,
        inner: np.ndarray,
        memory: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`join_cost` over broadcasting parameter arrays."""
        out = formulas.join_cost_vec(method, outer, inner, memory)
        if self._count:
            self.eval_count += np.broadcast(outer, inner, memory).size
        return out

    def sort_merge_cost_ordered_many(
        self,
        outer: np.ndarray,
        inner: np.ndarray,
        memory: np.ndarray,
        outer_presorted: bool,
        inner_presorted: bool,
    ) -> np.ndarray:
        """Vectorized :meth:`sort_merge_cost_ordered`."""
        out = formulas.sort_merge_cost_with_orders_vec(
            outer, inner, memory, outer_presorted, inner_presorted
        )
        if self._count:
            self.eval_count += np.broadcast(outer, inner, memory).size
        return out

    def sort_cost_many(self, pages: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sort_cost`."""
        out = formulas.external_sort_cost_vec(pages, memory)
        if self._count:
            self.eval_count += out.size
        return out

    def scan_node_cost(self, scan: Scan, query: JoinQuery) -> float:
        """Memory-independent cost of a scan leaf (full or index scan)."""
        spec = query.relation(scan.table)
        base_rows = query.rows_of(scan.table) / max(spec.filter_selectivity, 1e-12)
        if scan.access is AccessPath.INDEX_SCAN:
            if spec.index is None:
                raise ValueError(
                    f"plan uses an index scan on {scan.table!r} but the "
                    "relation has no index"
                )
            return formulas.scan_cost(
                AccessPath.INDEX_SCAN,
                base_pages=spec.pages,
                selectivity=spec.filter_selectivity,
                rows=base_rows,
                index_height=spec.index.height,
                clustered=spec.index.clustered,
            )
        return formulas.scan_cost(
            AccessPath.FULL_SCAN,
            base_pages=spec.pages,
            selectivity=spec.filter_selectivity,
            rows=base_rows,
        )

    def join_breakpoints(
        self, method: JoinMethod, outer: float, inner: float
    ) -> List[float]:
        """Memory thresholds where this join's cost formula jumps."""
        return formulas.join_breakpoints(method, outer, inner)

    # ------------------------------------------------------------------
    # Whole-plan costing
    # ------------------------------------------------------------------

    def node_terms(self, plan: Plan, query: JoinQuery, context=None) -> List[NodeTerm]:
        """``plan``'s nodes in post-order, each charged to its join's phase
        or the nearest enclosing join's, walked once: per memory value only
        the formulas are left.  Sizes are ``node_size``'s, or for scans,
        joins and sorts the memo of ``context`` (an
        :class:`~repro.core.context.OptimizationContext` for ``query``)."""
        if context is not None and not context.matches(query):
            context = None
        phase_of = {id(j): i for i, j in enumerate(plan.joins())}
        terms: List[NodeTerm] = []

        def pages(node: PlanNode) -> float:
            if context is None or isinstance(node, (Project, UnionNode)):
                return node_size(node, query).pages
            return context.subset_pages(node.relations())

        def visit(node: PlanNode, phase: int) -> None:
            phase = phase_of.get(id(node), phase)
            for child in node.children:
                visit(child, phase)
            fixed, formula = 0.0, None
            if isinstance(node, Scan):
                fixed = self.scan_node_cost(node, query)
            elif isinstance(node, Join):
                left, right, target = node.left, node.right, node.output_order_label
                outer, inner = pages(left), pages(right)
                if node.method is JoinMethod.SORT_MERGE:
                    formula = partial(
                        self.sort_merge_cost_ordered, outer, inner,
                        outer_presorted=left.order == target,
                        inner_presorted=right.order == target,
                    )
                else:
                    formula = partial(self.join_cost, node.method, outer, inner)
                # Writes of join-children's outputs (projected width); a
                # pipelined nested loop's outer streams from its producer.
                if isinstance(_strip_projects(left), Join) and (
                    node.method not in self.pipelined_methods
                ):
                    fixed += outer
                if isinstance(_strip_projects(right), Join):
                    fixed += inner
            elif isinstance(node, Sort):
                child_pages = pages(node.child)
                formula = partial(self.sort_cost, child_pages)
                if isinstance(_strip_projects(node.child), Join):
                    fixed = child_pages  # the sort re-reads a materialised temp
            elif isinstance(node, UnionNode) and node.distinct:
                # UNION ALL streams for free; DISTINCT writes each arm rooted
                # at a join or sort, then sorts all arms' pages together.
                total_pages = 0.0
                for child in node.inputs:
                    arm_pages = pages(child)
                    if isinstance(_strip_projects(child), (Join, Sort)):
                        fixed += arm_pages
                    total_pages += arm_pages
                formula = partial(self.sort_cost, total_pages)
            terms.append(NodeTerm(node, phase, fixed, formula))

        visit(plan.root, max(0, len(phase_of) - 1))
        return terms

    @staticmethod
    def _charge(terms: Sequence[NodeTerm], memory_at) -> float:
        """The terms' costs summed in walk order, each at its phase's memory."""
        total = 0.0
        for _node, phase, fixed, formula in terms:
            total += fixed if formula is None else formula(memory_at(phase)) + fixed
        return total

    def plan_cost(self, plan: Plan, query: JoinQuery, memory: float) -> float:
        """Φ(plan, v) with static memory ``v = memory``."""
        return self._charge(self.node_terms(plan, query), lambda phase: memory)

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
        return self._charge(self.node_terms(plan, query), seq.__getitem__)

    # ------------------------------------------------------------------
    # Expected costs (memory as the only uncertain parameter)
    # ------------------------------------------------------------------

    def plan_expected_cost(
        self, plan: Plan, query: JoinQuery, memory: DiscreteDistribution,
        context=None,
    ) -> float:
        """``E[Φ(plan, M)]`` for static random memory ``M`` (sizes from
        ``context`` as :meth:`node_terms` takes them)."""
        terms = self.node_terms(plan, query, context)
        return memory.expectation(lambda m: self._charge(terms, lambda _phase: m))

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
        terms = self.node_terms(plan, query)
        total = 0.0
        for phase in range(plan.n_phases):
            mine = [t for t in terms if t.phase == phase]
            total += chain.marginal(phase).expectation(
                lambda m, _mine=mine: self._charge(_mine, lambda _phase: m)
            )
        return total

    def plan_expected_cost_bruteforce(
        self, plan: Plan, query: JoinQuery, chain: MarkovParameter
    ) -> float:
        """Expected cost by enumerating all memory sequences (verification).

        Exponential in the number of phases; used by tests/experiments to
        confirm :meth:`plan_expected_cost_markov`.
        """
        terms = self.node_terms(plan, query)
        total = 0.0
        for seq, prob in chain.sequences(plan.n_phases):
            total += prob * self._charge(terms, seq.__getitem__)
        return total


def _strip_projects(node: PlanNode) -> PlanNode:
    """Peel streaming projection wrappers off a node."""
    while isinstance(node, Project):
        node = node.child
    return node
