"""Exact LEC optimization under *dependent* parameters (Section 4).

:class:`BayesNetCoster` drops the paper's independence assumption: the
joint distribution of memory and predicate selectivities is given by a
:class:`~repro.core.bayesnet.DiscreteBayesNet`, and every DP step takes
its expectation over the exact joint — no product-of-marginals
approximation, no rebucketing.  Because the objective is still an
expectation over one fixed distribution, additivity and hence DP
optimality are untouched: this is Algorithm C/D generalised to
correlated parameters.

The expectation walk is an array program: the joint's assignments come
from :meth:`~repro.core.bayesnet.DiscreteBayesNet.joint_arrays` as value
columns, subset page counts are computed for *all* assignments at once
(:meth:`BayesNetCoster._pages_given_many`, bit-identical to the scalar
per-assignment arithmetic), the cost formulas run through the vectorized
``*_many`` cost-model entry points, and the final expectation is the
same left-to-right cumulative sum the scalar ``net.expectation`` loop
performed.  Step costs are memoized in the bound
:class:`~repro.costmodel.context.OptimizationContext` and the DP costs them
a level at a time, one ``prefetch_join_steps`` call per presorted-flag
pair returning one cost list per join method — one grid per method on
the calling thread, exactly like the independent costers.

Network conventions: the memory variable is named by ``memory_var``
(default ``"M"``); each uncertain predicate selectivity is a variable
named by the predicate's *label*.  Predicates without a matching variable
use their point selectivity.  Latent variables (e.g. "load") may appear
freely; they are marginalised by the joint enumeration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from ..core.bayesnet import Assignment, BayesNetError, DiscreteBayesNet
from ..costmodel.context import OptimizationContext
from ..costmodel.model import CostModel
from ..plans.nodes import Join, Plan, Scan, Sort
from ..plans.query import JoinQuery
from .costers import Coster
from .result import OptimizationResult
from .systemr import SystemRDP

__all__ = ["BayesNetCoster", "optimize_dependent", "plan_expected_cost_dependent"]


class BayesNetCoster(Coster):
    """Costs DP steps by exact expectation over a parameter Bayes net."""

    def __init__(
        self,
        net: DiscreteBayesNet,
        memory_var: str = "M",
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(cost_model)
        if memory_var not in net.names:
            raise BayesNetError(
                f"network has no memory variable {memory_var!r}"
            )
        self.net = net
        self.memory_var = memory_var
        self._columns: Dict[str, np.ndarray] = {}
        self._memory_col = np.empty(0)
        self._pages_many_cache: Dict[FrozenSet[str], np.ndarray] = {}

    def bind(
        self, query: JoinQuery, context: Optional[OptimizationContext] = None
    ) -> None:
        super().bind(query, context)
        values, _ = self.net.joint_arrays()
        self._columns = {
            name: values[:, j] for j, name in enumerate(self.net.names)
        }
        self._memory_col = self._columns[self.memory_var]
        self._pages_many_cache = {}

    def _memo_key(self) -> tuple:
        # The net is keyed by identity (default object hash): two net
        # objects are never assumed value-equal, so cross-coster sharing
        # through one context only happens for literally the same
        # network.  The key holds a reference, so the identity is stable
        # for the memo's lifetime.
        return ("bayesnet", self.net, self.memory_var)

    # -- size arithmetic under an assignment -----------------------------

    def _pages_given(
        self, rels: FrozenSet[str], assignment: Assignment
    ) -> float:
        """Subset page count with selectivities taken from the assignment."""
        assert self.query is not None
        query = self.query
        rels = frozenset(rels)
        if len(rels) == 1:
            return query.pages_of(next(iter(rels)))
        preds = query.predicates_within(rels)
        if (
            len(rels) == 2
            and len(preds) == 1
            and preds[0].result_pages_override is not None
        ):
            return float(preds[0].result_pages_override)
        rows = 1.0
        for name in sorted(rels):
            rows *= query.rows_of(name)
        for p in preds:
            rows *= assignment.get(p.label, p.selectivity)
        return max(1.0, rows / query.rows_per_page)

    def _pages_given_many(self, rels: FrozenSet[str]) -> np.ndarray:
        """Per-assignment page counts for ``rels`` across the whole joint.

        Column ``j`` equals ``_pages_given(rels, joint()[j][0])`` bit for
        bit: the relation-row base product runs the *same* sorted-name
        walk the scalar one uses (a scalar, shared by every
        assignment), and each predicate's selectivity column multiplies
        in afterwards in the same predicate order — so every assignment
        sees the identical left-to-right multiply sequence.
        """
        assert self.query is not None
        query = self.query
        rels = frozenset(rels)
        cached = self._pages_many_cache.get(rels)
        if cached is not None:
            return cached
        k = self._memory_col.size
        if len(rels) == 1:
            arr = np.full(k, query.pages_of(next(iter(rels))))
        else:
            preds = query.predicates_within(rels)
            if (
                len(rels) == 2
                and len(preds) == 1
                and preds[0].result_pages_override is not None
            ):
                arr = np.full(k, float(preds[0].result_pages_override))
            else:
                base = 1.0
                for name in sorted(rels):
                    base *= query.rows_of(name)
                arr = np.full(k, base)
                for p in preds:
                    col = self._columns.get(p.label)
                    arr = arr * (p.selectivity if col is None else col)
                arr = np.maximum(1.0, arr / query.rows_per_page)
        self._pages_many_cache[rels] = arr
        return arr

    # -- hooks ------------------------------------------------------------

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, frozenset(left_rels), frozenset(right_rels), phase,
            left_presorted, right_presorted,
        )

        def compute() -> float:
            lp = self._pages_given_many(left_rels)
            rp = self._pages_given_many(right_rels)
            costs = self._join_formula_many(
                method, lp, rp, self._memory_col,
                left_presorted, right_presorted,
            )
            return float(self.net.expectation_many(costs))

        return self._step(key, compute)

    def prefetch_join_steps(self, phase, left_presorted, right_presorted, pairs):
        """One (steps × assignments) grid per method over the column's
        page rows, stacked once, reduced per row by the cumulative sum
        :meth:`join_step_cost` uses — same values, same ``eval_count``."""
        lps, rps, pages = left_presorted, right_presorted, self._pages_given_many

        def operands(pairs):
            return [np.vstack([pages(rels) for rels in side]) for side in zip(*pairs)]

        def grid(method, operands):
            costs = self._join_formula_many(
                method, *operands, self._memory_col, lps, rps
            )
            return self.net.expectation_many(costs)

        return self._batched_steps(pairs, operands, grid)

    def write_cost(self, rels):
        key = (*self._memo_key(), "write", frozenset(rels))
        return self._step(
            key,
            lambda: float(
                self.net.expectation_many(self._pages_given_many(rels))
            ),
        )

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", frozenset(rels))

        def compute() -> float:
            costs = self.cost_model.sort_cost_many(
                self._pages_given_many(rels), self._memory_col
            )
            return float(self.net.expectation_many(costs))

        return self._step(key, compute)


def optimize_dependent(
    query: JoinQuery,
    net: DiscreteBayesNet,
    memory_var: str = "M",
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """LEC optimization under a dependent parameter joint.

    ``context`` threads straight through to
    :class:`~repro.optimizer.systemr.SystemRDP` and is bit-invisible in
    the chosen plan and objective.
    """
    coster = BayesNetCoster(net, memory_var=memory_var, cost_model=cost_model)
    engine = SystemRDP(
        coster,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        context=context,
    )
    return engine.optimize(query)


def plan_expected_cost_dependent(
    plan: Plan,
    query: JoinQuery,
    net: DiscreteBayesNet,
    memory_var: str = "M",
    cost_model: Optional[CostModel] = None,
) -> float:
    """``E[Φ(plan, V)]`` over the net's joint — independent evaluator.

    Costs the plan in every joint assignment at once: each node
    contributes one per-assignment cost column (vectorized formulas over
    the assignment axis) and columns accumulate in node order — the same
    per-assignment addition sequence as walking the plan one assignment
    at a time, so the result is bit-identical to the historical scalar
    walk.  Used to cross-check the DP and to score arbitrary plans
    (e.g. the independence-assuming choice) under the true joint.
    """
    cm = cost_model if cost_model is not None else CostModel()
    coster = BayesNetCoster(net, memory_var=memory_var, cost_model=cm)
    coster.bind(query)
    _, probs = net.joint_arrays()
    memory = coster._memory_col
    totals = np.zeros(probs.size)
    for node in plan.nodes():
        if isinstance(node, Scan):
            totals = totals + cm.scan_node_cost(node, query)
        elif isinstance(node, Sort):
            pages = coster._pages_given_many(node.child.relations())
            totals = totals + cm.sort_cost_many(pages, memory)
        else:
            assert isinstance(node, Join)
            lp = coster._pages_given_many(node.left.relations())
            rp = coster._pages_given_many(node.right.relations())
            target = node.output_order_label
            totals = totals + coster._join_formula_many(
                node.method,
                lp,
                rp,
                memory,
                node.left.order == target,
                node.right.order == target,
            )
            if node is not plan.root:
                totals = totals + coster._pages_given_many(node.relations())
    return float(net.expectation_many(totals))
