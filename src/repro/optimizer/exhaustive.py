"""Exhaustive plan enumeration: the ground truth for small queries.

The correctness experiments (E3, and the Theorem 3.3/3.4 tests) need the
*true* LEC plan to compare against.  For small ``n`` we can afford to
enumerate every left-deep plan — all join orders × all method vectors ×
the optional enforcer sort — and evaluate an arbitrary objective on each.

The enumerator is deliberately independent of the DP engine (different
code path, plan built directly from the permutation) so agreement between
the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, JoinMethod
from ..plans.query import JoinQuery
from ..plans.space import LEFT_DEEP, PlanSpace
from ..plans.spju import UnionQuery
from .result import PlanChoice

__all__ = [
    "enumerate_plans",
    "enumerate_left_deep_plans",
    "exhaustive_best",
    "MAX_EXHAUSTIVE_RELATIONS",
]

#: Safety cap: n! · |methods|^(n-1) plans beyond this is unreasonable.
MAX_EXHAUSTIVE_RELATIONS = 8


# Deliberately shape-frozen: the permutation enumerator is kept as an
# independent left-deep oracle (different code path from PlanSpace's
# partition walk), so agreement with the DP stays meaningful evidence.
def enumerate_left_deep_plans(
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    allow_cross_products: bool = False,
    enforce_order: bool = True,
) -> Iterator[Plan]:
    """Yield every left-deep plan for ``query``.

    Join orders that would require a cross product (the prefix is not
    connected to the next relation) are skipped unless
    ``allow_cross_products``.  When the query has a ``required_order`` and
    the plan does not naturally produce it, an enforcer sort is appended
    (``enforce_order=True``), mirroring what the DP engine emits.
    """
    names = query.relation_names()
    if len(names) > MAX_EXHAUSTIVE_RELATIONS:
        raise ValueError(
            f"refusing to enumerate {len(names)} relations exhaustively "
            f"(cap is {MAX_EXHAUSTIVE_RELATIONS})"
        )
    scan_choices = {name: _access_paths(name, query) for name in names}
    if len(names) == 1:
        for scan in scan_choices[names[0]]:
            yield Plan(scan)
        return
    for perm in itertools.permutations(names):
        labels = _labels_for(perm, query, allow_cross_products)
        if labels is None:
            continue
        n_joins = len(perm) - 1
        for method_vec in itertools.product(methods, repeat=n_joins):
            for scans in itertools.product(*(scan_choices[n] for n in perm)):
                node: PlanNode = scans[0]
                for i in range(n_joins):
                    node = Join(
                        left=node,
                        right=scans[i + 1],
                        method=method_vec[i],
                        predicate_label=labels[i][0],
                        order_label=labels[i][1],
                    )
                if (
                    enforce_order
                    and query.required_order is not None
                    and node.order != query.required_order
                ):
                    node = Sort(child=node, sort_order=query.required_order)
                yield Plan(node)


def enumerate_plans(
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    space=LEFT_DEEP,
    allow_cross_products: bool = False,
    enforce_order: bool = True,
) -> Iterator[Plan]:
    """Yield every plan for ``query`` inside the given plan space.

    The shape-generic counterpart of :func:`enumerate_left_deep_plans`:
    subsets are split recursively with :meth:`PlanSpace.partitions`, so
    left-deep, zig-zag and bushy ground truth all come from this one
    enumerator.  Union queries (with a union-capable space) yield the
    cross product of per-arm enumerations under a single Union root.
    Block roots gain an enforcer sort and a streaming projection exactly
    as the DP emits them, so objective values are directly comparable.
    """
    space = PlanSpace.parse(space)
    names = query.relation_names()
    if len(names) > MAX_EXHAUSTIVE_RELATIONS:
        raise ValueError(
            f"refusing to enumerate {len(names)} relations exhaustively "
            f"(cap is {MAX_EXHAUSTIVE_RELATIONS})"
        )
    scan_choices = {name: _access_paths(name, query) for name in names}

    if isinstance(query, UnionQuery):
        if not space.supports_union:
            raise ValueError(
                f"query is a union block but plan space {space.key!r} does "
                "not admit union plans; use 'spju' (or a '+union' space)"
            )
        arm_roots: List[List[PlanNode]] = []
        for arm in query.arms:
            subset = frozenset(r.name for r in arm.relations)
            roots = list(
                _subset_trees(
                    subset, query, space, scan_choices, methods,
                    allow_cross_products,
                )
            )
            if arm.projection_ratio < 1.0:
                roots = [Project(child=r) for r in roots]
            arm_roots.append(roots)
        for combo in itertools.product(*arm_roots):
            yield Plan(UnionNode(inputs=tuple(combo), distinct=query.distinct))
        return

    full = frozenset(names)
    project = getattr(query, "projection_ratio", 1.0) < 1.0
    for node in _subset_trees(
        full, query, space, scan_choices, methods, allow_cross_products
    ):
        if (
            enforce_order
            and query.required_order is not None
            and len(names) > 1
            and node.order != query.required_order
        ):
            node = Sort(child=node, sort_order=query.required_order)
        if project:
            node = Project(child=node)
        yield Plan(node)


def _subset_trees(
    subset: FrozenSet[str],
    query: JoinQuery,
    space: PlanSpace,
    scan_choices,
    methods: Sequence[JoinMethod],
    allow_cross_products: bool,
) -> Iterator[PlanNode]:
    """All join trees over ``subset`` admitted by ``space``.

    Mirrors the DP's partition walk (same crossing-predicate label and
    order-target selection), but builds every combination instead of
    keeping the best — so agreement with the DP is meaningful evidence.
    """
    if len(subset) == 1:
        yield from scan_choices[next(iter(subset))]
        return
    for left_rels, right_rels in space.partitions(subset):
        preds = [
            p
            for p in query.predicates_within(subset)
            if (p.left in left_rels) != (p.right in left_rels)
        ]
        if not preds and not allow_cross_products:
            continue
        if preds:
            label = preds[0].label
            order_target = preds[0].order_label
        else:
            label = f"cross[{min(right_rels)}]"
            order_target = None
        for left in _subset_trees(
            left_rels, query, space, scan_choices, methods, allow_cross_products
        ):
            for right in _subset_trees(
                right_rels, query, space, scan_choices, methods,
                allow_cross_products,
            ):
                for method in methods:
                    yield Join(
                        left=left,
                        right=right,
                        method=method,
                        predicate_label=label,
                        order_label=order_target,
                    )


def _access_paths(name: str, query: JoinQuery) -> List[Scan]:
    """Candidate scan leaves for one relation (mirrors the DP's choices)."""
    paths = [Scan(table=name)]
    if query.relation(name).has_index_path():
        paths.append(Scan(table=name, access=AccessPath.INDEX_SCAN))
    return paths


def _labels_for(
    perm: Tuple[str, ...], query: JoinQuery, allow_cross_products: bool
) -> Optional[List[Tuple[str, Optional[str]]]]:
    """(label, order_label) per join of the permutation; None if invalid."""
    labels: List[Tuple[str, Optional[str]]] = []
    group = frozenset((perm[0],))
    for newcomer in perm[1:]:
        preds = query.predicates_between(group, newcomer)
        if preds:
            labels.append((preds[0].label, preds[0].order_label))
        elif allow_cross_products:
            labels.append((f"cross[{newcomer}]", None))
        else:
            return None
        group = group | {newcomer}
    return labels


def exhaustive_best(
    query: JoinQuery,
    objective: Callable[[Plan], float],
    methods: Sequence[JoinMethod],
    allow_cross_products: bool = False,
    space=LEFT_DEEP,
) -> Tuple[PlanChoice, List[PlanChoice]]:
    """Evaluate ``objective`` on every plan in ``space``; return best and all.

    The returned list is sorted ascending by objective, so ``[0]`` is the
    true optimum over the space and the tail gives regret curves for the
    approximation experiments.  The default space keeps the historical
    left-deep behavior (via the independent permutation enumerator).
    """
    space = PlanSpace.parse(space)
    if space.key == "left-deep" and not isinstance(query, UnionQuery):
        plans: Iterator[Plan] = enumerate_left_deep_plans(
            query, methods, allow_cross_products=allow_cross_products
        )
    else:
        plans = enumerate_plans(
            query,
            methods,
            space=space,
            allow_cross_products=allow_cross_products,
        )
    scored = [PlanChoice(plan=p, objective=objective(p)) for p in plans]
    if not scored:
        raise ValueError(f"no valid {space.key} plans for this query")
    scored.sort(key=lambda c: c.objective)
    return scored[0], scored
