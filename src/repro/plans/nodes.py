"""Plan trees: structural representation of physical query plans.

Nodes are immutable and hashable, and carry *structure only* — which
relations are scanned how, which joins use which method, where enforcer
sorts sit.  Sizes and costs are computed against a
:class:`~repro.plans.query.JoinQuery` by the cost model
(:mod:`repro.costmodel`), never stored in the tree, so the same plan
object can be costed under any parameter setting or distribution.

The helpers on :class:`Plan` expose exactly the views the algorithms need:
the ordered list of join *phases* (Section 3.5 charges each join to one
phase), the relation set, left-deepness checks, and a canonical signature
for deduplication across candidate sets.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .properties import AccessPath, JoinMethod, order_from_join

__all__ = [
    "PlanShapeError",
    "Scan",
    "Join",
    "Sort",
    "Project",
    "Union",
    "UnionNode",
    "PlanNode",
    "Plan",
    "left_deep_plan",
]


class PlanShapeError(ValueError):
    """A plan's tree shape does not support the requested view.

    Raised by shape-specific accessors (``Plan.join_order()``) on bushy or
    union plans, and by :meth:`repro.plans.space.PlanSpace.join` when a
    construction would leave the declared plan space.  Subclasses
    ``ValueError`` so call sites written against the old generic error
    keep working.
    """


@dataclass(frozen=True)
class Scan:
    """Leaf: read one base relation.

    ``filter_label`` names an optional local predicate applied during the
    scan (its selectivity lives in the query); ``access`` selects the
    access path used to evaluate it.
    """

    table: str
    access: AccessPath = AccessPath.FULL_SCAN
    filter_label: Optional[str] = None

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """Scans have no children."""
        return ()

    @property
    def order(self) -> Optional[str]:
        """Base-table scans produce no guaranteed order."""
        return None

    def relations(self) -> FrozenSet[str]:
        """The (singleton) set of base relations under this node."""
        return frozenset((self.table,))

    def signature(self) -> str:
        """Canonical string form."""
        suffix = f"[{self.filter_label}]" if self.filter_label else ""
        if self.access is AccessPath.FULL_SCAN:
            return f"{self.table}{suffix}"
        return f"{self.table}:{self.access.value}{suffix}"


@dataclass(frozen=True)
class Join:
    """Inner node: a binary join with a chosen physical method.

    ``order_label`` names the sort order produced when the method is
    sort-merge; it defaults to the predicate label and is set to the
    predicate's attribute equivalence class when one exists, so that
    orders can match across different predicates of the same class.
    """

    left: "PlanNode"
    right: "PlanNode"
    method: JoinMethod
    predicate_label: str
    order_label: Optional[str] = None

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """Left and right inputs."""
        return (self.left, self.right)

    @property
    def output_order_label(self) -> str:
        """The order label this join would produce if it were sort-merge."""
        return self.order_label if self.order_label is not None else self.predicate_label

    @property
    def order(self) -> Optional[str]:
        """Order label of the join's output (sort-merge only)."""
        return order_from_join(self.method, self.output_order_label)

    def relations(self) -> FrozenSet[str]:
        """All base relations joined under this node."""
        return self.left.relations() | self.right.relations()

    def signature(self) -> str:
        """Canonical string form."""
        return (
            f"({self.left.signature()} {self.method.value} "
            f"{self.right.signature()})"
        )


@dataclass(frozen=True)
class Sort:
    """Enforcer node: sort the child's output into ``sort_order``."""

    child: "PlanNode"
    sort_order: str

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """The single input."""
        return (self.child,)

    @property
    def order(self) -> Optional[str]:
        """A sort delivers exactly its requested order."""
        return self.sort_order

    def relations(self) -> FrozenSet[str]:
        """Base relations under this node."""
        return self.child.relations()

    def signature(self) -> str:
        """Canonical string form."""
        return f"sort[{self.sort_order}]({self.child.signature()})"


@dataclass(frozen=True)
class Project:
    """Projection: narrow the child's output to a subset of columns.

    Structure-only like every node: the *effect* of the projection (the
    page-count reduction) lives in the owning query block's
    ``projection_ratio``, never in the tree.  Projections stream — they
    cost nothing themselves and preserve the child's order — so the
    optimizer places them at block roots (the SPJ "P").
    """

    child: "PlanNode"
    label: Optional[str] = None

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """The single input."""
        return (self.child,)

    @property
    def order(self) -> Optional[str]:
        """Projection preserves the child's order."""
        return self.child.order

    def relations(self) -> FrozenSet[str]:
        """Base relations under this node."""
        return self.child.relations()

    def signature(self) -> str:
        """Canonical string form."""
        tag = f"[{self.label}]" if self.label else ""
        return f"project{tag}({self.child.signature()})"


@dataclass(frozen=True)
class Union:
    """N-ary union of SPJ arm subplans (the SPJU "U").

    ``distinct=False`` is UNION ALL: arms stream into the output and the
    node itself is free.  ``distinct=True`` must materialise and
    de-duplicate, which the cost model charges as per-arm writes plus one
    external sort over the combined output.
    """

    inputs: Tuple["PlanNode", ...]
    distinct: bool = False

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 2:
            raise PlanShapeError("a union node needs at least two inputs")

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """The arm subplans."""
        return self.inputs

    @property
    def order(self) -> Optional[str]:
        """A union interleaves arms: no output order is guaranteed."""
        return None

    def relations(self) -> FrozenSet[str]:
        """Base relations under all arms."""
        out: FrozenSet[str] = frozenset()
        for child in self.inputs:
            out = out | child.relations()
        return out

    def signature(self) -> str:
        """Canonical string form."""
        head = "union-distinct" if self.distinct else "union"
        return f"{head}({', '.join(c.signature() for c in self.inputs)})"


#: Alias for modules that already use ``typing.Union`` (e.g. tools/).
UnionNode = Union

PlanNode = typing.Union[Scan, Join, Sort, Project, Union]


class Plan:
    """A rooted plan tree plus the derived views the optimizer uses."""

    __slots__ = ("root", "_joins", "_sig")

    def __init__(self, root: PlanNode):
        self.root = root
        self._joins: Optional[List[Join]] = None
        self._sig: Optional[str] = None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def nodes(self) -> Iterator[PlanNode]:
        """Post-order traversal (children before parents)."""
        yield from _postorder(self.root)

    def joins(self) -> List[Join]:
        """Joins in execution order (bottom-up post-order, any shape).

        For a left-deep plan this is exactly the phase sequence of
        Section 3.5: ``joins()[k]`` runs during phase ``k``.
        """
        if self._joins is None:
            self._joins = [n for n in self.nodes() if isinstance(n, Join)]
        return self._joins

    def scans(self) -> List[Scan]:
        """Leaf scans in post-order."""
        return [n for n in self.nodes() if isinstance(n, Scan)]

    @property
    def n_joins(self) -> int:
        """Number of join phases."""
        return len(self.joins())

    @property
    def n_phases(self) -> int:
        """Number of execution phases (one per join; a lone scan is one)."""
        return max(1, self.n_joins)

    def relations(self) -> FrozenSet[str]:
        """All base relations referenced by the plan."""
        return self.root.relations()

    @property
    def order(self) -> Optional[str]:
        """Output order label of the whole plan."""
        return self.root.order

    # ------------------------------------------------------------------
    # Shape predicates
    # ------------------------------------------------------------------

    def is_left_deep(self) -> bool:
        """True when every join's right input is a leaf (modulo sorts)."""
        for join in self.joins():
            right = _strip_sorts(join.right)
            if not isinstance(right, Scan):
                return False
        return True

    def join_order(self) -> List[str]:
        """For a left-deep plan: relation names in join order.

        The first element is the leftmost (bottom) relation.  Raises
        :class:`PlanShapeError` on bushy or union plans — use
        :meth:`joins` for a shape-agnostic traversal.
        """
        if any(isinstance(n, Union) for n in self.nodes()):
            raise PlanShapeError("join_order() is not defined for union plans")
        if not self.is_left_deep():
            raise PlanShapeError("join_order() is only defined for left-deep plans")
        joins = self.joins()
        if not joins:
            only = self.scans()
            return [only[0].table] if only else []
        order: List[str] = []
        bottom_left = _strip_sorts(joins[0].left)
        if isinstance(bottom_left, Scan):
            order.append(bottom_left.table)
        for join in joins:
            right = _strip_sorts(join.right)
            assert isinstance(right, Scan)
            order.append(right.table)
        return order

    # ------------------------------------------------------------------
    # Identity / presentation
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Canonical string identity (equal iff same structure)."""
        if self._sig is None:
            self._sig = self.root.signature()
        return self._sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"Plan({self.signature()})"

    def pretty(self) -> str:
        """Multi-line indented rendering for humans."""
        lines: List[str] = []
        _pretty(self.root, 0, lines)
        return "\n".join(lines)


def _postorder(node: PlanNode) -> Iterator[PlanNode]:
    for child in node.children:
        yield from _postorder(child)
    yield node


def _strip_sorts(node: PlanNode) -> PlanNode:
    """Strip streaming/enforcer wrappers (sorts *and* projections)."""
    while isinstance(node, (Sort, Project)):
        node = node.child
    return node


def _pretty(node: PlanNode, depth: int, out: List[str]) -> None:
    pad = "  " * depth
    if isinstance(node, Scan):
        out.append(f"{pad}Scan({node.signature()})")
        return
    if isinstance(node, Sort):
        out.append(f"{pad}Sort[{node.sort_order}]")
        _pretty(node.child, depth + 1, out)
        return
    if isinstance(node, Project):
        tag = f"[{node.label}]" if node.label else ""
        out.append(f"{pad}Project{tag}")
        _pretty(node.child, depth + 1, out)
        return
    if isinstance(node, Union):
        out.append(f"{pad}Union[{'distinct' if node.distinct else 'all'}]")
        for child in node.inputs:
            _pretty(child, depth + 1, out)
        return
    out.append(f"{pad}Join[{node.method.value} on {node.predicate_label}]")
    _pretty(node.left, depth + 1, out)
    _pretty(node.right, depth + 1, out)


def left_deep_plan(
    tables: List[str],
    methods: List[JoinMethod],
    predicate_labels: List[str],
    final_sort: Optional[str] = None,
) -> Plan:
    """Convenience constructor for a left-deep plan.

    ``tables[0]`` is the bottom-left relation; ``methods[i]`` and
    ``predicate_labels[i]`` describe the join that adds ``tables[i+1]``.
    """
    if len(tables) < 1:
        raise ValueError("need at least one table")
    if len(methods) != len(tables) - 1 or len(predicate_labels) != len(tables) - 1:
        raise ValueError("need exactly one method and label per join")
    node: PlanNode = Scan(tables[0])
    for table, method, label in zip(tables[1:], methods, predicate_labels):
        node = Join(left=node, right=Scan(table), method=method, predicate_label=label)
    if final_sort is not None and node.order != final_sort:
        node = Sort(child=node, sort_order=final_sort)
    return Plan(node)
