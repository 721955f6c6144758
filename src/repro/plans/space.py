"""Plan spaces: a first-class description of the shapes a plan may take.

The paper restricts its algorithms to left-deep select-join plans
(heuristic 2 of Section 2.2) and defers bushy trees; this module makes
that restriction — and its relaxations — an explicit, shared object
instead of a string flag buried in one optimizer.  A :class:`PlanSpace`
bundles:

* the **tree shape** (``left-deep``, ``zig-zag``, ``bushy``) — which
  (left, right) partitions the System-R dynamic program may consider for
  each relation subset;
* whether **union plans** are admitted (the SPJU extension: union arms
  over SPJ sub-blocks, sized via Chen & Schneider-style bounds);
* derived **capabilities**: ``ordered_phases`` is True exactly when every
  candidate plan for a subset of size ``s`` schedules its joins in the
  canonical phases ``0..s-2`` — the property the Markov objective
  (Theorem 3.4) needs.  Left-deep *and* zig-zag trees have it (each join
  adds one relation); bushy trees do not.

Every component that enumerates or validates plans — SystemRDP, the
exhaustive and randomized optimizers, Algorithms A-D via the facade, the
serving tier's plan-cache keys — consumes the same :class:`PlanSpace`, so
"which plans exist" is decided in exactly one place.  Constructing
:class:`~repro.plans.nodes.Join` nodes through :meth:`PlanSpace.join` is
the sanctioned path outside ``plans/``: it verifies the shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .nodes import Join, Plan, PlanNode, PlanShapeError, Scan, _strip_sorts
from .nodes import Union as UnionNode
from .properties import JoinMethod

__all__ = [
    "PlanSpace",
    "LEFT_DEEP",
    "ZIG_ZAG",
    "BUSHY",
    "SPJU",
]

_SHAPES = ("left-deep", "zig-zag", "bushy")

#: Accepted spellings (lowercased) for each shape.
_SHAPE_ALIASES = {
    "left-deep": "left-deep",
    "left_deep": "left-deep",
    "leftdeep": "left-deep",
    "zig-zag": "zig-zag",
    "zig_zag": "zig-zag",
    "zigzag": "zig-zag",
    "bushy": "bushy",
}


def _members(mask: int, order: Sequence[str]) -> FrozenSet[str]:
    """The relation names a mask selects (bit ``i`` = ``order[i]``)."""
    return frozenset(name for i, name in enumerate(order) if mask >> i & 1)


@dataclass(frozen=True)
class PlanSpace:
    """An immutable description of the admissible plan shapes.

    ``shape`` is one of ``"left-deep"``, ``"zig-zag"``, ``"bushy"``;
    ``union`` admits SPJU plans (union arms over SPJ blocks).  Use the
    module constants (:data:`LEFT_DEEP`, :data:`ZIG_ZAG`, :data:`BUSHY`,
    :data:`SPJU`) or :meth:`parse` rather than constructing directly.
    """

    shape: str
    union: bool = False

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(
                f"unknown plan-space shape {self.shape!r}; "
                f"expected one of {_SHAPES}"
            )

    # ------------------------------------------------------------------
    # Identity / parsing
    # ------------------------------------------------------------------

    @property
    def key(self) -> str:
        """Canonical spelling, stable across parse round-trips.

        Used verbatim in facade arguments, serving plan-cache knob
        tuples, and experiment tables.
        """
        if self.union:
            return "spju" if self.shape == "bushy" else f"{self.shape}+union"
        return self.shape

    @classmethod
    def parse(cls, value) -> "PlanSpace":
        """Resolve a user-facing spelling into a :class:`PlanSpace`.

        Accepts an existing :class:`PlanSpace` (returned as-is), the
        canonical keys, underscore/no-dash alias spellings, ``"spju"``
        (bushy + union), and ``"<shape>+union"``.  Raises ``ValueError``
        on anything else; optimizer entry points wrap that into
        :class:`~repro.optimizer.errors.OptimizerConfigError`.
        """
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise ValueError(f"cannot parse plan space from {value!r}")
        text = value.strip().lower()
        if text == "spju":
            return SPJU
        union = False
        if text.endswith("+union"):
            union = True
            text = text[: -len("+union")]
        shape = _SHAPE_ALIASES.get(text)
        if shape is None:
            raise ValueError(
                f"unknown plan space {value!r}; expected one of "
                "'left-deep', 'zig-zag', 'bushy', 'spju' "
                "(or '<shape>+union')"
            )
        return cls(shape=shape, union=union)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------

    @property
    def ordered_phases(self) -> bool:
        """True when joins land in canonical phases ``0..s-2`` per subset.

        This is what phase-indexed objectives (the Markov coster) require.
        Left-deep and zig-zag trees qualify — each join adds exactly one
        relation — while bushy trees interleave subtree phases.
        """
        return self.shape != "bushy"

    @property
    def supports_union(self) -> bool:
        """Whether SPJU (union) plans are admitted."""
        return self.union

    # ------------------------------------------------------------------
    # Enumeration primitives.  The DP consumes the two mask routines;
    # the frozenset methods are views of them for everything else.
    # ------------------------------------------------------------------

    @staticmethod
    def level_masks(
        adjacency: Sequence[int], allow_cross_products: bool = False
    ) -> Iterator[List[int]]:
        """The DP's candidate subsets level by level, as ascending masks.

        ``adjacency`` is :meth:`JoinQuery.join_graph`'s neighbour masks.
        Level ``k`` holds every connected ``k``-subset (every ``k``-subset
        when cross products are allowed: the graph is then complete),
        flood-filled from level ``k-1`` — a connected set always has a
        member whose removal leaves it connected.  Levels are
        materialised lists on purpose: level ``k`` depends only on
        earlier levels, so a sharded tier can split one across workers.
        """
        n = len(adjacency)
        if allow_cross_products:
            adjacency = [(1 << n) - 1] * n
        level = {1 << i: adjacency[i] for i in range(n)}  # mask -> neighbours
        while level:
            yield sorted(level)
            grown = {}
            for mask, neighbours in level.items():
                frontier = neighbours & ~mask
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    grown[mask | low] = neighbours | adjacency[low.bit_length() - 1]
            level = grown

    def split_masks(self, mask: int) -> Iterator[Tuple[int, int]]:
        """Ordered ``(left, right)`` splits of the subset ``mask``.

        The enumeration is ordered because join cost is asymmetric in
        outer/inner, and its *sequence* is part of the plan contract:
        the DP breaks cost ties by first arrival.  Left-deep yields
        ``(S∖{m}, {m})`` for ``m`` ascending; zig-zag adds the mirrored
        ``({m}, S∖{m})`` splits (composite on the right); bushy yields
        every proper non-empty submask as ``left``, ascending.
        """
        if self.shape == "bushy":
            left = -mask & mask
            while left != mask:
                yield left, mask ^ left
                left = (left - mask) & mask
            return
        singles = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            singles.append(low)
        for m in singles:
            yield mask ^ m, m
        if self.shape == "zig-zag" and len(singles) > 2:
            for m in singles:  # for two relations the mirrors are already present
                yield m, mask ^ m

    def level_candidates(
        self,
        query,
        size: int,
        allow_cross_products: bool = False,
        names: Optional[Sequence[str]] = None,
    ) -> List[FrozenSet[str]]:
        """Level ``size`` of :meth:`level_masks` as relation-name sets."""
        order, adjacency, _ = query.join_graph(names)
        levels = self.level_masks(adjacency, allow_cross_products)
        level = next(itertools.islice(levels, size - 1, None), [])
        return [_members(mask, order) for mask in level]

    def partitions(
        self, subset: FrozenSet[str]
    ) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        """:meth:`split_masks` of ``subset`` as relation-name sets."""
        order = sorted(subset)
        return [
            (_members(left, order), _members(right, order))
            for left, right in self.split_masks((1 << len(order)) - 1)
        ]

    # ------------------------------------------------------------------
    # Construction / validation
    # ------------------------------------------------------------------

    def join(
        self,
        left: PlanNode,
        right: PlanNode,
        method: JoinMethod,
        predicate_label: str,
        order_label: Optional[str] = None,
    ) -> Join:
        """Build a join node, verifying it stays inside this space.

        This is the sanctioned :class:`~repro.plans.nodes.Join`
        construction path for code outside ``plans/``; it raises
        :class:`~repro.plans.nodes.PlanShapeError` when the shape
        admission fails.
        """
        node = Join(
            left=left,
            right=right,
            method=method,
            predicate_label=predicate_label,
            order_label=order_label,
        )
        if not self._admits_join(node):
            raise PlanShapeError(
                f"join {node.signature()} is outside the "
                f"{self.key!r} plan space"
            )
        return node

    def _admits_join(self, join: Join) -> bool:
        if self.shape == "bushy":
            return True
        right_leaf = isinstance(_strip_sorts(join.right), Scan)
        if self.shape == "left-deep":
            return right_leaf
        return right_leaf or isinstance(_strip_sorts(join.left), Scan)

    def admits(self, plan: Plan) -> bool:
        """True when every node of ``plan`` is legal in this space."""
        for node in plan.nodes():
            if isinstance(node, UnionNode) and not self.union:
                return False
            if isinstance(node, Join) and not self._admits_join(node):
                return False
        return True


#: The paper's search space (heuristic 2): composites only on the left.
LEFT_DEEP = PlanSpace("left-deep")
#: Left-deep plus mirrored splits: one input of every join is a leaf.
ZIG_ZAG = PlanSpace("zig-zag")
#: All binary trees — the extension the paper defers.
BUSHY = PlanSpace("bushy")
#: Bushy trees plus union plans over SPJ arms.
SPJU = PlanSpace("bushy", union=True)
