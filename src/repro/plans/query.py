"""Logical join queries: the optimizer's input.

A :class:`JoinQuery` is a SELECT-PROJECT-JOIN block: a set of relations
with sizes, a set of (equi)join predicates with selectivities, and an
optional required output order.  Every quantity that the LEC framework
treats as uncertain can be supplied either as a point estimate (the LSC
view) or as a :class:`~repro.core.distributions.DiscreteDistribution`
(the LEC view); accessors expose both, defaulting the distribution to a
point mass when only the point is known.

``from_catalog`` builds a query from the schema/statistics substrate, so
end-to-end examples can start from tables and histograms rather than
hand-written numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..catalog.statistics import StatisticsCatalog
from ..core.distributions import DiscreteDistribution, point_mass

__all__ = ["IndexInfo", "RelationSpec", "JoinPredicate", "JoinQuery", "QueryError", "HashedTuple"]


class QueryError(ValueError):
    """Raised for malformed queries (unknown relations, disconnected graphs)."""


class HashedTuple(tuple):
    """A plain tuple by value that hashes its items once: for keys (a
    query's fingerprint, a cost model's key) probed on every request."""

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        # ``hash`` is salted per process: a copy elsewhere rehashes.
        return HashedTuple, (tuple(self),)


@dataclass(frozen=True)
class IndexInfo:
    """An index usable to evaluate a relation's local filter predicate.

    ``height`` is the number of levels probed (one page I/O each);
    ``clustered`` controls whether matching rows are contiguous in the
    base table.
    """

    height: int = 2
    clustered: bool = False

    def __post_init__(self) -> None:
        if self.height < 1:
            raise QueryError("index height must be >= 1")


@dataclass(frozen=True)
class RelationSpec:
    """One input relation.

    ``pages`` is the point size estimate used by LSC; ``pages_dist``
    (optional) is the distributional size used by Algorithm D.  ``rows``
    defaults to ``pages * rows_per_page`` of the owning query.
    ``filter_selectivity`` is a local predicate applied during the scan;
    when ``index`` is given, the optimizer additionally considers an
    index-scan access path for evaluating that filter (the System-R
    "best plan to access each of the individual relations" step).
    """

    name: str
    pages: float
    rows: Optional[float] = None
    pages_dist: Optional[DiscreteDistribution] = None
    filter_selectivity: float = 1.0
    index: Optional[IndexInfo] = None

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise QueryError(f"relation {self.name!r} has negative page count")
        if not 0.0 <= self.filter_selectivity <= 1.0:
            raise QueryError("filter_selectivity must be in [0, 1]")

    def has_index_path(self) -> bool:
        """True when an index-scan access path should be considered."""
        return self.index is not None and self.filter_selectivity < 1.0

    def pages_distribution(self) -> DiscreteDistribution:
        """Size in pages as a distribution (point mass if not uncertain)."""
        return self.pages_dist if self.pages_dist is not None else self._point

    @cached_property  # outside the fields; value-keyed memos hit on its cached hash
    def _point(self) -> DiscreteDistribution:
        return point_mass(float(self.pages))


@dataclass(frozen=True)
class JoinPredicate:
    """An equijoin predicate between two relations.

    ``selectivity`` is the point estimate; ``selectivity_dist`` the
    distributional one.  ``label`` identifies the predicate for interesting
    orders (a sort-merge join over this predicate yields order ``label``).
    ``equiv_class`` optionally names the *attribute equivalence class* the
    predicate equates (e.g. several chain predicates all on column ``x``):
    predicates in the same class produce interchangeable sort orders, so a
    sort-merge join's output can arrive presorted at a later sort-merge
    join of the same class — the full interesting-orders effect.
    ``result_pages_override`` pins the output size of a join that applies
    exactly this predicate, which scenario reconstructions (Example 1.1's
    "the result has 3000 pages") use instead of selectivity arithmetic.
    """

    left: str
    right: str
    selectivity: float
    label: Optional[str] = None
    selectivity_dist: Optional[DiscreteDistribution] = None
    result_pages_override: Optional[float] = None
    equiv_class: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise QueryError(
                f"selectivity of {self.left}-{self.right} must be in [0, 1]"
            )
        if self.label is None:
            canon = "=".join(sorted((self.left, self.right)))
            object.__setattr__(self, "label", canon)

    @property
    def order_label(self) -> str:
        """Sort-order label an SM join over this predicate produces."""
        return self.equiv_class if self.equiv_class is not None else self.label  # type: ignore[return-value]

    def connects(self, a: str, b: str) -> bool:
        """True when this predicate links relations ``a`` and ``b``."""
        return {self.left, self.right} == {a, b}

    def touches(self, rels: FrozenSet[str]) -> bool:
        """True when both endpoints lie inside ``rels``."""
        return self.left in rels and self.right in rels

    def selectivity_distribution(self) -> DiscreteDistribution:
        """Selectivity as a distribution (point mass if not uncertain)."""
        dist = self.selectivity_dist
        return dist if dist is not None else self._point

    @cached_property  # one object per predicate, as on RelationSpec
    def _point(self) -> DiscreteDistribution:
        return point_mass(self.selectivity)


class JoinQuery:
    """A join query over named relations.

    Parameters
    ----------
    relations:
        The input relations.
    predicates:
        Join predicates.  Relations not linked by any predicate can only
        be combined via cross products (disabled by default in the
        optimizer).
    required_order:
        Optional order label the final result must satisfy (a predicate
        label); when the chosen plan does not produce it, an enforcer
        sort is appended.
    rows_per_page:
        Conversion factor between rows and pages for intermediates.
    projection_ratio:
        Fraction of the output *page width* the block's projection list
        keeps (the SPJ "P"; 1.0 means SELECT *).  The optimizer surfaces
        it as a streaming :class:`~repro.plans.nodes.Project` at the
        block root; it only affects cost when the projected result is
        re-materialised (e.g. by a distinct union's deduplication).

    A query is immutable after construction: assigning an attribute once
    ``__init__`` has run raises :class:`AttributeError`, so its
    :attr:`fingerprint` is taken once, on first use.  A subclass sets its
    own fields before it calls ``JoinQuery.__init__``, which seals it.
    """

    def __init__(
        self,
        relations: Sequence[RelationSpec],
        predicates: Sequence[JoinPredicate] = (),
        required_order: Optional[str] = None,
        rows_per_page: int = 100,
        projection_ratio: float = 1.0,
    ):
        if not relations:
            raise QueryError("a query needs at least one relation")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise QueryError("duplicate relation names in query")
        self.relations: Tuple[RelationSpec, ...] = tuple(relations)
        self.predicates: Tuple[JoinPredicate, ...] = tuple(predicates)
        self.required_order = required_order
        if rows_per_page <= 0:
            raise QueryError("rows_per_page must be positive")
        self.rows_per_page = rows_per_page
        if not 0.0 < projection_ratio <= 1.0:
            raise QueryError("projection_ratio must be in (0, 1]")
        self.projection_ratio = float(projection_ratio)
        self._by_name: Mapping[str, RelationSpec] = MappingProxyType(
            {r.name: r for r in self.relations})
        known = set(names)
        for p in self.predicates:
            if p.left not in known or p.right not in known:
                raise QueryError(
                    f"predicate {p.label!r} references unknown relation"
                )
            if p.left == p.right:
                raise QueryError(f"predicate {p.label!r} is a self-join loop")
        if required_order is not None:
            labels = {p.label for p in self.predicates} | {
                p.order_label for p in self.predicates
            }
            if required_order not in labels:
                raise QueryError(
                    f"required_order {required_order!r} is not a predicate "
                    "label or order equivalence class"
                )
        self._sealed = True

    def __setattr__(self, name: str, value) -> None:
        if "_sealed" in self.__dict__:
            raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")
        super().__setattr__(name, value)

    def __getstate__(self) -> dict:
        # A mappingproxy neither pickles nor deep-copies: every mapping a
        # query keeps is one, so it travels as a dict and is wrapped again.
        return {k: dict(v) if isinstance(v, MappingProxyType) else v
                for k, v in self.__dict__.items()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update({k: MappingProxyType(v) if isinstance(v, dict) else v
                              for k, v in state.items()})

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def n_relations(self) -> int:
        """Number of input relations."""
        return len(self.relations)

    def relation(self, name: str) -> RelationSpec:
        """Relation spec by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise QueryError(f"no relation {name!r} in query") from None

    def relation_names(self) -> List[str]:
        """Relation names in declaration order."""
        return [r.name for r in self.relations]

    def rows_of(self, name: str) -> float:
        """Point row-count estimate of a relation (after local filter)."""
        spec = self.relation(name)
        base = spec.rows if spec.rows is not None else spec.pages * self.rows_per_page
        return base * spec.filter_selectivity

    def pages_of(self, name: str) -> float:
        """Point page-count estimate of a relation (after local filter)."""
        spec = self.relation(name)
        return max(1.0, spec.pages * spec.filter_selectivity) if spec.pages else 0.0

    def predicates_within(self, rels: FrozenSet[str]) -> List[JoinPredicate]:
        """All predicates whose endpoints both lie in ``rels``."""
        return [p for p in self.predicates if p.touches(rels)]

    def predicates_between(
        self, group: FrozenSet[str], newcomer: str
    ) -> List[JoinPredicate]:
        """Predicates linking ``newcomer`` to any relation in ``group``."""
        return [
            p
            for p in self.predicates
            if (p.left == newcomer and p.right in group)
            or (p.right == newcomer and p.left in group)
        ]

    def join_graph(
        self, names: Optional[Iterable[str]] = None
    ) -> Tuple[List[str], List[int], List[Tuple[int, str, str]]]:
        """Integer view of the join graph restricted to ``names``.

        Relations are numbered in **sorted-name order** (bit ``i`` is the
        ``i``-th smallest name), so a relation set is an ``int`` mask and
        ascending mask order never depends on declaration or hash order.
        Returns ``(order, adjacency, predicates)``: the names by bit,
        each relation's neighbour mask, and — in declaration order — an
        ``(endpoint mask, label, order_label)`` triple per predicate with
        both endpoints inside ``names``.
        """
        order = sorted(self._by_name if names is None else names)
        bit = {name: 1 << i for i, name in enumerate(order)}
        adjacency = [0] * len(order)
        predicates = []
        for p in self.predicates:
            left, right = bit.get(p.left), bit.get(p.right)
            if left and right:
                adjacency[left.bit_length() - 1] |= right
                adjacency[right.bit_length() - 1] |= left
                predicates.append((left | right, p.label, p.order_label))
        return order, adjacency, predicates

    def is_connected(self, rels: Optional[FrozenSet[str]] = None) -> bool:
        """True when the join graph restricted to ``rels`` is connected."""
        _, adjacency, _ = self.join_graph(rels)
        if not adjacency:
            return True
        reached, frontier = 1, 1
        while frontier:
            low = frontier & -frontier
            reached |= low
            frontier = (frontier | adjacency[low.bit_length() - 1]) & ~reached
        return reached == (1 << len(adjacency)) - 1

    @cached_property  # two threads filling it race benignly: equal values
    def fingerprint(self) -> HashedTuple:
        """See :func:`repro.core.context.query_fingerprint`."""
        return HashedTuple(self._fingerprint_parts())

    def _fingerprint_parts(self) -> Tuple:
        relations = tuple(
            (r.name, float(r.pages), None if r.rows is None else float(r.rows),
             r.pages_dist, float(r.filter_selectivity), r.index)
            for r in self.relations
        )
        predicates = tuple(
            (p.left, p.right, float(p.selectivity), p.label, p.selectivity_dist,
             None if p.result_pages_override is None
             else float(p.result_pages_override), p.equiv_class)
            for p in self.predicates
        )
        return (relations, predicates, self.required_order, self.rows_per_page,
                self.projection_ratio)

    def has_uncertain_sizes(self) -> bool:
        """True when any relation size or selectivity is distributional."""
        if any(r.pages_dist is not None for r in self.relations):
            return True
        return any(p.selectivity_dist is not None for p in self.predicates)

    # ------------------------------------------------------------------
    # Construction from the catalog substrate
    # ------------------------------------------------------------------

    @classmethod
    def from_catalog(
        cls,
        stats: StatisticsCatalog,
        tables: Sequence[str],
        join_columns: Mapping[Tuple[str, str], Tuple[str, str]],
        required_order: Optional[str] = None,
        rows_per_page: Optional[int] = None,
    ) -> "JoinQuery":
        """Build a query from catalog statistics.

        ``join_columns`` maps a pair of table names to the pair of column
        names they equijoin on; selectivities come from the classical
        ``1/max(V)`` rule using the catalog's distinct counts.
        """
        relations = []
        rpp = rows_per_page
        for t in tables:
            ts = stats.table_stats(t)
            relations.append(
                RelationSpec(
                    name=t,
                    pages=float(ts.n_pages),
                    rows=float(ts.n_rows),
                    pages_dist=ts.size_distribution,
                )
            )
            if rpp is None and ts.n_pages:
                rpp = max(1, round(ts.n_rows / ts.n_pages))
        predicates = []
        for (ta, tb), (ca, cb) in join_columns.items():
            sel = stats.join_selectivity(ta, tb, ca, cb)
            predicates.append(
                JoinPredicate(
                    left=ta,
                    right=tb,
                    selectivity=sel,
                    label=f"{ta}.{ca}={tb}.{cb}",
                )
            )
        return cls(
            relations,
            predicates,
            required_order=required_order,
            rows_per_page=rpp or 100,
        )

    def __repr__(self) -> str:
        rels = ", ".join(f"{r.name}({r.pages:g}p)" for r in self.relations)
        return f"JoinQuery([{rels}], {len(self.predicates)} predicates)"
