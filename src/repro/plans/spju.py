"""SPJU query blocks: a union of SELECT-PROJECT-JOIN arms.

A :class:`UnionQuery` extends the optimizer's input language from SPJ to
SPJU: each *arm* is an ordinary :class:`~repro.plans.query.JoinQuery`
(its own relations, predicates and projection), and the block's result is
the (ALL or DISTINCT) union of the arms' results.

Arms are optimized independently — predicates never cross arms, so the
System-R dynamic program runs once per arm over that arm's relations —
and the chosen arm plans are combined under a single
:class:`~repro.plans.nodes.Union` root.  Arm result-size distributions
are propagated exactly as for SPJ blocks and additionally clamped to the
Chen & Schneider-style analytic bounds (see
:func:`repro.costmodel.estimates.subset_size_bounds`), which keeps the
C6-rebucketed per-arm distributions — and their convolution, the union's
size — inside provably attainable ranges.

:class:`UnionQuery` subclasses :class:`JoinQuery` over the *combined*
namespace (all arm relations and predicates), so every size/statistics
accessor (``rows_of``, ``predicates_within``, fingerprinting, contexts)
works unchanged; only plan enumeration treats it specially.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Sequence, Tuple

from .query import JoinQuery, QueryError

__all__ = ["UnionQuery"]


class UnionQuery(JoinQuery):
    """A union (ALL or DISTINCT) over independent SPJ arms.

    Parameters
    ----------
    arms:
        The SPJ blocks being unioned.  Relation names must be globally
        unique across arms (alias duplicated tables), all arms must share
        ``rows_per_page``, and arms may not carry a ``required_order`` —
        a union interleaves arms, so per-arm orders cannot survive.
    distinct:
        ``False`` (UNION ALL) streams the arms; ``True`` de-duplicates,
        which costs per-arm materialisation plus an external sort.
    """

    def __init__(self, arms: Sequence[JoinQuery], distinct: bool = False):
        arms = tuple(arms)
        if len(arms) < 2:
            raise QueryError("a union query needs at least two arms")
        for arm in arms:
            if isinstance(arm, UnionQuery):
                raise QueryError("union arms cannot themselves be unions")
            if not isinstance(arm, JoinQuery):
                raise QueryError(
                    f"union arms must be JoinQuery, got {type(arm).__name__}"
                )
            if arm.required_order is not None:
                raise QueryError(
                    "union arms cannot carry required_order; a union "
                    "interleaves its arms and guarantees no order"
                )
        rpp = arms[0].rows_per_page
        if any(a.rows_per_page != rpp for a in arms):
            raise QueryError("all union arms must share rows_per_page")
        self.arms: Tuple[JoinQuery, ...] = arms
        self.distinct = bool(distinct)
        self._arm_index = MappingProxyType({
            r.name: i for i, a in enumerate(arms) for r in a.relations
        })
        relations = [r for a in arms for r in a.relations]
        predicates = [p for a in arms for p in a.predicates]
        # The parent validates global name uniqueness and predicate
        # sanity, and seals the query: every field is set before it.
        super().__init__(
            relations, predicates, required_order=None, rows_per_page=rpp
        )

    # ------------------------------------------------------------------

    def arm_of(self, rels) -> JoinQuery:
        """The arm owning every relation in ``rels``.

        Raises :class:`QueryError` when ``rels`` spans arms — no join or
        size estimate is defined across arm boundaries.
        """
        idx = {self._arm_index[n] for n in rels}
        if len(idx) != 1:
            raise QueryError(
                f"relations {sorted(rels)} span multiple union arms"
            )
        return self.arms[next(iter(idx))]

    def _fingerprint_parts(self) -> Tuple:
        # The arm structure changes plan shapes, so it is a statistic too.
        arms = tuple(
            (tuple(r.name for r in arm.relations), arm.projection_ratio)
            for arm in self.arms
        )
        return super()._fingerprint_parts() + ("union", arms, self.distinct)

    def projection_ratio_of(self, rels) -> float:
        """The owning arm's projection ratio (for sizing arm outputs)."""
        return self.arm_of(rels).projection_ratio

    def __repr__(self) -> str:
        kind = "DISTINCT" if self.distinct else "ALL"
        return f"UnionQuery({len(self.arms)} arms, {kind})"
