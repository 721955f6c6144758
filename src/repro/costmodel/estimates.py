"""Result-size estimation for plan nodes and relation subsets.

Under the textbook independence assumptions, the size of a join result
depends only on the *set* of relations joined (and the predicates applied
between them), not on the join order or methods — this is observation 3
behind the System-R dynamic program.  We therefore estimate sizes per
relation subset and look plan-node sizes up via ``node.relations()``.

Two views are provided, mirroring LSC vs. LEC inputs:

* :func:`subset_size` — point estimate ``(rows, pages)``;
* :func:`subset_size_distribution` — a
  :class:`~repro.core.distributions.DiscreteDistribution` over pages,
  propagated through the classic ``|A ⋈ B| = |A|·|B|·σ`` identity with
  independent inputs and rebucketing (Section 3.6.3).

Every product over a relation set multiplies in sorted-name order: a
``frozenset`` iterates in an order that follows ``PYTHONHASHSEED``, and
a float product moves by an ulp with the order of its factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from typing import Tuple

from ..core.distributions import (
    DiscreteDistribution,
    point_mass,
)
from ..plans.nodes import Plan, PlanNode, Project
from ..plans.nodes import Union as UnionNode
from ..plans.query import JoinQuery
from ..plans.spju import UnionQuery

__all__ = [
    "SizeEstimate",
    "subset_size",
    "subset_size_bounds",
    "subset_size_distribution",
    "project_pages",
    "annotate_sizes",
    "node_size",
]

#: Relative slack when clamping a propagated distribution to its analytic
#: bounds: the bounds multiply the same factors in a different order than
#: the fold, so exact comparison would clip float-rounding ghosts.
_BOUND_SLACK = 1e-9


class _PlainDistributionOps:
    """Uncached distribution operations (the default ``ops`` provider).

    :class:`~repro.core.context.OptimizationContext` implements the same
    three methods with value-hash memoization; passing a context as
    ``ops`` makes size propagation share work across subsets and calls.
    """

    @staticmethod
    def product(a: DiscreteDistribution, b: DiscreteDistribution) -> DiscreteDistribution:
        return a.multiply(b)

    @staticmethod
    def rebucket(
        dist: DiscreteDistribution, n_buckets: int, strategy: str = "equidepth"
    ) -> DiscreteDistribution:
        return dist.rebucket(n_buckets, strategy=strategy)


_PLAIN_OPS = _PlainDistributionOps()


@dataclass(frozen=True)
class SizeEstimate:
    """Point estimate of an intermediate result's size."""

    rows: float
    pages: float


def subset_size(rels: FrozenSet[str], query: JoinQuery) -> SizeEstimate:
    """Point size estimate for the join over ``rels``.

    Rows multiply; every predicate internal to the subset contributes its
    selectivity once.  A two-relation subset whose (single) predicate
    carries ``result_pages_override`` uses the override verbatim — this is
    how scenario reconstructions pin known result sizes.
    """
    rels = frozenset(rels)
    if not rels:
        raise ValueError("subset must be non-empty")
    rows = 1.0
    for name in sorted(rels):
        rows *= query.rows_of(name)
    preds = query.predicates_within(rels)
    if len(rels) == 2 and len(preds) == 1 and preds[0].result_pages_override is not None:
        pages = float(preds[0].result_pages_override)
        return SizeEstimate(rows=pages * query.rows_per_page, pages=pages)
    for p in preds:
        rows *= p.selectivity
    if len(rels) == 1:
        name = next(iter(rels))
        return SizeEstimate(rows=rows, pages=query.pages_of(name))
    pages = max(1.0, rows / query.rows_per_page)
    return SizeEstimate(rows=rows, pages=pages)


def project_pages(pages: float, ratio: float) -> float:
    """Pages of a projected result: width shrinks, rows don't."""
    return max(1.0, pages * ratio)


def subset_size_bounds(
    rels: FrozenSet[str], query: JoinQuery
) -> Tuple[float, float]:
    """Analytic ``(lo, hi)`` page bounds for the join over ``rels``.

    The Chen & Schneider-style bound for SPJ(U) intermediates: with every
    uncertain factor (relation sizes, selectivities) confined to its
    support range, the result's pages lie within the product of the
    factor extremes.  Two uses downstream:

    * **clamping** C6-rebucketed size distributions (rebucketing is
      mean-preserving but can, in principle, smear mass outside the
      attainable range — the clip keeps arm/union distributions sound);
    * **pruning** the enlarged (bushy) DP: every join method reads both
      inputs at least once, so ``lo(L) + lo(R)`` lower-bounds any join
      step over the partition ``(L, R)``.
    """
    rels = frozenset(rels)
    if not rels:
        raise ValueError("subset must be non-empty")
    if len(rels) == 1:
        spec = query.relation(next(iter(rels)))
        dist = spec.pages_distribution()
        lo, hi = dist.min(), dist.max()
        if spec.filter_selectivity < 1.0:
            lo *= spec.filter_selectivity
            hi *= spec.filter_selectivity
        return max(1.0, lo), max(1.0, hi)
    preds = query.predicates_within(rels)
    if len(rels) == 2 and len(preds) == 1 and preds[0].result_pages_override is not None:
        pages = float(preds[0].result_pages_override)
        return pages, pages
    lo = hi = float(query.rows_per_page) ** (len(rels) - 1)
    for name in sorted(rels):
        dist = query.relation(name).pages_distribution()
        lo *= dist.min()
        hi *= dist.max()
    for p in preds:
        dist = p.selectivity_distribution()
        lo *= dist.min()
        hi *= dist.max()
    for name in sorted(rels):
        fsel = query.relation(name).filter_selectivity
        if fsel < 1.0:
            lo *= fsel
            hi *= fsel
    return max(1.0, lo), max(1.0, hi)


def subset_size_distribution(
    rels: FrozenSet[str],
    query: JoinQuery,
    max_buckets: int = 16,
    ops=None,
) -> DiscreteDistribution:
    """Distribution over the page count of the join over ``rels``.

    Relation sizes and predicate selectivities are treated as mutually
    independent (the paper's default assumption); the exact product
    distribution is formed and then rebucketed to at most ``max_buckets``
    support points, preserving the mean.

    ``ops`` supplies the distribution product/rebucket primitives; pass
    an :class:`~repro.core.context.OptimizationContext` to memoize the
    intermediate folds across subsets and optimizer invocations.
    """
    if ops is None:
        ops = _PLAIN_OPS
    rels = frozenset(rels)
    if not rels:
        raise ValueError("subset must be non-empty")
    if len(rels) == 1:
        name = next(iter(rels))
        spec = query.relation(name)
        dist = spec.pages_distribution()
        if spec.filter_selectivity < 1.0:
            dist = dist.scale(spec.filter_selectivity).clip(lo=1.0)
        return ops.rebucket(dist, max_buckets)

    preds = query.predicates_within(rels)
    if len(rels) == 2 and len(preds) == 1 and preds[0].result_pages_override is not None:
        return point_mass(float(preds[0].result_pages_override))

    # pages(S) = Π pages_i · rpp^(k-1) · Π σ_p   (rows = pages·rpp each).
    factors = [query.relation(name).pages_distribution() for name in sorted(rels)]
    factors += [p.selectivity_distribution() for p in preds]
    rpp_power = float(query.rows_per_page) ** (len(rels) - 1)

    # Fold pairwise with intermediate rebucketing to keep the support small.
    acc = factors[0]
    for nxt in factors[1:]:
        acc = ops.rebucket(ops.product(acc, nxt), max_buckets)
    acc = acc.scale(rpp_power)
    # Account for local filters on the member relations.
    for name in sorted(rels):
        fsel = query.relation(name).filter_selectivity
        if fsel < 1.0:
            acc = acc.scale(fsel)
    # Clamp to the analytic Chen & Schneider bounds: intermediate
    # rebucketing must not leave the attainable range (with float slack,
    # so an in-range support is passed through bit-identically).
    lo_b, hi_b = subset_size_bounds(rels, query)
    acc = acc.clip(lo=lo_b * (1.0 - _BOUND_SLACK), hi=hi_b * (1.0 + _BOUND_SLACK))
    return ops.rebucket(acc.clip(lo=1.0), max_buckets)


def _projection_ratio_for(node: Project, query: JoinQuery) -> float:
    """The projection ratio governing ``node``'s output width."""
    if isinstance(query, UnionQuery):
        return query.projection_ratio_of(node.relations())
    return getattr(query, "projection_ratio", 1.0)


def node_size(node: PlanNode, query: JoinQuery) -> SizeEstimate:
    """Point size estimate of a plan node's output.

    ``Project`` keeps the child's rows but narrows pages by the owning
    block's projection ratio; ``Union`` sums its arms (an upper bound
    under DISTINCT, exact under ALL); everything else is the classic
    subset estimate.
    """
    if isinstance(node, Project):
        child = node_size(node.child, query)
        ratio = _projection_ratio_for(node, query)
        return SizeEstimate(
            rows=child.rows, pages=project_pages(child.pages, ratio)
        )
    if isinstance(node, UnionNode):
        sizes = [node_size(child, query) for child in node.inputs]
        return SizeEstimate(
            rows=sum(s.rows for s in sizes),
            pages=sum(s.pages for s in sizes),
        )
    return subset_size(node.relations(), query)


def annotate_sizes(plan: Plan, query: JoinQuery) -> Dict[PlanNode, SizeEstimate]:
    """Size estimates for every node of ``plan`` (keyed by node value)."""
    return {node: node_size(node, query) for node in plan.nodes()}
