"""Bucketing strategies for partitioning the parameter space (Section 3.7).

The cost of every LEC algorithm scales with the number of buckets ``b``,
so how the parameter distribution is partitioned is the central tuning
knob.  The paper's key insight is that join cost formulas have very few
*level sets* in memory (sort-merge: 3, nested loop: 2), so buckets aligned
with the formulas' breakpoints capture the full distribution's effect with
a handful of representatives, whereas naive partitions need many buckets
to stumble onto the discontinuities.

Strategies provided, each mapping a fine-grained "true" distribution to a
coarse ``b``-bucket one:

* :func:`equal_width_buckets` / :func:`equal_depth_buckets` — the naive
  partitions;
* :func:`level_set_buckets` — boundaries taken from the cost-formula
  breakpoints of the joins the optimizer will consider;
* :func:`refine_adaptive` — the coarse-to-fine scheme the paper sketches:
  start with one bucket and repeatedly split the bucket contributing the
  most cost *uncertainty* for a reference set of candidate plans.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..costmodel import formulas
from ..costmodel.estimates import subset_size
from ..plans.properties import JoinMethod
from ..plans.query import JoinQuery
from .distributions import DiscreteDistribution

__all__ = [
    "equal_width_buckets",
    "equal_depth_buckets",
    "level_set_buckets",
    "collect_memory_breakpoints",
    "refine_adaptive",
    "level_set_expectation",
]


def equal_width_buckets(dist: DiscreteDistribution, b: int) -> DiscreteDistribution:
    """Coarsen to ``b`` buckets of equal value-range width."""
    return dist.rebucket(b, strategy="equiwidth")


def equal_depth_buckets(dist: DiscreteDistribution, b: int) -> DiscreteDistribution:
    """Coarsen to ``b`` buckets of (approximately) equal probability mass."""
    return dist.rebucket(b, strategy="equidepth")


def collect_memory_breakpoints(
    query: JoinQuery,
    methods: Sequence[JoinMethod],
    include_sort: bool = True,
    allow_cross_products: bool = False,
) -> List[float]:
    """The memory thresholds at which a left-deep join step's cost jumps.

    Left-deep steps only (the optimizer cuts at its DP skeleton's splits,
    ``repro.optimizer.systemr.memory_edges``): every connected subset, every
    way of splitting off one relation, every join method, each formula's
    breakpoints at the estimated subset sizes.  For Example 1.1 this returns exactly
    ``{sqrt(400000), sqrt(1000000), ...}`` — the 633/1000-page boundaries
    of the motivating discussion.
    """
    import itertools

    names = query.relation_names()
    points: set = set()
    for size in range(2, len(names) + 1):
        for combo in itertools.combinations(names, size):
            subset = frozenset(combo)
            if not allow_cross_products and not query.is_connected(subset):
                continue
            for member in combo:
                rest = subset - {member}
                if not allow_cross_products and not query.is_connected(rest):
                    continue
                if not allow_cross_products and not query.predicates_between(
                    rest, member
                ):
                    continue
                lp = subset_size(rest, query).pages
                rp = subset_size(frozenset((member,)), query).pages
                for method in methods:
                    points.update(formulas.join_breakpoints(method, lp, rp))
    if include_sort and query.required_order is not None:
        full = frozenset(names)
        points.update(formulas.sort_breakpoints(subset_size(full, query).pages))
    return sorted(p for p in points if p > formulas.MIN_MEMORY_PAGES)


def level_set_buckets(
    dist: DiscreteDistribution,
    breakpoints: Iterable[float],
    max_buckets: Optional[int] = None,
) -> DiscreteDistribution:
    """Coarsen ``dist`` using cost-formula breakpoints as bucket edges.

    All probability mass between two consecutive breakpoints collapses to
    one representative — within such a cell every considered cost formula
    is constant, so *no information relevant to plan choice is lost*.
    ``max_buckets`` optionally applies a final equi-depth merge when the
    breakpoint set is large.
    """
    out = dist.rebucket_by_edges(list(breakpoints))
    if max_buckets is not None and out.n_buckets > max_buckets:
        out = out.rebucket(max_buckets, strategy="equidepth")
    return out


def refine_adaptive(
    dist: DiscreteDistribution,
    cost_fns: Sequence[Callable[[float], float]],
    b: int,
) -> DiscreteDistribution:
    """Coarse-to-fine bucketing guided by candidate-plan cost spread.

    Starts from a single bucket and repeatedly splits (at the probability
    median) the bucket with the largest ``mass × max-plan-cost-spread``,
    where the spread is measured by evaluating each candidate cost
    function at the bucket's endpoints and representative.  Buckets where
    every candidate's cost is flat are never split — the paper's "we do
    not always need an extremely accurate estimate" observation.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if not cost_fns:
        raise ValueError("need at least one candidate cost function")
    # Buckets as index ranges [lo, hi) over the fine distribution.
    vals = dist.values
    probs = dist.probs
    segments: List[tuple] = [(0, len(vals))]

    def spread(lo: int, hi: int) -> float:
        mass = float(probs[lo:hi].sum())
        if mass <= 0 or hi - lo <= 1:
            return 0.0
        test_points = {float(vals[lo]), float(vals[hi - 1])}
        mid = (lo + hi) // 2
        test_points.add(float(vals[mid]))
        worst = 0.0
        for fn in cost_fns:
            evals = [fn(p) for p in test_points]
            worst = max(worst, max(evals) - min(evals))
        return mass * worst

    while len(segments) < b:
        scored = [(spread(lo, hi), i) for i, (lo, hi) in enumerate(segments)]
        scored.sort(reverse=True)
        best_score, idx = scored[0]
        if best_score <= 0.0:
            break
        lo, hi = segments[idx]
        seg_probs = probs[lo:hi]
        cum = np.cumsum(seg_probs)
        half = cum[-1] / 2.0
        cut = lo + int(np.searchsorted(cum, half, side="left")) + 1
        cut = min(max(cut, lo + 1), hi - 1)
        segments[idx : idx + 1] = [(lo, cut), (cut, hi)]

    reps: List[float] = []
    masses: List[float] = []
    for lo, hi in sorted(segments):
        mass = float(probs[lo:hi].sum())
        if mass <= 0:
            continue
        reps.append(float(np.dot(vals[lo:hi], probs[lo:hi]) / mass))
        masses.append(mass)
    return DiscreteDistribution(reps, masses)


def level_set_expectation(
    cost_fn: Callable[[float], float],
    dist: DiscreteDistribution,
    breakpoints: Iterable[float],
) -> float:
    """``E[cost_fn(X)]`` with one evaluation per level set (Section 3.7).

    "In principle, we can compute E[Φ(P)] with ℓ evaluations of the cost
    function, ℓ multiplications, and ℓ−1 additions": when ``cost_fn`` is
    constant between consecutive breakpoints, evaluating one
    representative per occupied cell and weighting by the cell's
    probability mass gives the exact expectation — no matter how many
    support points the distribution has.

    Exactness requires the breakpoint list to cover every discontinuity
    of ``cost_fn`` within the support (use
    :func:`collect_memory_breakpoints` / the formulas' ``*_breakpoints``).
    """
    cuts = sorted(set(float(b) for b in breakpoints))
    edges = [-np.inf, *cuts, np.inf]
    total = 0.0
    values = dist.values
    probs = dist.probs
    for lo, hi in zip(edges[:-1], edges[1:]):
        # Support points in [lo, hi); the last cell is [lo, inf).
        mask = (values >= lo) & (values < hi)
        mass = float(probs[mask].sum())
        if mass <= 0.0:
            continue
        representative = float(values[mask][0])
        total += mass * cost_fn(representative)
    return total
