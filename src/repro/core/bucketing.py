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
  breakpoints of the joins the optimizer will consider, a memory on a
  breakpoint a cell of its own (:func:`level_set_cuts`);
* :func:`refine_adaptive` — the coarse-to-fine scheme the paper sketches:
  start with one bucket and repeatedly split the bucket contributing the
  most cost *uncertainty* for a reference set of candidate plans.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .distributions import DiscreteDistribution

__all__ = [
    "equal_width_buckets",
    "equal_depth_buckets",
    "level_set_buckets",
    "level_set_cuts",
    "refine_adaptive",
    "level_set_expectation",
]


def equal_width_buckets(dist: DiscreteDistribution, b: int) -> DiscreteDistribution:
    """Coarsen to ``b`` buckets of equal value-range width."""
    return dist.rebucket(b, strategy="equiwidth")


def equal_depth_buckets(dist: DiscreteDistribution, b: int) -> DiscreteDistribution:
    """Coarsen to ``b`` buckets of (approximately) equal probability mass."""
    return dist.rebucket(b, strategy="equidepth")


def level_set_cuts(breakpoints: Iterable[float]) -> List[float]:
    """Each breakpoint ``e`` and the next float above it, ascending: half-open
    cells ``[cut, next cut)`` make ``{e}`` a cell of its own, since a formula
    may switch on ``M > e`` (sort-merge) or on ``M >= e`` (NL, Grace hash)."""
    edges = {float(e) for e in breakpoints}
    return sorted(edges | {math.nextafter(e, math.inf) for e in edges})


def level_set_buckets(
    dist: DiscreteDistribution,
    breakpoints: Iterable[float],
    max_buckets: Optional[int] = None,
) -> DiscreteDistribution:
    """Coarsen ``dist`` using cost-formula breakpoints as bucket edges.

    All probability mass in one cell of :func:`level_set_cuts` collapses
    to one representative — within such a cell every considered cost
    formula is constant, so *no information relevant to plan choice is
    lost* (a support point on a breakpoint keeps its own).  ``max_buckets``
    optionally applies a final equi-depth merge when the breakpoint set is
    large.
    """
    out = dist.rebucket_by_edges(level_set_cuts(breakpoints))
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
    of ``cost_fn`` within the support (the formulas' ``*_breakpoints``, or
    ``repro.optimizer.memory_breakpoints`` for a whole query).  The cells
    are those of :func:`level_set_cuts`, so a support point on a
    breakpoint is evaluated on its own.
    """
    edges = [-np.inf, *level_set_cuts(breakpoints), np.inf]
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
