"""Histograms over column values, used for selectivity estimation.

The paper's category-2 parameters ("properties of the query components",
selectivities and result sizes) are classically estimated from histograms
[PHS96].  We implement the two standard one-dimensional kinds:

* :class:`EquiWidthHistogram` — fixed-width value buckets;
* :class:`EquiDepthHistogram` — buckets holding (approximately) equal row
  counts.

Both support range/equality selectivity estimation with the usual
uniform-within-bucket assumption, and both can be *blurred* into a
:class:`~repro.core.distributions.DiscreteDistribution` over selectivity —
the bridge from classical point-estimate statistics to the LEC optimizer's
distributional inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.distributions import DiscreteDistribution

__all__ = [
    "Histogram",
    "EquiWidthHistogram",
    "EquiDepthHistogram",
    "join_selectivity_from_histograms",
]


@dataclass(frozen=True)
class _Bucket:
    lo: float
    hi: float  # inclusive upper edge for the last bucket, exclusive otherwise
    count: int
    n_distinct: int


class Histogram:
    """Base class: a sequence of value buckets with counts.

    Subclasses differ only in how bucket boundaries are chosen from the
    data; estimation logic is shared.
    """

    def __init__(self, buckets: Sequence[_Bucket], total_rows: int):
        if total_rows < 0:
            raise ValueError("total_rows must be >= 0")
        self._buckets = list(buckets)
        self._total = total_rows

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _bucketize(values: np.ndarray, edges: np.ndarray) -> List[_Bucket]:
        buckets: List[_Bucket] = []
        for i in range(len(edges) - 1):
            lo, hi = float(edges[i]), float(edges[i + 1])
            last = i == len(edges) - 2
            if last:
                mask = (values >= lo) & (values <= hi)
            else:
                mask = (values >= lo) & (values < hi)
            chunk = values[mask]
            buckets.append(
                _Bucket(
                    lo=lo,
                    hi=hi,
                    count=int(chunk.size),
                    n_distinct=int(np.unique(chunk).size) if chunk.size else 0,
                )
            )
        return buckets

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_buckets(self) -> int:
        """Number of value buckets."""
        return len(self._buckets)

    @property
    def total_rows(self) -> int:
        """Total row count the histogram was built over."""
        return self._total

    def buckets(self) -> List[Tuple[float, float, int]]:
        """Return ``(lo, hi, count)`` triples for inspection."""
        return [(b.lo, b.hi, b.count) for b in self._buckets]

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------

    def selectivity_eq(self, value: float) -> float:
        """Estimated selectivity of ``col = value``.

        Uniform-within-bucket: the bucket's frequency divided by its
        distinct-value count.
        """
        if self._total == 0:
            return 0.0
        for b in self._buckets:
            inside = (b.lo <= value < b.hi) or (
                b is self._buckets[-1] and value == b.hi
            )
            if inside:
                if b.count == 0 or b.n_distinct == 0:
                    return 0.0
                return (b.count / b.n_distinct) / self._total
        return 0.0

    def selectivity_range(
        self, lo: Optional[float] = None, hi: Optional[float] = None
    ) -> float:
        """Estimated selectivity of ``lo <= col < hi`` (either side open)."""
        if self._total == 0:
            return 0.0
        lo_v = -math.inf if lo is None else lo
        hi_v = math.inf if hi is None else hi
        if hi_v <= lo_v:
            return 0.0
        covered = 0.0
        for b in self._buckets:
            width = b.hi - b.lo
            if width <= 0:
                frac = 1.0 if lo_v <= b.lo < hi_v else 0.0
            else:
                overlap = max(0.0, min(hi_v, b.hi) - max(lo_v, b.lo))
                frac = overlap / width
            covered += frac * b.count
        return min(1.0, covered / self._total)

    def n_distinct(self) -> int:
        """Total distinct-value estimate (sum of per-bucket counts)."""
        return sum(b.n_distinct for b in self._buckets)

    # ------------------------------------------------------------------
    # Bridging to the LEC optimizer
    # ------------------------------------------------------------------

    def selectivity_distribution(
        self,
        kind: str,
        value: Optional[float] = None,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        relative_error: float = 0.5,
        n_buckets: int = 5,
    ) -> DiscreteDistribution:
        """A *distribution* over the selectivity instead of a point estimate.

        The histogram's point estimate becomes the centre of a discrete
        distribution whose spread models estimation error: support points
        are log-spaced within ``×/÷ (1 + relative_error)`` of the
        estimate, uniformly weighted.  This is how the experiments turn a
        classical catalog into LEC-ready inputs when no better error model
        is available.
        """
        if kind == "eq":
            if value is None:
                raise ValueError("kind='eq' requires value")
            est = self.selectivity_eq(value)
        elif kind == "range":
            est = self.selectivity_range(lo, hi)
        else:
            raise ValueError(f"unknown predicate kind {kind!r}")
        est = max(est, 1e-12)
        if relative_error <= 0 or n_buckets <= 1:
            return DiscreteDistribution([min(est, 1.0)], [1.0])
        factor = 1.0 + relative_error
        exps = np.linspace(-1.0, 1.0, n_buckets)
        vals = np.clip(est * factor**exps, 0.0, 1.0)
        return DiscreteDistribution(vals, np.full(n_buckets, 1.0 / n_buckets))


class EquiWidthHistogram(Histogram):
    """Histogram with equal-width value buckets."""

    @classmethod
    def build(cls, values: Iterable[float], n_buckets: int = 10) -> "EquiWidthHistogram":
        """Construct from raw column values."""
        arr = np.asarray(list(values), dtype=float)
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if arr.size == 0:
            return cls([], 0)
        lo, hi = float(arr.min()), float(arr.max())
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, n_buckets + 1)
        return cls(cls._bucketize(arr, edges), int(arr.size))


class EquiDepthHistogram(Histogram):
    """Histogram whose buckets hold (approximately) equal row counts."""

    @classmethod
    def build(cls, values: Iterable[float], n_buckets: int = 10) -> "EquiDepthHistogram":
        """Construct from raw column values."""
        arr = np.asarray(list(values), dtype=float)
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if arr.size == 0:
            return cls([], 0)
        qs = np.linspace(0.0, 1.0, n_buckets + 1)
        edges = np.quantile(arr, qs)
        # Collapse duplicate edges (heavy hitters) while keeping coverage.
        uniq = np.unique(edges)
        if uniq.size < 2:
            uniq = np.array([uniq[0], uniq[0] + 1.0])
        return cls(cls._bucketize(arr, uniq), int(arr.size))


def join_selectivity_from_histograms(
    left: Histogram, right: Histogram
) -> float:
    """Equijoin selectivity estimated from two column histograms.

    The classical bucket-overlap method: for every pair of overlapping
    buckets, rows and distinct values are assumed uniform within each
    bucket; the overlap's matching-tuple count is
    ``rows_l · rows_r / max(d_l, d_r)`` (containment assumption), and the
    selectivity is total matches over the cross-product size.  Strictly
    more informed than the ``1/max(V)`` rule whenever the two columns'
    value ranges only partially align.
    """
    if left.total_rows == 0 or right.total_rows == 0:
        return 0.0
    matches = 0.0
    for lb in left._buckets:
        l_width = max(lb.hi - lb.lo, 0.0)
        for rb in right._buckets:
            lo = max(lb.lo, rb.lo)
            hi = min(lb.hi, rb.hi)
            if hi < lo:
                continue
            if hi == lo and not (
                (lb is left._buckets[-1] or lo < lb.hi)
                and (rb is right._buckets[-1] or lo < rb.hi)
            ):
                continue
            overlap = hi - lo
            l_frac = overlap / l_width if l_width > 0 else 1.0
            r_width = max(rb.hi - rb.lo, 0.0)
            r_frac = overlap / r_width if r_width > 0 else 1.0
            l_rows = lb.count * min(1.0, l_frac)
            r_rows = rb.count * min(1.0, r_frac)
            l_distinct = max(1.0, lb.n_distinct * min(1.0, l_frac))
            r_distinct = max(1.0, rb.n_distinct * min(1.0, r_frac))
            matches += l_rows * r_rows / max(l_distinct, r_distinct)
    denom = float(left.total_rows) * float(right.total_rows)
    return float(min(1.0, matches / denom))
