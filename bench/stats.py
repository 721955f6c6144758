"""Small pure estimators: percentiles, median-of-segments, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

__all__ = [
    "percentile", "supported_percentile", "spread",
    "segment_summary",
]


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int, candidates: Sequence[float] = (50, 90, 99)) -> float:
    """The highest candidate percentile with >= 10 samples beyond it.

    A percentile is only as good as the tail it is read from: p90 of 100
    samples has 10 above it, p99 needs 1000.  With fewer than 20 samples
    not even the median qualifies and 0 is returned.
    """
    ok = [p for p in candidates if n * (100.0 - p) / 100.0 >= 10.0]
    return max(ok) if ok else 0.0


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median``; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def segment_summary(values: Sequence[float]) -> Dict[str, object]:
    """What the result file keeps for one per-segment metric: the median
    segment is the reported value, all of them and their spread ride along."""
    vals: List[float] = [float(v) for v in values]
    return {"value": statistics.median(vals), "segments": vals,
            "spread": spread(vals)}
