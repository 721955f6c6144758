"""Lightweight, thread-safe serving metrics: counters and latency histograms.

The serving layer needs just enough observability to answer the
questions its design raises — is the plan cache earning its keep (hit
rate), how often does the degradation ladder fire (fallback counts per
rung), and what does optimization latency look like under load (p50/p95)
— without dragging in an external metrics dependency.  A
:class:`MetricsRegistry` hands out named :class:`Counter` and
:class:`LatencyHistogram` instances on demand; :meth:`MetricsRegistry.
snapshot` returns one plain nested dict suitable for logging, asserting
in tests, or shipping to a real metrics pipeline.

Everything here is safe to call from many threads: each instrument
carries its own lock, and creation in the registry is guarded too, so
two threads asking for the same name get the same object.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = ["Counter", "LatencyHistogram", "MetricsRegistry", "quantiles"]

#: Observations a :class:`LatencyHistogram` keeps for its quantiles.
WINDOW = 2048


def quantiles(ordered: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 of ``ordered`` (sorted, non-empty)."""
    n = len(ordered)
    return {f"p{p}": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
            for p in (50, 95, 99)}


class Counter:
    """A monotonically increasing, thread-safe event counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self) -> None:
        """Add 1 to the counter."""
        with self._lock:
            self._value += 1

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value


class LatencyHistogram:
    """Reservoir of recent observations with quantile reporting.

    Keeps exact running ``count``/``sum``/``min``/``max`` plus a bounded
    sample window (the most recent :data:`WINDOW` observations) from
    which quantiles are computed.  For serving workloads the recent
    window is exactly what p50/p95 dashboards want; the bound keeps a
    long-lived service from accumulating unbounded state.
    """

    __slots__ = ("_samples", "_head", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self) -> None:
        self._samples: List[float] = [0.0] * WINDOW
        self._head = 0  # next write position in the ring
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Record one observation (e.g. a latency in seconds)."""
        value = float(value)
        with self._lock:
            self._samples[self._head] = value
            self._head = (self._head + 1) % len(self._samples)
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def snapshot(self) -> Dict[str, float]:
        """Summary dict: count, mean, min/max, p50/p95/p99 over the window."""
        with self._lock:
            window = sorted(self._samples[:self._count])
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        if not window:
            return {"count": 0}
        return {"count": count, "mean": total / count, "min": lo, "max": hi,
                **quantiles(window)}


class MetricsRegistry:
    """Named counters and histograms with a single snapshot view.

    Instruments are created lazily on first use — ``registry.counter
    ("plan_cache.hits").increment()`` — and the same name always maps to
    the same instrument, so the cache and the service can share one
    registry without coordination.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created if missing)."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter()
            return inst

    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram registered under ``name`` (created if missing)."""
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = LatencyHistogram()
            return inst

    def snapshot(self, extra_counters: Optional[Dict[str, int]] = None) -> Dict[str, Dict]:
        """One nested dict of every instrument's current state.

        ``{"counters": {name: int}, "histograms": {name: {...}},
        "derived": {...}}`` — ``extra_counters`` (counts kept elsewhere,
        such as a plan tier's) join the counters; ``derived`` holds ratios
        that only make sense across counters (currently the plan-cache
        hit rate, when both cache counters exist).
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        values = {name: c.value for name, c in counters.items()}
        values.update(extra_counters or {})
        out: Dict[str, Dict] = {
            "counters": dict(sorted(values.items())),
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
            "derived": {},
        }
        hits = out["counters"].get("plan_cache.hits")
        misses = out["counters"].get("plan_cache.misses")
        if hits is not None and misses is not None and hits + misses > 0:
            out["derived"]["plan_cache.hit_rate"] = hits / (hits + misses)
        return out
