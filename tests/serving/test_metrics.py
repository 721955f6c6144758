"""Tests for the serving metrics instruments."""

from __future__ import annotations

import threading

import pytest

import repro.serving.metrics as metrics
from repro.serving.metrics import Counter, LatencyHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.increment()
        c.increment()
        assert c.value == 2

    def test_concurrent_increments_all_land(self):
        c = Counter()

        def bump():
            for _ in range(1000):
                c.increment()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        h = LatencyHistogram()
        assert h.snapshot() == {"count": 0}

    def test_percentiles_nearest_rank(self):
        h = LatencyHistogram()
        for v in range(1, 101):  # 1..100
            h.record(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(50.5)
        assert (snap["p50"], snap["p95"], snap["p99"]) == (50.0, 95.0, 99.0)

    def test_window_bound_keeps_exact_totals(self, monkeypatch):
        monkeypatch.setattr(metrics, "WINDOW", 4)
        h = LatencyHistogram()
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 5  # totals are exact
        assert snap["max"] == 100.0
        # quantiles come from the recent window (ring overwrote 1.0)
        assert snap["p95"] == 100.0


class TestMetricsRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.counter("a") is not reg.counter("b")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.counter("x").increment()
        reg.histogram("lat").record(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 3}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["derived"] == {}

    def test_derived_cache_hit_rate(self):
        reg = MetricsRegistry()
        for name in ("plan_cache.hits",) * 3 + ("plan_cache.misses",):
            reg.counter(name).increment()
        snap = reg.snapshot()
        assert snap["derived"]["plan_cache.hit_rate"] == pytest.approx(0.75)

    def test_concurrent_registration(self):
        reg = MetricsRegistry()
        seen = []

        def use():
            for i in range(200):
                reg.counter(f"c{i % 10}").increment()
            seen.append(reg.counter("c0"))

        threads = [threading.Thread(target=use) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)
        total = sum(reg.snapshot()["counters"].values())
        assert total == 6 * 200
