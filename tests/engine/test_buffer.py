"""Tests for the counting LRU buffer pool."""

from __future__ import annotations

import pytest

from repro.engine.buffer import BufferPool, IOCounters
from repro.engine.pages import PagedFile, Schema


@pytest.fixture
def pf() -> PagedFile:
    return PagedFile.from_rows(
        "t", Schema(("x",)), [(i,) for i in range(50)], rows_per_page=10
    )


class TestCounters:
    def test_snapshot_and_since(self):
        c = IOCounters(reads=5, writes=3)
        snap = c.snapshot()
        c.reads += 2
        delta = c.since(snap)
        assert delta.reads == 2 and delta.writes == 0
        assert c.total == 10


class TestReads:
    def test_miss_then_hit(self, pf):
        pool = BufferPool(4)
        pool.read(pf, 0)
        pool.read(pf, 0)
        assert pool.counters.reads == 1

    def test_lru_eviction(self, pf):
        pool = BufferPool(2)
        pool.read(pf, 0)
        pool.read(pf, 1)
        pool.read(pf, 2)  # evicts page 0
        pool.read(pf, 0)  # miss again
        assert pool.counters.reads == 4

    def test_touch_refreshes_recency(self, pf):
        pool = BufferPool(2)
        pool.read(pf, 0)
        pool.read(pf, 1)
        pool.read(pf, 0)  # page 0 now most recent
        pool.read(pf, 2)  # evicts page 1
        pool.read(pf, 0)  # still resident: hit
        assert pool.counters.reads == 3

    def test_returns_actual_page(self, pf):
        pool = BufferPool(2)
        page = pool.read(pf, 3)
        assert page.rows[0] == (30,)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestWrites:
    def test_write_counts(self, pf):
        pool = BufferPool(4)
        pool.write(pf, 0)
        pool.write(pf, 0)
        assert pool.counters.writes == 2

    def test_write_admits_page(self, pf):
        pool = BufferPool(4)
        pool.write(pf, 1)
        pool.read(pf, 1)
        assert pool.counters.reads == 0  # already resident


class TestEvictFile:
    def test_evict_file_clears_residency(self, pf):
        pool = BufferPool(4)
        pool.read(pf, 0)
        pool.read(pf, 1)
        pool.evict_file("t")
        # Both pages were dropped: reading them again misses twice.
        pool.read(pf, 0)
        pool.read(pf, 1)
        assert pool.counters.reads == 4
