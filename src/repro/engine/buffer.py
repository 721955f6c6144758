"""A counting buffer pool with LRU replacement.

Every page access in the tuple-level executor goes through
:class:`BufferPool`.  A page already resident is free; a miss costs one
read I/O; writing a page costs one write I/O (write-through, so the
counters are simple and deterministic).  The pool's capacity is the
``memory`` parameter of the cost formulas, making measured I/O directly
comparable to the model's predictions (experiment E11).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from .pages import Page, PagedFile

__all__ = ["BufferPool", "IOCounters"]


@dataclass
class IOCounters:
    """Cumulative I/O tallies."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        """Total page I/Os (reads + writes)."""
        return self.reads + self.writes

    def snapshot(self) -> "IOCounters":
        """Copy of the current tallies."""
        return IOCounters(reads=self.reads, writes=self.writes)

    def since(self, earlier: "IOCounters") -> "IOCounters":
        """Delta between now and an earlier snapshot."""
        return IOCounters(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
        )


class BufferPool:
    """Fixed-capacity page cache with LRU eviction and I/O counting.

    Pages are identified by ``(file_name, page_index)``; a full pool
    evicts its least recently used page.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.capacity = capacity
        self.counters = IOCounters()
        self._resident: "OrderedDict[Tuple[str, int], Page]" = OrderedDict()

    # ------------------------------------------------------------------

    def read(self, pf: PagedFile, page_index: int) -> Page:
        """Fetch a page, charging a read I/O on a miss."""
        key = (pf.name, page_index)
        if key in self._resident:
            self._resident.move_to_end(key)
            return self._resident[key]
        self.counters.reads += 1
        page = pf.pages[page_index]
        self._admit(key, page)
        return page

    def write(self, pf: PagedFile, page_index: int) -> None:
        """Charge one write I/O for flushing a page (write-through)."""
        self.counters.writes += 1
        key = (pf.name, page_index)
        if key in self._resident:
            self._resident.move_to_end(key)
        else:
            self._admit(key, pf.pages[page_index])

    def evict_file(self, file_name: str) -> None:
        """Drop all of a file's pages from the pool (temp cleanup)."""
        for key in [k for k in self._resident if k[0] == file_name]:
            del self._resident[key]

    # ------------------------------------------------------------------

    def _admit(self, key: Tuple[str, int], page: Page) -> None:
        while len(self._resident) >= self.capacity:
            self._resident.popitem(last=False)
        self._resident[key] = page  # a new key goes in at the MRU end
