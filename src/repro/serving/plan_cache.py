"""The one plan tier: a locked LRU of plan documents that owns the catalog fence.

The paper's compile-time/start-up split ("store these expected plans,
for use at query execution time") becomes, in a serving context, a plan
tier: once a query has been optimized under a given objective, cost
model and catalog state, repeat arrivals of the same query skip the
Algorithm A-D machinery entirely.  Both serving fronts keep their plans
in a :class:`PlanCache`: ``OptimizerService.cache`` in process, and
``ClusterGateway.shared_tier`` in front of the cluster's workers.

Keys are exact, not fuzzy.  A :class:`PlanCacheKey` combines:

* the **query fingerprint** (:func:`repro.costmodel.context.
  query_fingerprint`) — every statistic the optimizer reads;
* the canonical **objective** name and its knob tuple (plan space,
  top-k, bucketing caps, ...), since different knobs can change the
  winning plan;
* the **memory key** — the memory input digested to a hashable value
  (scalar, distribution, or Markov chain parameters);
* the **cost-model configuration** (method set, pipelined methods);
* the **catalog version** tuple — monotonically increasing counters
  from :class:`~repro.catalog.statistics.StatisticsCatalog` and
  :class:`~repro.catalog.feedback.SelectivityFeedback`.

The tier is fenced at one catalog version (:attr:`PlanCache.version`).
:meth:`PlanCache.invalidate_stale` moves the fence and drops every entry
fenced elsewhere in one step under the tier's lock, and
:meth:`PlanCache.put` refuses a key fenced at any other version.  Since
the version is part of every key, a stale plan can never be served;
the fence also keeps an answer that finishes after a bump from taking
an LRU slot it could never hit from.

Values are plan *documents* (the `tools.serialize` wire format) — what a
worker sends back, and what a Redis/disk tier would hold.  The service
decodes one on every hit, so each caller gets its own plan tree; the
gateway hands the stored document out as it is.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from numbers import Real
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter

__all__ = ["PlanCacheKey", "StoredPlan", "PlanCache", "memory_key"]


def memory_key(memory) -> Tuple:
    """Digest any supported ``memory`` input into a hashable cache key part.

    Every kind keys by its exact floats — a scalar's value, a
    distribution by its bytewise ``__eq__``, a Markov parameter by its
    states, initial and transition — so one ulp is another key.
    """
    if isinstance(memory, DiscreteDistribution):
        return ("dist", memory)
    if isinstance(memory, MarkovParameter):
        return (
            "markov",
            tuple(float(s) for s in memory.states),
            tuple(float(p) for p in memory.initial),
            tuple(float(t) for t in memory.transition.ravel()),
        )
    if isinstance(memory, Real):
        return ("scalar", float(memory))
    raise TypeError(f"unsupported memory input {type(memory).__name__}")


class PlanCacheKey(NamedTuple):
    """Exact identity of one cached optimization answer."""

    fingerprint: Tuple
    objective: str
    model_key: Tuple
    memory: Tuple
    knobs: Tuple
    catalog_version: Tuple


class StoredPlan(NamedTuple):
    """One full-rung answer the tier keeps for the next request."""

    plan_doc: Dict[str, Any]  # the `tools.serialize` document
    objective_value: float
    objective: str  # canonical objective kind ("expected", "point", ...)
    shard: int  # the cluster shard that produced it (0 in process)


class PlanCache:
    """Thread-safe LRU mapping :class:`PlanCacheKey` → :class:`StoredPlan`.

    ``max_entries`` is the eviction threshold: least-recently-used
    entries beyond it are dropped (and counted as evictions).  A fresh
    tier is fenced at ``()``, the version of no catalog sources; its
    owner moves the fence to its sources' version before the first
    request.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: The catalog version every entry is fenced at.
        self.version: Tuple = ()
        self._entries: "OrderedDict[PlanCacheKey, StoredPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get(self, key: PlanCacheKey) -> Optional[StoredPlan]:
        """The stored answer for ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: PlanCacheKey, plan_doc: Dict[str, Any],
            objective_value: float, objective: str, shard: int = 0) -> None:
        """Store one answer under ``key``, unless the key is fenced at
        another version than the tier's: an answer that finishes after a
        bump reaches its caller and is not kept."""
        entry = StoredPlan(plan_doc, float(objective_value), objective, shard)
        with self._lock:
            if key.catalog_version != self.version:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_stale(self, current_version: Tuple) -> int:
        """Move the fence to ``current_version`` and drop every entry fenced
        at another version, in one step; returns how many were dropped."""
        current = tuple(current_version)
        with self._lock:
            self.version = current
            stale = [k for k in self._entries if k.catalog_version != current]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, float]:
        """Hits, misses, hit rate, evictions, invalidations, entries."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "entries": len(self._entries),
            }
