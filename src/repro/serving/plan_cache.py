"""A thread-safe LRU cache of serialized optimized plans.

The paper's compile-time/start-up split ("store these expected plans,
for use at query execution time") becomes, in a serving context, a plan
cache: once a query has been optimized under a given objective, cost
model and catalog state, repeat arrivals of the same query should skip
the Algorithm A-D machinery entirely and deserialize the stored winner.

Keys are exact, not fuzzy.  A :class:`PlanCacheKey` combines:

* the **query fingerprint** (:func:`repro.core.context.
  query_fingerprint`) — every statistic the optimizer reads;
* the canonical **objective** name and its knob tuple (plan space,
  top-k, bucketing caps, ...), since different knobs can change the
  winning plan;
* the **memory key** — the memory input digested to a hashable value
  (scalar, distribution, or Markov chain parameters);
* the **cost-model configuration** (method set, pipelined methods);
* the **catalog version** tuple — monotonically increasing counters
  from :class:`~repro.catalog.statistics.StatisticsCatalog` and
  :class:`~repro.catalog.feedback.SelectivityFeedback`.  Any catalog
  mutation or new feedback bumps a version, changing every key, so a
  stale plan can never be served; :meth:`PlanCache.invalidate_stale`
  additionally evicts the dead entries eagerly.

Values are stored *serialized* (the `tools.serialize` wire format), and
deserialized on every hit.  That keeps the cache process-external-ready
(the value is exactly what a Redis/disk tier would hold) and gives each
caller an independent plan object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..plans.nodes import Plan
from ..tools.serialize import plan_from_dict, plan_to_dict
from .metrics import MetricsRegistry

__all__ = ["PlanCacheKey", "CachedPlan", "PlanCache", "memory_key"]


def memory_key(memory) -> Tuple:
    """Digest any supported ``memory`` input into a hashable cache key part.

    Scalars key by value, distributions by their (value-hashed)
    instance, Markov parameters by their full (states, initial,
    transition) content.
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


@dataclass(frozen=True)
class CachedPlan:
    """A deserialized cache hit: the plan, its objective value, its rung.

    ``tier`` names which cache tier satisfied the lookup — ``"hot"`` for
    this in-process LRU.  (The cluster's gateway answers from its own
    :class:`~repro.cluster.shared_cache.SharedPlanTier` and labels those
    hits ``"shared"`` on its ``ClusterResult``; they never pass through
    here.)
    """

    plan: Plan
    objective_value: float
    rung: str
    tier: str = "hot"


@dataclass
class _Entry:
    plan_doc: Dict
    objective_value: float
    rung: str


class PlanCache:
    """Thread-safe LRU mapping :class:`PlanCacheKey` → serialized plan.

    Parameters
    ----------
    max_entries:
        Eviction threshold; least-recently-used entries beyond it are
        dropped (and counted as evictions).
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry`; when
        given, hits/misses/evictions/invalidations are mirrored into
        ``plan_cache.*`` counters so the service's snapshot sees them.
    """

    def __init__(
        self,
        max_entries: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._metrics = metrics
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"plan_cache.{name}").increment()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def get(self, key: PlanCacheKey) -> Optional[CachedPlan]:
        """Look up ``key``; a hit deserializes a fresh plan object."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._count("hits")
            doc, value, rung = entry.plan_doc, entry.objective_value, entry.rung
        # Deserialize outside the lock: each hit gets its own tree.
        return CachedPlan(plan_from_dict(doc), value, rung)

    def put(self, key: PlanCacheKey, plan: Plan, objective_value: float,
            rung: str = "full") -> None:
        """Store an optimized plan (serialized) under ``key``."""
        entry = _Entry(plan_to_dict(plan), float(objective_value), rung)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                self._count("evictions")

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------

    def invalidate(
        self, predicate: Optional[Callable[[PlanCacheKey], bool]] = None
    ) -> int:
        """Drop entries matching ``predicate`` (all of them by default).

        Returns how many entries were removed; each removal counts as an
        invalidation in the stats.
        """
        with self._lock:
            if predicate is None:
                doomed = list(self._entries)
            else:
                doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                del self._entries[k]
            self._invalidations += len(doomed)
        if self._metrics is not None and doomed:
            self._metrics.counter("plan_cache.invalidations").increment(len(doomed))
        return len(doomed)

    def invalidate_stale(self, current_version: Tuple) -> int:
        """Evict every entry whose catalog version differs from current.

        Version mismatch already guarantees such entries can never hit
        (the version is part of the key); this hook reclaims their
        memory eagerly and records the invalidation in the stats — the
        wiring point for catalog-mutation and feedback events.
        """
        return self.invalidate(lambda k: k.catalog_version != current_version)

    def clear(self) -> None:
        """Drop everything without touching counters."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

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
