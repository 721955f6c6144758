"""The cluster's one plan tier: a version-fenced LRU inside the gateway.

A repeat request is answered where it is recognised.  The gateway
already validates every request and names its answer with a
:class:`~repro.serving.plan_cache.PlanCacheKey`; :class:`SharedPlanTier`
maps that key to the reply a worker once produced for it — the plan
*document* exactly as it came off the wire, never decoded here — so a
hit needs no worker, no frame and no digest.  The tier lives on the
gateway's event-loop thread and is touched from nowhere else, which is
why it carries no lock: "a stale plan is never served" holds because
the fence moves and the tier empties in the same synchronous step
(:meth:`SharedPlanTier.invalidate_stale`, called by the gateway's
``_refresh_version`` before any ``await``).

``"shared"`` keeps meaning *the tier every shard shares*: whichever
worker produced a plan, the next request for it is served from here.

The two digests are what is left of the cross-process keys:
:func:`fingerprint_digest` still picks the shard that optimizes a miss
(Python's ``hash`` is salted per process and would re-route every query
on a gateway restart) — once per fingerprint, the gateway remembers the
route; :func:`cache_key_digest` is the same value-based
digest over a whole key.  Nothing in ``src/`` calls it any more — it
stays because the frozen benchmark's trace table names it (ROADMAP,
"unfreeze ``bench/``").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ..core.distributions import DiscreteDistribution
from ..plans.query import IndexInfo
from ..serving.plan_cache import PlanCacheKey

__all__ = [
    "cache_key_digest",
    "fingerprint_digest",
    "SharedPlanTier",
]


def _normalize(obj: Any) -> Any:
    """A value-based, process-independent form of any cache-key part.

    Live objects whose identity/hash differ across processes are
    replaced by their content; containers recurse.
    """
    if isinstance(obj, DiscreteDistribution):
        return (
            "dist",
            tuple(float(v) for v in obj.values),
            tuple(float(p) for p in obj.probs),
        )
    if isinstance(obj, IndexInfo):
        return ("index", int(obj.height), bool(obj.clustered))
    if isinstance(obj, (tuple, list)):
        return tuple(_normalize(x) for x in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _digest(parts: Any) -> str:
    return hashlib.sha1(repr(_normalize(parts)).encode("utf-8")).hexdigest()


def cache_key_digest(key: PlanCacheKey) -> str:
    """Stable hex digest of one full plan-cache key (all key parts)."""
    return _digest(tuple(key))


def fingerprint_digest(fingerprint: Tuple) -> str:
    """Stable hex digest of a query fingerprint alone.

    This is the sharding key: every request for the same logical query
    lands on the same worker regardless of objective or knobs, so a
    query's optimizer context locality stays on one shard.
    """
    return _digest(fingerprint)


class StoredPlan(NamedTuple):
    """What a full-rung worker reply leaves behind for the next request."""

    plan_doc: Dict[str, Any]  # the `tools.serialize` document, as received
    objective_value: float
    objective: str  # canonical objective kind ("expected", "point", ...)
    shard: int  # the shard that produced it


class SharedPlanTier:
    """LRU of worker replies keyed by :class:`PlanCacheKey`.

    Single-threaded by contract (the gateway's event loop owns it), so
    there is no lock.  The catalog-version fence rides inside every key:
    an entry fenced at another version can never hit, and
    :meth:`invalidate_stale` reclaims such entries the moment the fence
    moves.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[PlanCacheKey, StoredPlan]" = OrderedDict()
        self._invalidations = 0

    def get(self, key: PlanCacheKey) -> Optional[StoredPlan]:
        """The stored reply for ``key`` (now most recently used), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: PlanCacheKey, plan_doc: Dict[str, Any],
            objective_value: float, objective: str, shard: int) -> None:
        """Store one reply; the least recently used entries make room."""
        self._entries[key] = StoredPlan(
            plan_doc, float(objective_value), objective, shard
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_stale(self, current_version: Tuple) -> int:
        """Drop every entry fenced at another catalog version; how many."""
        current = tuple(current_version)
        stale = [k for k in self._entries if k.catalog_version != current]
        for key in stale:
            del self._entries[key]
        self._invalidations += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """What only the tier knows (the gateway counts hits per request)."""
        return {
            "invalidations": self._invalidations,
            "entries": len(self._entries),
        }
