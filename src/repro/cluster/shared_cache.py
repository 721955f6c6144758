"""The cluster's routing digests, and the name its plan tier once had.

The cluster keeps its plans in the one plan tier,
:class:`~repro.serving.plan_cache.PlanCache`, owned by the gateway
(``ClusterGateway.shared_tier``): a repeat request is answered there,
before a frame is written, from the plan document a worker once sent
back.  ``"shared"`` keeps meaning *the tier every shard shares*:
whichever worker produced a plan, the next request for it is served
from the gateway.  :data:`SharedPlanTier` is that class under its old
name, kept because the frozen benchmark's trace table names it.

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
from typing import Any, Tuple

from ..core.distributions import DiscreteDistribution
from ..plans.query import IndexInfo
from ..serving.plan_cache import PlanCache, PlanCacheKey

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


#: The one plan tier under the name the frozen trace table resolves.
SharedPlanTier = PlanCache
