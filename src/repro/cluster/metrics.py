"""Cluster-wide metrics: gateway-side instruments + per-shard aggregation.

The gateway observes what workers cannot (shared-tier hits, coalescing,
admission decisions, retries, restarts, end-to-end latency including
queueing and the wire), while each worker's pong carries its own
:class:`~repro.serving.metrics.MetricsRegistry` snapshot.
:meth:`ClusterMetrics.aggregate` folds both views into one report — the
numbers the benchmark snapshots (the replay driver takes only the worker
memo, restarts and admission): p50/p99, the shared tier's hit rate, and
per shard the rung distribution and how many requests its worker ``recall``-ed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..serving.metrics import Counter, MetricsRegistry
from ..serving.service import RUNG_FULL, RUNG_LSC

__all__ = ["ClusterMetrics"]

_RUNGS = (RUNG_FULL, RUNG_LSC)


class ClusterMetrics:
    """Gateway-side instruments plus shard-snapshot aggregation."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: (rung, cache_hit, retried) -> its instruments, looked up on first use
        self._answered: Dict[Tuple, Tuple] = {}
        self._arrivals: Optional[Counter] = None

    # ------------------------------------------------------------------
    # Gateway-side observation
    # ------------------------------------------------------------------

    def observe_arrival(self) -> None:
        """Count one request reaching the gateway."""
        if self._arrivals is None:
            self._arrivals = self.registry.counter("cluster.requests")
        self._arrivals.increment()

    def observe_request(self, latency: float, rung: Optional[str],
                        cache_hit: bool, retried: bool) -> None:
        """Record one answered request at the gateway."""
        kind = (rung, cache_hit, retried)
        instruments = self._answered.get(kind)
        if instruments is None:
            names = (f"cluster.rung.{rung}" if rung else None,
                     "cluster.cache.hits" if cache_hit else "cluster.cache.misses",
                     "cluster.answered_after_retry" if retried else None)
            instruments = self._answered[kind] = (
                self.registry.histogram("cluster.latency"),
                *(self.registry.counter(name) for name in names if name),
            )
        instruments[0].record(latency)
        for counter in instruments[1:]:
            counter.increment()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self,
        pongs: Sequence[Optional[Dict[str, Any]]],
        shed_depths: Sequence[int] = (),
        restarts: Sequence[int] = (),
        admission: Optional[Dict[str, float]] = None,
        shared: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """One cluster-wide report from gateway state + worker pongs."""
        snap = self.registry.snapshot()
        counters = snap["counters"]
        latency = snap["histograms"].get("cluster.latency", {"count": 0})

        shards: List[Dict[str, Any]] = []
        total_rungs = {r: 0 for r in _RUNGS}
        for i, pong in enumerate(pongs):
            if pong is None:
                shards.append({"shard": i, "alive": False})
                continue
            worker_counters = (
                pong.get("metrics", {}).get("counters", {})
            )
            rungs = {
                r: int(worker_counters.get(f"serving.rung.{r}", 0))
                for r in _RUNGS
            }
            for r in _RUNGS:
                total_rungs[r] += rungs[r]
            shards.append({
                "shard": i,
                "alive": True,
                "queue_depth": pong.get("queue_depth", 0),
                "pending_at_gateway": (
                    shed_depths[i] if i < len(shed_depths) else 0
                ),
                "restarts": restarts[i] if i < len(restarts) else 0,
                "rungs": rungs,
                "requests": worker_counters.get("serving.requests", 0),
                "remembered": worker_counters.get("serving.requests_remembered", 0),
            })

        hits = int(counters.get("cluster.cache.hits", 0))
        misses = int(counters.get("cluster.cache.misses", 0))
        answered = hits + misses
        shared = shared or {}
        return {
            "gateway": counters,
            "latency": latency,
            "rungs": total_rungs,
            "cache_tiers": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / answered if answered else 0.0,
                "shared_entries": shared.get("entries", 0),
                "invalidations": shared.get("invalidations", 0),
            },
            "worker_memo": {
                key: sum(s.get(key, 0) for s in shards)
                for key in ("requests", "remembered")
            },
            "admission": dict(admission or {}),
            "restarts": sum(restarts),
            "shards": shards,
        }
