"""Plan serving: one plan tier and one degradation ladder, under deadlines.

The library below this package is a synchronous optimizer; this package
is the layer a production system would put in front of it:

* :class:`~repro.serving.plan_cache.PlanCache` — the one plan tier, a
  thread-safe LRU of plan documents keyed by (query fingerprint,
  objective, cost-model config, memory input, catalog version) that owns
  the catalog fence; the cluster gateway keeps its plans in one too;
* :class:`~repro.serving.service.Ladder` — the degradation ladder (full
  objective → LSC point estimate at the mean), what a cluster worker
  runs;
* :class:`~repro.serving.service.OptimizerService` — a thread-pooled
  in-process front end: the tier, and the ladder on a miss;
* :class:`~repro.serving.metrics.MetricsRegistry` — counters and
  latency histograms shared by both.

``python -m repro.cluster --shards 0`` replays a workload through the service.
"""

from .metrics import Counter, LatencyHistogram, MetricsRegistry
from .plan_cache import PlanCache, PlanCacheKey, StoredPlan, memory_key
from .service import (
    RUNG_FULL,
    RUNG_LSC,
    Ladder,
    LatencyEstimator,
    OptimizeRequest,
    OptimizerService,
    ServingResult,
)

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "PlanCache",
    "PlanCacheKey",
    "StoredPlan",
    "memory_key",
    "Ladder",
    "LatencyEstimator",
    "OptimizeRequest",
    "OptimizerService",
    "ServingResult",
    "RUNG_FULL",
    "RUNG_LSC",
]
