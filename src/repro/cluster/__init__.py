"""``repro.cluster``: the sharded multi-process serving tier.

Serves past one process's GIL: an asyncio
:class:`~repro.cluster.gateway.ClusterGateway` names each request,
answers it from the cluster's version-fenced plan tier (the gateway's
:class:`~repro.serving.plan_cache.PlanCache`) when it is a repeat, and
otherwise coalesces and routes it to one of N worker processes, one per
shard (fingerprint-hash sharding), each running the full→LSC
degradation ladder (:class:`~repro.serving.service.Ladder`) and holding
no plan, with :class:`~repro.cluster.admission.AdmissionController`
shedding load onto that ladder before deadlines blow.

``python -m repro.cluster`` replays a Zipf workload through the gateway
(``--shards 0``: through the in-process service) and reports
throughput, p50/p99, the tier's hit share and the rung distribution.
"""

from .admission import ADMIT, DEGRADE, SHED, AdmissionController, AdmissionDecision
from .gateway import ClusterGateway, ClusterResult, GatewayError
from .metrics import ClusterMetrics
from .protocol import FrameDecoder, ProtocolError, encode_frame, read_frame, write_frame
from .replay import build_workload, replay, run_replay
from .shared_cache import (
    SharedPlanTier,
    cache_key_digest,
    fingerprint_digest,
)
from .worker import worker_main

__all__ = [
    "ADMIT",
    "DEGRADE",
    "SHED",
    "AdmissionController",
    "AdmissionDecision",
    "ClusterGateway",
    "ClusterResult",
    "ClusterMetrics",
    "GatewayError",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "write_frame",
    "build_workload",
    "replay",
    "run_replay",
    "SharedPlanTier",
    "cache_key_digest",
    "fingerprint_digest",
    "worker_main",
]
