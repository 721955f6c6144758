"""``repro.cluster``: the sharded multi-process serving tier.

Scales :class:`~repro.serving.service.OptimizerService` past the GIL:
an asyncio :class:`~repro.cluster.gateway.ClusterGateway` names each
request, answers it from the cluster's one version-fenced plan tier
(:class:`~repro.cluster.shared_cache.SharedPlanTier`, an LRU inside the
gateway) when it is a repeat, and otherwise coalesces and routes it to
one of N cache-less worker processes (fingerprint-hash sharding), with
:class:`~repro.cluster.admission.AdmissionController` shedding load
onto the full→coarse→LSC degradation ladder before deadlines blow.

``python -m repro.cluster`` replays a Zipf workload and reports
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
from .worker import WorkerConfig, worker_main

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
    "WorkerConfig",
    "worker_main",
]
