"""Metric names, units and directions: the one table everything reads.

``/BENCHMARK.json`` repeats these names (a self-test keeps the two in
step); ``bench/README.md`` explains them.  ``moves`` on a per-layer
metric is the prediction the choosing-metrics guide asks for before
measuring: which end-to-end metric, on which workload, the layer should
move.  On every workload not named there the prediction is no change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "WORKLOADS"]

WORKLOADS = ("dp_bushy", "dp_small", "serve_hot", "cluster_zipf", "cluster_churn")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: Tuple[Tuple[str, str], ...]  # (end-to-end metric, workload)


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower",
             "median of the set-up cycles: fresh-interpreter import of the "
             "packages the workload uses + service/gateway start, worker "
             "spawn and cache pre-warm; host-normalised"),
    EndToEnd("throughput_ops_s", "ops/s", "higher",
             "answered-and-correct ops per wall second of the closed loop; "
             "host-normalised, median segment"),
    EndToEnd("latency_p50_ms", "ms", "lower",
             "median client-side latency per op; host-normalised, median "
             "segment"),
    EndToEnd("latency_p90_ms", "ms", "lower",
             "p90 client-side latency (>= 10 samples beyond it at >= 100 "
             "ops per segment); host-normalised, median segment"),
    EndToEnd("cpu_ms_per_op", "ms", "lower",
             "user+sys CPU of the load process plus every multiprocessing "
             "child (workers, Manager) per op; host-normalised, median "
             "segment"),
    EndToEnd("peak_rss_mb", "MB", "lower",
             "max RSS of the load process plus the children's VmHWM"),
]

_BUSHY = (("throughput_ops_s", "dp_bushy"), ("latency_p90_ms", "dp_bushy"))
_BUSHY_CPU = (("cpu_ms_per_op", "dp_bushy"),)
_HOT = (("latency_p50_ms", "serve_hot"), ("throughput_ops_s", "serve_hot"))
_CHURN_P50 = (("latency_p50_ms", "cluster_churn"),)
_HOT_AND_CHURN = _HOT + _CHURN_P50
_WIRE = (("latency_p50_ms", "cluster_zipf"), ("cpu_ms_per_op", "cluster_zipf"))
_ZIPF_P50 = (("latency_p50_ms", "cluster_zipf"),)
_ZIPF_P90 = (("latency_p90_ms", "cluster_zipf"),)
_CHURN_TPUT = (("throughput_ops_s", "cluster_churn"),)


def _layer(prefix: str, moves, *metrics: Tuple[str, str, str]) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{m}", unit, better, tuple(moves))
            for m, unit, better in metrics]


PER_LAYER: List[PerLayer] = [
    *_layer("optimizer.facade", (("latency_p50_ms", "dp_small"),),
            ("self_ms", "ms", "lower"),
            ("lec_over_lsc_time_ratio", "ratio", "lower")),
    *_layer("optimizer.systemr", _BUSHY,
            ("self_ms", "ms", "lower"), ("subsets_per_op", "count", "lower")),
    *_layer("optimizer.topk", _BUSHY,
            ("self_ms", "ms", "lower"),
            ("merge_probes_per_op", "count", "lower"),
            ("entries_offered_per_op", "count", "lower")),
    *_layer("optimizer.costers", _BUSHY,
            ("self_ms", "ms", "lower"), ("step_calls_per_op", "count", "lower")),
    *_layer("plans.space", _BUSHY,
            ("self_ms", "ms", "lower"),
            ("partitions_calls_per_op", "count", "lower"),
            ("partitions_pruned_per_op", "count", "higher")),
    *_layer("core.expected_cost", _BUSHY_CPU,
            ("self_ms", "ms", "lower"), ("calls_per_op", "count", "lower"),
            ("rows_per_call", "count", "higher")),
    *_layer("core.distributions", _BUSHY_CPU,
            ("self_ms", "ms", "lower"), ("ops_per_op", "count", "lower")),
    *_layer("costmodel", _BUSHY_CPU,
            ("self_ms", "ms", "lower"),
            ("formula_evals_per_op", "count", "lower")),
    *_layer("core.context", _BUSHY_CPU + (("latency_p50_ms", "serve_hot"),),
            ("self_ms", "ms", "lower"), ("memo_hit_rate", "ratio", "higher"),
            ("fingerprint_us", "us", "lower")),
    *_layer("core.parallel", _BUSHY_CPU,
            ("pool_tasks_per_op", "count", "lower")),
    *_layer("serving.service", _HOT_AND_CHURN,
            ("hit_self_us", "us", "lower"), ("pool_wait_us", "us", "lower"),
            ("miss_overhead_us", "us", "lower"),
            ("rung_full_share", "ratio", "higher")),
    *_layer("serving.plan_cache", _HOT_AND_CHURN,
            ("get_hit_us", "us", "lower"), ("put_us", "us", "lower"),
            ("hit_rate", "ratio", "higher"), ("evictions", "count", "lower"),
            ("invalidate_stale_us", "us", "lower")),
    *_layer("serving.metrics", _HOT, ("record_us", "us", "lower")),
    *_layer("tools.serialize", _WIRE,
            ("query_to_dict_us", "us", "lower"),
            ("query_from_dict_us", "us", "lower"),
            ("plan_to_dict_us", "us", "lower"),
            ("plan_from_dict_us", "us", "lower")),
    *_layer("cluster.protocol", _WIRE,
            ("encode_frame_us", "us", "lower"),
            ("decode_frame_us", "us", "lower"),
            ("request_frame_bytes", "count", "lower"),
            ("reply_frame_bytes", "count", "lower")),
    *_layer("cluster.gateway", _ZIPF_P50,
            ("overhead_ms_p50", "ms", "lower"),
            ("unaccounted_ms_p50", "ms", "lower"),
            ("coalesced_share", "ratio", "higher"),
            ("latency_p99_ms", "ms", "lower"),
            ("version_refresh_us", "us", "lower")),
    PerLayer("cluster.gateway.post_bump_first_answer_ms", "ms", "lower",
             (("latency_p90_ms", "cluster_churn"),)),
    *_layer("cluster.admission", _ZIPF_P50,
            ("decide_us", "us", "lower"), ("degraded_share", "ratio", "lower"),
            ("shed_share", "ratio", "lower")),
    *_layer("cluster.shared_cache", _ZIPF_P90,
            ("digest_us", "us", "lower"), ("hot_hit_rate", "ratio", "higher"),
            ("shared_hit_rate", "ratio", "higher"),
            ("shared_get_ms", "ms", "lower"),
            ("shared_entries", "count", "lower")),
    *_layer("cluster.worker", _CHURN_TPUT,
            ("hot_hit_ms_p50", "ms", "lower"), ("miss_ms_p50", "ms", "lower"),
            ("cpu_share", "ratio", "higher"), ("restarts", "count", "lower")),
    PerLayer("trace.overhead_ratio", "ratio", "lower", ()),
    PerLayer("trace.accounted_share", "ratio", "higher", ()),
]

PER_LAYER_UNITS: Dict[str, str] = {m.name: m.unit for m in PER_LAYER}
