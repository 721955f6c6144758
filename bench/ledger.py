"""Per-layer metrics: turn a traced run into the ledger ``--trace 1`` prints.

Every name in :data:`bench.metrics.PER_LAYER` is reported on every
workload.  A 0 means the layer is not on that workload's request path, or
— for worker-side code on the cluster workloads — cannot be observed from
outside the worker process; ``serve_hot`` and ``dp_*`` decompose the same
code in-process.

``_per_op`` counts come from ``OptimizationResult.stats``,
``last_context().stats()`` and the tracer's call counters; on the library
workloads they repeat exactly for a fixed seed.  Times here are as
measured, not host-normalised: the ledger is read for shares and ratios
within one run (only ``trace.overhead_ratio`` compares two segments, and
divides each by its host factor).
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.cluster.protocol import FrameDecoder, encode_frame
from repro.tools.serialize import (
    plan_from_dict,
    plan_to_dict,
    query_from_dict,
    query_to_dict,
)

from .harness import COALESCED, FULL, HIT, OK, SHARED, Segment, host_factor
from .metrics import PER_LAYER
from .stats import percentile, supported_percentile
from .trace import TABLE, Tracer
from .workloads import Workload

__all__ = ["per_layer"]

_FACADE = "repro.optimizer.facade.optimize"
_FINGERPRINT = "repro.core.context.query_fingerprint"
_BATCHED = "repro.core.expected_cost.expected_join_costs_batched"
_CACHE = "repro.serving.plan_cache.PlanCache."
_SERIALIZE = "repro.tools.serialize."
_DIGEST = "repro.cluster.shared_cache.cache_key_digest"
_PURGE = "repro.cluster.shared_cache.SharedPlanTier.invalidate_stale"
_DECIDE = "repro.cluster.admission.AdmissionController.decide"

#: Layers whose traced callables run in the gateway's event loop once per
#: request; their self times are the directly timed part of the overhead.
_GATEWAY_INLINE = (
    "core.context", "cluster.shared_cache", "tools.serialize",
    "cluster.protocol", "cluster.admission", "cluster.gateway",
)


def _us_per_call(tracer: Tracer, dotted: str, self_only=False) -> float:
    calls = tracer.calls(dotted)
    if not calls:
        return 0.0
    ns = tracer.self_ns(dotted) if self_only else tracer.total_ns(dotted)
    return ns / calls / 1e3


def _all_self_ns(tracer: Tracer) -> int:
    return sum(tracer.layer_self_ns(layer) for layer in tracer.table)


def _best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Fastest of a few calls, in ns: the call's cost without the noise."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return float(best)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ok(seg: Segment) -> List[int]:
    return [j for j in range(seg.n) if seg.flags[j] & OK]


# ----------------------------------------------------------------------


def _library(out, workload: Workload, segments, tracer: Tracer, runner) -> None:
    reference, traced = segments[0], segments[1:]
    ops = sum(s.n for s in traced)
    for layer in ("optimizer.facade", "optimizer.systemr", "optimizer.topk",
                  "optimizer.costers", "plans.space", "core.expected_cost",
                  "core.distributions", "costmodel", "core.context"):
        out[f"{layer}.self_ms"] = tracer.layer_self_ns(layer) / ops / 1e6

    by_objective: Dict[str, float] = {}
    for j, pos in enumerate(reference.positions):
        name = workload.stream[pos].objective
        by_objective[name] = by_objective.get(name, 0.0) + reference.lat[j]
    if by_objective.get("point"):
        out["optimizer.facade.lec_over_lsc_time_ratio"] = (
            by_objective.get("lec", 0.0) / by_objective["point"]
        )

    final = traced[-1]
    stats = [r.stats for r in final.results if r is not None]
    n = max(1, len(stats))
    out["optimizer.systemr.subsets_per_op"] = sum(s.subsets_explored for s in stats) / n
    out["optimizer.topk.merge_probes_per_op"] = sum(s.merge_probes for s in stats) / n
    out["optimizer.topk.entries_offered_per_op"] = sum(s.entries_offered for s in stats) / n
    out["costmodel.formula_evals_per_op"] = sum(s.formula_evaluations for s in stats) / n
    out["plans.space.partitions_pruned_per_op"] = sum(s.partitions_pruned for s in stats) / n

    out["optimizer.costers.step_calls_per_op"] = (
        tracer.layer_calls("optimizer.costers", ("join_step_cost",)) / ops
    )
    out["plans.space.partitions_calls_per_op"] = (
        tracer.layer_calls("plans.space", ("partitions",)) / ops
    )
    batched = tracer.calls(_BATCHED)
    out["core.expected_cost.calls_per_op"] = batched / ops
    if batched:
        out["core.expected_cost.rows_per_call"] = tracer.size(_BATCHED) / batched
    out["core.distributions.ops_per_op"] = sum(
        tracer.calls(dotted) for dotted, _ in TABLE["core.distributions"]
    ) / ops
    hits, lookups = runner.memo
    if lookups:
        out["core.context.memo_hit_rate"] = hits / lookups
    out["core.context.fingerprint_us"] = _us_per_call(tracer, _FINGERPRINT)
    out["core.parallel.pool_tasks_per_op"] = (
        tracer.layer_calls("core.parallel", ("map_ordered",)) / ops
    )
    out["trace.accounted_share"] = _all_self_ns(tracer) / (
        sum(sum(s.lat) for s in traced) * 1e9
    )


def _service(out, segments, tracer: Tracer, runner, extra) -> None:
    traced = segments[1:]
    ops = sum(s.n for s in traced)
    lat_ns = sum(sum(s.lat) for s in traced) * 1e9
    inside_ns = sum(sum(s.worker_lat) for s in traced) * 1e9
    # Traced callables with no traced caller, on the service's pool
    # threads: everything _execute called.  What is left of the service's
    # own clock is the service's self time on a hit.
    pool_roots = sum(ns for thread, ns in tracer.root_ns.items()
                     if thread != "MainThread")
    hit_self_ns = max(0.0, inside_ns - pool_roots)
    wait_ns = max(0.0, lat_ns - inside_ns)
    out["serving.service.hit_self_us"] = hit_self_ns / ops / 1e3
    out["serving.service.pool_wait_us"] = wait_ns / ops / 1e3
    answered = [f for s in traced for f in s.flags if f & OK]
    out["serving.service.rung_full_share"] = (
        sum(1 for f in answered if f & FULL) / max(1, len(answered))
    )
    out["serving.plan_cache.get_hit_us"] = _us_per_call(
        tracer, _CACHE + "get", self_only=True
    )
    out["serving.plan_cache.hit_rate"] = (
        sum(1 for f in answered if f & HIT) / max(1, len(answered))
    )
    out["serving.plan_cache.evictions"] = float(extra["cache_stats"]["evictions"])
    out["serving.metrics.record_us"] = (
        tracer.layer_self_ns("serving.metrics") / ops / 1e3
    )
    out["core.context.fingerprint_us"] = _us_per_call(tracer, _FINGERPRINT)
    out["tools.serialize.plan_from_dict_us"] = _us_per_call(
        tracer, _SERIALIZE + "plan_from_dict"
    )
    out["trace.accounted_share"] = (
        (hit_self_ns + wait_ns + pool_roots) / lat_ns if lat_ns else 0.0
    )

    # The miss path, from the epilogue (a version bump, then one request
    # per query): put, invalidate_stale and the service's own overhead
    # around repro.optimize.
    miss: Tracer = extra["miss_tracer"]
    results = extra["miss_results"]
    out["serving.plan_cache.put_us"] = _us_per_call(miss, _CACHE + "put", self_only=True)
    out["serving.plan_cache.invalidate_stale_us"] = _us_per_call(miss, _CACHE + "invalidate_stale")
    out["tools.serialize.plan_to_dict_us"] = _us_per_call(miss, _SERIALIZE + "plan_to_dict")
    if results:
        inside = sum(r.latency for r in results) * 1e9
        out["serving.service.miss_overhead_us"] = max(
            0.0, inside - miss.total_ns(_FACADE)
        ) / len(results) / 1e3


def _wire(out, tracer: Tracer) -> float:
    """Time the pure wire functions on the tapped real frames.

    Returns the worker-side share in ms per request: request decode,
    ``query_from_dict``, ``plan_to_dict`` and reply encode happen in the
    worker, outside the service's own clock.
    """
    requests = [m for m, _ in tracer.taps["repro.cluster.protocol.encode_frame"]
                if m.get("type") == "optimize"]
    replies = [m for m in tracer.taps["repro.cluster.protocol.FrameDecoder.feed"]
               if m.get("type") == "result"]
    if not requests or not replies:
        return 0.0

    def decode(frame: bytes) -> None:
        list(FrameDecoder().feed(frame))

    timings: Dict[str, List[float]] = {k: [] for k in (
        "enc_req", "dec_req", "enc_rep", "dec_rep", "q_to", "q_from",
        "p_to", "p_from")}
    request_bytes, reply_bytes = [], []
    for message in requests:
        frame = encode_frame(message)
        request_bytes.append(len(frame))
        timings["enc_req"].append(_best_of(lambda m=message: encode_frame(m)))
        timings["dec_req"].append(_best_of(lambda f=frame: decode(f)))
        doc = message["query"]
        query = query_from_dict(doc)
        timings["q_from"].append(_best_of(lambda d=doc: query_from_dict(d)))
        timings["q_to"].append(_best_of(lambda q=query: query_to_dict(q)))
    for message in replies:
        frame = encode_frame(message)
        reply_bytes.append(len(frame))
        timings["enc_rep"].append(_best_of(lambda m=message: encode_frame(m)))
        timings["dec_rep"].append(_best_of(lambda f=frame: decode(f)))
        doc = message["plan"]
        plan = plan_from_dict(doc)
        timings["p_from"].append(_best_of(lambda d=doc: plan_from_dict(d)))
        timings["p_to"].append(_best_of(lambda p=plan: plan_to_dict(p)))

    mean_us = {k: _mean(v) / 1e3 for k, v in timings.items()}
    out["tools.serialize.query_to_dict_us"] = mean_us["q_to"]
    out["tools.serialize.query_from_dict_us"] = mean_us["q_from"]
    out["tools.serialize.plan_to_dict_us"] = mean_us["p_to"]
    out["tools.serialize.plan_from_dict_us"] = mean_us["p_from"]
    out["cluster.protocol.encode_frame_us"] = (mean_us["enc_req"] + mean_us["enc_rep"]) / 2
    out["cluster.protocol.decode_frame_us"] = (mean_us["dec_req"] + mean_us["dec_rep"]) / 2
    out["cluster.protocol.request_frame_bytes"] = _mean(request_bytes)
    out["cluster.protocol.reply_frame_bytes"] = _mean(reply_bytes)
    return (mean_us["dec_req"] + mean_us["q_from"] + mean_us["p_to"]
            + mean_us["enc_rep"]) / 1e3


def _cluster(out, segments, tracer: Tracer, extra) -> None:
    reference, traced = segments[0], segments[1:]
    ops = sum(s.n for s in traced)

    ok = _ok(reference)
    overhead = [(reference.lat[j] - reference.worker_lat[j]) * 1e3 for j in ok]
    lat_ms = [reference.lat[j] * 1e3 for j in ok]
    overhead_p50 = percentile(overhead, 50)
    out["cluster.gateway.overhead_ms_p50"] = overhead_p50
    # p99 needs 1000 samples for ten beyond it: pool every segment of the
    # run (the traced ones cost ~1% more), where one segment has too few.
    pooled = [s.lat[j] * 1e3 for s in segments for j in _ok(s)]
    out["cluster.gateway.latency_p99_ms"] = percentile(
        pooled, supported_percentile(len(pooled)) or 50
    )

    flags = [f for s in segments for f in s.flags if f & OK]
    total = max(1, len(flags))
    out["cluster.gateway.coalesced_share"] = sum(1 for f in flags if f & COALESCED) / total
    out["serving.service.rung_full_share"] = sum(1 for f in flags if f & FULL) / total
    lookups = [f for f in flags if not f & COALESCED]
    out["cluster.shared_cache.hot_hit_rate"] = sum(
        1 for f in lookups if f & HIT and not f & SHARED) / max(1, len(lookups))
    out["cluster.shared_cache.shared_hit_rate"] = sum(
        1 for f in lookups if f & SHARED) / max(1, len(lookups))

    def worker_ms(select) -> List[float]:
        return [s.worker_lat[j] * 1e3 for s in segments for j in range(s.n)
                if s.flags[j] & OK and not s.flags[j] & COALESCED
                and select(s.flags[j])]

    hot = worker_ms(lambda f: f & HIT and not f & SHARED)
    shared = worker_ms(lambda f: f & SHARED)
    misses = worker_ms(lambda f: not f & HIT)
    if hot:
        out["cluster.worker.hot_hit_ms_p50"] = percentile(hot, 50)
    if misses:
        out["cluster.worker.miss_ms_p50"] = percentile(misses, 50)
    if hot and shared:
        out["cluster.shared_cache.shared_get_ms"] = (
            percentile(shared, 50) - percentile(hot, 50)
        )
    if reference.cpu:
        out["cluster.worker.cpu_share"] = reference.child_cpu / reference.cpu
    firsts = [s.lat[j] * 1e3 for s in segments for j in s.first_after_bump]
    if firsts:
        out["cluster.gateway.post_bump_first_answer_ms"] = statistics.median(firsts)

    snapshot = extra["snapshot"]
    out["cluster.worker.restarts"] = float(snapshot["restarts"])
    out["cluster.shared_cache.shared_entries"] = float(
        snapshot["cache_tiers"]["shared_entries"]
    )
    admission = snapshot["admission"]
    decisions = sum(admission.get(k, 0) for k in ("admit", "degrade", "shed"))
    if decisions:
        out["cluster.admission.degraded_share"] = admission.get("degrade", 0) / decisions
        out["cluster.admission.shed_share"] = admission.get("shed", 0) / decisions
    hot_caches = [shard["cache"]["hot"] for shard in snapshot["shards"]
                  if shard.get("alive") and "hot" in shard.get("cache", {})]
    probes = sum(c["hits"] + c["misses"] for c in hot_caches)
    if probes:
        out["serving.plan_cache.hit_rate"] = sum(c["hits"] for c in hot_caches) / probes
    out["serving.plan_cache.evictions"] = float(sum(c["evictions"] for c in hot_caches))

    out["core.context.fingerprint_us"] = _us_per_call(tracer, _FINGERPRINT)
    out["cluster.shared_cache.digest_us"] = _us_per_call(tracer, _DIGEST)
    out["cluster.admission.decide_us"] = _us_per_call(tracer, _DECIDE)
    out["cluster.gateway.version_refresh_us"] = _us_per_call(tracer, _PURGE)

    worker_side_ms = _wire(out, tracer)
    inline_ns = sum(tracer.layer_self_ns(layer) for layer in _GATEWAY_INLINE)
    inline_ns -= tracer.self_ns(_PURGE)  # per bump, and off the event loop
    inline_ms = inline_ns / ops / 1e6
    unaccounted = overhead_p50 - inline_ms - worker_side_ms
    out["cluster.gateway.unaccounted_ms_p50"] = unaccounted
    latency_p50 = percentile(lat_ms, 50)
    out["trace.accounted_share"] = (
        (latency_p50 - unaccounted) / latency_p50 if latency_p50 else 0.0
    )


def per_layer(workload: Workload, segments: Sequence[Segment], tracer: Tracer,
              runner, extra: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric for one traced run (0.0 where not applicable)."""
    out = {m.name: 0.0 for m in PER_LAYER}
    reference, traced = segments[0], segments[1:]
    def per_op(seg: Segment) -> float:
        return seg.wall / seg.n / host_factor(seg.probes)

    out["trace.overhead_ratio"] = (
        statistics.median(per_op(s) for s in traced) / per_op(reference)
    )
    if workload.family == "library":
        _library(out, workload, segments, tracer, runner)
    elif workload.family == "service":
        _service(out, segments, tracer, runner, extra)
    else:
        _cluster(out, segments, tracer, extra)
    return {name: float(value) for name, value in out.items()}
