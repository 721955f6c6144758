"""Load generation and measurement: runners, segments, set-up cycles.

One load-generating process drives the public entry points only —
``repro.optimize`` / ``repro.clear_context_cache``,
``OptimizerService.submit`` and ``ClusterGateway.optimize`` — with
default knobs, in a closed loop: a client sends its next request only
after the previous answer arrived (1 client for the library and service
workloads, 2 clients over 2 shards for the cluster ones; never more
client threads/connections than the reference host's 2 cores).

A measured run is a sequence of **segments**, each one pass over the
workload's fixed op list, with ~100 short host-speed probes interleaved.
Every timing metric is computed per segment, divided by the segment's
host factor (see :func:`host_factor`), and the median segment is
reported.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

import repro
from repro.cluster.gateway import ClusterGateway
from repro.serving.service import OptimizeRequest, OptimizerService

from .stats import percentile, segment_summary, supported_percentile
from .workloads import MEMORY, Workload

__all__ = [
    "OK", "FULL", "HIT", "SHARED", "COALESCED", "Segment", "Runner",
    "make_runner", "setup_cycles", "measure", "end_to_end", "host_record",
    "cpu_seconds", "peak_rss_mb", "MIN_SEGMENTS", "SHARDS",
    "probe_work", "host_factor", "PROBE_REF_S",
]

# Per-op outcome flags.
OK, FULL, HIT, SHARED, COALESCED = 1, 2, 4, 8, 16

#: Fixed by the issue: the reference host has 2 cores.
SHARDS = 2
MIN_SEGMENTS = 3
_MAX_SEGMENTS = 64
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

_now = time.perf_counter


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------


def _child_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def cpu_seconds() -> Tuple[float, float]:
    """user+sys CPU seconds of (this process, its multiprocessing children).

    Children (cluster workers and the Manager) are read from
    ``/proc/<pid>/stat`` while they live; the ``os.times`` children
    fields only count reaped processes and would miss all of it.
    """
    children = 0.0
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                # Fields after the ")" that closes the command name.
                rest = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        children += (int(rest[11]) + int(rest[12])) / _CLOCK_TICKS
    return time.process_time(), children


def peak_rss_mb() -> float:
    """Max RSS of this process plus the children's high-water marks."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_record() -> Dict[str, Any]:
    """What the numbers were taken on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(allow_none=True),
        "cluster_start_method": "fork"
        if "fork" in multiprocessing.get_all_start_methods() else "default",
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------


_PROBE_NAMES = ["R%d" % i for i in range(8)]
_PROBE_ARRAY = numpy.arange(64, dtype=float)
#: Probes per segment: enough that their median tracks the host's speed
#: over the segment, few enough to cost ~1% of it.
PROBES_PER_SEGMENT = 100
#: What one probe takes on the reference host when nothing else runs.
PROBE_REF_S = 2.0e-4


def probe_work() -> float:
    """A fixed ~0.2 ms of what the optimizer's hot loops are made of.

    Frozensets, dict stores, tuple sorts and small numpy reductions — no
    ``repro`` code, so a change to the program cannot move it.  Its
    duration measures how fast this host is running Python *right now*.
    """
    table = {}
    acc = 0.0
    for mask in range(1, 160):
        subset = frozenset(
            _PROBE_NAMES[i] for i in range(8) if mask & (1 << i)
        )
        table[subset] = (mask * 0.5, len(subset))
        acc += table[subset][0]
    acc += sorted(table.values())[0][0]
    for _ in range(20):
        acc += float(numpy.cumsum(_PROBE_ARRAY * 1.0001)[-1])
    return acc


def timed_probes(count: int) -> List[float]:
    out = []
    for _ in range(count):
        t0 = _now()
        probe_work()
        out.append(_now() - t0)
    return out


def host_factor(probes: Sequence[float]) -> float:
    """How much slower than the reference the host ran while probed.

    The same code measured minutes apart on the shared reference host
    differs by 30-50% in wall *and* CPU time (neighbours on the same
    cores), far more than any bound could allow.  Every timing is
    therefore divided by this factor: it reads as "on a quiet reference
    host".  The probe is benchmark code, so only the host moves it.
    """
    return statistics.median(probes) / PROBE_REF_S


@dataclass
class Segment:
    """One pass over a segment of the op stream."""

    positions: List[int]
    lat: List[float]
    objective: List[float]
    flags: List[int]
    worker_lat: List[float] = field(default_factory=list)
    #: Seconds each interleaved host-speed probe took (see probe_work).
    probes: List[float] = field(default_factory=list)
    probe_every: int = 1
    wall: float = 0.0
    cpu: float = 0.0
    child_cpu: float = 0.0
    traced: bool = False
    #: Library workloads: the OptimizationResult per op (last segment only).
    results: Optional[List[Any]] = None
    #: cluster_churn: local index of each solo first op after a bump.
    first_after_bump: List[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.positions)

    def probe(self, j: int) -> None:
        """Before op ``j``, every ``probe_every`` ops: time one probe."""
        if j % self.probe_every == 0:
            self.probes += timed_probes(1)

    @contextmanager
    def metered(self, tracer):
        """Wall and CPU (own and children's) of the enclosed pass."""
        (own0, children0), wall0 = cpu_seconds(), _now()
        yield
        self.wall = _now() - wall0
        own1, children1 = cpu_seconds()
        self.child_cpu = children1 - children0
        self.cpu = own1 - own0 + self.child_cpu
        self.traced = tracer is not None


def _blank(positions: Sequence[int]) -> Segment:
    n = len(positions)
    return Segment(list(positions), [0.0] * n, [math.nan] * n, [0] * n,
                   worker_lat=[0.0] * n,
                   probe_every=max(1, n // PROBES_PER_SEGMENT))


class Runner:
    """Builds the system under test, runs segments against it, stops it."""

    def __init__(self, workload: Workload):
        self.workload = workload
        #: query index -> first plan seen for it (object, or wire document).
        self.plans: Dict[int, Any] = {}
        self.errors: List[str] = []

    def start(self) -> None:
        """One set-up: start the service/gateway, spawn, pre-warm."""

    def run(self, positions: Sequence[int], tracer=None) -> Segment:
        raise NotImplementedError

    def stop(self) -> None:
        """Shut everything down and wait for it."""

    def _note(self, exc: BaseException) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{type(exc).__name__}: {exc}")


class LibraryRunner(Runner):
    """``repro.optimize`` with a cold context per op (dp_* workloads)."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self._calls = [
            (workload.queries[op.query], op.objective, op.memory, op.kwargs())
            for op in workload.stream
        ]
        #: Context memo (hits, lookups) summed over traced ops.
        self.memo = [0, 0]

    def run(self, positions, tracer=None) -> Segment:
        seg = _blank(positions)
        seg.results = [None] * seg.n
        calls = self._calls
        with seg.metered(tracer):
            for j, pos in enumerate(positions):
                query, objective, memory, kwargs = calls[pos]
                seg.probe(j)
                repro.clear_context_cache()  # cold per op; off the op's clock
                if tracer is not None:
                    tracer.op_id = j
                t0 = _now()
                try:
                    result = repro.optimize(query, objective, memory=memory,
                                            **kwargs)
                except Exception as exc:  # a failed op is counted, not fatal
                    seg.lat[j] = _now() - t0
                    self._note(exc)
                    continue
                seg.lat[j] = _now() - t0
                seg.objective[j] = result.objective
                seg.flags[j] = OK | FULL
                seg.results[j] = result
                if tracer is not None:
                    for cache in repro.last_context().stats().values():
                        self.memo[0] += cache["hits"]
                        self.memo[1] += cache["hits"] + cache["misses"]
        return seg


class _VersionSource:
    """A catalog source: just the monotone ``version`` the tiers fence on."""

    def __init__(self) -> None:
        self.version = 0


class _ServedRunner(Runner):
    """What the service and cluster runners share: one ``lec`` request per
    distinct query, and a catalog source whose version the harness owns."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self.source = _VersionSource()
        self.requests = [
            OptimizeRequest(query=q, objective="lec", memory=MEMORY)
            for q in workload.queries
        ]


def _serving_flags(result) -> int:
    flags = OK
    if result.rung == "full":
        flags |= FULL
    if result.cache_hit:
        flags |= HIT
        if result.cache_tier == "shared":
            flags |= SHARED
    return flags


class ServiceRunner(_ServedRunner):
    """One in-process ``OptimizerService``, 1 client, ``submit().result()``."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self.service: Optional[OptimizerService] = None
        self._affinity = None

    def start(self) -> None:
        # One client over an in-process service is serialised by the GIL,
        # so a second core buys nothing; left free, the scheduler sometimes
        # spreads the client and the pool thread over both cores, and every
        # hand-off becomes a cross-CPU wake-up (an IPI and a VM exit here):
        # the same commit then reads 13k or 23k ops/s depending on the
        # host's mood.  Pinning the process to one core removes the coin.
        if hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})
        self.service = OptimizerService(
            max_workers=SHARDS, catalog_sources=[self.source]
        )
        if self.workload.prewarm:
            for request in self.requests:
                self.service.submit(request).result()

    def run(self, positions, tracer=None) -> Segment:
        seg = _blank(positions)
        service, requests, stream = self.service, self.requests, self.workload.stream
        plans = self.plans
        with seg.metered(tracer):
            for j, pos in enumerate(positions):
                q = stream[pos].query
                seg.probe(j)
                if tracer is not None:
                    tracer.op_id = j
                t0 = _now()
                try:
                    result = service.submit(requests[q]).result()
                except Exception as exc:
                    seg.lat[j] = _now() - t0
                    self._note(exc)
                    continue
                seg.lat[j] = _now() - t0
                seg.objective[j] = result.objective_value
                seg.flags[j] = _serving_flags(result)
                seg.worker_lat[j] = result.latency
                if q not in plans:
                    plans[q] = result.plan
        return seg

    def miss_path(self, limit: int) -> List[Any]:
        """Off the clock: move the catalog version, then ask once for each
        of the first ``limit`` queries — invalidate_stale, DP, put."""
        self.source.version += 1
        return [self.service.submit(request).result()
                for request in self.requests[:limit]]

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None


class ClusterRunner(_ServedRunner):
    """A 2-shard ``ClusterGateway`` on a private event loop, 2 clients."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.gateway: Optional[ClusterGateway] = None

    def start(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.gateway = ClusterGateway(
            shards=SHARDS, catalog_sources=[self.source]
        )
        self.loop.run_until_complete(self.gateway.start())
        if self.workload.prewarm:
            # Coldest first, so the hot LRUs end up holding the popular
            # head, as they would after any stretch of Zipf traffic.
            order = range(len(self.requests) - 1, -1, -1)
            self.loop.run_until_complete(self._fan_out(order, self._warm_one))

    async def _warm_one(self, q: int) -> None:
        result = await self.gateway.optimize(self.requests[q])
        if not result.ok:
            raise RuntimeError(f"pre-warm of query {q} failed: {result.error}")

    async def _fan_out(self, items, fn) -> None:
        """Closed loop: each of the clients takes the next item when free."""
        it = iter(items)

        async def client() -> None:
            for item in it:
                await fn(item)

        await asyncio.gather(*(client() for _ in range(self.workload.clients)))

    def run(self, positions, tracer=None) -> Segment:
        seg = _blank(positions)
        with seg.metered(tracer):
            self.loop.run_until_complete(self._segment(seg, tracer))
        return seg

    async def _segment(self, seg: Segment, tracer) -> None:
        stream, gateway, requests, plans = (
            self.workload.stream, self.gateway, self.requests, self.plans
        )

        async def one(j: int) -> None:
            q = stream[seg.positions[j]].query
            seg.probe(j)
            if tracer is not None:
                tracer.op_id = j
            t0 = _now()
            try:
                result = await gateway.optimize(requests[q])
            except Exception as exc:
                seg.lat[j] = _now() - t0
                self._note(exc)
                return
            seg.lat[j] = _now() - t0
            if not result.ok:
                self._note(RuntimeError(f"{result.status}: {result.error}"))
                return
            seg.objective[j] = result.objective_value
            flags = _serving_flags(result)
            if result.coalesced:
                flags |= COALESCED
            seg.flags[j] = flags
            seg.worker_lat[j] = result.worker_latency
            if q not in plans:
                plans[q] = result.plan_doc

        bump = self.workload.bump_every
        if bump is None:
            await self._fan_out(range(seg.n), one)
            return
        # Churn: at each epoch boundary every in-flight answer has arrived
        # (the previous fan-out returned), the catalog version moves, and
        # one request runs alone and pays for the fence — purge, broadcast,
        # miss — before both clients resume.
        for start in range(0, seg.n, bump):
            self.source.version += 1
            seg.first_after_bump.append(start)
            await one(start)
            await self._fan_out(range(start + 1, min(start + bump, seg.n)), one)

    def snapshot(self) -> Dict[str, Any]:
        return self.loop.run_until_complete(self.gateway.snapshot())

    def stop(self) -> None:
        if self.gateway is not None:
            self.loop.run_until_complete(self.gateway.close())
            self.gateway = None
        if self.loop is not None:
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None
        for proc in multiprocessing.active_children():
            proc.join(timeout=10.0)


_RUNNERS = {
    "library": LibraryRunner, "service": ServiceRunner, "cluster": ClusterRunner,
}


def make_runner(workload: Workload) -> Runner:
    return _RUNNERS[workload.family](workload)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def _import_seconds(modules: str, root: Path) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = _now()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        check=True, env=env, cwd=str(root),
        stdout=subprocess.DEVNULL,
    )
    return _now() - t0


def setup_cycles(workload: Workload, root: Path, cycles: int):
    """Set up ``cycles`` times; keep the last system running.

    One cycle is what a deployment pays before its first request: a
    fresh interpreter importing the packages the workload uses, then
    ``Runner.start`` (service or gateway start, worker and Manager spawn,
    cache pre-warm), divided by the host factor probed just before and
    after it.  ``setup_s`` is the median cycle, so one slow process spawn
    does not decide it.
    """
    records: List[Dict[str, float]] = []
    runner: Optional[Runner] = None
    for c in range(cycles):
        probes = timed_probes(50)
        import_s = _import_seconds(workload.imports, root)
        runner = make_runner(workload)
        t0 = _now()
        runner.start()
        start_s = _now() - t0
        factor = host_factor(probes + timed_probes(50))
        records.append({"import_s": import_s, "start_s": start_s,
                        "host_factor": factor,
                        "total_s": (import_s + start_s) / factor})
        if c < cycles - 1:
            runner.stop()
    return runner, records


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def measure(workload: Workload, runner: Runner, seconds: float,
            min_segments: int, tracer_factory=None):
    """Run segments for about ``seconds``; returns ``(segments, tracer)``.

    Untraced (``tracer_factory`` is None): at least ``min_segments``
    segments, then more until the time is used.  Traced: one untraced
    reference segment, then the tracer is installed (after the gateway
    forked its workers, so they stay uninstrumented) and traced segments
    fill the remaining time.
    """
    segments: List[Segment] = []
    tracer = None
    t0 = _now()

    def time_left() -> bool:
        mean = (_now() - t0) / max(1, len(segments))
        return _now() - t0 + 0.5 * mean <= seconds

    def run_one() -> None:
        segments.append(runner.run(workload.segment(len(segments)), tracer))
        if len(segments) > 1:
            segments[-2].results = None  # keep only the last pass's objects

    if tracer_factory is None:
        while len(segments) < min_segments or (
            time_left() and len(segments) < _MAX_SEGMENTS
        ):
            run_one()
        return segments, None

    run_one()
    tracer = tracer_factory()
    tracer.install()
    try:
        run_one()
        tracer.record_spans = False  # the span file holds one segment
        while time_left() and len(segments) < _MAX_SEGMENTS:
            run_one()
    finally:
        tracer.uninstall()
    return segments, tracer


def _segment_metrics(seg: Segment, bad: Sequence[bool]) -> Dict[str, float]:
    """One segment's timing metrics, host-normalised, plus the raw inputs."""
    good = sum(1 for j in range(seg.n) if (seg.flags[j] & OK) and not bad[j])
    lat_ms = [x * 1e3 for x in seg.lat]
    factor = host_factor(seg.probes)
    return {
        "throughput_ops_s": good / seg.wall * factor,
        "latency_p50_ms": percentile(lat_ms, 50) / factor,
        "latency_p90_ms": percentile(lat_ms, 90) / factor,
        "cpu_ms_per_op": seg.cpu * 1e3 / seg.n / factor,
    }


def end_to_end(segments: Sequence[Segment], bad: Sequence[Sequence[bool]],
               setup: Sequence[Dict[str, float]], rss_mb: float) -> Dict[str, Any]:
    """The end-to-end metrics with their per-segment values and spreads."""
    from .metrics import END_TO_END

    per_segment = [_segment_metrics(s, b) for s, b in zip(segments, bad)]
    out: Dict[str, Any] = {}
    for metric in END_TO_END:
        if metric.name == "setup_s":
            values = [c["total_s"] for c in setup]
        elif metric.name == "peak_rss_mb":
            values = [rss_mb]
        else:
            values = [m[metric.name] for m in per_segment]
        out[metric.name] = dict(segment_summary(values), unit=metric.unit)
    out["latency_p90_ms"]["supported"] = supported_percentile(segments[0].n) >= 90
    return out
