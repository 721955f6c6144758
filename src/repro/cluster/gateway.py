"""The cluster gateway: one asyncio front end over N worker processes.

``repro.serving`` serves from many *threads*, but CPU-bound LEC dynamic
programming holds the GIL.  The gateway runs one worker process per
shard instead (on 2 CPUs, 2 shards optimize 1.9x the in-process rate
and 1.33x one shard's; EXPERIMENTS.md, "One replay driver"): each
request is validated and named (:meth:`OptimizeRequest.cache_key`),
answered on the spot when the cluster's plan tier
(:attr:`ClusterGateway.shared_tier`, a
:class:`~repro.serving.plan_cache.PlanCache`) already holds its plan,
and otherwise **coalesced** (concurrent duplicates share one
optimization), admitted or shed by the
:class:`~repro.cluster.admission.AdmissionController`, and **routed by
fingerprint hash** to a fixed worker process, which runs the degradation
ladder (:class:`~repro.serving.service.Ladder`) and holds no plan.

The gateway itself does no optimization and no plan decoding — a hit
hands out the stored plan document, a miss shuffles frames.  A hit runs
from recognition to result without a suspension point: no digest, no
admission decision, no frame, no worker.

Reliability model
-----------------
* A worker that dies (crash, OOM kill, test-inflicted ``kill()``) is
  detected by EOF on its socket; the gateway respawns it and
  **replays** every request that was in flight on the dead worker.
  Accepted requests are therefore answered (possibly
  degraded, possibly after a retry) or failed explicitly after
  :data:`MAX_RETRIES` replays; they are never silently dropped.  Workers
  hold no cached plan (the requests they remember decoding are warmth,
  unfenced), so a crash costs in-flight work and nothing else: every
  key the tier holds keeps answering, with every worker dead.
* A worker is one thread: requests are answered in the order sent and
  a ``ping`` between two of them, never during one; its ``queue_depth``
  is always 0 (admission counts ``shard.pending`` here).
* The version fence lives in the tier, as it does in process.  A
  catalog/feedback mutation seen while naming a request moves the
  tier's fence and empties it in one call
  (:meth:`~repro.serving.plan_cache.PlanCache.invalidate_stale`), before
  any lookup and with no suspension point in between; the tier refuses
  to store a reply whose key is fenced at another version, so a reply
  that lands after a bump reaches its caller and is not kept.  A stale
  plan is never served.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import socket
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..costmodel.model import CostModel
from ..optimizer.errors import OptimizerConfigError
from ..plans.nodes import Plan
from ..serving.plan_cache import PlanCache, PlanCacheKey
from ..serving.service import RUNG_FULL, OptimizeRequest
from ..tools.serialize import plan_from_dict, query_to_dict
from .admission import SHED, AdmissionController, AdmissionDecision
from .metrics import ClusterMetrics
from .protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    encode_request,
)
from .shared_cache import fingerprint_digest
from .worker import worker_main

__all__ = ["ClusterResult", "ClusterGateway", "GatewayError"]

#: Plans the gateway's tier holds (and fingerprints it remembers routes for).
SHARED_MAX_ENTRIES = 4096
#: Replays allowed per request before it fails explicitly.
MAX_RETRIES = 2
#: A worker that dies within ``_CRASH_WINDOW`` s of its spawn, having
#: answered nothing, doubles the wait before the next spawn (seconds).
_CRASH_WINDOW, _WAIT_FIRST, _WAIT_CAP = 1.0, 0.05, 1.0


class GatewayError(RuntimeError):
    """Raised for gateway lifecycle misuse (not started, already closed)."""


class ClusterResult(NamedTuple):
    """One request's outcome as seen at the gateway: an immutable tuple.

    ``status`` is ``"ok"`` (a plan came back), ``"shed"`` (refused at
    admission — never sent to a worker), or ``"error"`` (the worker
    reported a failure, or retries were exhausted).  The plan travels
    as its serialized document and is only decoded when :attr:`plan` is
    touched, keeping the gateway hot path free of tree building.  A
    cache hit (``cache_tier == "shared"``) carries the very document the
    tier stores — every hit for a key shares it, so treat it as
    read-only; :attr:`plan` builds an independent tree each time.  A
    changed copy is ``result._replace(...)`` (a coalesced follower's is
    ``_replace(coalesced=True)``).
    """

    status: str
    shard: int
    rung: Optional[str] = None
    objective: Optional[str] = None
    objective_value: Optional[float] = None
    cache_hit: bool = False
    cache_tier: Optional[str] = None
    worker_latency: float = 0.0
    latency: float = 0.0
    retries: int = 0
    coalesced: bool = False
    deadline_exceeded: bool = False
    admission: Optional[AdmissionDecision] = None
    plan_doc: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when a plan was produced."""
        return self.status == "ok"

    @property
    def plan(self) -> Plan:
        """The winning plan, deserialized on demand."""
        if self.plan_doc is None:
            raise GatewayError(f"no plan on a {self.status!r} result")
        return plan_from_dict(self.plan_doc)


@dataclass
class _Pending:
    """One request in flight to a worker (kept for replay on crash)."""

    future: "asyncio.Future[ClusterResult]"
    frame: bytes
    key: PlanCacheKey
    admission: AdmissionDecision
    sent_at: float
    attempts: int = 1


@dataclass
class _Shard:
    """One worker process plus its connection state."""

    index: int
    proc: Any = None
    writer: Optional[asyncio.StreamWriter] = None
    reader_task: Optional["asyncio.Task"] = None
    pending: Dict[int, _Pending] = field(default_factory=dict)
    ping_waiters: Dict[int, "asyncio.Future"] = field(default_factory=dict)
    restarts: int = 0
    backoff: float = 0.0


def _preferred_context():
    """``fork`` keeps worker startup cheap; fall back where unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ClusterGateway:
    """Asyncio gateway over ``shards`` optimizer worker processes.

    Parameters
    ----------
    shards:
        Number of worker processes, one per shard.
    catalog_sources:
        Version-carrying catalog objects (``StatisticsCatalog``,
        ``SelectivityFeedback``) — the gateway watches their versions;
        their tuple is the fence on every key of the shared tier.

    The tier holds :data:`SHARED_MAX_ENTRIES` plans (LRU beyond it), a
    request is replayed at most :data:`MAX_RETRIES` times, and admission
    is an :class:`AdmissionController` with its module's limits.
    """

    def __init__(self, shards: int = 2, catalog_sources: Sequence = ()):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = shards
        self._sources = tuple(catalog_sources)
        self.admission = AdmissionController()
        self.metrics = ClusterMetrics()

        self._ctx = _preferred_context()
        self.shared_tier = PlanCache(max_entries=SHARED_MAX_ENTRIES)
        self.shared_tier.invalidate_stale(tuple(int(s.version) for s in self._sources))
        #: query fingerprint -> shard index (see :meth:`shard_for`).
        self._routes: Dict[Tuple, int] = {}
        #: query object -> its wire document (a dropped query drops it).
        self._query_docs = weakref.WeakKeyDictionary()
        self._shards: List[_Shard] = []
        self._inflight: Dict[PlanCacheKey, "asyncio.Future[ClusterResult]"] = {}
        self._ids = itertools.count(1)
        self._ping_ids = itertools.count(1)
        # Workers serve the default cost model; only its key is read here.
        self._cost_model = CostModel()
        self._started = False
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ClusterGateway":
        """Spawn every worker."""
        if self._started:
            raise GatewayError("gateway already started")
        self._shards = [_Shard(index=i) for i in range(self.n_shards)]
        for shard in self._shards:
            await self._spawn(shard)
        self._started = True
        return self

    async def __aenter__(self) -> "ClusterGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Shut every worker down; requests still in flight fail explicitly."""
        if not self._started or self._closing:
            return
        self._closing = True
        for shard in self._shards:
            if shard.writer is not None:
                try:
                    shard.writer.write(encode_frame({"type": "shutdown"}))
                    await shard.writer.drain()
                except (ConnectionError, OSError):
                    pass
        for shard in self._shards:
            if shard.reader_task is not None:
                try:
                    await asyncio.wait_for(shard.reader_task, timeout=10.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    shard.reader_task.cancel()
            if shard.writer is not None:
                shard.writer.close()
            await self._join_proc(shard)
            for pending in shard.pending.values():
                if not pending.future.done():
                    pending.future.set_result(ClusterResult(
                        status="error", shard=shard.index,
                        error="gateway closed with request in flight",
                    ))
            shard.pending.clear()

    async def _join_proc(self, shard: _Shard, timeout: float = 5.0) -> None:
        proc = shard.proc
        if proc is None:
            return
        deadline = time.monotonic() + timeout
        while proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if proc.is_alive():
            proc.terminate()

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------

    async def _spawn(self, shard: _Shard) -> None:
        parent_sock, child_sock = socket.socketpair()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_sock, shard.index),
            daemon=True,
            name=f"repro-cluster-worker-{shard.index}",
        )
        proc.start()
        child_sock.close()
        parent_sock.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        shard.proc = proc
        shard.writer = writer
        shard.reader_task = asyncio.get_event_loop().create_task(
            self._read_loop(shard, reader)
        )

    async def _read_loop(self, shard: _Shard,
                         reader: asyncio.StreamReader) -> None:
        decoder, young = FrameDecoder(), time.monotonic() + _CRASH_WINDOW
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                young = 0.0  # it answered: its death is no crash loop
                for message in decoder.feed(data):
                    self._dispatch(shard, message)
        except (ConnectionError, OSError, ProtocolError):
            pass
        if not self._closing:
            await self._restart(shard, died_young=time.monotonic() < young)

    def _dispatch(self, shard: _Shard, message: Dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype in ("result", "error"):
            pending = shard.pending.pop(int(message["id"]), None)
            if pending is None:
                return  # replayed request answered twice; first wins
            self._inflight.pop(pending.key, None)
            if mtype == "result" and message.get("rung") == RUNG_FULL:
                # Refused if the fence moved since the request was named.
                self.shared_tier.put(
                    pending.key, message["plan"], message["objective_value"],
                    message["objective"], shard.index,
                )
            if not pending.future.done():
                pending.future.set_result(
                    self._to_result(shard, pending, message)
                )
        elif mtype == "pong":
            waiter = shard.ping_waiters.pop(int(message.get("seq", 0)), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(message)
        elif mtype == "bye":
            pass  # shutdown handshake; the read loop ends on EOF next

    def _to_result(self, shard: _Shard, pending: _Pending,
                   message: Dict[str, Any]) -> ClusterResult:
        latency = time.monotonic() - pending.sent_at
        retries = pending.attempts - 1
        if message["type"] == "error":
            self.metrics.registry.counter("cluster.errors").increment()
            return ClusterResult(
                status="error", shard=shard.index, latency=latency,
                retries=retries, admission=pending.admission,
                error=f"{message.get('error')}: {message.get('message')}",
            )
        worker_latency = float(message.get("latency", 0.0))
        self.admission.observe_service_time(worker_latency)
        self.metrics.observe_request(
            latency=latency,
            rung=message.get("rung"),
            cache_hit=False,
            retried=retries > 0,
        )
        return ClusterResult(
            status="ok",
            shard=shard.index,
            rung=message.get("rung"),
            objective=message.get("objective"),
            objective_value=message.get("objective_value"),
            worker_latency=worker_latency,
            latency=latency,
            retries=retries,
            deadline_exceeded=bool(message.get("deadline_exceeded")),
            admission=pending.admission,
            plan_doc=message.get("plan"),
        )

    async def _restart(self, shard: _Shard, died_young: bool = False) -> None:
        """Respawn a dead worker and replay its in-flight requests."""
        shard.restarts += 1
        self.metrics.registry.counter("cluster.worker_restarts").increment()
        for waiter in shard.ping_waiters.values():
            if not waiter.done():
                waiter.cancel()
        shard.ping_waiters.clear()
        shard.writer.close()  # the dead worker's socket; a write to it is dropped
        await self._join_proc(shard, timeout=2.0)
        shard.backoff = min(2 * shard.backoff or _WAIT_FIRST, _WAIT_CAP) if died_young else 0.0
        if shard.backoff:
            await asyncio.sleep(shard.backoff)
            if self._closing:
                return
        await self._spawn(shard)
        replays = list(shard.pending.items())
        shard.pending.clear()
        # Every replay is registered before the first write: a write can
        # suspend, and the fresh worker's death in that window restarts
        # the shard again, which replays what ``pending`` holds.
        for request_id, pending in replays:
            if pending.future.done():
                continue
            if pending.attempts > MAX_RETRIES:
                self._inflight.pop(pending.key, None)
                self.metrics.registry.counter("cluster.errors").increment()
                pending.future.set_result(ClusterResult(
                    status="error", shard=shard.index,
                    retries=pending.attempts - 1, admission=pending.admission,
                    error=f"request retried {pending.attempts - 1} times "
                          "across worker restarts",
                ))
                continue
            pending.attempts += 1
            self.metrics.registry.counter("cluster.retries").increment()
            shard.pending[request_id] = pending
        try:
            for pending in shard.pending.values():
                shard.writer.write(pending.frame)
            await shard.writer.drain()
        except (ConnectionError, OSError):
            pass  # the fresh worker died too; its restart replays these

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    async def check_health(self, timeout: float = 5.0) -> List[Optional[Dict]]:
        """Ping every worker; restart any that died; return pong snapshots."""
        self._require_started()
        out: List[Optional[Dict]] = []
        for shard in self._shards:
            if shard.proc is not None and not shard.proc.is_alive():
                # The read loop normally notices EOF first; this catches
                # a worker that died without the socket closing cleanly.
                if shard.reader_task is not None and shard.reader_task.done():
                    await self._restart(shard)
            try:
                out.append(await self.ping(shard.index, timeout=timeout))
            except (asyncio.TimeoutError, asyncio.CancelledError,
                    ConnectionError, OSError):
                out.append(None)
        return out

    async def ping(self, shard_index: int, timeout: float = 5.0) -> Dict:
        """One worker's health snapshot (queue depth, metrics)."""
        self._require_started()
        shard = self._shards[shard_index]
        seq = next(self._ping_ids)
        waiter: "asyncio.Future[Dict]" = asyncio.get_event_loop().create_future()
        shard.ping_waiters[seq] = waiter
        shard.writer.write(encode_frame({"type": "ping", "seq": seq}))
        await shard.writer.drain()
        try:
            return await asyncio.wait_for(waiter, timeout=timeout)
        finally:
            shard.ping_waiters.pop(seq, None)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def _require_started(self) -> None:
        if not self._started or self._closing:
            raise GatewayError("gateway is not running (start() it first)")

    def shard_for(self, fingerprint: Tuple) -> int:
        """Fingerprint-hash routing: the shard owning this query.  The
        digest runs once per fingerprint; routes are remembered in a map
        bounded like the plan tier (oldest out first)."""
        routes = self._routes
        shard = routes.get(fingerprint)
        if shard is None:
            if len(routes) >= self.shared_tier.max_entries:
                del routes[next(iter(routes))]
            digest = fingerprint_digest(fingerprint)
            shard = routes[fingerprint] = int(digest[:8], 16) % self.n_shards
        return shard

    def _key_of(self, request: OptimizeRequest) -> PlanCacheKey:
        """Validate one request and name its answer at the current fence.

        Raises before anything is registered, so a malformed request
        leaves no trace.  A moved catalog version moves the tier's fence
        first, synchronously: no request can look the tier up in between.
        """
        if request.cost_model is not None:
            raise OptimizerConfigError(
                "the cluster tier serves the default cost model; "
                "per-request cost models do not cross the wire yet"
            )
        tier, version = self.shared_tier, tuple(int(s.version) for s in self._sources)
        if version != tier.version:
            tier.invalidate_stale(version)
            self.metrics.registry.counter("cluster.catalog_invalidations").increment()
        return request.cache_key(version, self._cost_model)

    async def optimize(self, request: OptimizeRequest) -> ClusterResult:
        """Serve one request through the cluster.

        Everything that can refuse a request (its name, its document, its
        frame) runs before it is registered, and nothing before the write
        suspends: a hit is complete, and a miss registered, before any
        other task runs.
        """
        self._require_started()
        started = time.monotonic()
        key = self._key_of(request)
        self.metrics.observe_arrival()

        stored = self.shared_tier.get(key)
        if stored is not None:
            latency = time.monotonic() - started
            self.metrics.observe_request(
                latency=latency, rung=RUNG_FULL, cache_hit=True, retried=False,
            )
            return ClusterResult(
                status="ok", shard=stored.shard, rung=RUNG_FULL,
                objective=stored.objective,
                objective_value=stored.objective_value,
                cache_hit=True, cache_tier="shared", latency=latency,
                plan_doc=stored.plan_doc,
            )

        leader = self._inflight.get(key)
        if leader is not None:
            # Coalesce: ride the identical in-flight request.
            self.metrics.registry.counter("cluster.coalesced").increment()
            return (await asyncio.shield(leader))._replace(coalesced=True)

        shard = self._shards[self.shard_for(key.fingerprint)]
        decision = self.admission.decide(len(shard.pending), request.deadline)
        if decision.action == SHED:
            self.metrics.registry.counter("cluster.shed").increment()
            return ClusterResult(
                status="shed", shard=shard.index, admission=decision,
                error=decision.reason,
            )
        if decision.action != "admit":
            self.metrics.registry.counter("cluster.admission_degraded").increment()

        request_id = next(self._ids)
        docs, query = self._query_docs, request.query
        query_doc = docs.get(query) or docs.setdefault(query, query_to_dict(query))
        if decision.effective_deadline != request.deadline:
            request = replace(request, deadline=decision.effective_deadline)
        frame = encode_frame(encode_request(request_id, request, query_doc))
        future: "asyncio.Future[ClusterResult]" = (
            asyncio.get_event_loop().create_future()
        )
        shard.pending[request_id] = _Pending(
            future=future, frame=frame, key=key,
            admission=decision, sent_at=started,
        )
        self._inflight[key] = future
        try:
            shard.writer.write(frame)
            await shard.writer.drain()
        except (ConnectionError, OSError):
            pass  # the read loop sees the broken pipe and replays
        return await asyncio.shield(future)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> List[_Shard]:
        """Live shard states (tests and the replay driver poke these)."""
        return self._shards

    def kill_worker(self, shard_index: int) -> None:
        """Hard-kill one worker (crash injection for tests/benchmarks)."""
        self._require_started()
        proc = self._shards[shard_index].proc
        if proc is not None and proc.is_alive():
            proc.kill()

    async def snapshot(self) -> Dict[str, Any]:
        """Cluster-wide aggregated metrics (see ClusterMetrics.aggregate)."""
        self._require_started()
        pongs = await self.check_health()
        return self.metrics.aggregate(
            pongs,
            shed_depths=[len(s.pending) for s in self._shards],
            restarts=[s.restarts for s in self._shards],
            admission=self.admission.stats(),
            shared=self.shared_tier.stats(),
        )
