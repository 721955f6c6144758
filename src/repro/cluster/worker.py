"""One cluster shard: a process hosting an ``OptimizerService``.

Each worker owns the PR 2 serving stack —
:class:`~repro.serving.service.OptimizerService` with its deadline
ladder, EWMA latency estimates and metrics — and **no plan cache**: the
cluster's one tier lives in the gateway
(:class:`~repro.cluster.shared_cache.SharedPlanTier`), which answers
every repeat request before a frame is written, so what reaches a worker
is by construction something the cluster does not have.  Being a
separate *process*, its CPU-bound dynamic programming runs on its own
core, which is the entire point: N shards ≈ N cores of optimization
throughput instead of one GIL's worth.

The worker speaks the :mod:`repro.cluster.protocol` frame protocol over
a socket inherited from the gateway: ``optimize`` requests are decoded
into :class:`~repro.serving.service.OptimizeRequest` objects and run on
the service pool, responses are written back under a send lock (pool
threads complete out of order), and ``ping`` is answered immediately
from the control loop with queue depth and a metrics snapshot.  A worker
holds nothing the catalog version could make stale, so it is never told
about the fence, and a crash costs the cluster that shard's in-flight
work (which the gateway replays) and not one cached plan.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..serving.service import OptimizerService, ServingResult
from .protocol import (
    ProtocolError,
    decode_request,
    iter_requests,
    read_frame,
    write_frame,
)

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its serving stack."""

    shard_id: int
    threads: int = 1
    coarse_buckets: int = 3
    default_deadline: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)


class _FrameSender:
    """Serializes response frames from concurrent pool threads."""

    def __init__(self, stream):
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> bool:
        """Write one frame; False once the stream is gone."""
        try:
            with self._lock:
                write_frame(self._stream, message)
            return True
        except (OSError, ValueError):
            # Gateway hung up mid-send; the worker loop will see EOF.
            return False


def _result_message(request_id: int, result: ServingResult) -> Dict[str, Any]:
    from ..tools.serialize import plan_to_dict

    return {
        "type": "result",
        "id": request_id,
        "plan": plan_to_dict(result.plan),
        "objective_value": float(result.objective_value),
        "objective": result.objective,
        "rung": result.rung,
        "latency": float(result.latency),
        "deadline_exceeded": bool(result.deadline_exceeded),
        "skipped_rungs": list(result.skipped_rungs),
    }


def worker_main(sock, config: WorkerConfig) -> None:
    """Entry point of one worker process; returns on shutdown/EOF."""
    # The gateway owns Ctrl-C handling; workers exit via shutdown/EOF.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    sender = _FrameSender(wfile)

    service = OptimizerService(
        max_workers=config.threads,
        cache=None,
        coarse_buckets=config.coarse_buckets,
        default_deadline=config.default_deadline,
    )

    def _respond(request_id: int, future) -> None:
        if future.cancelled():
            sender.send({
                "type": "error", "id": request_id,
                "error": "CancelledError", "message": "worker shutting down",
            })
            return
        exc = future.exception()
        if exc is not None:
            sender.send({
                "type": "error", "id": request_id,
                "error": type(exc).__name__, "message": str(exc),
            })
            return
        sender.send(_result_message(request_id, future.result()))

    try:
        while True:
            try:
                message = read_frame(rfile)
            except ProtocolError:
                break  # corrupt stream: die loudly, gateway restarts us
            if message is None:
                break  # gateway hung up
            mtype = message["type"]

            if mtype in ("optimize", "optimize_batch"):
                # A legacy single-request frame is a batch of one; every
                # request in the frame is answered independently.
                for body in iter_requests(message):
                    request_id = int(body["id"])
                    try:
                        request = decode_request(body)
                    except ProtocolError as exc:
                        sender.send({
                            "type": "error", "id": request_id,
                            "error": "ProtocolError", "message": str(exc),
                        })
                        continue
                    try:
                        future = service.submit(request)
                    except RuntimeError as exc:
                        sender.send({
                            "type": "error", "id": request_id,
                            "error": "RuntimeError", "message": str(exc),
                        })
                        continue
                    future.add_done_callback(
                        lambda f, rid=request_id: _respond(rid, f)
                    )

            elif mtype == "ping":
                sender.send({
                    "type": "pong",
                    "seq": message.get("seq"),
                    "shard": config.shard_id,
                    "queue_depth": service.pending_requests(),
                    "metrics": service.metrics_snapshot(),
                })

            elif mtype == "shutdown":
                sender.send({"type": "bye", "shard": config.shard_id})
                break

            # Unknown message types are ignored: a newer gateway may
            # speak a superset of this protocol.
    finally:
        service.close()
        try:
            wfile.close()
            rfile.close()
            sock.close()
        except OSError:  # pragma: no cover
            pass
