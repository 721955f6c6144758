"""One cluster shard: a process that runs the degradation ladder.

Each worker runs :class:`~repro.serving.service.Ladder` — the deadline
ladder with its EWMA latency estimates and metrics — on every request
it reads, under the deadline its frame carries (a worker is configured
by its shard id alone), and holds **no plan**: the cluster's one plan tier
lives in the gateway (``ClusterGateway.shared_tier``), which answers every repeat
request before a frame is written, so what reaches a worker is by
construction something the cluster does not have.  There is one worker
process per shard, so its CPU-bound dynamic programming runs outside
the gateway's interpreter and its GIL.

The worker speaks the :mod:`repro.cluster.protocol` frame protocol over
a socket inherited from the gateway, on **one thread**: the loop that
read a request's frame runs it through ``Ladder.run`` and writes the
reply itself, in arrival order (shards are the unit of parallelism; a
second DP thread under one GIL buys nothing).  A ``ping`` is therefore
answered *between* requests, never during one, and its ``queue_depth``
is 0 by construction — admission reads the gateway's own ``pending``.

What a worker holds is **warmth, not answers**: a bounded LRU
(:func:`recall`) from a request frame's bytes after its head to the request
decoded for it and the ``OptimizationContext`` its runs share, so the request
a version bump sends back with unmoved statistics is recognised undecoded and
costs one DP over memoized sizes and step costs.  None of it is a plan: the
catalog fence does not concern a worker, and a crash costs the cluster that
shard's in-flight work (which the gateway replays) and its warmth.
"""

from __future__ import annotations

import signal
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from ..core.context import OptimizationContext
from ..serving.service import Ladder, OptimizeRequest, ServingResult
from ..tools.serialize import plan_to_dict
from .protocol import (
    ProtocolError,
    decode_request,
    join_request,
    read_payload,
    split_request,
    write_frame,
)

__all__ = ["REMEMBERED_REQUESTS", "recall", "worker_main"]

#: Requests a worker remembers.  One costs ≈ 25 KB (tracemalloc: 1.8 KB
#: key bytes, ≈ 8 KB query and empty context, ≈ 15 KB memoized by one
#: full-rung n=3–5 ``lec`` run), so a full LRU is ≈ 6.5 MB per shard.
REMEMBERED_REQUESTS = 256


def recall(memo: "OrderedDict[bytes, OptimizeRequest]", head: Dict[str, Any],
           key: Optional[bytes]) -> Tuple[OptimizeRequest, bool]:
    """A frame :func:`~repro.cluster.protocol.split_request` split, as a request, and
    whether ``memo`` already held it.

    A remembered request is the *same* query, memory and context objects under this
    head's deadline: nothing past the head is parsed, every context memo key compares
    by identity.  The key is the whole stable text, never a digest: one digit's
    difference is a plain miss.  A frame without a key is decoded whole, not kept.
    """
    request = None if key is None else memo.get(key)
    if request is None:
        request = decode_request(head if key is None else join_request(head, key))
        request = replace(request, context=OptimizationContext(request.query))
        if key is not None:
            memo[key] = request
            if len(memo) > REMEMBERED_REQUESTS:
                memo.popitem(last=False)
        return request, False
    memo.move_to_end(key)
    deadline = head["deadline"]
    if deadline != request.deadline:
        request = replace(request, deadline=None if deadline is None else float(deadline))
    return request, True


def _result_message(request_id: int, result: ServingResult) -> Dict[str, Any]:
    return {
        "type": "result",
        "id": request_id,
        "plan": plan_to_dict(result.plan),
        "objective_value": float(result.objective_value),
        "objective": result.objective,
        "rung": result.rung,
        "latency": float(result.latency),
        "deadline_exceeded": bool(result.deadline_exceeded),
    }


def worker_main(sock, shard_id: int) -> None:
    """Entry point of shard ``shard_id``'s worker process; returns on shutdown/EOF."""
    # The gateway owns Ctrl-C handling; workers exit via shutdown/EOF.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    ladder = Ladder()
    memo: "OrderedDict[bytes, OptimizeRequest]" = OrderedDict()
    requests = ladder.metrics.counter("serving.requests")
    remembered = ladder.metrics.counter("serving.requests_remembered")

    try:
        while True:
            try:
                payload = read_payload(rfile)
                if payload is None:
                    break  # gateway hung up
                message, key = split_request(payload)
            except ProtocolError:
                break  # corrupt stream: die loudly, gateway restarts us
            mtype = message["type"]

            if mtype == "optimize":
                request_id = int(message["id"])
                try:
                    request, known = recall(memo, message, key)
                    if known:
                        remembered.increment()
                    requests.increment()
                    reply = _result_message(request_id, ladder.run(request))
                except Exception as exc:  # answered, not fatal
                    reply = {
                        "type": "error", "id": request_id,
                        "error": type(exc).__name__, "message": str(exc),
                    }
                write_frame(wfile, reply)

            elif mtype == "ping":
                write_frame(wfile, {
                    "type": "pong",
                    "seq": message.get("seq"),
                    "shard": shard_id,
                    "queue_depth": 0,  # requests run here: none can be waiting
                    "metrics": ladder.metrics.snapshot(),
                })

            elif mtype == "shutdown":
                write_frame(wfile, {"type": "bye", "shard": shard_id})
                break

            # Unknown message types are ignored: a newer gateway may
            # speak a superset of this protocol.
    except OSError:
        pass  # gateway hung up mid-send; nobody is left to answer
    finally:
        try:
            wfile.close()
            rfile.close()
            sock.close()
        except OSError:  # pragma: no cover
            pass
