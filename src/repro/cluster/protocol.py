"""Length-prefixed framed messages between the gateway and its workers.

The cluster tier is a classic request/response protocol over a byte
stream (a ``socketpair`` per worker).  Every message is one **frame**::

    +----------------+---------------------------+
    | 4-byte length  |  JSON payload (UTF-8)     |
    |  (big-endian)  |  {"type": ..., ...}       |
    +----------------+---------------------------+

JSON keeps the wire format debuggable and reuses the repository's
existing documents: requests carry :func:`repro.tools.serialize.
query_to_dict` query documents and memory inputs (scalar / distribution
/ Markov documents); responses carry ``plan`` documents — exactly what
the gateway's shared tier stores, so a worker response is kept as it
arrived, without re-encoding.

Message types
-------------

``optimize``  gateway → worker: one optimization request, spelled by
              :func:`encode_request` / :func:`decode_request` only; one per
              frame, answered by its own ``result`` or ``error`` frame.  Its
              volatile ``type``, ``id``, ``deadline`` come first, then the
              stable ``query`` doc, ``objective``, ``memory`` doc and knobs
              in a fixed order: the bytes after ``deadline`` are the
              request's recognition key.
``result``    worker → gateway: the answer (``id``, ``plan`` doc,
              ``objective_value``, ``objective``, ``rung``,
              ``latency``).
``error``     worker → gateway: request failed (``id``, ``error`` class
              name, ``message``).
``ping``      gateway → worker: health probe (``seq``), answered
              between requests (a worker is one thread).
``pong``      worker → gateway: ``seq`` echoed plus ``queue_depth``
              (0 by construction) and a metrics snapshot.
``shutdown``  gateway → worker: drain and exit (worker answers ``bye``).

The one blocking reader, :func:`read_payload` (:func:`read_frame` decodes
it), and :func:`write_frame` serve the worker side; the incremental
:class:`FrameDecoder` serves the gateway's asyncio reader.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from numbers import Real
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..serving.service import OptimizeRequest
from ..tools.serialize import (
    SerializationError,
    distribution_from_dict,
    distribution_to_dict,
    markov_from_dict,
    markov_to_dict,
    query_from_dict,
    query_to_dict,
)

__all__ = [
    "ProtocolError",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_payload", "read_frame",
    "write_frame",
    "FrameDecoder",
    "encode_memory",
    "decode_memory",
    "encode_request",
    "split_request", "join_request",
    "decode_request",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a longer length prefix means the
#: stream is corrupt (or an endianness/framing bug), not a real message.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """Raised on malformed frames or messages."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as length-prefixed bytes."""
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from None
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds limit")
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload is not a typed message")
    return message


def _read_exact(stream, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes from a blocking stream; None on clean EOF."""
    chunks: List[bytes] = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got:
                raise ProtocolError("stream closed mid-frame")
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_payload(stream) -> Optional[bytes]:
    """Read one frame's payload from a blocking binary stream; None on EOF."""
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length == 0:
        # The empty payload is not valid JSON, so a zero-length prefix
        # can only be stream corruption; reject it before reading.
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    payload = _read_exact(stream, length)
    if payload is None:
        raise ProtocolError("stream closed mid-frame")
    return payload


def read_frame(stream) -> Optional[Dict[str, Any]]:
    """Read one message from a blocking binary stream; None on EOF."""
    payload = read_payload(stream)
    return None if payload is None else _decode_payload(payload)


def write_frame(stream, message: Dict[str, Any]) -> None:
    """Write one message to a blocking binary stream and flush it."""
    stream.write(encode_frame(message))
    stream.flush()


class FrameDecoder:
    """Incremental frame decoder for the asyncio side.

    Feed it whatever byte chunks arrive; it yields every complete
    message and buffers the rest.  One decoder per connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Dict[str, Any]]:
        """Absorb ``data`` and yield all now-complete messages."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length == 0:
                raise ProtocolError("zero-length frame")
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame of {length} bytes exceeds limit")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield _decode_payload(payload)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# Memory-input documents
# ----------------------------------------------------------------------


def encode_memory(
    memory: Union[Real, DiscreteDistribution, MarkovParameter, None]
) -> Optional[Dict[str, Any]]:
    """A request's ``memory`` input as a wire document (None passes through)."""
    if memory is None:
        return None
    if isinstance(memory, DiscreteDistribution):
        return distribution_to_dict(memory)
    if isinstance(memory, MarkovParameter):
        return markov_to_dict(memory)
    if isinstance(memory, Real):
        return {"kind": "scalar", "value": float(memory)}
    raise ProtocolError(f"unsupported memory input {type(memory).__name__}")


def decode_memory(
    doc: Optional[Dict[str, Any]]
) -> Union[float, DiscreteDistribution, MarkovParameter, None]:
    """Inverse of :func:`encode_memory`."""
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ProtocolError("memory document must be a dict or None")
    kind = doc.get("kind")
    try:
        if kind == "scalar":
            return float(doc["value"])
        if kind == "distribution":
            return distribution_from_dict(doc)
        if kind == "markov_parameter":
            return markov_from_dict(doc)
    except (KeyError, TypeError, ValueError, SerializationError) as exc:
        raise ProtocolError(f"bad memory document: {exc}") from None
    raise ProtocolError(f"unknown memory document kind {kind!r}")


# ----------------------------------------------------------------------
# Request documents
# ----------------------------------------------------------------------


def encode_request(request_id: int, request: OptimizeRequest,
                   query_doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One ``optimize`` message for ``request`` (``cost_model`` and
    ``context`` stay home: the cluster tier serves the default model, and
    a worker keeps its own context per remembered request); ``query_doc``
    is ``request.query``'s document if the caller kept one.

    The plan space travels as the canonical key its cache key carries,
    so a :class:`~repro.plans.space.PlanSpace` object is served like
    the string that spells it.
    """
    return {
        "type": "optimize",
        "id": request_id,
        "deadline": request.deadline,
        "query": query_to_dict(request.query) if query_doc is None else query_doc,
        "objective": request.objective,
        "memory": encode_memory(request.memory),
        **dict(zip(OptimizeRequest.OPTIONS, request.knobs())),
    }


def split_request(payload: bytes) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """A payload as ``(head, key)``: the volatile head parsed alone, the stable bytes after
    it.  Any other frame (no ``optimize``, another order or head) comes back whole, key None."""
    cut = payload.find(b",", payload.find(b'"deadline":'))
    try:
        head = json.loads(payload[:cut] + b"}") if cut > 0 else None
    except ValueError:  # not JSON, or not UTF-8
        head = None
    if head and list(head) == ["type", "id", "deadline"] and head["type"] == "optimize":
        return head, payload[cut:]
    return _decode_payload(payload), None


def join_request(head: Dict[str, Any], key: bytes) -> Dict[str, Any]:
    """The whole message :func:`split_request` cut (a member both spell is the head's)."""
    return {**_decode_payload(b'{"type":"optimize"' + key), **head}  # key opens with ","


#: The objective and each option as :func:`decode_request` reads them:
#: name, and the type of the request's default.
_DECODED = tuple(
    (f.name, type(f.default)) for f in fields(OptimizeRequest)
    if f.name in ("objective", *OptimizeRequest.OPTIONS)
)


def decode_request(message: Dict[str, Any]) -> OptimizeRequest:
    """Inverse of :func:`encode_request`.

    Only ``query`` is required.  The objective and each option present
    are read as the type of their :class:`OptimizeRequest` default; an
    absent one takes that default, and unknown keys are ignored, so
    frames from older and newer gateways both decode.
    """
    try:
        query = query_from_dict(message["query"])
    except (KeyError, SerializationError) as exc:
        raise ProtocolError(f"bad request query: {exc}") from None
    deadline = message.get("deadline")
    return OptimizeRequest(
        query=query,
        memory=decode_memory(message.get("memory")),
        deadline=None if deadline is None else float(deadline),
        **{name: kind(message[name]) for name, kind in _DECODED if name in message},
    )
