"""Fuzzed byte streams against both readers: torn, re-chunked, corrupted.

``FrameDecoder`` (the gateway's incremental reader) promises: whatever
bytes arrive, what it yields is a prefix of what was encoded — message
for message, exactly — and anything it cannot honour ends in
``ProtocolError`` (the reader's cue to drop the connection and respawn
the worker), never in a different message and never in another
exception type.  The worker's one blocking reader (``read_payload``,
under ``read_frame``) promises the same, except that a stream cannot be
waited on: a torn frame is an error, and only a clean EOF between frames
is ``None``.

What "corrupted" can mean here is bounded by the format: a length prefix
and a JSON payload carry no checksum, so a payload byte that turns into
another *ASCII* byte can change ``"seq":1`` into ``"seq":3`` and nothing
short of a checksum would see it.  The transport is a ``socketpair``,
which does not flip bits; what the decoder must survive is a framing
bug — a damaged or misaligned length prefix — and bytes that are no
longer text.  So a corrupted header byte takes any value, and a
corrupted payload byte leaves ASCII (``json.dumps`` emits only ASCII,
which makes a lone high byte invalid UTF-8 wherever it lands).
"""

from __future__ import annotations

import io
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    read_frame,
    read_payload,
)

_HEADER_BYTES = 4

_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)

_messages = st.lists(
    st.builds(
        lambda kind, body: {**body, "type": kind},
        st.text(min_size=1, max_size=12),
        st.dictionaries(st.text(max_size=8), _json, max_size=5),
    ),
    min_size=1, max_size=4,
)


def _decode(chunks: Iterable[bytes]) -> Tuple[
    List[Dict[str, Any]], Optional[ProtocolError], int
]:
    """Everything yielded, the error that ended it (if any), bytes held."""
    decoder = FrameDecoder()
    out: List[Dict[str, Any]] = []
    try:
        for chunk in chunks:
            for message in decoder.feed(chunk):
                out.append(message)
    except ProtocolError as exc:
        return out, exc, decoder.pending_bytes
    return out, None, decoder.pending_bytes


def _frame_ends(messages: List[Dict[str, Any]]) -> Tuple[bytes, List[int]]:
    stream, ends = b"", []
    for message in messages:
        stream += encode_frame(message)
        ends.append(len(stream))
    return stream, ends


@given(_messages, st.data())
def test_any_chunking_yields_exactly_the_encoded_messages(messages, data):
    stream, _ends = _frame_ends(messages)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=8), label="cuts"
    ))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    decoded, error, held = _decode(chunks)
    assert error is None and held == 0
    assert decoded == messages


@given(_messages)
def test_truncation_at_every_offset_yields_the_complete_frames_and_waits(messages):
    stream, ends = _frame_ends(messages)
    for cut in range(len(stream) + 1):
        decoded, error, held = _decode([stream[:cut]])
        complete = sum(1 for end in ends if end <= cut)
        assert error is None
        assert decoded == messages[:complete]
        # The torn tail is held back, not guessed at.
        assert held == cut - ([0] + ends)[complete]


@given(_messages, st.data())
def test_one_corrupted_byte_never_yields_a_different_message(messages, data):
    stream, ends = _frame_ends(messages)
    offset = data.draw(st.integers(0, len(stream) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="mask")
    frame = sum(1 for end in ends if end <= offset)  # the frame hit
    start = ([0] + ends)[frame]
    if offset >= start + _HEADER_BYTES:
        mask |= 0x80  # a payload byte leaves ASCII (see the module docstring)
    corrupted = bytearray(stream)
    corrupted[offset] ^= mask

    decoded, error, held = _decode([bytes(corrupted)])
    # Frames before the damage arrive intact; nothing after it is
    # invented.  The damaged frame itself is refused, or — a length
    # prefix that now promises more bytes than exist — waited for.
    assert decoded == messages[:frame]
    assert error is not None or held > 0


class _Trickle(io.RawIOBase):
    """A blocking stream that hands out at most ``step`` bytes per read."""

    def __init__(self, data: bytes, step: int):
        self._data, self._at, self._step = data, 0, step

    def read(self, n: int = -1) -> bytes:
        end = self._at + min(n, self._step)
        chunk, self._at = self._data[self._at:end], min(end, len(self._data))
        return chunk


def _read(stream) -> Tuple[List[Dict[str, Any]], Optional[ProtocolError]]:
    """Every message ``read_frame`` returns until ``None`` or an error."""
    out: List[Dict[str, Any]] = []
    try:
        while (message := read_frame(stream)) is not None:
            out.append(message)
    except ProtocolError as exc:
        return out, exc
    return out, None


class TestBlockingReader:
    @given(_messages, st.integers(1, 64))
    def test_short_reads_return_exactly_the_encoded_messages(self, messages, step):
        stream, _ends = _frame_ends(messages)
        assert _read(_Trickle(stream, step)) == (messages, None)
        payloads = io.BytesIO(stream)
        for message in messages:
            assert read_payload(payloads) == encode_frame(message)[4:]
        assert read_payload(payloads) is None

    @given(_messages)
    def test_truncation_is_an_error_and_only_a_frame_boundary_is_eof(self, messages):
        stream, ends = _frame_ends(messages)
        for cut in range(len(stream) + 1):
            decoded, error = _read(io.BytesIO(stream[:cut]))
            complete = sum(1 for end in ends if end <= cut)
            assert decoded == messages[:complete]
            assert (error is None) == (cut in [0, *ends])

    @given(_messages, st.data())
    def test_one_corrupted_byte_never_yields_a_different_message(self, messages,
                                                                 data):
        stream, ends = _frame_ends(messages)
        offset = data.draw(st.integers(0, len(stream) - 1), label="offset")
        mask = data.draw(st.integers(1, 255), label="mask")
        frame = sum(1 for end in ends if end <= offset)
        if offset >= ([0] + ends)[frame] + _HEADER_BYTES:
            mask |= 0x80  # a payload byte leaves ASCII (see the module docstring)
        corrupted = bytearray(stream)
        corrupted[offset] ^= mask
        decoded, error = _read(io.BytesIO(bytes(corrupted)))
        assert decoded == messages[:frame] and error is not None

    @pytest.mark.parametrize("length, match", [
        (0, "zero-length"), (MAX_FRAME_BYTES + 1, "exceeds limit"),
    ])
    def test_a_zero_or_oversized_length_is_refused_before_reading(self, length,
                                                                 match):
        # A whole frame follows the bad header: the blocking readers leave it
        # unread, and the decoder refuses instead of resynchronising past it.
        frame = encode_frame({"type": "ping", "seq": 1})
        wire = struct.pack(">I", length) + frame
        for read in (read_payload, read_frame):
            stream = io.BytesIO(wire)
            with pytest.raises(ProtocolError, match=match):
                read(stream)
            assert stream.read() == frame
        with pytest.raises(ProtocolError, match=match):
            list(FrameDecoder().feed(wire))
