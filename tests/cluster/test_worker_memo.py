"""A worker remembers what it decoded — and answers as if it had not.

``repro.cluster.worker.recall`` maps a request frame's stable bytes
(everything after its ``type`` / ``id`` / ``deadline`` head) to the
``OptimizeRequest`` (query, memory and ``OptimizationContext`` objects)
built for its first arrival.  That a remembered request answers as a
cold one, and that one ulp, one knob or another member order is another
request while an ``id`` or a ``deadline`` is not, is the warm property's
worker front (``tests/corpus/test_warm.py``).  These tests pin the rest:
a remembered request shares its objects and parses nothing past the
head, an undecodable one is an error frame, and the memo is bounded and
least-recently-used.

The wire tests run ``worker_main`` in a thread over a ``socketpair``:
no process, no gateway, and patches made here reach the worker.
"""

from __future__ import annotations

import copy
import json
import socket
import threading
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np
import pytest

import repro.cluster.protocol as protocol
from repro.cluster.protocol import (
    ProtocolError,
    encode_frame,
    encode_request,
    read_frame,
    split_request,
    write_frame,
)
from repro.cluster.worker import (
    REMEMBERED_REQUESTS,
    recall,
    worker_main,
)
from repro.core.distributions import DiscreteDistribution
from repro.serving.service import RUNG_FULL, OptimizeRequest
from repro.workloads.queries import random_query, with_selectivity_uncertainty

_MEMORY = DiscreteDistribution(
    [300.0, 800.0, 2000.0, 5000.0, 9000.0], [0.2, 0.3, 0.2, 0.2, 0.1]
)


def _body(request_id=1, shape="chain", n=3, seed=0, **fields):
    """One request message as a worker decodes it (through JSON)."""
    query = with_selectivity_uncertainty(
        random_query(n, np.random.default_rng(seed), shape=shape),
        1.0, n_buckets=3,
    )
    message = encode_request(request_id, OptimizeRequest(
        query=query, objective="lec", memory=_MEMORY, **fields
    ))
    return json.loads(json.dumps(message))


def _payload(message):
    """``message`` as the payload bytes of its frame."""
    return encode_frame(message)[4:]


def _recall(memo, message):
    """``recall`` as the worker calls it, on ``message``'s frame."""
    return recall(memo, *split_request(_payload(message)))


class TestRememberedEqualsCold:
    def test_a_remembered_request_shares_objects_and_one_context(self):
        memo = OrderedDict()
        first, _ = _recall(memo, _body(1, deadline=None))
        again, known = _recall(memo, _body(2, deadline=0.25))
        assert known and again.deadline == 0.25 and first.deadline is None
        assert again.query is first.query and again.memory is first.memory
        assert again.context is first.context is not None
        assert first.context.matches(first.query)


@contextmanager
def _worker():
    """``worker_main`` on a thread; yields ``ask(message) -> reply``."""
    ours, theirs = socket.socketpair()
    ours.settimeout(60)
    thread = threading.Thread(target=worker_main, args=(theirs, 0), daemon=True)
    thread.start()
    rfile, wfile = ours.makefile("rb"), ours.makefile("wb")

    def ask(message):
        write_frame(wfile, message)
        return read_frame(rfile)

    try:
        yield ask
        assert ask({"type": "shutdown"})["type"] == "bye"
    finally:
        wfile.close()
        rfile.close()
        ours.close()
        thread.join(timeout=30)
    assert not thread.is_alive()


def _counters(ask):
    return ask({"type": "ping", "seq": 1})["metrics"]["counters"]


class TestOverTheWire:
    def test_the_second_answer_decodes_and_compares_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a remembered request paid for this")

        bodies = [_body(i, shape="clique", n=4, seed=7,
                        deadline=None if i == 1 else 30.0)
                  for i in (1, 2, 3, 4, 5)]
        with _worker() as ask:
            first = ask(bodies[0])
            monkeypatch.setattr(protocol, "query_from_dict", refuse)
            monkeypatch.setattr(np, "allclose", refuse)
            later = [ask(body) for body in bodies[1:]]
            monkeypatch.undo()
            counters = _counters(ask)
        assert first["type"] == "result" and first["rung"] == RUNG_FULL
        for i, reply in zip((2, 3, 4, 5), later):
            assert reply["type"] == "result" and reply["id"] == i
            assert reply["plan"] == first["plan"]
            assert repr(reply["objective_value"]) == repr(
                first["objective_value"]
            )
        assert counters["serving.requests"] == 5
        assert counters["serving.requests_remembered"] == 4

    def test_an_undecodable_query_is_an_error_frame_and_not_remembered(self):
        bad = _body(9)
        bad["query"]["predicates"][0]["left"] = "nowhere"
        with _worker() as ask:
            reply = ask(bad)
            again = ask(dict(bad, id=10))
            good = ask(_body(11))
            counters = _counters(ask)
        for r, i in ((reply, 9), (again, 10)):
            assert (r["type"], r["id"], r["error"]) == (
                "error", i, "ProtocolError"
            )
        assert good["type"] == "result"
        assert counters.get("serving.requests_remembered", 0) == 0

        memo = OrderedDict()
        with pytest.raises(ProtocolError):
            _recall(memo, bad)
        assert not memo


def _moved(body, path, value):
    """``body`` with the entry at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(body)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestRecognitionIsExact:
    def test_a_remembered_frame_parses_its_head_alone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a remembered frame paid for this")

        body = _body(1, shape="clique", n=4, deadline=None)
        memo = OrderedDict()
        _recall(memo, body)
        payloads = [_payload(dict(body, id=i, deadline=d))
                    for i, d in ((2, None), (3, 0.5), (4, 30))]
        parsed, real_loads = [], json.loads

        def loads(text, *args, **kwargs):
            parsed.append(len(text))
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", loads)
        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(protocol, "query_from_dict", refuse)
        for payload in payloads:
            assert recall(memo, *split_request(payload))[1] is True
        monkeypatch.undo()
        # One parse per frame, of its head alone (≈ 40 of ≈ 1 500 bytes).
        assert len(parsed) == 3 and max(parsed) < 64
        assert min(len(p) for p in payloads) > 1000

    def test_the_lru_is_bounded_and_evicts_least_recently_used_first(self):
        body = _body(0)

        def numbered(i):
            return _moved(body, ("query", "relations", 0, "pages"),
                          1000.0 + i)

        memo = OrderedDict()
        for i in range(REMEMBERED_REQUESTS):
            _recall(memo, numbered(i))
        assert _recall(memo, numbered(0))[1] is True  # touched: now newest
        for i in range(REMEMBERED_REQUESTS, 300):
            _recall(memo, numbered(i))
            assert len(memo) <= REMEMBERED_REQUESTS
        assert len(memo) == REMEMBERED_REQUESTS == 256
        overflow = 300 - REMEMBERED_REQUESTS
        # 1 .. overflow went (0 was spared by its touch); the rest stayed.
        assert _recall(memo, numbered(0))[1] is True
        assert _recall(memo, numbered(overflow + 1))[1] is True
        assert _recall(memo, numbered(299))[1] is True
        for i in (1, 2, overflow):
            assert _recall(memo, numbered(i))[1] is False
