"""A worker remembers what it decoded — and answers as if it had not.

``repro.cluster.worker.recall`` maps a request frame's stable bytes
(everything after its ``type`` / ``id`` / ``deadline`` head) to the
``OptimizeRequest`` (query, memory and ``OptimizationContext`` objects)
built for its first arrival.  These tests pin the two halves of that
contract: a remembered request's answers are the cold answer byte for
byte, on every objective and rung; and recognition is exact — the whole
stable text, nothing less, and nothing parsed past the head — bounded,
and least-recently-used.

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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.cluster.protocol as protocol
from repro.cluster.protocol import (
    ProtocolError,
    decode_request,
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
from repro.core.markov import MarkovParameter
from repro.serving.service import (
    RUNG_COARSE,
    RUNG_FULL,
    RUNG_LSC,
    Ladder,
    LatencyEstimator,
    OptimizeRequest,
)
from repro.tools.serialize import plan_to_dict, query_to_dict
from repro.workloads.queries import random_query, with_selectivity_uncertainty

_LADDER = (RUNG_FULL, RUNG_COARSE, RUNG_LSC)
#: Every objective the wire carries, by the spelling a client sends.
_OBJECTIVES = (
    "lec", "point", "markov", "multiparam", "algorithm_a", "algorithm_b",
)
_MEMORY = DiscreteDistribution(
    [300.0, 800.0, 2000.0, 5000.0, 9000.0], [0.2, 0.3, 0.2, 0.2, 0.1]
)
_CHAIN = MarkovParameter(
    [500.0, 2000.0], [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]]
)


def _body(request_id=1, shape="chain", n=3, seed=0, objective="lec",
          **fields):
    """One request message as a worker decodes it (through JSON)."""
    query = with_selectivity_uncertainty(
        random_query(n, np.random.default_rng(seed), shape=shape),
        1.0, n_buckets=3,
    )
    memory = _CHAIN if objective == "markov" else _MEMORY
    message = encode_request(request_id, OptimizeRequest(
        query=query, objective=objective, memory=memory, **fields
    ))
    return json.loads(json.dumps(message))


def _payload(message):
    """``message`` as the payload bytes of its frame."""
    return encode_frame(message)[4:]


def _recall(memo, message):
    """``recall`` as the worker calls it, on ``message``'s frame."""
    return recall(memo, *split_request(_payload(message)))


class _Forcing(LatencyEstimator):
    """Believes every rung above ``rung`` never fits, and learns nothing."""

    def __init__(self, rung: str):
        super().__init__()
        self._rung = rung

    def record(self, rung, objective, n_relations, seconds):
        pass

    def ladder_estimates(self, ladder, objective, n_relations):
        return [1e9 if _LADDER.index(r) < _LADDER.index(self._rung) else 0.0
                for r in ladder]


def _forced(rung: str) -> Ladder:
    ladder = Ladder()
    ladder.estimator = _Forcing(rung)
    return ladder


def _answer(plan, objective_value, rung):
    return (json.dumps(plan_to_dict(plan), sort_keys=True),
            repr(float(objective_value)), rung)


def _cold(body, rung):
    """The answer with nothing kept: fresh objects, empty context cache."""
    repro.clear_context_cache()
    request = decode_request(body)
    if rung == RUNG_FULL:
        result = repro.optimize(
            request.query, request.objective, memory=request.memory,
            top_k=request.top_k,
        )
        return _answer(result.plan, result.objective, RUNG_FULL)
    result = _forced(rung).run(request)
    return _answer(result.plan, result.objective_value, result.rung)


class TestRememberedEqualsCold:
    @pytest.mark.parametrize("objective, rung", [
        (objective, rung) for objective in _OBJECTIVES for rung in _LADDER
        if objective != "point" or rung == RUNG_FULL  # its ladder has one rung
    ])
    @settings(max_examples=12)
    @given(
        shape=st.sampled_from(("chain", "star", "clique")),
        n=st.integers(3, 6),
        seed=st.integers(0, 2 ** 16),
        top_k=st.integers(1, 3),
    )
    def test_first_second_and_fifth_answer(self, objective, rung, shape, n,
                                           seed, top_k):
        # The deadline is generous; the estimator decides the rung.
        body = _body(shape=shape, n=n, seed=seed, objective=objective,
                     top_k=top_k, deadline=600.0)
        memo, answers = OrderedDict(), []
        ladder = _forced(rung)
        for i in range(5):
            request, known = _recall(memo, dict(body, id=i))
            assert known == (i > 0)
            result = ladder.run(request)
            answers.append(
                _answer(result.plan, result.objective_value, result.rung)
            )
        assert answers[0][2] == rung
        assert answers[0] == answers[1] == answers[4] == _cold(body, rung)

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

    def test_a_frame_laid_out_otherwise_is_answered_like_its_twin(self):
        body = _body(1, shape="star", n=4)
        with _worker() as ask:
            first = ask(body)
            other = ask(dict(reversed(list(dict(body, id=2).items()))))
            counters = _counters(ask)
        assert other["type"] == "result" and other["id"] == 2
        assert other["plan"] == first["plan"]
        assert repr(other["objective_value"]) == repr(first["objective_value"])
        assert counters["serving.requests"] == 2
        assert counters.get("serving.requests_remembered", 0) == 0


def _moved(body, path, value):
    """``body`` with the entry at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(body)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestRecognitionIsExact:
    def test_one_digit_one_bucket_or_one_knob_is_a_different_request(self):
        body = _body(1, top_k=2)
        digit = body["query"]["predicates"][0]["selectivity_dist"]["values"][0]
        near_misses = [
            _moved(body, ("query", "predicates", 0, "selectivity_dist",
                          "values", 0), float(np.nextafter(digit, 1.0))),
            _moved(body, ("query", "relations", 1, "pages"),
                   body["query"]["relations"][1]["pages"] + 1.0),
            _moved(body, ("memory", "values", 2), 2000.5),
            _moved(body, ("memory", "probs"), [0.2, 0.3, 0.2, 0.1, 0.2]),
            _moved(body, ("top_k",), 3),
            _moved(body, ("plan_space",), "bushy"),
            _moved(body, ("objective",), "expected"),  # same kind, other text
        ]
        memo = OrderedDict()
        assert _recall(memo, body)[1] is False
        for other in near_misses:
            request, known = _recall(memo, other)
            assert not known
            assert request.context is not memo[next(iter(memo))].context
        assert len(memo) == 1 + len(near_misses)
        assert len({id(r.context) for r in memo.values()}) == len(memo)

    def test_id_deadline_and_type_do_not_split_entries(self):
        # The head is not part of the key: another id or deadline (under
        # the one type a head carries) is the same entry.
        body = _body(1, deadline=None)
        memo = OrderedDict()
        _recall(memo, body)
        for other in (
            dict(body, id=2), dict(body, deadline=0.5),
            dict(body, id=10 ** 9, deadline=30), dict(body, deadline=1e-05),
        ):
            request, known = _recall(memo, other)
            assert known and request.deadline == other["deadline"]
        assert len(memo) == 1
        assert tuple(body)[:3] == ("type", "id", "deadline")

    def test_a_frame_laid_out_otherwise_is_answered_and_never_matched(self):
        body = _body(1, top_k=2, deadline=0.5)
        memo = OrderedDict()
        canonical, _ = _recall(memo, body)
        members = list(body.items())
        for other in (
            dict(reversed(members)),  # another member order
            dict(members[:2] + [("trace", 7)] + members[2:]),  # extra head member
            dict(members[:2] + members[3:] + members[2:3]),  # deadline last
        ):
            for _ in range(2):
                request, known = _recall(memo, other)
                assert not known
                assert request.context is not canonical.context
                assert query_to_dict(request.query) == body["query"]
                assert replace(request, query=None, context=None) == replace(
                    canonical, query=None, context=None
                )
        assert list(memo.values()) == [canonical]

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


class TestDistributionEquality:
    """``DiscreteDistribution.__eq__``: what a dict probe can afford."""

    def test_truth_table(self, monkeypatch):
        base = DiscreteDistribution([300.0, 900.0], [0.25, 0.75])
        twin = DiscreteDistribution([300.0, 900.0], [0.25, 0.75])
        close = DiscreteDistribution([300.0, 900.0 * (1 + 1e-12)],
                                     [0.25, 0.75])
        assert close.values.tobytes() != base.values.tobytes()

        # Tolerant branch: decides everything that is not bytewise equal.
        assert base == close and close == base
        assert base != DiscreteDistribution([300.0, 901.0], [0.25, 0.75])
        assert base != DiscreteDistribution([300.0, 900.0], [0.5, 0.5])
        assert base != DiscreteDistribution([300.0, 600.0, 900.0],
                                            [0.25, 0.25, 0.5])
        assert base != "300@0.25, 900@0.75" and base != 300.0
        assert base.__eq__(object()) is NotImplemented

        def refuse(*args, **kwargs):
            raise AssertionError("np.allclose on an exact match")

        monkeypatch.setattr(np, "allclose", refuse)
        assert base == base and base == twin and twin == base
        assert hash(base) == hash(twin)
        assert {base: 1}[twin] == 1 and {("k", base): 2}[("k", twin)] == 2
        # A different shape never needed the tolerance either.
        assert base != DiscreteDistribution([300.0], [1.0])
        with pytest.raises(AssertionError, match="exact match"):
            base == close
