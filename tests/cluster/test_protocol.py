"""Framing, memory- and request-document tests for the gateway↔worker
wire protocol."""

from __future__ import annotations

import dataclasses
import io
import json
import struct

import pytest

from repro.cluster.protocol import (
    ProtocolError,
    decode_memory,
    decode_request,
    encode_frame,
    encode_memory,
    encode_request,
    read_frame,
)
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.costmodel.context import query_fingerprint
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.plan_cache import memory_key
from repro.serving.service import OptimizeRequest


class TestFraming:
    def test_untyped_payload_raises(self):
        payload = json.dumps([1, 2, 3]).encode()
        buf = io.BytesIO(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="typed message"):
            read_frame(buf)

    def test_unencodable_message_raises(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_frame({"type": "result", "plan": object()})


class TestMemoryDocuments:
    def test_scalar_roundtrip(self):
        assert decode_memory(encode_memory(800)) == 800.0
        assert decode_memory(encode_memory(1.5)) == 1.5

    def test_none_passes_through(self):
        assert encode_memory(None) is None
        assert decode_memory(None) is None

    def test_distribution_roundtrip(self):
        dist = DiscreteDistribution([100.0, 900.0], [0.3, 0.7])
        out = decode_memory(encode_memory(dist))
        assert isinstance(out, DiscreteDistribution)
        assert list(out.values) == [100.0, 900.0]
        assert list(out.probs) == [0.3, 0.7]

    def test_markov_roundtrip(self):
        param = MarkovParameter(
            states=[100.0, 1000.0],
            initial=[0.5, 0.5],
            transition=[[0.9, 0.1], [0.2, 0.8]],
        )
        out = decode_memory(encode_memory(param))
        assert isinstance(out, MarkovParameter)
        assert list(out.states) == [100.0, 1000.0]

    def test_json_wire_safety(self):
        # What optimize frames actually carry: the document must survive
        # a JSON round trip, not just a Python one.
        dist = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        doc = json.loads(json.dumps(encode_memory(dist)))
        assert isinstance(decode_memory(doc), DiscreteDistribution)

    def test_unsupported_memory_type_raises(self):
        with pytest.raises(ProtocolError, match="unsupported"):
            encode_memory(object())  # type: ignore[arg-type]

    def test_bad_documents_raise(self):
        with pytest.raises(ProtocolError, match="unknown memory document"):
            decode_memory({"kind": "mystery"})
        with pytest.raises(ProtocolError, match="must be a dict"):
            decode_memory([1, 2])  # type: ignore[arg-type]
        with pytest.raises(ProtocolError, match="bad memory document"):
            decode_memory({"kind": "scalar"})


def _query() -> JoinQuery:
    return JoinQuery(
        [RelationSpec(name="R", pages=500.0), RelationSpec(name="S", pages=80.0)],
        [JoinPredicate("R", "S", 0.01, label="R=S")],
    )


def _over_the_wire(message):
    """What the worker is handed: the message after a JSON round trip."""
    return json.loads(json.dumps(message))


class TestRequestDocuments:
    def test_roundtrip_field_by_field(self):
        request = OptimizeRequest(
            query=_query(),
            objective="multiparam",
            memory=DiscreteDistribution([100.0, 900.0], [0.3, 0.7]),
            deadline=0.25,
            plan_space="bushy",
            allow_cross_products=True,
            top_k=3,
            max_buckets=8,
        )
        message = encode_request(17, request)
        assert message["type"] == "optimize" and message["id"] == 17
        decoded = decode_request(_over_the_wire(message))
        for field in dataclasses.fields(OptimizeRequest):
            got = getattr(decoded, field.name)
            want = getattr(request, field.name)
            if field.name == "query":
                assert query_fingerprint(got) == query_fingerprint(want)
            elif field.name == "memory":
                assert memory_key(got) == memory_key(want)
            else:
                assert got == want, field.name
        assert decoded.knobs() == request.knobs()

    def test_document_carries_exactly_the_request_fields(self):
        # The wire knows what changes the plan (plus the deadline) and
        # nothing else; ``cost_model`` and ``context`` stay home.
        message = encode_request(1, OptimizeRequest(query=_query(), memory=800))
        fields = {f.name for f in dataclasses.fields(OptimizeRequest)}
        assert set(message) - {"type", "id"} == fields - {"cost_model", "context"}

    def test_legacy_frame_without_optional_keys_decodes_to_defaults(self):
        full = _over_the_wire(encode_request(3, OptimizeRequest(query=_query())))
        decoded = decode_request({"id": 3, "query": full["query"]})
        defaults = OptimizeRequest(query=_query())
        for field in dataclasses.fields(OptimizeRequest):
            if field.name != "query":
                assert getattr(decoded, field.name) == getattr(
                    defaults, field.name
                ), field.name

    def test_unknown_keys_are_ignored(self):
        # An old client still sends the two wall-clock knobs, the kernel
        # choice and the mean probe; a newer one may send keys this worker
        # has never heard of.
        message = _over_the_wire(
            encode_request(5, OptimizeRequest(query=_query(), memory=800))
        )
        message.update(level_batching=True, parallelism="threads:4",
                       fast=True, include_mean=False, trace_id="abc")
        decoded = decode_request(message)
        assert decoded.memory == 800.0
        assert not hasattr(decoded, "parallelism")
        assert not hasattr(decoded, "fast")
        assert not hasattr(decoded, "include_mean")

    def test_wire_values_are_coerced(self):
        message = _over_the_wire(
            encode_request(9, OptimizeRequest(query=_query(), memory=800))
        )
        message.update(deadline=2, top_k="4")
        decoded = decode_request(message)
        assert decoded.deadline == 2.0 and isinstance(decoded.deadline, float)
        assert decoded.top_k == 4

    def test_bad_query_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="bad request query"):
            decode_request({"type": "optimize", "id": 1})
        with pytest.raises(ProtocolError, match="bad request query"):
            decode_request({"type": "optimize", "id": 1, "query": {"kind": "x"}})
