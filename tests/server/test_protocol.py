"""Wire-protocol validation: parsing, per-op fields, error replies."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import (
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
    request_id_of,
)


def test_ops_partition():
    assert (
        protocol.READ_OPS
        | protocol.WRITE_OPS
        | protocol.ADMIN_OPS
        | protocol.STREAM_OPS
        == protocol.OPS
    )
    assert not protocol.READ_OPS & protocol.WRITE_OPS
    assert not protocol.STREAM_OPS & (protocol.READ_OPS | protocol.WRITE_OPS)


def test_parse_query_roundtrip():
    req = parse_request('{"id": 7, "op": "query", "view": "c1", "pattern": "fly(X)"}')
    assert req.id == 7
    assert req.op == "query"
    assert req.view == "c1"
    assert req.pattern == "fly(X)"
    assert req.mode == "cautious"
    assert req.deadline_ms is None


def test_parse_accepts_bytes_and_dicts():
    as_dict = parse_request({"op": "ask", "view": "c1", "pattern": "p(a)"})
    as_bytes = parse_request(b'{"op": "ask", "view": "c1", "pattern": "p(a)"}')
    assert as_dict.op == as_bytes.op == "ask"


def test_parse_define_with_isa():
    req = parse_request(
        {"op": "define", "view": "penguin", "rules": "-fly(X) :- p(X).", "isa": ["bird"]}
    )
    assert req.view == "penguin"
    assert req.isa == ("bird",)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"op": "frobnicate"}', "unknown op"),
        ('{"op": "query", "view": "c1"}', "pattern"),
        ('{"op": "query", "pattern": "p(X)"}', "view"),
        ('{"op": "tell", "view": "c1"}', "rules"),
        ('{"op": "tell", "view": "c1", "rules": 3}', "rules"),
        ('{"op": "define", "view": "x", "isa": "bird"}', "list of strings"),
        ('{"op": "query", "view": "c", "pattern": "p", "mode": "brave"}', "mode"),
        ('{"op": "ask", "view": "c", "pattern": "p", "deadline_ms": -1}', "deadline_ms"),
    ],
)
def test_parse_rejections(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_request(payload)


#: Any JSON value, nested: what a peer can put where a string belongs.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@given(
    op=st.sampled_from(sorted(protocol.OPS)) | json_values,
    fields=st.fixed_dictionaries(
        {},
        optional={
            key: json_values
            for key in ("id", "mode", "strategy", "view", "pattern", "trace")
        },
    ),
)
@settings(max_examples=300, deadline=None)
def test_ill_typed_fields_raise_nothing_but_protocol_error(op, fields):
    request = {"op": op, **fields}
    for raw in (request, json.dumps(request)):
        try:
            parse_request(raw)
        except ProtocolError:
            pass
    request_id_of(json.dumps(request))


def test_deadline_expiry():
    expired = parse_request({"op": "ask", "view": "c", "pattern": "p", "deadline_ms": 0})
    time.sleep(0.001)
    assert expired.expired()
    unbounded = parse_request({"op": "ask", "view": "c", "pattern": "p"})
    assert unbounded.deadline is None
    assert not unbounded.expired()


def test_default_deadline_applied_only_when_absent():
    req = parse_request({"op": "stats"}, default_deadline_ms=50)
    assert req.deadline_ms == 50
    explicit = parse_request(
        {"op": "stats", "deadline_ms": 10}, default_deadline_ms=50
    )
    assert explicit.deadline_ms == 10


def test_request_id_of_is_best_effort():
    assert request_id_of('{"id": "a", "op": "nope"}') == "a"
    assert request_id_of("garbage") is None
    assert request_id_of("[1]") is None


def test_response_shapes():
    ok = ok_response("a", 3, {"answers": []})
    assert ok == {"id": "a", "ok": True, "version": 3, "result": {"answers": []}}
    err = error_response("b", protocol.OVERLOADED, "queue full", queue_depth=9)
    assert err["ok"] is False
    assert err["error"]["code"] == "overloaded"
    assert err["error"]["queue_depth"] == 9
    line = encode(ok)
    assert line.endswith(b"\n")
    assert json.loads(line) == ok


def test_request_is_frozen():
    req = Request(op="stats")
    with pytest.raises(AttributeError):
        req.op = "health"
