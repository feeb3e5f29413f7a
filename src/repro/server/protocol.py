"""The newline-delimited-JSON wire protocol of the query server.

One request per line, one response line per request, both JSON objects.
Requests carry a client-chosen ``id`` echoed verbatim in the response,
an ``op``, and per-op fields.  Each op, its kind and its fields are
declared once, in :data:`repro.kb.knowledge_base.OP_TABLE`:
:data:`OPS` and the per-kind sets are derived from it, and
:func:`parse_request` checks a request against its op's declared
fields (``docs/server.md`` lists them).

``subscribe`` switches the connection into streaming mode: after one
normal ok reply (``result.type == "subscribed"``) the server keeps
writing lines with the same ``id`` — ``result.type`` is ``"snapshot"``
(a full KB dump when the requested range was truncated), ``"entry"``
(one published version: ``version``, ``ops``, ``leader_version``),
``"lagging"`` (the subscriber fell behind the bounded stream buffer
and must reconnect), or ``"end"`` (the server is draining).  No other
request is accepted on a subscribed connection — followers
(``docs/replication.md``) dedicate one connection to the stream.

Every request also accepts ``deadline_ms``: a relative per-request
deadline; work not *started* before it expires is shed with a
``timeout`` error.

Every request also accepts ``trace``: either ``true`` or ``{"id":
<hex>, "baggage": {str: str}}``.  Only query/ask/explain/tell/retract/
define honour it: a traced read or write executes under a
:class:`~repro.obs.trace.TraceContext`, and the reply's result carries a
``trace`` object (``trace_id``, the span tree, and the engine cost
digest — see ``docs/observability.md`` for the schema).  The other ops
ignore it, as they ignore any field they do not declare.

Responses are ``{"id": ..., "ok": true, "version": v, "result": {...}}``
or ``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.
``version`` is the snapshot version a read was answered at, or the
version a mutation became visible at.  Error codes:

* ``bad_request`` — malformed JSON, unknown op, missing/ill-typed field;
* ``semantics`` — the engine rejected the request
  (:class:`~repro.lang.errors.ReproError`: unknown object, parse error,
  retracting a never-told fact, ...);
* ``overloaded`` — the bounded write queue is full (admission control);
  retry with backoff;
* ``timeout`` — the per-request deadline expired before execution;
* ``shutting_down`` — the server is draining and no longer admits work;
* ``not_leader`` — a write reached a read-only follower; retry against
  the leader (the message names it when known);
* ``internal`` — unexpected failure (a bug; details in the message).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..kb.knowledge_base import FIELD_TYPES, KINDS, OPS as _TABLE, field_value, ops_of

__all__ = [
    "OPS",
    "READ_OPS",
    "WRITE_OPS",
    "ADMIN_OPS",
    "STREAM_OPS",
    "ERROR_CODES",
    "BAD_REQUEST",
    "SEMANTICS",
    "OVERLOADED",
    "TIMEOUT",
    "SHUTTING_DOWN",
    "NOT_LEADER",
    "INTERNAL",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "read_request_line",
    "oversize_line_response",
    "decode_request",
    "parse_request",
    "request_id_of",
    "ok_response",
    "error_response",
    "encode",
]

READ_OPS, WRITE_OPS, ADMIN_OPS, STREAM_OPS = map(ops_of, KINDS)
OPS = frozenset(_TABLE)

BAD_REQUEST = "bad_request"
SEMANTICS = "semantics"
OVERLOADED = "overloaded"
TIMEOUT = "timeout"
SHUTTING_DOWN = "shutting_down"
NOT_LEADER = "not_leader"
INTERNAL = "internal"
ERROR_CODES = frozenset(
    {BAD_REQUEST, SEMANTICS, OVERLOADED, TIMEOUT, SHUTTING_DOWN, NOT_LEADER, INTERNAL}
)

#: Longest request line a connection may send (asyncio's stream default,
#: named so the refusal can state it; front-ends pass it as ``limit=``).
MAX_LINE_BYTES = 2**16


class _OpField:
    """A field of a request's op dict, or its type's default when the op
    does not declare it: ``request.view`` reads ``request.args``."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.default = name, FIELD_TYPES[name][0]

    def __get__(self, request: Any, owner: Optional[type] = None) -> Any:
        return self if request is None else request.args.get(self.name, self.default)


class ProtocolError(ValueError):
    """A request that cannot be admitted: malformed JSON, unknown op,
    or a missing / ill-typed field.  Maps to the ``bad_request`` code."""


@dataclass(frozen=True)
class Request:
    """One validated protocol request.

    ``arrived_at`` is the monotonic admission time; together with
    ``deadline_ms`` it defines the absolute deadline after which the
    request is shed instead of executed.
    """

    op: str
    id: Any = None
    #: The op dict: ``{"op": op}`` plus every field the op declares,
    #: checked and defaulted — what ``KnowledgeBase.answer`` answers or
    #: ``KnowledgeBase.apply_op`` applies.
    args: dict = field(default_factory=dict)
    deadline_ms: Optional[float] = None
    #: None (no tracing requested) or a normalized ``{"id": str|None,
    #: "baggage": {str: str}}`` — see :func:`parse_request`.
    trace: Optional[dict] = None
    arrived_at: float = field(default_factory=time.monotonic)

    view = _OpField()
    pattern = _OpField()
    mode = _OpField()
    rules = _OpField()
    isa = _OpField()
    from_version = _OpField()
    views = _OpField()

    @property
    def deadline(self) -> Optional[float]:
        """Absolute monotonic deadline, or None when unbounded."""
        if self.deadline_ms is None:
            return None
        return self.arrived_at + self.deadline_ms / 1000.0

    def expired(self, now: Optional[float] = None) -> bool:
        deadline = self.deadline
        if deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > deadline


def decode_request(raw: Union[str, bytes, dict]) -> dict:
    """One request line (or an already-decoded value) as a JSON object
    whose ``op``, when present, is a string — so callers may test it
    against the op sets.

    The one place bytes off a socket become a ``dict``: everything
    ``json.loads`` can raise on them — malformed JSON, bytes that are
    not UTF-8 (a :class:`ValueError` too), nesting past the recursion
    limit — surfaces as :class:`ProtocolError`.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except (ValueError, RecursionError) as error:
            raise ProtocolError(f"invalid JSON: {error}") from error
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    op = raw.get("op")
    if op is not None and not isinstance(op, str):
        raise ProtocolError(f"'op' must be a string, one of {sorted(OPS)}")
    return raw


def parse_request(
    raw: Union[str, bytes, dict], *, default_deadline_ms: Optional[float] = None
) -> Request:
    """Validate one request line (or an already-decoded object).

    Raises:
        ProtocolError: on malformed JSON, an unknown op, or a missing /
            ill-typed per-op field.
    """
    data = decode_request(raw)
    spec = _TABLE.get(data.get("op"))
    if spec is None:
        raise ProtocolError(
            f"unknown op {data.get('op')!r}; expected one of {sorted(OPS)}"
        )
    if "mode" in data:  # every op refuses an unknown mode, not only the reads
        field_value("mode?", spec.name, data, ProtocolError)
    args = {"op": spec.name}
    for key in spec.fields:
        args[key.rstrip("?")] = field_value(key, spec.name, data, ProtocolError)
    deadline_ms = default_deadline_ms
    if "deadline_ms" in data:
        deadline_ms = field_value("deadline_ms?", spec.name, data, ProtocolError)
    return Request(
        op=spec.name,
        id=data.get("id"),
        args=args,
        deadline_ms=deadline_ms,
        trace=_parse_trace(data.get("trace")),
    )


def _parse_trace(raw: Any) -> Optional[dict]:
    """Normalize the optional ``trace`` field.

    ``true`` requests a fresh trace; an object may pin the trace ``id``
    (joining a distributed trace) and attach string ``baggage``.
    """
    if raw is None or raw is False:
        return None
    if raw is True:
        return {"id": None, "baggage": {}}
    if not isinstance(raw, dict):
        raise ProtocolError("'trace' must be true or an object")
    trace_id = raw.get("id")
    if trace_id is not None and (
        not isinstance(trace_id, str) or not trace_id
    ):
        raise ProtocolError("'trace.id' must be a non-empty string")
    baggage = raw.get("baggage", {})
    if not isinstance(baggage, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in baggage.items()
    ):
        raise ProtocolError("'trace.baggage' must map strings to strings")
    return {"id": trace_id, "baggage": dict(baggage)}


async def read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of stream), or None for a
    line over :data:`MAX_LINE_BYTES` — which is read through its newline
    and dropped, in bounded memory, so that the refusal
    (:func:`oversize_line_response`) reaches a peer that is still
    sending it."""
    oversize = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as eof:
            line = eof.partial
        except asyncio.LimitOverrunError as over:
            await reader.readexactly(over.consumed)
            oversize = True
            continue
        return None if oversize else line


def oversize_line_response() -> dict:
    """What a front-end answers (then closes the connection) when
    :func:`read_request_line` returned None: a peer that framed one
    request wrong is not asked for another."""
    return error_response(
        None, BAD_REQUEST, f"request line exceeds {MAX_LINE_BYTES} bytes"
    )


def request_id_of(raw: Union[str, bytes]) -> Any:
    """Best-effort ``id`` extraction from a possibly-malformed line, so
    error replies can still be correlated by the client."""
    try:
        return decode_request(raw).get("id")
    except ProtocolError:
        return None


def ok_response(
    request_id: Any, version: Optional[int] = None, result: Optional[dict] = None
) -> dict:
    payload: dict[str, Any] = {"id": request_id, "ok": True}
    if version is not None:
        payload["version"] = version
    payload["result"] = result if result is not None else {}
    return payload


def error_response(
    request_id: Any,
    code: str,
    message: str,
    version: Optional[int] = None,
    **extra: Any,
) -> dict:
    assert code in ERROR_CODES, code
    payload: dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message, **extra},
    }
    if version is not None:
        payload["version"] = version
    return payload


def encode(payload: dict) -> bytes:
    """One response line, newline-terminated."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
