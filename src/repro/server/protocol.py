"""The newline-delimited-JSON wire protocol of the query server.

One request per line, one response line per request, both JSON objects.
Requests carry a client-chosen ``id`` echoed verbatim in the response,
an ``op``, and per-op fields:

========  =====================================================markdown
op        fields
========  =====================================================
query     ``view`` (object name), ``pattern`` (literal pattern,
          e.g. ``"fly(X)"``), optional ``mode``
          (``cautious``/``skeptical``/``credulous``), optional
          ``strategy`` (``auto``/``demand`` — ``demand`` answers
          goal-directed without materializing the model where sound,
          see ``docs/query.md``)
ask       ``view``, ``pattern`` — boolean entailment; accepts the
          same ``mode``/``strategy`` fields as ``query``
explain   ``view``, ``pattern`` (ground literal) — the derivation tree
          (or per-rule failure analysis) against the current snapshot
tell      ``view``, ``rules`` (surface-syntax rules/facts)
retract   ``view``, ``rules`` (ground facts previously told)
define    ``view`` (the new object's name), optional ``rules``,
          optional ``isa`` (list of parent object names)
stats     —
health    —
metrics   — Prometheus text-format exposition of all instruments
slow      — dump the slow-query ring buffer (``--slow-ms``)
shutdown  — request a graceful drain-and-stop
subscribe ``from_version`` (stream journal entries after this
          version; default 0), optional ``views`` (list of object
          names: only entries whose ``seers`` intersect it are
          delivered with ops — other versions arrive empty)
========  =====================================================

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

Every query/ask/explain/tell/retract/define request additionally
accepts ``trace``: either ``true`` or ``{"id": <hex>, "baggage":
{str: str}}``.  A traced request executes under a
:class:`~repro.obs.trace.TraceContext`; the reply's result carries a
``trace`` object (``trace_id``, the span tree, and the engine cost
digest — see ``docs/observability.md`` for the schema).

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

from ..kb.query import QueryMode, read_strategy

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
    "MODES",
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

READ_OPS = frozenset({"query", "ask", "explain"})
WRITE_OPS = frozenset({"tell", "retract", "define"})
ADMIN_OPS = frozenset({"stats", "health", "metrics", "slow", "shutdown"})
STREAM_OPS = frozenset({"subscribe"})
OPS = READ_OPS | WRITE_OPS | ADMIN_OPS | STREAM_OPS

#: Read modes, in :class:`~repro.kb.query.QueryMode` order.
MODES = tuple(mode.value for mode in QueryMode)

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
    view: Optional[str] = None
    pattern: Optional[str] = None
    mode: str = "cautious"
    rules: Optional[str] = None
    isa: tuple[str, ...] = ()
    #: Read ops only: None (server default) or one of ``READ_STRATEGIES``.
    strategy: Optional[str] = None
    #: ``subscribe`` only: stream entries with version > this.
    from_version: int = 0
    #: ``subscribe`` only: None streams every entry; a tuple restricts
    #: op delivery to entries whose ``seers`` intersect it.
    views: Optional[tuple[str, ...]] = None
    deadline_ms: Optional[float] = None
    #: None (no tracing requested) or a normalized ``{"id": str|None,
    #: "baggage": {str: str}}`` — see :func:`parse_request`.
    trace: Optional[dict] = None
    arrived_at: float = field(default_factory=time.monotonic)

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


def _require_str(data: dict, key: str, op: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"op {op!r} requires a non-empty string {key!r}")
    return value


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
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")

    view = pattern = rules = strategy = None
    isa: tuple[str, ...] = ()
    from_version = 0
    views: Optional[tuple[str, ...]] = None
    mode = data.get("mode", "cautious")
    if mode not in MODES:
        raise ProtocolError(f"unknown mode {mode!r}; expected one of {MODES}")
    if op == "subscribe":
        raw_from = data.get("from_version", 0)
        if not isinstance(raw_from, int) or raw_from < 0:
            raise ProtocolError(
                "op 'subscribe' field 'from_version' must be a non-negative integer"
            )
        from_version = raw_from
        raw_views = data.get("views")
        if raw_views is not None:
            if (
                not isinstance(raw_views, list)
                or not raw_views
                or not all(isinstance(v, str) and v for v in raw_views)
            ):
                raise ProtocolError(
                    "op 'subscribe' field 'views' must be a non-empty "
                    "list of object names"
                )
            views = tuple(raw_views)
    elif op in READ_OPS:
        view = _require_str(data, "view", op)
        pattern = _require_str(data, "pattern", op)
        strategy = read_strategy(data.get("strategy"), ProtocolError)
    elif op in ("tell", "retract"):
        view = _require_str(data, "view", op)
        rules = _require_str(data, "rules", op)
    elif op == "define":
        view = _require_str(data, "view", op)
        rules = data.get("rules", "")
        if not isinstance(rules, str):
            raise ProtocolError("op 'define' field 'rules' must be a string")
        raw_isa = data.get("isa", [])
        if not isinstance(raw_isa, list) or not all(
            isinstance(p, str) for p in raw_isa
        ):
            raise ProtocolError("op 'define' field 'isa' must be a list of strings")
        isa = tuple(raw_isa)

    deadline_ms = data.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None and (
        not isinstance(deadline_ms, (int, float)) or deadline_ms < 0
    ):
        raise ProtocolError("'deadline_ms' must be a non-negative number")

    return Request(
        op=op,
        id=data.get("id"),
        view=view,
        pattern=pattern,
        mode=mode,
        rules=rules,
        isa=isa,
        strategy=strategy,
        from_version=from_version,
        views=views,
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
