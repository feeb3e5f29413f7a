"""Request-scoped trace contexts: follow one request through the engine.

A :class:`TraceContext` carries a trace id, an optional parent span id
and string baggage through :mod:`contextvars`, so it survives ``await``
boundaries and can be re-activated on a different task (the server's
single-writer pipeline applies a mutation on the writer task while the
request waits on the admitting task).

While a context is active, every :meth:`Instrumentation.span
<repro.obs.registry.Instrumentation.span>` call in the engine attaches
a :class:`SpanNode` to the context's span tree — with the registry
*enabled or disabled*.  A disabled registry with no active trace stays
the zero-cost path (one attribute check plus one contextvar read).

Besides timed spans, a context accumulates a flat *cost digest*
(:meth:`TraceContext.add_cost`).  Engine phases fill it through
:func:`~repro.obs.costs.record_costs`, the same record the registry
folds into counters, with the work they did (instances grounded, rules
fired, literals derived/deleted, leaves visited, rows fetched), so a
slow request can be attributed to the rules that made it slow, not just
to wall-clock phases.  ``docs/observability.md``
documents the wire schema of :meth:`TraceContext.summary`.
"""

from __future__ import annotations

import contextvars
import os
import time
from typing import Any, Iterator, Optional

__all__ = [
    "SpanNode",
    "TraceContext",
    "current_trace",
    "new_trace_id",
    "trace",
]

_ACTIVE: contextvars.ContextVar[Optional["TraceContext"]] = contextvars.ContextVar(
    "repro_trace", default=None
)


def current_trace() -> Optional["TraceContext"]:
    """The trace context active on this task, or None."""
    return _ACTIVE.get()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id.

    ``os.urandom`` directly — building a ``uuid.UUID`` costs several
    microseconds per request on the traced read path for no extra
    entropy in a 64-bit id.
    """
    return os.urandom(8).hex()


_SCALARS = (str, int, float, bool)


def _scalar(value: Any) -> Any:
    return value if isinstance(value, _SCALARS) else str(value)


class SpanNode:
    """One node of a trace's span tree.

    Usable as a context manager (the trace-only path when the registry
    is disabled); the registry's own :class:`~repro.obs.instruments.Span`
    drives :meth:`finish` instead, sharing one ``perf_counter`` pair
    between the statistics and the tree.
    """

    __slots__ = ("_ctx", "name", "fields", "duration", "children", "_start")

    #: Dotted-path compatibility with ``Span``/``NULL_SPAN``.
    path = ""

    def __init__(self, ctx: "TraceContext", name: str, fields: dict) -> None:
        self._ctx = ctx
        self.name = name
        self.fields = fields
        self.duration: Optional[float] = None
        self.children: list["SpanNode"] = []
        self._start = 0.0

    def finish(self, duration: float) -> None:
        """Close a node opened via ``TraceContext._attach`` (bridge path)."""
        self.duration = duration
        self._ctx._pop(self)

    def __enter__(self) -> "SpanNode":
        self._ctx._attach(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(time.perf_counter() - self._start)

    def to_dict(self) -> dict:
        """JSON-ready node: name, duration_ms, fields, children."""
        payload: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round((self.duration or 0.0) * 1000.0, 4),
        }
        if self.fields:
            # Inline scalar check: a per-field function call is
            # measurable on the traced read path.
            payload["fields"] = {
                k: v if v.__class__ in _SCALARS else _scalar(v)
                for k, v in self.fields.items()
            }
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload


class _Activation:
    """Context manager making one trace the task's active context."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: "TraceContext") -> None:
        self._ctx = ctx
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "TraceContext":
        self._token = _ACTIVE.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None


class TraceContext:
    """One request's trace: id, baggage, span tree and cost digest.

    The context itself is *passive* — it only collects spans while made
    active on the current task via :meth:`activate` (or the module-level
    :func:`trace` helper).  It may be activated on several tasks in
    turn; the server activates a write's context again on the writer
    task so pipeline spans join the same tree.
    """

    __slots__ = ("trace_id", "parent_span_id", "baggage", "root", "_stack", "costs")

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        baggage: Optional[dict] = None,
        name: str = "request",
        **fields: Any,
    ) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.parent_span_id = parent_span_id
        self.baggage: dict[str, str] = dict(baggage or {})
        self.root = SpanNode(self, name, fields)
        self.root._start = time.perf_counter()
        self._stack: list[SpanNode] = [self.root]
        self.costs: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Span tree
    # ------------------------------------------------------------------
    def span(self, name: str, **fields: Any) -> SpanNode:
        """A timed child span; attach by entering the returned node."""
        return SpanNode(self, name, fields)

    def _attach(self, node: SpanNode) -> None:
        self._stack[-1].children.append(node)
        self._stack.append(node)

    def _pop(self, node: SpanNode) -> None:
        if len(self._stack) > 1 and self._stack[-1] is node:
            self._stack.pop()

    def record(self, name: str, duration: float, **fields: Any) -> SpanNode:
        """Append an already-measured span (e.g. queue wait timed by the
        admitting task) as a completed child of the current span."""
        node = SpanNode(self, name, fields)
        node.duration = duration
        self._stack[-1].children.append(node)
        return node

    def close(self) -> None:
        """Fix the root span's duration (idempotent once closed)."""
        if self.root.duration is None:
            self.root.duration = time.perf_counter() - self.root._start

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def add_cost(self, **counts: float) -> None:
        """Accumulate semantic-work counters into the cost digest."""
        costs = self.costs
        for key, value in counts.items():
            costs[key] = costs.get(key, 0) + value

    def annotate(self, **fields: Any) -> None:
        """Set fields on the root span (batch version, view, ...)."""
        self.root.fields.update(fields)

    # ------------------------------------------------------------------
    # Activation and wire format
    # ------------------------------------------------------------------
    def activate(self) -> _Activation:
        """Make this the active context of the current task (scoped)."""
        return _Activation(self)

    def summary(self) -> dict:
        """The JSON-ready span-tree summary echoed in server replies."""
        self.close()
        payload: dict[str, Any] = {
            "trace_id": self.trace_id,
            "spans": self.root.to_dict(),
        }
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        if self.baggage:
            payload["baggage"] = dict(self.baggage)
        if self.costs:
            payload["costs"] = dict(self.costs)
        return payload


def trace(
    name: str = "request",
    trace_id: Optional[str] = None,
    baggage: Optional[dict] = None,
    **fields: Any,
) -> Iterator[TraceContext]:
    """``with trace("load") as ctx: ...`` — build and activate in one go."""
    from contextlib import contextmanager

    @contextmanager
    def _run() -> Iterator[TraceContext]:
        ctx = TraceContext(trace_id=trace_id, baggage=baggage, name=name, **fields)
        with ctx.activate():
            yield ctx
        ctx.close()

    return _run()
