"""The process-wide instrumentation registry.

One :class:`Instrumentation` instance owns all counters, gauges,
histograms, span statistics and event sinks.  Library code reaches the
shared instance through :func:`get_instrumentation` and guards every
record with ``obs.enabled`` (or relies on ``count``/``event``/``span``
short-circuiting), so a disabled registry costs a single attribute
check on the hot paths.  Engine costs do not call ``count`` themselves:
:func:`~repro.obs.costs.record_costs` folds each phase's cost record into
the counter :data:`~repro.obs.costs.COST_COUNTERS` names for its key, so
every engine counter has one recording site and reads what the trace
digest reads.

Tests and the CLI use :func:`instrumented` to enable the registry for a
scoped region and restore the previous state afterwards.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from .events import Event, Level, Sink, make_event
from .instruments import NULL_SPAN, Counter, Gauge, Histogram, Span, SpanStats
from .trace import current_trace

__all__ = ["Instrumentation", "get_instrumentation", "instrumented"]


class Instrumentation:
    """Registry of metrics and event sinks.

    Attributes:
        enabled: master switch.  While False, ``count``, ``gauge``,
            ``observe``, ``event`` are no-ops and ``span`` returns a
            shared null span.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, SpanStats] = {}
        self._sinks: list[Sink] = []
        self._seq = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded metrics (sinks stay attached)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        sink.close()

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter (no-op while disabled or ``n == 0``)."""
        if not self.enabled or not n:
            return
        self.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        g.set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op while disabled)."""
        if not self.enabled:
            return
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        h.observe(value)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **fields):
        """A timed context manager, nested under the current span.

        While the registry is disabled the span still attaches to the
        active :class:`~repro.obs.trace.TraceContext` (if any), so
        request tracing works without turning global metrics on; with
        neither enabled this stays the shared zero-cost null span.
        """
        if not self.enabled:
            ctx = current_trace()
            if ctx is None:
                return NULL_SPAN
            return ctx.span(name, **fields)
        return Span(self, name, fields)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_path(self) -> str:
        stack = self._stack()
        return stack[-1] if stack else ""

    def _push_span(self, name: str) -> str:
        stack = self._stack()
        path = f"{stack[-1]}.{name}" if stack else name
        stack.append(path)
        return path

    def _pop_span(self, span: Span, failed: bool) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.path:
            stack.pop()
        stats = self._spans.get(span.path)
        if stats is None:
            stats = self._spans[span.path] = SpanStats(span.path)
        stats.observe(span.duration or 0.0)
        self.event(
            "span.end",
            Level.DEBUG,
            span_name=span.name,
            duration_s=round(span.duration or 0.0, 6),
            failed=failed,
            **span.fields,
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def event(self, name: str, level: Level = Level.INFO, **fields) -> Optional[Event]:
        """Emit a structured event to every accepting sink.

        Returns the event (for tests), or None while disabled.
        """
        if not self.enabled:
            return None
        self._seq += 1
        evt = make_event(name, level, fields, self._seq, self.current_span_path())
        for sink in self._sinks:
            if sink.accepts(evt):
                sink.emit(evt)
        return evt

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All recorded metrics as a JSON-ready dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
            "spans": {n: s.as_dict() for n, s in sorted(self._spans.items())},
        }


_GLOBAL = Instrumentation()


def get_instrumentation() -> Instrumentation:
    """The process-wide registry used by all library call sites."""
    return _GLOBAL


@contextmanager
def instrumented(
    *sinks: Sink, reset: bool = True
) -> Iterator[Instrumentation]:
    """Enable the global registry for a scoped region.

    Attaches the given sinks, optionally resets metrics on entry, and
    restores the previous enabled state (detaching the sinks) on exit.
    """
    obs = get_instrumentation()
    was_enabled = obs.enabled
    if reset:
        obs.reset()
    for sink in sinks:
        obs.add_sink(sink)
    obs.enable()
    try:
        yield obs
    finally:
        obs.enabled = was_enabled
        for sink in sinks:
            obs.remove_sink(sink)
