"""Observability: structured events, counters, gauges, histograms and
nestable timed spans for the whole engine.

The subsystem is built around one process-wide
:class:`~repro.obs.registry.Instrumentation` registry, reached with
:func:`get_instrumentation`.  It is **disabled by default**: every
``count`` / ``event`` / ``span`` call on a disabled registry is a single
attribute check, so instrumented hot paths (grounding, the ``V``
fixpoint, model search) stay within noise of their uninstrumented
speed.

Enable it explicitly::

    from repro.obs import get_instrumentation, instrumented

    with instrumented() as obs:          # enable + reset, restore after
        sem.least_model
        print(obs.snapshot()["counters"]["fixpoint.stages"])

Engine phases report their work once, through :func:`record_costs`:
the active trace's cost digest and the registry's counters read the
same record (:mod:`repro.obs.costs`).

Events flow to pluggable sinks (:class:`RingBufferSink`,
:class:`TextSink`, :class:`JsonLinesSink`), each with its own minimum
:class:`Level`.  ``docs/observability.md`` lists the metric names and
the event schema.
"""

from .costs import COST_COUNTERS, record_costs
from .events import Event, JsonLinesSink, Level, RingBufferSink, Sink, TextSink
from .exposition import CONTENT_TYPE, PrometheusWriter, render_registry, write_registry
from .instruments import DEFAULT_BUCKETS, Counter, Gauge, Histogram, Span, SpanStats
from .registry import Instrumentation, get_instrumentation, instrumented
from .report import render_report
from .trace import SpanNode, TraceContext, current_trace, new_trace_id, trace

__all__ = [
    "Level",
    "Event",
    "Sink",
    "RingBufferSink",
    "TextSink",
    "JsonLinesSink",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Span",
    "SpanStats",
    "SpanNode",
    "TraceContext",
    "current_trace",
    "new_trace_id",
    "trace",
    "CONTENT_TYPE",
    "PrometheusWriter",
    "write_registry",
    "render_registry",
    "Instrumentation",
    "get_instrumentation",
    "instrumented",
    "render_report",
    "COST_COUNTERS",
    "record_costs",
]
