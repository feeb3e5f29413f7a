"""Metric primitives: counters, gauges, histograms and timed spans.

These are deliberately tiny mutable objects — the registry hands out at
most one instance per name, and the hot paths mostly accumulate into
plain local integers and flush once per phase, so the per-instrument
cost only matters at flush granularity.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional, Sequence

from .trace import SpanNode, current_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .registry import Instrumentation

__all__ = ["Counter", "Gauge", "Histogram", "SpanStats", "Span", "DEFAULT_BUCKETS"]

#: Geometric 1–2.5–5 ladder from 1µ to 500k: wide enough that one
#: default covers both second-scale latencies and count-scale deltas.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e3, 1e4, 1e5)
    for base in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-write-wins numeric level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Bucketed streaming summary of observed values.

    A fixed-size summary rather than stored samples: benchmarks observe
    one value per fixpoint stage or per search leaf, and keeping raw
    samples would make long runs O(observations) in memory.  Explicit
    cumulative bucket boundaries (Prometheus ``le`` semantics: bucket
    *i* counts values ``<= buckets[i]``, plus one overflow bucket) make
    the exposition format and honest p50/p95/p99 estimates possible.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "bucket_counts")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: tuple[float, ...] = (
            buckets if buckets is DEFAULT_BUCKETS else tuple(sorted(buckets))
        )
        self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from the buckets.

        Linear interpolation within the bucket holding the target rank,
        clamped to the observed [min, max] — the standard Prometheus
        ``histogram_quantile`` estimate, but tightened by the exact
        extremes the summary also tracks.
        """
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        target = q * self.count
        cumulative = 0
        for i, boundary in enumerate(self.buckets):
            in_bucket = self.bucket_counts[i]
            if not in_bucket:
                continue
            if cumulative + in_bucket >= target:
                lower = self.buckets[i - 1] if i else 0.0
                fraction = (target - cumulative) / in_bucket
                estimate = lower + (boundary - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max  # target rank sits in the overflow bucket

    def bucket_pairs(self) -> list[tuple[Optional[float], int]]:
        """Every ``(le, cumulative_count)`` pair, one per bound, ending
        with the ``(None, count)`` overflow (+Inf) bucket: a Prometheus
        histogram's series are all there from the first scrape."""
        pairs: list[tuple[Optional[float], int]] = []
        cumulative = 0
        for boundary, in_bucket in zip(self.buckets, self.bucket_counts):
            cumulative += in_bucket
            pairs.append((boundary, cumulative))
        pairs.append((None, self.count))
        return pairs

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [[le, n] for le, n in self.bucket_pairs()],
        }

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Histogram({self.name}: n={self.count} mean={self.mean:.3g})"


class SpanStats(Histogram):
    """Per-span-path timing summary; values are seconds."""

    __slots__ = ()


class Span:
    """A nestable timed region.

    Spans stack per registry: entering ``fixpoint`` inside ``run``
    records its timing under the dotted path ``run.fixpoint``, so the
    report shows where parent time went.  When a trace context is
    active (:func:`repro.obs.trace.current_trace`), the same timing is
    also attached as a node of that request's span tree.  Use only as a
    context manager.
    """

    __slots__ = (
        "_registry",
        "name",
        "fields",
        "path",
        "duration",
        "_start",
        "_trace_node",
    )

    def __init__(self, registry: "Instrumentation", name: str, fields: dict) -> None:
        self._registry = registry
        self.name = name
        self.fields = fields
        self.path = name
        self.duration: Optional[float] = None
        self._start = 0.0
        self._trace_node: Optional[SpanNode] = None

    def __enter__(self) -> "Span":
        self.path = self._registry._push_span(self.name)
        ctx = current_trace()
        if ctx is not None:
            node = SpanNode(ctx, self.name, self.fields)
            ctx._attach(node)
            self._trace_node = node
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        node = self._trace_node
        if node is not None:
            node.finish(self.duration)
            self._trace_node = None
        self._registry._pop_span(self, failed=exc_type is not None)


class _NullSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()
    name = ""
    path = ""
    fields: dict = {}
    duration = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()
