"""Unit tests for the metric primitives and the registry."""

import pytest

from repro.obs import (
    Instrumentation,
    RingBufferSink,
    get_instrumentation,
    instrumented,
    render_report,
)
from repro.obs.instruments import DEFAULT_BUCKETS, NULL_SPAN, Counter, Gauge, Histogram


class TestPrimitives:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = Histogram("x")
        for value in (1, 5, 3):
            h.observe(value)
        assert h.count == 3
        assert h.min == 1
        assert h.max == 5
        assert h.mean == 3
        assert h.as_dict()["sum"] == 9

    def test_empty_histogram_mean(self):
        assert Histogram("x").mean == 0.0

    def test_histogram_bucket_boundaries_are_le(self):
        h = Histogram("x", buckets=(1.0, 2.0))
        h.observe(1.0)  # on-boundary lands in the <= 1.0 bucket
        h.observe(1.5)
        h.observe(9.0)  # overflow
        assert h.bucket_counts == [1, 1, 1]
        assert h.bucket_pairs() == [(1.0, 1), (2.0, 2), (None, 3)]

    def test_histogram_bucket_pairs_list_empty_buckets(self):
        h = Histogram("x", buckets=(1.0, 2.0, 3.0))
        assert h.bucket_pairs() == [(1.0, 0), (2.0, 0), (3.0, 0), (None, 0)]
        h.observe(2.5)
        assert h.bucket_pairs() == [(1.0, 0), (2.0, 0), (3.0, 1), (None, 1)]

    def test_histogram_buckets_sorted_on_construction(self):
        assert Histogram("x", buckets=(5.0, 1.0)).buckets == (1.0, 5.0)

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram("x", buckets=(0.0, 10.0, 20.0))
        for value in range(1, 11):  # 1..10, uniform in (0, 10]
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)
        # Clamped by the tracked extremes, not the bucket edges.
        assert h.quantile(0.0001) == 1.0

    def test_quantile_in_overflow_bucket_returns_max(self):
        h = Histogram("x", buckets=(1.0,))
        h.observe(50.0)
        h.observe(70.0)
        assert h.quantile(0.99) == 70.0

    def test_empty_histogram_quantile(self):
        assert Histogram("x").quantile(0.5) == 0.0

    def test_as_dict_backward_compatible_plus_percentiles(self):
        h = Histogram("x", buckets=(2.0, 4.0))
        for value in (1, 3):
            h.observe(value)
        d = h.as_dict()
        assert d["count"] == 2 and d["sum"] == 4
        assert d["min"] == 1 and d["max"] == 3 and d["mean"] == 2
        assert {"p50", "p95", "p99", "buckets"} <= set(d)
        assert d["buckets"] == [[2.0, 1], [4.0, 2], [None, 2]]

    def test_default_buckets_span_micro_to_mega(self):
        h = Histogram("x")
        h.observe(3e-6)
        h.observe(40_000)
        assert h.quantile(0.5) > 0
        pairs = h.bucket_pairs()
        assert [le for le, _ in pairs] == [*DEFAULT_BUCKETS, None]  # every bound + overflow
        assert pairs[0] == (1e-6, 0) and pairs[-1] == (None, 2)


class TestRegistry:
    def test_disabled_is_noop(self):
        obs = Instrumentation()
        obs.count("a")
        obs.gauge("b", 1)
        obs.observe("c", 1)
        assert obs.event("d") is None
        assert obs.span("e") is NULL_SPAN
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == {}

    def test_enabled_records(self):
        obs = Instrumentation(enabled=True)
        obs.count("hits", 2)
        obs.count("hits")
        obs.gauge("depth", 7)
        obs.observe("lat", 0.5)
        snap = obs.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 7}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_count_zero_records_nothing(self):
        obs = Instrumentation(enabled=True)
        obs.count("zero", 0)
        assert obs.snapshot()["counters"] == {}

    def test_reset_clears_metrics(self):
        obs = Instrumentation(enabled=True)
        obs.count("a")
        obs.reset()
        assert obs.snapshot()["counters"] == {}

    def test_span_nesting_builds_dotted_paths(self):
        obs = Instrumentation(enabled=True)
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs.current_span_path() == "outer.inner"
        spans = obs.snapshot()["spans"]
        assert set(spans) == {"outer", "outer.inner"}
        assert spans["outer"]["count"] == 1
        assert spans["outer"]["sum"] >= spans["outer.inner"]["sum"]

    def test_span_stack_unwinds_on_error(self):
        obs = Instrumentation(enabled=True)
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert obs.current_span_path() == ""
        assert obs.snapshot()["spans"]["boom"]["count"] == 1

    def test_span_failure_flag_in_event(self):
        obs = Instrumentation(enabled=True)
        ring = obs.add_sink(RingBufferSink())
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (evt,) = ring.events
        assert evt.name == "span.end"
        assert evt.fields["failed"] is True


class TestGlobalRegistry:
    def test_global_is_shared_and_disabled_by_default(self):
        assert get_instrumentation() is get_instrumentation()
        assert get_instrumentation().enabled is False

    def test_instrumented_restores_state(self):
        obs = get_instrumentation()
        assert not obs.enabled
        with instrumented() as inner:
            assert inner is obs
            assert obs.enabled
            obs.count("x")
        assert not obs.enabled

    def test_instrumented_detaches_sinks(self):
        ring = RingBufferSink()
        with instrumented(ring) as obs:
            assert ring in obs.sinks
        assert ring not in get_instrumentation().sinks


class TestReport:
    def test_render_report_sections(self):
        obs = Instrumentation(enabled=True)
        obs.count("hits", 3)
        obs.gauge("depth", 2)
        obs.observe("lat", 1.0)
        with obs.span("phase"):
            pass
        text = render_report(obs.snapshot())
        assert "counters:" in text
        assert "hits" in text
        assert "gauges:" in text
        assert "histograms" in text
        assert "phase" in text

    def test_render_empty_report(self):
        assert "no metrics" in render_report(Instrumentation().snapshot())
