"""Prometheus text-format rendering of instruments and registries."""

import pytest

from repro.obs import Instrumentation
from repro.obs.exposition import (
    CONTENT_TYPE,
    PrometheusWriter,
    render_registry,
    sanitize_metric_name,
    write_registry,
)
from repro.obs.instruments import Histogram


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("server.latency.read") == "server_latency_read"

    def test_leading_digit_gets_prefixed(self):
        assert sanitize_metric_name("1abc") == "_1abc"

    def test_legal_names_untouched(self):
        assert sanitize_metric_name("a_b:c9") == "a_b:c9"


class TestWriter:
    def test_counter_and_gauge_lines(self):
        w = PrometheusWriter()
        w.counter("hits_total", 3)
        w.gauge("depth", 2.5)
        text = w.render()
        assert "# TYPE hits_total counter\nhits_total 3\n" in text
        assert "# TYPE depth gauge\ndepth 2.5" in text

    def test_type_header_once_per_family(self):
        w = PrometheusWriter()
        w.counter("req_total", 1, labels={"op": "query"})
        w.counter("req_total", 2, labels={"op": "tell"})
        text = w.render()
        assert text.count("# TYPE req_total counter") == 1
        assert 'req_total{op="query"} 1' in text
        assert 'req_total{op="tell"} 2' in text

    def test_conflicting_kinds_rejected(self):
        w = PrometheusWriter()
        w.counter("x", 1)
        with pytest.raises(ValueError):
            w.gauge("x", 1)

    def test_help_line_precedes_type(self):
        w = PrometheusWriter()
        w.gauge("up", 1, help="Is the thing up.")
        assert w.render().startswith("# HELP up Is the thing up.\n# TYPE up gauge\n")

    def test_label_escaping(self):
        w = PrometheusWriter()
        w.gauge("g", 1, labels={"path": 'a"b\\c\nd'})
        assert 'path="a\\"b\\\\c\\nd"' in w.render()

    def test_histogram_buckets_cumulative_with_inf(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.7, 100.0):
            h.observe(value)
        w = PrometheusWriter()
        w.histogram("lat_seconds", h)
        text = w.render()
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        # The empty (1, 10] bucket is omitted; +Inf still totals.
        assert 'le="10"' not in text
        assert "lat_seconds_count 4" in text

    def test_histogram_labels_apply_to_all_series(self):
        h = Histogram("x", buckets=(1.0,))
        h.observe(0.5)
        w = PrometheusWriter()
        w.histogram("x_seconds", h, labels={"view": "bird"})
        text = w.render()
        assert 'x_seconds_bucket{le="1",view="bird"} 1' in text
        assert 'x_seconds_sum{view="bird"}' in text
        assert 'x_seconds_count{view="bird"} 1' in text

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain")


class TestRegistryDump:
    def make_registry(self) -> Instrumentation:
        obs = Instrumentation(enabled=True)
        obs.count("fixpoint.stages", 4)
        obs.gauge("server.version", 7)
        obs.observe("fixpoint.stage_literals", 3)
        with obs.span("run"):
            with obs.span("fixpoint"):
                pass
        return obs

    def test_write_registry_names_and_suffixes(self):
        text = render_registry(self.make_registry())
        assert "repro_fixpoint_stages_total 4" in text
        assert "repro_server_version 7" in text
        assert "repro_fixpoint_stage_literals_count 1" in text
        assert 'repro_span_duration_seconds_count{path="run"} 1' in text
        assert 'path="run.fixpoint"' in text

    def test_counter_total_suffix_not_doubled(self):
        obs = Instrumentation(enabled=True)
        obs.count("requests_total", 2)
        text = render_registry(obs)
        assert "repro_requests_total 2" in text
        assert "total_total" not in text

    def test_write_registry_appends_to_existing_writer(self):
        w = PrometheusWriter()
        w.gauge("repro_server_queue_depth", 0)
        write_registry(w, self.make_registry())
        text = w.render()
        assert text.index("queue_depth") < text.index("fixpoint_stages")

    def test_disabled_registry_renders_empty(self):
        assert render_registry(Instrumentation()) == ""
