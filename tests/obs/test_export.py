"""Exporter tests: Prometheus text exposition, JSON snapshots, summaries."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    json_snapshot,
    render_prometheus,
    summary_line,
    write_metrics_json,
)
from repro.obs.export import sanitize_name


@pytest.fixture
def registry():
    registry = MetricsRegistry("export-test")
    counter = registry.counter(
        "serve_requests_total", "Requests submitted", labelnames=("kind",)
    )
    counter.inc(3, kind="bits")
    counter.inc(1, kind="sigma2n")
    registry.gauge("serve_queue_depth", "Queue depth").set(2)
    hist = registry.histogram("rtt_seconds", "RTT", buckets=(0.5, 1.0, 2.0))
    for value in (0.1, 0.7, 0.7, 5.0):
        hist.observe(value)
    return registry


class TestPrometheusExposition:
    def test_parsed_line_by_line(self, registry):
        lines = render_prometheus(registry).splitlines()
        # Every line is a comment or `name[{labels}] value` — no blank lines.
        assert all(lines)
        samples = {}
        types = {}
        for line in lines:
            if line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split()
                types[name] = kind
                continue
            name_part, value = line.rsplit(" ", 1)
            samples[name_part] = value
        assert types["serve_requests_total"] == "counter"
        assert types["serve_queue_depth"] == "gauge"
        assert types["rtt_seconds"] == "histogram"
        assert samples['serve_requests_total{kind="bits"}'] == "3"
        assert samples['serve_requests_total{kind="sigma2n"}'] == "1"
        assert samples["serve_queue_depth"] == "2"
        # Histogram buckets are cumulative and close at +Inf == _count.
        assert samples['rtt_seconds_bucket{le="0.5"}'] == "1"
        assert samples['rtt_seconds_bucket{le="1"}'] == "3"
        assert samples['rtt_seconds_bucket{le="2"}'] == "3"
        assert samples['rtt_seconds_bucket{le="+Inf"}'] == "4"
        assert samples["rtt_seconds_count"] == "4"
        assert float(samples["rtt_seconds_sum"]) == pytest.approx(6.5)

    def test_labeled_histogram_series(self):
        registry = MetricsRegistry("labeled")
        hist = registry.histogram(
            "req_seconds", "", buckets=(1.0,), labelnames=("route",)
        )
        hist.observe(0.5, route="/a")
        hist.observe(2.0, route="/a")
        hist.observe(0.5, route="/b")
        lines = set(render_prometheus(registry).splitlines())
        assert 'req_seconds_bucket{route="/a",le="1"} 1' in lines
        assert 'req_seconds_bucket{route="/a",le="+Inf"} 2' in lines
        assert 'req_seconds_sum{route="/a"} 2.5' in lines
        assert 'req_seconds_count{route="/a"} 2' in lines
        assert 'req_seconds_count{route="/b"} 1' in lines

    def test_help_lines_present(self, registry):
        text = render_prometheus(registry)
        assert "# HELP serve_requests_total Requests submitted" in text

    def test_empty_unlabeled_metrics_emit_zero_samples(self):
        registry = MetricsRegistry("empty")
        registry.counter("untouched_total", "")
        registry.gauge("untouched_gauge", "")
        lines = render_prometheus(registry).splitlines()
        assert "untouched_total 0" in lines
        assert "untouched_gauge 0" in lines

    def test_none_registries_are_skipped(self, registry):
        assert render_prometheus(None, registry) == render_prometheus(registry)

    def test_sanitize_name(self):
        assert sanitize_name("ok_name:sub") == "ok_name:sub"
        assert sanitize_name("bad-name.metric") == "bad_name_metric"
        assert sanitize_name("0starts_with_digit") == "_0starts_with_digit"


class TestJsonSnapshot:
    def test_merged_and_json_serializable(self, registry):
        other = MetricsRegistry("other")
        other.counter("extra_total", "").inc(7)
        snapshot = json_snapshot(registry, other)
        assert snapshot["extra_total"]["value"] == 7
        assert snapshot["serve_requests_total"]["value"] == {
            "kind=bits": 3, "kind=sigma2n": 1,
        }
        # +Inf bucket edge serializes as the string "+Inf", not Infinity.
        encoded = json.dumps(snapshot, allow_nan=False)
        assert "+Inf" in encoded

    def test_first_registry_wins_on_clashes(self, registry):
        other = MetricsRegistry("other")
        other.gauge("serve_queue_depth", "").set(99)
        snapshot = json_snapshot(registry, other)
        assert snapshot["serve_queue_depth"]["value"] == 2

    def test_write_metrics_json(self, tmp_path, registry):
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), registry, extra={"command": "serve"})
        payload = json.loads(path.read_text())
        assert payload["command"] == "serve"
        assert payload["metrics"]["serve_queue_depth"]["value"] == 2


class TestSummaryLine:
    def test_picks_out_serving_metrics(self, registry):
        line = summary_line(registry)
        assert line.startswith("[obs] ")
        assert "req=4" in line
        assert "queue=2" in line

    def test_empty_registries_degrade_gracefully(self):
        assert summary_line(MetricsRegistry("void")) == "[obs] no metrics recorded"

    def test_coalesce_and_latency_sections(self):
        registry = MetricsRegistry("serving")
        sizes = registry.histogram("serve_batch_size", "", buckets=(1.0, 2.0, 4.0))
        for size in (1, 3, 4):
            sizes.observe(size)
        registry.counter("serve_coalesced_requests_total", "").inc(7)
        execute = registry.histogram("serve_execute_seconds", "")
        execute.observe(0.01)
        line = summary_line(registry)
        assert "batches=3" in line
        assert "coalesce=88%" in line  # 7 of 8 batched requests shared a call
        assert "exec_p50=" in line and "p99=" in line
