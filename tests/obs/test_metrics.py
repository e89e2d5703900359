"""Metrics registry tests: instruments, edges, concurrency, the kill switch."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    log_buckets,
    merged_snapshot,
    metrics_enabled,
)


@pytest.fixture
def registry():
    return MetricsRegistry("test")


class TestCounter:
    def test_increments_and_totals(self, registry):
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.total() == 5

    def test_labels_partition_the_counts(self, registry):
        counter = registry.counter("by_kind_total", "", labelnames=("kind",))
        counter.inc(kind="bits")
        counter.inc(2, kind="sigma2n")
        assert counter.value(kind="bits") == 1
        assert counter.value(kind="sigma2n") == 2
        assert counter.total() == 3

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total", "")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_mismatch_rejected(self, registry):
        counter = registry.counter("labelled_total", "", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()  # missing the label
        with pytest.raises(ValueError):
            counter.inc(kind="bits", extra="nope")

    def test_concurrent_increments_from_many_threads(self, registry):
        counter = registry.counter("contended_total", "")
        n_threads, per_thread = 8, 5_000
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == n_threads * per_thread


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth", "")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_set_max_keeps_the_maximum(self, registry):
        gauge = registry.gauge("max_batch", "")
        gauge.set_max(4)
        gauge.set_max(9)
        gauge.set_max(2)
        assert gauge.value() == 9


class TestHistogramEdges:
    def test_zero_lands_in_the_first_bucket(self, registry):
        hist = registry.histogram("h0", "", buckets=(1.0, 2.0, 4.0))
        hist.observe(0.0)
        assert hist.bucket_counts() == [1, 0, 0, 0]
        assert hist.count == 1
        assert hist.sum == 0.0

    def test_infinity_lands_in_the_overflow_bucket(self, registry):
        hist = registry.histogram("hinf", "", buckets=(1.0, 2.0))
        hist.observe(math.inf)
        assert hist.bucket_counts() == [0, 0, 1]
        # Cumulative counts still close at +Inf.
        assert hist.cumulative()[-1] == (math.inf, 1)

    def test_exact_boundary_is_le_inclusive(self, registry):
        # Prometheus buckets are `le` (less-or-equal): an observation equal
        # to an edge belongs to that edge's bucket, not the next one.
        hist = registry.histogram("hedge", "", buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)
        assert hist.bucket_counts() == [0, 1, 0, 0]
        hist.observe(1.0)
        assert hist.bucket_counts() == [1, 1, 0, 0]
        hist.observe(4.0)
        assert hist.bucket_counts() == [1, 1, 1, 0]
        hist.observe(4.0000001)
        assert hist.bucket_counts() == [1, 1, 1, 1]

    def test_quantiles_interpolate(self, registry):
        hist = registry.histogram("hq", "", buckets=tuple(float(i) for i in range(1, 11)))
        for value in range(1, 11):
            hist.observe(value - 0.5)
        assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)
        assert 4.0 <= hist.quantile(0.5) <= 6.0
        empty = registry.histogram("hq_empty", "")
        assert empty.quantile(0.5) == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", "", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad_inf", "", buckets=(1.0, math.inf))

    def test_labels_keep_one_child_per_combination(self, registry):
        hist = registry.histogram(
            "hlab", "", buckets=(1.0, 2.0), labelnames=("route", "status")
        )
        hist.observe(0.5, route="/a", status="200")
        hist.observe(1.5, route="/a", status="200")
        hist.observe(3.0, route="/b", status="404")
        child = hist.labels(route="/a", status="200")
        assert child.bucket_counts() == [1, 1, 0]
        assert child.count == 2 and child.sum == 2.0
        assert [key for key, _ in hist.items()] == [("/a", "200"), ("/b", "404")]
        assert hist.count == 0  # observations live in the children
        snapshot = hist.snapshot()
        assert snapshot["route=/b,status=404"]["count"] == 1
        with pytest.raises(ValueError):
            hist.observe(1.0)  # missing labels
        with pytest.raises(ValueError):
            registry.histogram("hlab", "")  # re-registered without labels
        hist.reset()
        assert hist.items() == []

    def test_unlabeled_histogram_rejects_labels(self, registry):
        hist = registry.histogram("hplain", "", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(0.5, route="/a")
        assert hist.labels() is hist

    def test_concurrent_observations(self, registry):
        hist = registry.histogram("hconc", "", buckets=(0.5,))
        n_threads, per_thread = 8, 2_000

        def hammer():
            for _ in range(per_thread):
                hist.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == n_threads * per_thread
        assert hist.sum == pytest.approx(n_threads * per_thread * 1.0)


class TestLogBuckets:
    def test_log_buckets_shape(self):
        edges = log_buckets(1e-6, 4.0, 13)
        assert len(edges) == 13
        assert edges[0] == pytest.approx(1e-6)
        for left, right in zip(edges, edges[1:]):
            assert right == pytest.approx(left * 4.0)
        assert list(LATENCY_BUCKETS) == list(log_buckets(1e-6, 4.0, 13))


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self, registry):
        first = registry.counter("shared_total", "")
        second = registry.counter("shared_total", "")
        assert first is second

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("thing", "")
        with pytest.raises(ValueError):
            registry.gauge("thing", "")

    def test_snapshot_covers_every_instrument(self, registry):
        registry.counter("a_total", "count things").inc(3)
        registry.gauge("b", "").set(7)
        registry.histogram("c_seconds", "", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["a_total"] == {
            "type": "counter", "help": "count things", "value": 3,
        }
        assert snapshot["b"]["value"] == 7
        assert snapshot["c_seconds"]["value"]["count"] == 1

    def test_labelled_counter_snapshot_is_a_dict(self, registry):
        counter = registry.counter("k_total", "", labelnames=("kind",))
        counter.inc(2, kind="bits")
        assert counter.snapshot() == {"kind=bits": 2}

    def test_merged_snapshot_later_registry_wins(self):
        first, second = MetricsRegistry("one"), MetricsRegistry("two")
        first.counter("shared_total", "").inc(1)
        second.counter("shared_total", "").inc(10)
        second.counter("only_second_total", "").inc(2)
        merged = merged_snapshot(first, second)
        assert merged["shared_total"]["value"] == 10
        assert merged["only_second_total"]["value"] == 2
        assert merged_snapshot(first, None)["shared_total"]["value"] == 1


class TestKillSwitch:
    def test_disabled_mode_is_a_noop(self, registry):
        counter = registry.counter("killed_total", "")
        gauge = registry.gauge("killed_gauge", "")
        hist = registry.histogram("killed_seconds", "", buckets=(1.0,))
        assert metrics_enabled()
        configure_metrics(enabled=False)
        try:
            assert not metrics_enabled()
            counter.inc(5)
            gauge.set(3)
            gauge.set_max(9)
            hist.observe(0.5)
            assert counter.value() == 0
            assert gauge.value() == 0
            assert hist.count == 0
        finally:
            configure_metrics(enabled=True)
        assert metrics_enabled()
        counter.inc()
        assert counter.value() == 1

    def test_standalone_instruments_also_honour_it(self):
        counter = Counter("standalone_total", "")
        gauge = Gauge("standalone_gauge", "")
        configure_metrics(enabled=False)
        try:
            counter.inc()
            gauge.set(1)
        finally:
            configure_metrics(enabled=True)
        assert counter.value() == 0
        assert gauge.value() == 0
