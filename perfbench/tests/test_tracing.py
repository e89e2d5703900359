"""The tracer's span tree and the per-op layer aggregation."""

import threading

import pytest

from perfbench.tracing import Tracer, layer_metrics, self_times


def _span(span_id, parent, name, start, end, attrs=None):
    return (span_id, parent, span_id if parent is None else 1, name, start, end, attrs)


def test_nested_wraps_record_parents_and_share_the_trace():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    first_outer = by_name["outer"][0]
    first_inner = by_name["inner"][0]
    assert first_inner[1] == first_outer[0]
    assert first_inner[2] == first_outer[2] == first_outer[0]
    assert by_name["outer"][1][2] != first_outer[2]


def test_each_thread_has_its_own_parent_stack():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    worker = threading.Thread(target=leaf)
    root = tracer.wrap("root", lambda: (worker.start(), worker.join()))
    root()
    leaf_span = next(span for span in tracer.spans if span[3] == "leaf")
    assert leaf_span[1] is None


def test_measure_attaches_counts_even_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tracer.wrap("boom", boom, lambda a, k, r: {"samples": 3})
    with pytest.raises(RuntimeError):
        traced()
    assert tracer.spans[0][6] == {"samples": 3}


def test_self_times_subtract_children():
    spans = [
        _span(1, None, "serve.execute", 0.0, 10.0),
        _span(2, 1, "synth.shape", 1.0, 5.0),
        _span(3, 2, "synth.draw", 2.0, 3.0),
        _span(4, 1, "synth.shape", 4.0, 6.0),  # overlaps its sibling
    ]
    own = {span[0]: value for span, value in self_times(spans)}
    assert own == pytest.approx({1: 5.0, 2: 3.0, 3: 1.0, 4: 2.0})


def test_layer_metrics_are_per_op_and_per_kind():
    spans = [
        _span(1, None, "serve.execute", 0.0, 0.010),
        _span(2, 1, "bits.sample", 0.001, 0.009),
        _span(3, 2, "synth.assemble", 0.002, 0.006),
        _span(4, 3, "synth.draw", 0.003, 0.004, {"samples": 100}),
        _span(5, None, "session.read", 1.000, 1.020),
        _span(6, None, "serve.execute", 5.0, 6.0),  # outside every window
    ]
    windows = [
        {"kind": "http", "start": 0.0, "end": 0.5},
        {"kind": "session", "start": 0.5, "end": 1.5},
    ]
    samples = {"dist.partial_bytes": [(0.001, 100), (0.002, 300), (9.0, 1e6)]}
    metrics = layer_metrics([spans], samples, windows, {"http": 2, "session": 4})
    assert metrics["serve.execute_ms"] == pytest.approx(10.0 / 2)
    assert metrics["serve.batches"] == pytest.approx(0.5)
    assert metrics["bits.sample_ms"] == pytest.approx(4.0 / 2)
    assert metrics["bits.blocks"] == pytest.approx(0.5)
    assert metrics["synth.samples"] == pytest.approx(50.0)
    assert metrics["session.read_ms"] == pytest.approx(20.0 / 4)
    assert metrics["dist.partial_bytes"] == pytest.approx(400.0 / 2)
    # Synthesis self time (assemble 3 ms + draw 1 ms) over execute's 10 ms.
    assert metrics["serve.synthesis_share"] == pytest.approx(0.4)


def test_idle_is_worker_capacity_minus_shard_busy_time():
    spans = [
        _span(1, None, "dist.shard", 0.0, 0.6),
        _span(2, None, "dist.shard", 0.1, 0.5),
    ]
    windows = [{"kind": "sigma2n", "start": 0.0, "end": 1.0, "workers": 2}]
    metrics = layer_metrics([spans], {}, windows, {"sigma2n": 1})
    assert metrics["dist.shard_ms"] == pytest.approx(1000.0)
    assert metrics["dist.idle_ms"] == pytest.approx(1000.0)
    assert metrics["dist.shards"] == pytest.approx(2.0)
