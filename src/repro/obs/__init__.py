"""Unified observability: metrics registry, trace spans, export surfaces.

Zero-dependency (stdlib-only) instrumentation shared by every layer of the
stack:

* :mod:`repro.obs.metrics` — thread-safe named counters, gauges and
  fixed-log-bucket histograms in a :class:`MetricsRegistry`; cheap enough to
  leave on in the hot path, with a global ``configure_metrics(enabled=False)``
  kill switch, bitwise transparent to every synthesis output
  (``tests/obs/test_kill_switch_equivalence.py``).
* :mod:`repro.obs.trace` — ``with span("synthesize", rows=B):`` trace spans
  whose IDs propagate across the fabric wire protocol, so a multi-host
  campaign ends with one merged span tree covering the coordinator and
  every worker.
* :mod:`repro.obs.export` — JSON snapshots and Prometheus text exposition;
  the payloads behind the ``metrics`` protocol kind
  (``repro.serve`` / ``python -m repro.worker``) and the CLIs'
  ``--metrics-json`` artifacts.

Registry scoping convention: engine-level metrics (synthesis kernel timing,
plan-cache counters) live in the process-wide :func:`global_registry`;
serving counters live in one registry per
:class:`~repro.serving.service.TRNGService`; fabric shard accounting in one
registry per coordinator run.  A scrape merges the global registry with the
scope's (:func:`merged_snapshot` / :func:`render_prometheus` accept several
registries), so "exactly one source of truth" holds per scope without
cross-test or cross-service bleed.
"""

from .export import (
    json_snapshot,
    render_prometheus,
    summary_line,
    write_metrics_json,
)
from .metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    global_registry,
    log_buckets,
    merged_snapshot,
    metrics_enabled,
)
from .trace import (
    HOST,
    SpanCollector,
    SpanContext,
    SpanRecord,
    context_to_wire,
    current_span,
    format_tree,
    global_collector,
    new_id,
    span,
    span_tree,
    wire_to_parent,
)

__all__ = [
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "HOST",
    "Histogram",
    "MetricsRegistry",
    "SpanCollector",
    "SpanContext",
    "SpanRecord",
    "configure_metrics",
    "context_to_wire",
    "current_span",
    "format_tree",
    "global_collector",
    "global_registry",
    "json_snapshot",
    "log_buckets",
    "merged_snapshot",
    "metrics_enabled",
    "new_id",
    "render_prometheus",
    "span",
    "span_tree",
    "summary_line",
    "wire_to_parent",
    "write_metrics_json",
]
