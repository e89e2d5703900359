"""Exporters: JSON snapshots and Prometheus text exposition format.

Two render targets over the same registries:

* :func:`json_snapshot` — the ``metrics`` protocol kind's payload and the
  ``--metrics-json`` artifact: merged
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dicts, JSON-safe.
* :func:`render_prometheus` — `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (version
  0.0.4): ``# HELP``/``# TYPE`` headers, ``{label="value"}`` sample lines,
  cumulative ``_bucket{le="..."}``/``_sum``/``_count`` for histograms.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``); the registry naming convention
(``snake_case`` with unit suffixes) already complies, the sanitizer is a
backstop for ad-hoc names.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, iter_metrics

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def sanitize_name(name: str) -> str:
    """Coerce a metric name into the Prometheus grammar."""
    if _NAME_OK.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not re.match(r"[a-zA-Z_:]", cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_number(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_pairs(labelnames, key) -> List[str]:
    return [
        f'{sanitize_name(name)}="{_escape_label(value)}"'
        for name, value in zip(labelnames, key)
    ]


def _label_clause(labelnames, key) -> str:
    if not labelnames:
        return ""
    return "{" + ",".join(_label_pairs(labelnames, key)) + "}"


def render_prometheus(*registries: Optional[MetricsRegistry]) -> str:
    """Text exposition of every metric in the given registries.

    ``None`` registries are skipped; duplicate names keep the first
    registry's metric (matching :func:`repro.obs.metrics.merged_snapshot`'s
    merge direction for scrapes that combine the global and a scope
    registry).
    """
    lines: List[str] = []
    for metric in iter_metrics(registries):
        name = sanitize_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            items = metric.items()
            if not items and not metric.labelnames:
                items = [((), 0)]
            for key, value in items:
                clause = _label_clause(metric.labelnames, key)
                lines.append(f"{name}{clause} {_format_number(value)}")
        elif isinstance(metric, Histogram):
            series = metric.items() if metric.labelnames else [((), metric)]
            for key, histogram in series:
                pairs = _label_pairs(metric.labelnames, key)
                clause = _label_clause(metric.labelnames, key)
                for edge, cumulative in histogram.cumulative():
                    le = f'le="{_format_number(float(edge))}"'
                    lines.append(
                        f"{name}_bucket{{{','.join(pairs + [le])}}} {cumulative}"
                    )
                lines.append(f"{name}_sum{clause} {_format_number(histogram.sum)}")
                lines.append(f"{name}_count{clause} {histogram.count}")
    return "\n".join(lines) + "\n"


def json_snapshot(*registries: Optional[MetricsRegistry]) -> Dict:
    """Merged JSON-safe snapshot of the given registries."""
    merged: Dict = {}
    for registry in registries:
        if registry is not None:
            for name, entry in registry.snapshot().items():
                merged.setdefault(name, entry)
    return merged


def write_metrics_json(
    path: str,
    *registries: Optional[MetricsRegistry],
    extra: Optional[Dict] = None,
) -> None:
    """Dump ``{"metrics": ..., **extra}`` to ``path`` (the CLI artifact)."""
    payload: Dict = {"metrics": json_snapshot(*registries)}
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def summary_line(*registries: Optional[MetricsRegistry]) -> str:
    """One compact operational line (the ``--stats-interval`` heartbeat).

    Picks out the high-signal metrics when present — requests, queue depth,
    coalesce ratio, execution latency quantiles, fabric shard counts — and
    degrades gracefully to ``name=value`` pairs for whatever else exists.
    """
    parts: List[str] = []
    metrics = {metric.name: metric for metric in iter_metrics(registries)}

    def _value(name: str) -> Optional[float]:
        metric = metrics.get(name)
        if isinstance(metric, Counter):
            return metric.total()
        if isinstance(metric, Gauge):
            return metric.value()
        return None

    submitted = _value("serve_requests_total")
    if submitted is not None:
        parts.append(f"req={int(submitted)}")
        completed = _value("serve_completed_total") or 0
        failed = _value("serve_failed_total") or 0
        parts.append(f"done={int(completed)}")
        if failed:
            parts.append(f"failed={int(failed)}")
    depth = _value("serve_queue_depth")
    if depth is not None:
        parts.append(f"queue={int(depth)}")
    batches = metrics.get("serve_batch_size")
    if isinstance(batches, Histogram) and batches.count:
        batched = batches.sum
        coalesced = _value("serve_coalesced_requests_total") or 0.0
        ratio = coalesced / batched if batched else 0.0
        parts.append(f"batches={batches.count}")
        parts.append(f"coalesce={ratio:.0%}")
    execute = metrics.get("serve_execute_seconds")
    if isinstance(execute, Histogram) and execute.count:
        parts.append(
            f"exec_p50={execute.quantile(0.5) * 1e3:.1f}ms"
            f" p99={execute.quantile(0.99) * 1e3:.1f}ms"
        )
    shards = _value("fabric_shards_completed_total")
    if shards:
        parts.append(f"shards={int(shards)}")
    blocks = metrics.get("engine_kernel_block_seconds")
    if isinstance(blocks, Histogram) and blocks.count:
        parts.append(f"kernel_calls={blocks.count}")
    hits = _value("plan_cache_hits_total")
    misses = _value("plan_cache_misses_total")
    if hits or misses:
        parts.append(f"plan_cache={int(hits or 0)}h/{int(misses or 0)}m")
    if not parts:
        parts.append("no metrics recorded")
    return "[obs] " + " ".join(parts)
