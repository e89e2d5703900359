"""Thread-safe metrics: named counters, gauges and log-bucket histograms.

A :class:`MetricsRegistry` holds the named metrics of one scope — the
process-wide :func:`global_registry` for engine-level instrumentation
(synthesis kernel timing, plan-cache counters), one registry per
:class:`~repro.serving.service.TRNGService` for serving counters, one per
:class:`~repro.engine.distributed.fabric.telemetry.FabricTelemetry` for
fabric shard accounting.  Registration (``registry.counter(...)``) takes the
registry lock once and returns a handle; every *mutation* on the handle
takes only that metric's own lock, so the hot path never serializes on the
registry.

The instruments:

* :class:`Counter` — monotonically increasing, optional labels
  (``counter.inc(1, kind="bits")``);
* :class:`Gauge` — a point-in-time value (``set``/``inc``/``dec``);
* :class:`Histogram` — fixed log-spaced buckets (Prometheus ``le``
  semantics: a value lands in every bucket whose upper edge is **>=** the
  value, edges inclusive), plus running sum/count and a linear-interpolated
  :meth:`~Histogram.quantile` for one-line summaries; optional labels keep
  one child histogram per label combination.

``configure_metrics(enabled=False)`` is the **global kill switch**: every
mutator becomes a no-op (one module-global boolean test on the fast path),
the uninstrumented baseline.  Metrics never touch any RNG stream, so
enabled and disabled runs are bit-for-bit identical
(``tests/obs/test_kill_switch_equivalence.py``) — the switch trades
observability for the last few percent of hot-path time, nothing else.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Global kill switch (module-level so the fast-path test is one LOAD_GLOBAL).
_enabled = True


def configure_metrics(enabled: bool = True) -> None:
    """Enable or disable every metric mutation process-wide.

    Disabling makes ``inc``/``set``/``observe`` no-ops on **all**
    registries; reads (``value``/``snapshot``) keep returning whatever was
    recorded while enabled.  Span recording honours the same switch.
    """
    global _enabled
    _enabled = bool(enabled)


def metrics_enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _enabled


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-spaced bucket edges: ``start * factor**i``.

    The implicit ``+Inf`` overflow bucket is always appended by
    :class:`Histogram`; don't include it here.
    """
    if start <= 0.0:
        raise ValueError(f"start must be > 0, got {start!r}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return tuple(start * factor**i for i in range(count))


#: Default latency buckets: 1 µs .. ~67 s in factor-4 steps (13 edges).
LATENCY_BUCKETS = log_buckets(1e-6, 4.0, 13)

#: Default size buckets (batch sizes, row counts): 1 .. 4096 in powers of 2.
SIZE_BUCKETS = log_buckets(1.0, 2.0, 13)

_LabelKey = Tuple[str, ...]


class Metric:
    """Base of all instruments: name, help text, label names, own lock."""

    kind = "metric"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> _LabelKey:
        if tuple(labels) != self.labelnames:
            # Labels must arrive complete and in declaration order-independent
            # form; anything else is a programming error worth failing fast on.
            if set(labels) != set(self.labelnames):
                raise ValueError(
                    f"metric {self.name!r} takes labels "
                    f"{list(self.labelnames)}, got {sorted(labels)}"
                )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(Metric):
    """A monotonically increasing count (per label combination)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if not _enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount!r}")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def items(self) -> List[Tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def snapshot(self):
        if not self.labelnames:
            return self.value()
        return {_label_string(self, key): value for key, value in self.items()}

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(Metric):
    """A point-in-time value (queue depth, fleet size, high-water marks)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def set_max(self, value: float, **labels: str) -> None:
        """Raise the gauge to ``value`` if it is below it (high-water mark)."""
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        if not _enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)

    def items(self) -> List[Tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def snapshot(self):
        if not self.labelnames:
            return self.value()
        return {_label_string(self, key): value for key, value in self.items()}

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Histogram(Metric):
    """Fixed-bucket latency/size histogram (log-spaced by default).

    Bucket edges are upper bounds with Prometheus ``le`` semantics: a value
    is counted in the first bucket whose edge is **>=** the value (edges
    inclusive — an observation exactly on an edge lands in that edge's
    bucket), with an implicit ``+Inf`` overflow bucket at the end.  ``0``
    therefore lands in the first finite bucket; ``inf`` only in ``+Inf``.

    With ``labelnames``, every label combination gets its own child
    histogram (same edges): ``observe(value, route="/v1/bits")`` lands in
    the child that :meth:`labels` returns, and :meth:`items` lists them.
    The labeled parent's own buckets, sum and count stay empty.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(edge) for edge in (buckets or LATENCY_BUCKETS))
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        if math.isinf(edges[-1]):
            raise ValueError("+Inf bucket is implicit; don't pass it")
        self.edges = edges
        # counts has one extra slot: the +Inf overflow bucket.
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0
        self._children: Dict[_LabelKey, "Histogram"] = {}

    def observe(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        if labels or self.labelnames:
            self.labels(**labels).observe(value)
            return
        index = bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def labels(self, **labels: str) -> "Histogram":
        """The child histogram of one label combination (itself if unlabeled)."""
        key = self._key(labels)
        if not key:
            return self
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Histogram(
                    self.name, self.help, self.edges
                )
            return child

    def items(self) -> List[Tuple[_LabelKey, "Histogram"]]:
        """``(label_key, child)`` pairs of a labeled histogram, sorted."""
        with self._lock:
            return sorted(self._children.items())

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` bucket last."""
        with self._lock:
            return list(self._counts)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last (Prometheus form)."""
        counts = self.bucket_counts()
        pairs: List[Tuple[float, int]] = []
        running = 0
        for edge, count in zip(
            list(self.edges) + [float("inf")], counts
        ):
            running += count
            pairs.append((edge, running))
        return pairs

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation within buckets).

        Good enough for one-line operational summaries (p50/p99); the exact
        distribution is in the buckets themselves.  Returns ``0.0`` when
        nothing was observed; observations in the ``+Inf`` bucket clamp to
        the largest finite edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for index, count in enumerate(counts):
            if running + count >= rank and count > 0:
                upper = (
                    self.edges[index]
                    if index < len(self.edges)
                    else self.edges[-1]
                )
                lower = self.edges[index - 1] if index >= 1 else 0.0
                if index >= len(self.edges):
                    return upper
                fraction = (rank - running) / count
                return lower + fraction * (upper - lower)
            running += count
        return self.edges[-1]

    def snapshot(self) -> Dict:
        if self.labelnames:
            return {
                _label_string(self, key): child.snapshot()
                for key, child in self.items()
            }
        with self._lock:
            counts = list(self._counts)
            total, running_sum = self._count, self._sum
        cumulative = []
        running = 0
        for edge, count in zip(list(self.edges) + [float("inf")], counts):
            running += count
            cumulative.append([edge if math.isfinite(edge) else "+Inf", running])
        return {
            "count": total,
            "sum": running_sum,
            "buckets": cumulative,
            "mean": running_sum / total if total else 0.0,
        }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.edges) + 1)
            self._sum = 0.0
            self._count = 0
            self._children.clear()


def _label_string(metric: Metric, key: _LabelKey) -> str:
    return ",".join(
        f"{name}={value}" for name, value in zip(metric.labelnames, key)
    )


class MetricsRegistry:
    """A named collection of metrics; registration is get-or-create.

    Registering the same name twice returns the existing instrument (so
    modules can ``registry.counter(...)`` independently and share it), but a
    kind or label mismatch on an existing name raises — silently returning
    a differently-shaped metric would corrupt someone's counts.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Metric]" = {}

    def _register(self, metric_cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, metric_cls):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {metric_cls.kind}"
                    )
                expected = tuple(kwargs.get("labelnames", ()) or ())
                if existing.labelnames != expected:
                    raise ValueError(
                        f"metric {name!r} is already registered with labels "
                        f"{list(existing.labelnames)}, not {list(expected)}"
                    )
                return existing
            metric = metric_cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(
            Histogram, name, help, buckets=buckets, labelnames=labelnames
        )

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict:
        """Plain-JSON view: ``{name: {"type", "help", "value"}}``."""
        return {
            metric.name: {
                "type": metric.kind,
                "help": metric.help,
                "value": metric.snapshot(),
            }
            for metric in self.metrics()
        }

    def reset(self) -> None:
        """Zero every metric (keeps registrations; test isolation)."""
        for metric in self.metrics():
            metric.reset()


_global_registry = MetricsRegistry("global")


def global_registry() -> MetricsRegistry:
    """The process-wide registry (engine-level metrics live here)."""
    return _global_registry


def merged_snapshot(*registries: Optional[MetricsRegistry]) -> Dict:
    """One snapshot dict over several registries (later ones win on clashes).

    The standard scrape shape is ``merged_snapshot(global_registry(),
    service_registry)`` — engine-level and scope-level metrics in one JSON
    object.  ``None`` entries are skipped so call sites can pass optional
    registries straight through.
    """
    merged: Dict = {}
    for registry in registries:
        if registry is not None:
            merged.update(registry.snapshot())
    return merged


def iter_metrics(
    registries: Iterable[Optional[MetricsRegistry]],
) -> List[Metric]:
    """All metrics of several registries, deduplicated by name (first wins)."""
    seen: Dict[str, Metric] = {}
    for registry in registries:
        if registry is None:
            continue
        for metric in registry.metrics():
            seen.setdefault(metric.name, metric)
    return [seen[name] for name in sorted(seen)]
