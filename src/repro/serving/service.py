"""The serving facade: async ``get_bits`` / ``get_sigma2n`` over one engine.

:class:`TRNGService` wires the pieces together: a bounded
:class:`~repro.serving.queue.RequestQueue` (backpressure / load shedding), a
:class:`~repro.serving.coalescer.Coalescer` (request grouping), one dispatch
loop that runs each coalesced batch on a worker thread
(``asyncio.to_thread`` — the event loop keeps accepting requests while numpy
runs), and a :class:`~repro.serving.scatter.Scatterer` that resolves the
per-request futures.  :class:`ServiceStats` counts everything the benchmark
and the self-test assert on (batches, coalesced sizes, rejections).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from ..engine.backends import plan_cache_stats, resolve_backend
from ..obs import SIZE_BUCKETS, MetricsRegistry, SpanCollector, global_collector, span
from .coalescer import Coalescer
from .config import ServiceConfig
from .queue import RequestQueue, ServiceStopped
from .requests import BitsRequest, BitsResult, Request, Sigma2NRequest, Sigma2NResult
from .scatter import Scatterer, execute_batch


class ServiceStats:
    """One service lifetime's counters — a thin view over a metrics registry.

    Every number lives in the :class:`~repro.obs.MetricsRegistry` (one per
    service, shared with the request queue and the ``metrics`` protocol
    kind), so the ``stats`` reply, the Prometheus exposition and these
    attributes can never drift apart: they all read the same instruments.
    The attribute surface of the old dataclass is preserved as read-only
    properties (``stats.submitted``, ``stats.rejected``, ...).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry("serving")
        self._submitted = self.registry.counter(
            "serve_requests_total", "Requests submitted", labelnames=("kind",)
        )
        self._completed = self.registry.counter(
            "serve_completed_total", "Requests completed successfully"
        )
        self._failed = self.registry.counter(
            "serve_failed_total", "Requests failed (engine error or shutdown)"
        )
        self._rejected = self.registry.counter(
            "serve_rejected_total", "Requests rejected by the bounded queue"
        )
        self._batches = self.registry.counter(
            "serve_batches_total", "Engine calls dispatched (coalesced batches)"
        )
        self._batched_requests = self.registry.counter(
            "serve_batched_requests_total", "Requests carried by engine calls"
        )
        self._coalesced_batches = self.registry.counter(
            "serve_coalesced_batches_total", "Batches that served > 1 request"
        )
        self._coalesced_requests = self.registry.counter(
            "serve_coalesced_requests_total",
            "Requests served by a coalesced (> 1 request) batch",
        )
        self._max_batch = self.registry.gauge(
            "serve_max_batch_size", "Largest batch dispatched so far"
        )
        self._batch_size = self.registry.histogram(
            "serve_batch_size", "Requests per dispatched batch", SIZE_BUCKETS
        )
        self._execute_seconds = self.registry.histogram(
            "serve_execute_seconds",
            "Wall-clock seconds per batch execution (scatter latency)",
        )
        # Owned by the coalescer (which increments it); registered here so
        # the property/snapshot surface works before the first batch.
        self._deadline_expired = self.registry.counter(
            "serve_deadline_expired_total",
            "Requests failed fast because deadline_ms expired before dispatch",
        )

    def record_submit(self, request: Request) -> None:
        self._submitted.inc(kind=request.kind)

    def record_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched_requests.inc(size)
        self._batch_size.observe(size)
        self._max_batch.set_max(size)
        if size > 1:
            self._coalesced_batches.inc()
            self._coalesced_requests.inc(size)

    def record_completed(self, count: int = 1) -> None:
        self._completed.inc(count)

    def record_failed(self, count: int = 1) -> None:
        if count:
            self._failed.inc(count)

    def record_rejected(self, count: int = 1) -> None:
        self._rejected.inc(count)

    def observe_execute(self, seconds: float) -> None:
        self._execute_seconds.observe(seconds)

    # -- read-only attribute surface (the pre-registry dataclass fields) -----

    @property
    def submitted(self) -> int:
        return int(self._submitted.total())

    @property
    def completed(self) -> int:
        return int(self._completed.value())

    @property
    def failed(self) -> int:
        return int(self._failed.value())

    @property
    def rejected(self) -> int:
        return int(self._rejected.value())

    @property
    def batches(self) -> int:
        return int(self._batches.value())

    @property
    def batched_requests(self) -> int:
        return int(self._batched_requests.value())

    @property
    def coalesced_batches(self) -> int:
        return int(self._coalesced_batches.value())

    @property
    def coalesced_requests(self) -> int:
        return int(self._coalesced_requests.value())

    @property
    def max_batch_size(self) -> int:
        return int(self._max_batch.value())

    @property
    def deadline_expired(self) -> int:
        return int(self._deadline_expired.value())

    @property
    def requests_by_kind(self) -> Dict[str, int]:
        return {key[0]: int(value) for key, value in self._submitted.items()}

    @property
    def mean_batch_size(self) -> float:
        batches = self.batches
        return self.batched_requests / batches if batches else 0.0

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of batched requests that shared their engine call."""
        batched = self.batched_requests
        return self.coalesced_requests / batched if batched else 0.0

    def snapshot(self) -> Dict:
        """Plain-JSON view of the counters (the ``stats`` protocol reply).

        Everything is read live from the shared registry; includes the
        process-wide synthesis plan-cache counters
        (:func:`repro.engine.backends.plan_cache_stats`), queue depth,
        the coalesce ratio and the latency histograms.
        """
        queue_depth = self.registry.get("serve_queue_depth")
        queue_wait = self.registry.get("serve_queue_wait_seconds")
        coalesce_wait = self.registry.get("serving_coalesce_wait_seconds")
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "deadline_expired": self.deadline_expired,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": self.mean_batch_size,
            "coalesce_ratio": self.coalesce_ratio,
            "queue_depth": int(queue_depth.value()) if queue_depth else 0,
            "requests_by_kind": dict(self.requests_by_kind),
            "batch_size": self._batch_size.snapshot(),
            "queue_wait_seconds": (
                queue_wait.snapshot() if queue_wait is not None else None
            ),
            "coalesce_wait_seconds": (
                coalesce_wait.snapshot() if coalesce_wait is not None else None
            ),
            "execute_seconds": self._execute_seconds.snapshot(),
            "plan_cache": plan_cache_stats(),
        }


class TRNGService:
    """Async facade over the batched engine with request coalescing.

    Parameters
    ----------
    config:
        The :class:`~repro.serving.config.ServiceConfig` naming every
        tunable (batching window, queue bound, overflow policy, backend,
        per-priority windows).  ``None`` uses the defaults.
    registry / spans:
        Observability injection points (a per-service
        :class:`~repro.obs.MetricsRegistry` and span collector by default).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanCollector] = None,
    ) -> None:
        #: The immutable configuration this service was built from.
        self.config = config if config is not None else ServiceConfig()
        #: Per-service metrics registry — the queue, the stats view and the
        #: ``metrics`` protocol kind all read/write this one instance.
        self.registry = registry if registry is not None else MetricsRegistry("serving")
        #: Span collector the dispatch loop records ``serve.execute`` spans
        #: into.
        self.spans = spans if spans is not None else global_collector()
        self.queue = RequestQueue(
            max_pending=self.config.max_pending,
            overflow=self.config.overflow,
            metrics=self.registry,
        )
        self.coalescer = Coalescer(
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            class_wait_ms=self.config.class_waits or None,
            metrics=self.registry,
        )
        self.scatterer = Scatterer()
        self.stats = ServiceStats(registry=self.registry)
        self.backend = resolve_backend(self.config.backend)
        self._dispatch_task: Optional[asyncio.Task] = None

    @property
    def running(self) -> bool:
        return self._dispatch_task is not None and not self._dispatch_task.done()

    async def start(self) -> None:
        """Start the dispatch loop (idempotent; reopens a stopped queue)."""
        if not self.running:
            self.queue.reopen()
            self._dispatch_task = asyncio.create_task(
                self._dispatch_loop(), name="trng-service-dispatch"
            )

    async def stop(self) -> None:
        """Stop dispatching and fail everything still pending."""
        task, self._dispatch_task = self._dispatch_task, None
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        stopped = ServiceStopped("TRNG service stopped")
        self.stats.record_failed(self.queue.drain(stopped))
        self.stats.record_failed(self.coalescer.drain(stopped))

    async def __aenter__(self) -> "TRNGService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _dispatch_loop(self) -> None:
        while True:
            batch = await self.coalescer.next_batch(self.queue)
            self.stats.record_batch(len(batch))
            requests = [pending.request for pending in batch]
            began = time.perf_counter()
            try:
                with span("serve.execute", collector=self.spans, requests=len(batch)):
                    results = await asyncio.to_thread(
                        execute_batch, requests, self.backend
                    )
            except asyncio.CancelledError:
                self.stats.record_failed(
                    self.scatterer.fail(batch, ServiceStopped("TRNG service stopped"))
                )
                raise
            except Exception as error:
                self.stats.record_failed(self.scatterer.fail(batch, error))
                continue
            self.stats.observe_execute(time.perf_counter() - began)
            self.stats.record_completed(self.scatterer.scatter(batch, results))

    async def submit(self, request: Request) -> asyncio.Future:
        """Low-level enqueue; prefer :meth:`get_bits` / :meth:`get_sigma2n`."""
        if not self.running:
            raise ServiceStopped("TRNG service is not running (call start())")
        try:
            future = await self.queue.submit(request)
        except Exception:
            self.stats.record_rejected()
            raise
        self.stats.record_submit(request)
        return future

    async def get_bits(self, request: Optional[BitsRequest] = None, **parameters):
        """Serve one bit request; returns its :class:`BitsResult`.

        Pass a prebuilt :class:`~repro.serving.requests.BitsRequest` or the
        dataclass fields as keyword arguments (``n_bits=..., divider=...``).
        """
        if request is None:
            request = BitsRequest(**parameters)
        elif parameters:
            raise TypeError("pass either a request object or keyword fields")
        result = await (await self.submit(request))
        assert isinstance(result, BitsResult)
        return result

    async def get_sigma2n(
        self, request: Optional[Sigma2NRequest] = None, **parameters
    ):
        """Serve one sigma^2_N request; returns its :class:`Sigma2NResult`."""
        if request is None:
            request = Sigma2NRequest(**parameters)
        elif parameters:
            raise TypeError("pass either a request object or keyword fields")
        result = await (await self.submit(request))
        assert isinstance(result, Sigma2NResult)
        return result
