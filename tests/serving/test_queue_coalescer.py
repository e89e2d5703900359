"""Backpressure, load shedding and coalescing-window behaviour."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import (
    BitsRequest,
    Coalescer,
    RequestQueue,
    ServiceConfig,
    ServiceOverloaded,
    ServiceStopped,
    TRNGService,
)


def run(coroutine):
    return asyncio.run(coroutine)


def _request(seed: int, divider: int = 8, **kwargs) -> BitsRequest:
    return BitsRequest(n_bits=4, divider=divider, seed=seed, **kwargs)


def _closed(registry: MetricsRegistry) -> dict:
    """``serve_coalesce_closed_total`` as ``{reason: count}``."""
    counter = registry.get("serve_coalesce_closed_total")
    return {key[0]: value for key, value in counter.items()}


class TestRequestQueue:
    def test_rejects_when_full_under_load_shedding(self):
        async def scenario():
            queue = RequestQueue(max_pending=2, overflow="reject")
            await queue.submit(_request(1))
            await queue.submit(_request(2))
            with pytest.raises(ServiceOverloaded):
                await queue.submit(_request(3))
            assert len(queue) == 2

        run(scenario())

    def test_wait_policy_applies_backpressure(self):
        async def scenario():
            queue = RequestQueue(max_pending=1, overflow="wait")
            await queue.submit(_request(1))
            blocked = asyncio.create_task(queue.submit(_request(2)))
            await asyncio.sleep(0.01)
            assert not blocked.done()  # suspended on the full queue
            pending = await queue.get()
            assert pending.request.seed == 1
            await asyncio.wait_for(blocked, timeout=1.0)  # slot freed

        run(scenario())

    def test_submitter_blocked_on_full_queue_fails_at_drain(self):
        async def scenario():
            # Regression: a "wait"-policy submitter suspended on a full
            # queue when the service stops must get ServiceStopped, not an
            # eternally pending future in a dispatcherless queue.
            queue = RequestQueue(max_pending=1, overflow="wait")
            await queue.submit(_request(1))
            blocked = asyncio.create_task(queue.submit(_request(2)))
            await asyncio.sleep(0.01)
            assert not blocked.done()
            queue.drain(ServiceStopped("stop"))
            await queue.get()  # frees the slot, waking the blocked putter
            future = await asyncio.wait_for(blocked, timeout=1.0)
            with pytest.raises(ServiceStopped):
                await future
            # ...and the closed queue sheds new submissions immediately.
            with pytest.raises(ServiceStopped):
                await queue.submit(_request(3))
            queue.reopen()
            await queue.submit(_request(4))

        run(scenario())

    def test_drain_fails_all_queued_futures(self):
        async def scenario():
            queue = RequestQueue(max_pending=4)
            futures = [await queue.submit(_request(seed)) for seed in (1, 2)]
            assert queue.drain(ServiceStopped("stop")) == 2
            for future in futures:
                with pytest.raises(ServiceStopped):
                    await future

        run(scenario())

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            RequestQueue(max_pending=0)
        with pytest.raises(ValueError):
            RequestQueue(overflow="drop-oldest")


class TestCoalescer:
    def test_groups_compatible_requests_up_to_max_batch(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = Coalescer(max_batch=3, max_wait_ms=50.0, metrics=registry)
            for seed in range(5):
                await queue.submit(_request(seed))
            batch = await coalescer.next_batch(queue)
            assert [p.request.seed for p in batch] == [0, 1, 2]
            batch = await coalescer.next_batch(queue)
            assert [p.request.seed for p in batch] == [3, 4]
            assert _closed(registry) == {"full": 1, "idle": 1}

        run(scenario())

    def test_incompatible_requests_are_deferred_in_order(self):
        async def scenario():
            queue = RequestQueue()
            coalescer = Coalescer(max_batch=8, max_wait_ms=30.0)
            await queue.submit(_request(1, divider=8))
            await queue.submit(_request(2, divider=16))
            await queue.submit(_request(3, divider=8))
            await queue.submit(_request(4, divider=16))
            first = await coalescer.next_batch(queue)
            assert [p.request.seed for p in first] == [1, 3]
            assert len(coalescer) == 2  # both divider-16 requests parked
            second = await coalescer.next_batch(queue)
            assert [p.request.seed for p in second] == [2, 4]
            assert len(coalescer) == 0

        run(scenario())

    def test_max_batch_one_skips_the_window(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = Coalescer(
                max_batch=1, max_wait_ms=10_000.0, metrics=registry
            )
            await queue.submit(_request(1))
            batch = await asyncio.wait_for(
                coalescer.next_batch(queue), timeout=1.0
            )
            assert len(batch) == 1
            assert _closed(registry) == {"full": 1}

        run(scenario())

    def test_window_closes_without_companions(self):
        async def scenario():
            queue = RequestQueue()
            coalescer = Coalescer(max_batch=8, max_wait_ms=10.0)
            await queue.submit(_request(1))
            batch = await asyncio.wait_for(
                coalescer.next_batch(queue), timeout=1.0
            )
            assert len(batch) == 1

        run(scenario())

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(max_wait_ms=-1.0)


class TestIdleGap:
    """A batch closes once half its class window passes with no arrival.

    ``max_wait_ms=400`` puts the idle gap at 200 ms, wide enough that
    scheduler jitter on a loaded machine cannot flip the outcomes.
    """

    WAIT_MS = 400.0

    def _coalescer(self, registry, **kwargs):
        return Coalescer(
            max_batch=8, max_wait_ms=self.WAIT_MS, metrics=registry, **kwargs
        )

    @staticmethod
    async def _feed(queue, requests, every_s):
        for request in requests:
            await asyncio.sleep(every_s)
            await queue.submit(request)

    def test_lone_leader_dispatches_after_the_gap_not_the_window(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            await queue.submit(_request(1))
            started = time.monotonic()
            batch = await coalescer.next_batch(queue)
            return batch, time.monotonic() - started, registry

        batch, elapsed, registry = run(scenario())
        assert [p.request.seed for p in batch] == [1]
        assert 0.19 <= elapsed < 0.35
        assert _closed(registry) == {"idle": 1}
        waited = registry.get("serving_coalesce_wait_seconds").snapshot()
        assert waited["count"] == 1 and 0.19 <= waited["sum"] < 0.35

    def test_steady_companions_keep_the_batch_open_to_the_cap(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            await queue.submit(_request(0))
            started = time.monotonic()
            # Companions every 100 ms: the 200 ms gap never passes, so only
            # the 400 ms window cap closes the batch.
            feeder = asyncio.create_task(
                self._feed(queue, [_request(seed) for seed in (1, 2, 3)], 0.1)
            )
            batch = await coalescer.next_batch(queue)
            elapsed = time.monotonic() - started
            await feeder
            return batch, elapsed, registry

        batch, elapsed, registry = run(scenario())
        assert [p.request.seed for p in batch] == [0, 1, 2, 3]
        assert elapsed >= 0.39
        assert _closed(registry) == {"window": 1}

    def test_late_companion_lands_in_the_next_batch(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            await queue.submit(_request(1))
            feeder = asyncio.create_task(self._feed(queue, [_request(2)], 0.3))
            first = await coalescer.next_batch(queue)
            second = await coalescer.next_batch(queue)
            await feeder
            return first, second, registry

        first, second, registry = run(scenario())
        assert [p.request.seed for p in first] == [1]
        assert [p.request.seed for p in second] == [2]
        assert _closed(registry) == {"idle": 2}

    def test_interactive_leader_gets_its_shorter_gap(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            # interactive window = 0.25 x 400 = 100 ms -> a 50 ms gap.
            await queue.submit(_request(1, priority="interactive"))
            started = time.monotonic()
            batch = await coalescer.next_batch(queue)
            return batch, time.monotonic() - started, registry

        batch, elapsed, registry = run(scenario())
        assert [p.request.seed for p in batch] == [1]
        assert 0.045 <= elapsed < 0.15
        assert _closed(registry) == {"idle": 1}

    def test_batch_leader_gets_its_longer_gap(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            # batch window = 4 x 400 = 1600 ms -> an 800 ms gap, so a
            # companion 300 ms in still joins (a normal batch has closed).
            await queue.submit(_request(1, priority="batch"))
            started = time.monotonic()
            feeder = asyncio.create_task(
                self._feed(queue, [_request(2, priority="batch")], 0.3)
            )
            batch = await coalescer.next_batch(queue)
            elapsed = time.monotonic() - started
            await feeder
            return batch, elapsed, registry

        batch, elapsed, registry = run(scenario())
        assert [p.request.seed for p in batch] == [1, 2]
        assert 1.05 <= elapsed < 1.6
        assert _closed(registry) == {"idle": 1}

    def test_deadline_still_caps_the_batch(self):
        async def scenario():
            queue = RequestQueue()
            registry = MetricsRegistry("test")
            coalescer = self._coalescer(registry)
            # The 100 ms deadline (minus the dispatch guard) comes before
            # the 200 ms gap, so it closes the batch with the request live.
            await queue.submit(_request(1, deadline_ms=100.0))
            started = time.monotonic()
            batch = await coalescer.next_batch(queue)
            return batch, time.monotonic() - started, registry

        batch, elapsed, registry = run(scenario())
        assert [p.request.seed for p in batch] == [1]
        assert elapsed < 0.19
        assert _closed(registry) == {"deadline": 1}


class TestServiceLifecycle:
    def test_submit_requires_running_service(self):
        async def scenario():
            service = TRNGService()
            with pytest.raises(ServiceStopped):
                await service.submit(_request(1))

        run(scenario())

    def test_stop_fails_pending_requests(self):
        async def scenario():
            # A service that never dispatches (not started) but has queued
            # work when stopped must fail those futures, not hang them.
            service = TRNGService(ServiceConfig(max_batch=4))
            await service.start()
            await service.stop()
            assert not service.running

        run(scenario())

    def test_service_sheds_load_and_counts_rejections(self):
        async def scenario():
            service = TRNGService(ServiceConfig(max_pending=1, overflow="reject"))
            await service.start()
            # Submitting without suspending never yields to the event loop,
            # so the dispatcher cannot drain between these calls: the queue
            # is deterministically full when the second submit arrives.
            first = await service.submit(_request(1))
            with pytest.raises(ServiceOverloaded):
                await service.submit(_request(2))
            assert service.stats.rejected == 1
            assert service.stats.submitted == 1
            await service.stop()
            with pytest.raises(ServiceStopped):
                await first

        run(scenario())

    def test_stop_mid_window_fails_the_captured_leader(self):
        async def scenario():
            # Regression: stop() during an open coalescing window used to
            # lose the batch leader (popped from the queue, not yet
            # dispatched), hanging its caller forever.
            service = TRNGService(ServiceConfig(max_batch=8, max_wait_ms=10_000.0))
            await service.start()
            future = await service.submit(_request(1))
            await asyncio.sleep(0.05)  # dispatcher pops the leader, waits
            assert not future.done()
            await asyncio.wait_for(service.stop(), timeout=1.0)
            with pytest.raises(ServiceStopped):
                await asyncio.wait_for(future, timeout=1.0)

        run(scenario())

    def test_context_manager_starts_and_stops(self):
        async def scenario():
            async with TRNGService() as service:
                assert service.running
            assert not service.running

        run(scenario())
