"""Priority/deadline-aware coalescing: fast-fail, windows, leader order."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import MetricsRegistry, render_prometheus
from repro.serving import (
    BitsRequest,
    Coalescer,
    DeadlineExceeded,
    RequestQueue,
    ServiceConfig,
    Sigma2NRequest,
    TRNGService,
)


def run(coroutine):
    return asyncio.run(coroutine)


def _request(seed: int, divider: int = 8, **kwargs) -> BitsRequest:
    return BitsRequest(n_bits=4, divider=divider, seed=seed, **kwargs)


class TestSchedulingFields:
    def test_priority_and_deadline_are_validated(self):
        request = _request(1, priority="interactive", deadline_ms=5)
        assert request.priority == "interactive"
        assert request.deadline_ms == 5.0
        with pytest.raises(ValueError, match="priority"):
            _request(1, priority="urgent")
        with pytest.raises(ValueError, match="deadline_ms"):
            _request(1, deadline_ms=0)

    def test_scheduling_never_changes_the_group_key(self):
        plain = _request(1)
        scheduled = _request(2, priority="batch", deadline_ms=50)
        assert plain.group_key() == scheduled.group_key()


class TestDeadlineFastFail:
    def test_expired_request_fails_without_an_engine_row(self):
        async def scenario():
            queue = RequestQueue(max_pending=8)
            coalescer = Coalescer(max_batch=8, max_wait_ms=0.0)
            doomed = await queue.submit(_request(1, deadline_ms=0.01))
            await asyncio.sleep(0.005)  # let the 10 us budget lapse
            survivor = await queue.submit(_request(2))
            batch = await coalescer.next_batch(queue)
            assert [p.request.seed for p in batch] == [2]
            with pytest.raises(DeadlineExceeded, match="no engine work"):
                await doomed
            return survivor

        run(scenario())

    def test_service_counts_expiries_and_skips_engine_work(self):
        async def scenario():
            # Serial service: a slow sigma2n occupies the engine while the
            # deadline request waits in the queue past its budget.
            config = ServiceConfig(max_batch=1, max_wait_ms=0.0)
            async with TRNGService(config) as service:
                slow = await service.submit(Sigma2NRequest(n_periods=512, seed=3))
                doomed = await service.submit(_request(4, deadline_ms=0.01))
                await slow
                with pytest.raises(DeadlineExceeded):
                    await doomed
                stats = service.stats.snapshot()
            assert stats["deadline_expired"] == 1
            assert stats["completed"] == 1
            # The expired request never became an engine batch.
            assert stats["batches"] == 1

        run(scenario())

    def test_live_deadline_caps_the_coalescing_window(self):
        async def scenario():
            queue = RequestQueue(max_pending=8)
            # A 10 s window would stall the test; the 20 ms deadline must
            # cap it so the batch dispatches (with the request live) fast.
            coalescer = Coalescer(max_batch=8, max_wait_ms=10_000.0)
            await queue.submit(_request(1, deadline_ms=20.0))
            batch = await asyncio.wait_for(
                coalescer.next_batch(queue), timeout=2.0
            )
            assert [p.request.seed for p in batch] == [1]

        run(scenario())


class TestPriorityScheduling:
    def test_interactive_leads_over_earlier_batch_arrival(self):
        async def scenario():
            queue = RequestQueue(max_pending=8)
            coalescer = Coalescer(max_batch=8, max_wait_ms=0.0)
            # Different dividers -> incompatible groups -> two batches.
            await queue.submit(_request(1, divider=8, priority="batch"))
            await queue.submit(_request(2, divider=16, priority="interactive"))
            first = await coalescer.next_batch(queue)
            second = await coalescer.next_batch(queue)
            assert [p.request.seed for p in first] == [2]
            assert [p.request.seed for p in second] == [1]

        run(scenario())

    def test_fifo_within_a_priority_class(self):
        async def scenario():
            queue = RequestQueue(max_pending=8)
            coalescer = Coalescer(max_batch=1, max_wait_ms=0.0)
            await queue.submit(_request(1, divider=8))
            await queue.submit(_request(2, divider=16))
            first = await coalescer.next_batch(queue)
            second = await coalescer.next_batch(queue)
            assert [p.request.seed for p in first] == [1]
            assert [p.request.seed for p in second] == [2]

        run(scenario())

    def test_class_wait_overrides_are_validated(self):
        with pytest.raises(ValueError, match="unknown priority"):
            Coalescer(class_wait_ms={"realtime": 1.0})
        with pytest.raises(ValueError, match=">= 0"):
            Coalescer(class_wait_ms={"batch": -1.0})


class TestImmediateDispatchWindow:
    def test_max_wait_zero_dispatches_without_waiting(self):
        async def scenario():
            # Regression: max_wait_ms=0 must mean "dispatch what has already
            # arrived, immediately" — not a zero-timeout busy loop and not a
            # stall.  Everything already queued still coalesces.
            queue = RequestQueue(max_pending=8)
            registry = MetricsRegistry("test")
            coalescer = Coalescer(max_batch=8, max_wait_ms=0.0, metrics=registry)
            for seed in (1, 2, 3):
                await queue.submit(_request(seed))
            batch = await asyncio.wait_for(
                coalescer.next_batch(queue), timeout=1.0
            )
            assert sorted(p.request.seed for p in batch) == [1, 2, 3]
            histogram = registry.get("serving_coalesce_wait_seconds")
            snapshot = histogram.snapshot()
            assert snapshot["count"] == 1
            assert snapshot["sum"] < 0.5  # no realized window
            closed = registry.get("serve_coalesce_closed_total")
            assert closed.value(reason="window") == 1

        run(scenario())

    def test_requests_queued_after_the_leader_join_when_time_is_up(self):
        async def scenario():
            # The leader is claimed from an empty queue; its companions are
            # queued before the coalescer runs again, by which time the
            # window has lapsed.  They have already arrived, so they join
            # (a burst the loop was still parsing must not be split).
            queue = RequestQueue(max_pending=8)
            coalescer = Coalescer(max_batch=8, max_wait_ms=0.0)
            collecting = asyncio.create_task(coalescer.next_batch(queue))
            await asyncio.sleep(0)  # the coalescer now waits on the queue
            for seed in (1, 2, 3):
                await queue.submit(_request(seed))
            batch = await asyncio.wait_for(collecting, timeout=1.0)
            assert [p.request.seed for p in batch] == [1, 2, 3]

        run(scenario())


class TestCoalesceWaitObservability:
    def test_wait_histogram_reaches_stats_and_prometheus(self):
        async def scenario():
            config = ServiceConfig(max_batch=4, max_wait_ms=1.0)
            async with TRNGService(config) as service:
                await (await service.submit(_request(1)))
                stats = service.stats.snapshot()
                text = render_prometheus(service.registry)
            assert stats["coalesce_wait_seconds"]["count"] >= 1
            assert "serving_coalesce_wait_seconds" in text
            assert 'serve_coalesce_closed_total{reason="idle"} 1' in text
            assert "serve_deadline_expired_total 0" in text

        run(scenario())
