"""Priority/deadline-aware coalescing: group pending requests into batches.

The coalescer turns a stream of small requests into full engine batches.
Scheduling is no longer plain FIFO: every request carries a scheduling class
(:data:`~repro.serving.requests.PRIORITIES`) and an optional latency budget
(``deadline_ms``), and the coalescer trades the ``max_wait_ms`` window
against them:

* **Leader selection** — all already-arrived requests are drained into a
  pending pool and the most urgent one (priority class first, arrival order
  within a class) leads the next batch, so an ``interactive`` request never
  queues behind a backlog of ``batch`` work.
* **Per-class windows, closed by an idle gap** — a batch's window is the
  *smallest* class window among its members: ``interactive`` requests shrink
  the window they ride in (low latency), ``batch`` requests stretch their
  own (better amortization).  The per-class window is ``max_wait_ms`` scaled
  by :data:`DEFAULT_CLASS_WAIT_FACTORS`, or an absolute override per class.
  The window is a *cap*: the batch dispatches as soon as it is full, or
  once no compatible request has arrived for half its window (the idle
  gap, measured from the leader claim or the last compatible arrival), or
  when the cap is reached.  A lone request therefore waits about half the
  window, not all of it, while a burst whose requests arrive closer
  together than the gap still forms one batch.  Requests already queued
  when the gap or the cap lapses still join: they add no wait, and a burst
  the event loop was still parsing is not split by a late timer check.
* **Deadline fast-fail** — a request whose ``deadline_ms`` budget expired
  before dispatch is failed with
  :class:`~repro.serving.queue.DeadlineExceeded` and **never consumes a row
  of an engine call**; a live deadline caps the window of the batch carrying
  the request so it is dispatched in time.

Batch *membership* still requires matching :meth:`group_key` values, and
scheduling fields are deliberately not part of the group key: priorities
decide *when* an engine call happens, never *what* it computes, so the
solo/coalesced bitwise contract is untouched.

Within one priority class, requests are served in arrival order; across
classes, urgency wins (a sustained flood of ``interactive`` traffic can
starve ``batch`` requests — bound that risk with ``deadline_ms``, which
converts unbounded waiting into a fast, explicit failure).

With ``max_batch=1`` the window is skipped entirely: every request is its
own batch (the serial reference mode the determinism tests and the serving
benchmark compare against).  With ``max_wait_ms=0`` a batch takes what has
already arrived and dispatches at once.

Why each batch closed is counted in ``serve_coalesce_closed_total{reason}``:
``full``, ``idle`` (the gap passed with no compatible arrival), ``window``
(the class-window cap) or ``deadline`` (a member's deadline guard).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Mapping, Optional

from ..obs import MetricsRegistry
from .queue import DeadlineExceeded, PendingRequest, RequestQueue
from .requests import PRIORITIES

#: Per-class coalescing-window factors applied to ``max_wait_ms``.
DEFAULT_CLASS_WAIT_FACTORS: Dict[str, float] = {
    "interactive": 0.25,
    "normal": 1.0,
    "batch": 4.0,
}

_RANK = {priority: rank for rank, priority in enumerate(PRIORITIES)}

#: A deadline caps the coalescing window this far *before* it lapses, so the
#: batch dispatches while the request is still live (dispatching exactly at
#: ``deadline_at`` would expire the request in the pre-dispatch recheck).
_DISPATCH_GUARD_S = 2e-3

#: A batch closes once no compatible request has arrived for this fraction
#: of its class window.  Half the window keeps bursts split across
#: connections whole (their inner arrival gaps stay well under 1 ms at the
#: default 2 ms window), and asyncio's epoll loop rounds shorter timeouts up
#: to 1 ms anyway.
_IDLE_GAP_FRACTION = 0.5


class Coalescer:
    """Groups compatible pending requests within a priority-scaled window.

    Parameters
    ----------
    max_batch:
        Most requests one engine call may serve; ``1`` disables coalescing.
    max_wait_ms:
        Base coalescing window of a ``normal``-priority batch leader: the
        longest a batch waits for companions.  It closes earlier once half
        its window passes with no compatible arrival.
    class_wait_ms:
        Optional absolute per-class window overrides, e.g.
        ``{"interactive": 0.5, "batch": 20.0}``; classes not named fall back
        to ``max_wait_ms`` x :data:`DEFAULT_CLASS_WAIT_FACTORS`.
    metrics:
        Registry for the ``serving_coalesce_wait_seconds`` histogram (time
        from leader claim to batch dispatch), the
        ``serve_coalesce_closed_total{reason}`` counter and the
        ``serve_deadline_expired_total`` counter.  A private registry is
        used when omitted (direct/test use).
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        class_wait_ms: Optional[Mapping[str, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_wait_ms < 0.0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms!r}")
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.class_wait_ms: Dict[str, float] = {}
        overrides = dict(class_wait_ms) if class_wait_ms else {}
        unknown = sorted(set(overrides) - set(PRIORITIES))
        if unknown:
            raise ValueError(
                f"unknown priority classes in class_wait_ms: {unknown} "
                f"(expected a subset of {PRIORITIES})"
            )
        for priority in PRIORITIES:
            if priority in overrides:
                wait = float(overrides[priority])
                if wait < 0.0:
                    raise ValueError(
                        f"class_wait_ms[{priority!r}] must be >= 0, got {wait!r}"
                    )
            else:
                wait = self.max_wait_ms * DEFAULT_CLASS_WAIT_FACTORS[priority]
            self.class_wait_ms[priority] = wait
        #: Requests drained from the queue but not yet dispatched, in no
        #: particular order (selection sorts by priority rank, then arrival).
        self._pool: List[PendingRequest] = []
        registry = metrics if metrics is not None else MetricsRegistry("coalescer")
        self._wait_seconds = registry.histogram(
            "serving_coalesce_wait_seconds",
            "Seconds from batch-leader claim to batch dispatch (the realized "
            "coalescing window per engine call)",
        )
        self._closed = registry.counter(
            "serve_coalesce_closed_total",
            "Coalesced batches by why they dispatched: full, idle (no "
            "compatible arrival for half the batch's window), window (the "
            "class-window cap) or deadline (a member's deadline guard)",
            labelnames=("reason",),
        )
        self._expired = registry.counter(
            "serve_deadline_expired_total",
            "Requests failed fast because deadline_ms expired before dispatch",
        )

    def __len__(self) -> int:
        """Requests currently pooled for a later batch."""
        return len(self._pool)

    def drain(self, error: BaseException) -> int:
        """Fail every pooled request (service shutdown); returns the count."""
        failed = 0
        while self._pool:
            if self._pool.pop().fail(error):
                failed += 1
        return failed

    def _window_s(self, pending: PendingRequest) -> float:
        return self.class_wait_ms.get(pending.priority, self.max_wait_ms) / 1e3

    def _fail_expired(self, now: float) -> None:
        """Fail-fast every pooled request whose deadline has passed."""
        live: List[PendingRequest] = []
        for pending in self._pool:
            if pending.expired(now):
                self._expire(pending, now)
            else:
                live.append(pending)
        self._pool = live

    def _expire(self, pending: PendingRequest, now: float) -> None:
        waited_ms = (now - pending.enqueued_at) * 1e3
        if pending.fail(
            DeadlineExceeded(
                f"deadline_ms={pending.request.deadline_ms:g} expired before "
                f"dispatch (waited {waited_ms:.1f} ms); no engine work was "
                f"consumed"
            )
        ):
            self._expired.inc()

    def _take_leader(self) -> PendingRequest:
        """Most urgent pooled request: lowest priority rank, then arrival."""
        index = min(
            range(len(self._pool)),
            key=lambda i: (
                _RANK.get(self._pool[i].priority, len(_RANK)),
                self._pool[i].arrival,
            ),
        )
        return self._pool.pop(index)

    async def next_batch(self, queue: RequestQueue) -> List[PendingRequest]:
        """The next coalesced batch (>= 1 compatible pending requests).

        Suspends until at least one live request is available; then collects
        compatible requests (same :meth:`group_key` as the leader) from the
        pool and the queue until ``max_batch`` is reached, half the batch's
        window passes with no compatible arrival, or the window itself — the
        smallest class window among its members, capped by the earliest live
        deadline — closes.
        """
        while True:
            batch = await self._collect(queue)
            # Requests may expire between admission and dispatch (a long
            # window, a stampede of companions): re-check so an expired
            # request never occupies an engine row.
            now = time.monotonic()
            live = [pending for pending in batch if not pending.expired(now)]
            for pending in batch:
                if pending.expired(now):
                    self._expire(pending, now)
            if live:
                return live

    async def _collect(self, queue: RequestQueue) -> List[PendingRequest]:
        # Drain everything already queued so leader selection sees the whole
        # backlog; block only when there is no pending work at all.
        while True:
            pending = queue.get_nowait()
            if pending is None:
                break
            self._pool.append(pending)
        self._fail_expired(time.monotonic())
        if not self._pool:
            pending = await queue.get()
            if pending.expired():
                self._expire(pending, time.monotonic())
                return []
            self._pool.append(pending)

        leader = self._take_leader()
        batch: List[PendingRequest] = []
        opened = time.monotonic()
        # The batch's class window (smallest among its members) sets both
        # the idle gap and the cap; a live deadline may pull the cap in.
        window_s = float("inf")
        cap, cap_reason = float("inf"), "window"

        def join(member: PendingRequest) -> None:
            nonlocal window_s, cap, cap_reason
            batch.append(member)
            window_s = min(window_s, self._window_s(member))
            if opened + window_s < cap:
                cap, cap_reason = opened + window_s, "window"
            if member.deadline_at is not None:
                guarded = member.deadline_at - _DISPATCH_GUARD_S
                if guarded < cap:
                    cap, cap_reason = guarded, "deadline"

        join(leader)
        try:
            if self.max_batch == 1:
                self._close(opened, "full")
                return batch
            key = leader.request.group_key()

            # Pooled requests are reconsidered first, in arrival order.
            remaining: List[PendingRequest] = []
            for candidate in sorted(self._pool, key=lambda p: p.arrival):
                if (
                    len(batch) < self.max_batch
                    and candidate.request.group_key() == key
                ):
                    join(candidate)
                else:
                    remaining.append(candidate)
            self._pool = remaining

            last_arrival = opened
            while len(batch) < self.max_batch:
                idle_end = last_arrival + window_s * _IDLE_GAP_FRACTION
                if cap <= idle_end:
                    end, reason = cap, cap_reason
                else:
                    end, reason = idle_end, "idle"
                timeout = end - time.monotonic()
                candidate = None
                if timeout > 0.0:
                    try:
                        candidate = await asyncio.wait_for(queue.get(), timeout)
                    except TimeoutError:
                        pass
                if candidate is None:
                    # Time is up, but requests already queued have arrived:
                    # they join without extending the wait, so a burst the
                    # event loop was still parsing when the gap or cap
                    # lapsed is not split.
                    candidate = queue.get_nowait()
                    if candidate is None:
                        break
                if candidate.expired():
                    self._expire(candidate, time.monotonic())
                elif candidate.request.group_key() == key:
                    join(candidate)
                    last_arrival = time.monotonic()
                else:
                    self._pool.append(candidate)
            else:
                reason = "full"  # the loop ran out of room, not of time
            self._close(opened, reason)
            return batch
        except asyncio.CancelledError:
            # Service shutdown mid-window: the requests captured so far are
            # in neither the queue nor the pool, so park them back where
            # drain() (or a restarted dispatcher) can see them — otherwise
            # their futures would hang forever.
            self._pool.extend(batch)
            raise

    def _close(self, opened: float, reason: str) -> None:
        self._wait_seconds.observe(time.monotonic() - opened)
        self._closed.inc(reason=reason)
