"""The fabric coordinator: shard dispatch, heartbeats, retry and reassignment.

:class:`FabricCoordinator` is a drop-in campaign *executor* (the
``run(function, tasks)`` interface of
:mod:`repro.engine.distributed.executor`) whose workers are **processes on
the other end of a socket** — remote ``host:port`` endpoints and/or
locally spawned ``python -m repro.worker`` fleets.  Shard assignments travel
as ``shard`` messages of the serving wire protocol; partials come back as
base64 ``.npz`` payloads and merge through the existing bitwise-invariant
mergers, so an N-worker fabric campaign is **bit-for-bit identical** to the
single-host run.

Failure model (what CI's fault-injection smoke exercises):

* **death detection** — a closed/reset connection is immediate death; a
  silent worker is probed with ``ping`` heartbeats every
  ``heartbeat_interval`` seconds and declared dead after
  ``heartbeat_timeout`` seconds without *any* traffic (a busy worker still
  answers pings — shards run off the worker's event loop);
* **per-shard timeout** — ``shard_timeout`` bounds one assignment
  wall-clock; exceeding it retires the worker (it may be wedged) and
  reassigns the shard;
* **reassignment** — a dead worker's in-flight shard goes back to the front
  of the queue for the surviving workers; each shard gets at most
  ``max_attempts`` tries before the run fails with :class:`FabricError`;
* **zero recomputation** — completed shards are checkpointed by
  ``run_campaign`` as they land, so neither a worker death (other shards'
  partials are already merged/saved) nor a coordinator restart (manifest
  reuse via ``resume=True``) recomputes finished work.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from queue import Empty, Queue
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ....obs import SpanCollector, context_to_wire, span
from ....serving.protocol import decode_partial
from ..spec import spec_to_json
from ..worker import run_shard
from .connection import WorkerLink, WorkerUnavailable, connect_workers
from .telemetry import (
    ASSIGNED,
    COMPLETED,
    REASSIGNED,
    WORKER_DEAD,
    FabricTelemetry,
    ShardEvent,
)


class FabricError(RuntimeError):
    """The fabric cannot finish the run (workers exhausted or shard failed)."""


class WorkerFailure(RuntimeError):
    """One worker failed one assignment (internal; triggers reassignment)."""


class FabricCoordinator:
    """Campaign executor over a fleet of fabric worker processes.

    Parameters
    ----------
    remote:
        ``"host:port"`` endpoints of already-running workers
        (``python -m repro.worker --listen host:port``).
    spawn:
        Number of localhost workers to spawn and own (terminated on
        :meth:`close`).
    heartbeat_interval / heartbeat_timeout:
        Liveness probing cadence and the silence threshold for death.
    shard_timeout:
        Optional wall-clock bound per shard assignment; ``None`` relies on
        heartbeats alone.
    max_attempts:
        Tries per shard (across workers) before the run fails.
    on_event:
        Callback receiving every :class:`ShardEvent` (the live progress
        hook).  Exceptions from the callback are not swallowed — tests use
        them to abort runs deterministically.
    """

    def __init__(
        self,
        remote: Sequence[str] = (),
        spawn: int = 0,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 15.0,
        shard_timeout: Optional[float] = None,
        max_attempts: int = 3,
        connect_timeout: float = 10.0,
        on_event: Optional[Callable[[ShardEvent], None]] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 (or None)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._remote = tuple(remote)
        self._spawn = int(spawn)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.shard_timeout = shard_timeout
        self.max_attempts = int(max_attempts)
        self.connect_timeout = float(connect_timeout)
        self.on_event = on_event
        self.telemetry = FabricTelemetry()
        #: Span store of this coordinator: its own campaign/shard spans plus
        #: every span the workers ship back — ``trace_tree()`` renders the
        #: merged cross-host view.
        self.spans = SpanCollector()
        self._root_context = None
        self.workers: List[WorkerLink] = []
        self._started = False
        # One shard per worker is the natural default plan granularity —
        # run_campaign reads this exactly like MultiprocessExecutor's.
        self.max_workers = len(self._remote) + self._spawn
        if self.max_workers < 1:
            raise ValueError(
                "a fabric needs at least one worker "
                "(remote endpoints or spawn > 0)"
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FabricCoordinator":
        """Connect remote workers and spawn the local fleet (idempotent)."""
        if not self._started:
            self.workers = connect_workers(
                self._remote,
                self._spawn,
                connect_timeout=self.connect_timeout,
            )
            self._started = True
        return self

    def close(self) -> None:
        """Disconnect every worker; spawned processes are terminated."""
        for link in self.workers:
            try:
                if link.connected:
                    link.send({"id": "shutdown", "kind": "shutdown"})
            except WorkerUnavailable:
                pass
            link.close(kill=True)
        self.workers = []
        self._started = False

    def __enter__(self) -> "FabricCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FabricCoordinator(remote={list(self._remote)!r}, "
            f"spawn={self._spawn}, workers={len(self.workers)})"
        )

    # -- executor interface --------------------------------------------------

    def run(
        self, function: Callable, tasks: Sequence
    ) -> Iterator[Tuple[int, Dict]]:
        """Yield ``(position, partial)`` in completion order, with retries.

        ``function`` must be :func:`repro.engine.distributed.worker.run_shard`
        — the fabric ships ``(spec, shard)`` assignments over the wire, it
        cannot execute arbitrary callables remotely.
        """
        if function is not run_shard:
            raise ValueError(
                "FabricCoordinator only executes campaign shards "
                "(run_shard); got a different task function"
            )
        tasks = list(tasks)
        if not tasks:
            return
        self.start()

        state = _RunState(tasks, self.max_attempts)
        # Root of the campaign's span tree; worker threads parent their
        # per-shard spans under it explicitly (threads start with a fresh
        # contextvars context, so the ambient parent would not be visible).
        root = span(
            "fabric.campaign",
            collector=self.spans,
            shards=len(tasks),
            workers=len(self.workers),
        )
        root.__enter__()
        self._root_context = root.context
        threads = [
            threading.Thread(
                target=self._worker_main,
                args=(link, state),
                name=f"fabric-{link.name}",
                daemon=True,
            )
            for link in self.workers
        ]
        for thread in threads:
            thread.start()
        try:
            remaining = len(tasks)
            while remaining:
                try:
                    item = state.results.get(timeout=1.0)
                except Empty:
                    if not any(t.is_alive() for t in threads):
                        raise FabricError(
                            "all fabric worker threads exited with "
                            f"{remaining} shard(s) unfinished"
                        ) from None
                    continue
                if isinstance(item, Exception):
                    raise item
                yield item
                remaining -= 1
        finally:
            state.abort()
            for thread in threads:
                thread.join(timeout=5.0)
            root.__exit__(None, None, None)
            self._root_context = None

    def trace_tree(self) -> List[Dict]:
        """Merged span forest of the run: coordinator + every worker's spans.

        Worker records arrive in the shard reply envelopes (``spans`` field)
        and land in the same collector as the coordinator's own
        ``fabric.campaign``/``fabric.shard`` spans, so the tree covers every
        host that touched the campaign (each node carries a ``host`` tag).
        """
        return self.spans.tree()

    # -- worker thread -------------------------------------------------------

    def _emit(self, event: ShardEvent) -> None:
        self.telemetry.record(event)
        if self.on_event is not None:
            self.on_event(event)

    def _worker_main(self, link: WorkerLink, state: "_RunState") -> None:
        while True:
            claim = state.next_task()
            if claim is None:
                return
            position, (spec, shard), attempt = claim
            self._emit(
                ShardEvent(
                    ASSIGNED, shard.index, link.name, attempt,
                    completed=state.completed_count(), total=state.total,
                )
            )
            attempt_span = span(
                "fabric.shard",
                collector=self.spans,
                parent=self._root_context,
                shard=shard.index,
                worker=link.name,
                attempt=attempt,
            )
            try:
                with attempt_span:
                    partial, seconds = self._execute_shard(
                        link,
                        spec,
                        shard,
                        trace=context_to_wire(attempt_span.context),
                    )
            except (WorkerFailure, WorkerUnavailable) as error:
                link.close(kill=True)
                self._emit(
                    ShardEvent(
                        WORKER_DEAD, shard.index, link.name, attempt,
                        error=str(error),
                        completed=state.completed_count(), total=state.total,
                    )
                )
                requeued = state.task_failed(
                    position, (spec, shard), attempt, link.name, error
                )
                if requeued:
                    self._emit(
                        ShardEvent(
                            REASSIGNED, shard.index, link.name, attempt,
                            error=str(error),
                            completed=state.completed_count(),
                            total=state.total,
                        )
                    )
                return
            state.task_completed(position, partial)
            self._emit(
                ShardEvent(
                    COMPLETED, shard.index, link.name, attempt,
                    seconds=seconds,
                    completed=state.completed_count(), total=state.total,
                )
            )

    def _execute_shard(self, link: WorkerLink, spec, shard, trace=None):
        """Run one assignment on one worker, probing liveness throughout."""
        wire_id = f"shard-{shard.index}"
        started = time.monotonic()
        last_traffic = started
        heartbeats = 0
        ping_sent: Dict[str, float] = {}
        message = {
            "id": wire_id,
            "kind": "shard",
            "spec": spec_to_json(spec),
            "index": shard.index,
            "start": shard.start,
            "stop": shard.stop,
        }
        if trace is not None:
            message["trace"] = trace
        link.send(message)
        while True:
            now = time.monotonic()
            if self.shard_timeout is not None:
                if now - started > self.shard_timeout:
                    raise WorkerFailure(
                        f"shard {shard.index} exceeded the "
                        f"{self.shard_timeout:.1f}s shard timeout on "
                        f"{link.name}"
                    )
            if now - last_traffic > self.heartbeat_timeout:
                raise WorkerFailure(
                    f"worker {link.name} silent for more than "
                    f"{self.heartbeat_timeout:.1f}s (heartbeat timeout)"
                )
            reply = link.receive(timeout=self.heartbeat_interval)
            if reply is None:
                ping_id = f"hb-{heartbeats}"
                ping_sent[ping_id] = time.monotonic()
                link.send({"id": ping_id, "kind": "ping"})
                heartbeats += 1
                continue
            last_traffic = time.monotonic()
            if not reply.get("ok"):
                raise WorkerFailure(
                    f"worker {link.name} failed shard {shard.index}: "
                    f"{reply.get('error')}"
                )
            result = reply.get("result") or {}
            if result.get("kind") == "ping":
                # Heartbeat answer: alive, still computing.  Matching the
                # echoed id against the send time gives the RTT.
                sent = ping_sent.pop(reply.get("id"), None)
                if sent is not None:
                    self.telemetry.heartbeat_rtt.observe(last_traffic - sent)
                continue
            if result.get("kind") != "shard":
                raise WorkerFailure(
                    f"worker {link.name} sent an unexpected reply "
                    f"({result.get('kind')!r}) to shard {shard.index}"
                )
            self.spans.ingest(result.get("spans"))
            partial = decode_partial(result["partial"])
            return partial, time.monotonic() - started


class _RunState:
    """Shared scheduling state of one fabric run (thread-safe)."""

    def __init__(self, tasks: Sequence, max_attempts: int) -> None:
        self.total = len(tasks)
        self.max_attempts = max_attempts
        self.results: Queue = Queue()
        self._condition = threading.Condition()
        self._pending = deque(
            (position, task) for position, task in enumerate(tasks)
        )
        self._attempts = [0] * len(tasks)
        self._in_flight = 0
        self._completed = 0
        self._aborted = False

    def next_task(self):
        """Claim ``(position, task, attempt)``; ``None`` when nothing is left.

        Blocks while other workers still hold in-flight shards, because a
        failure there requeues work this worker must be around to pick up.
        """
        with self._condition:
            while True:
                if self._aborted:
                    return None
                if self._pending:
                    position, task = self._pending.popleft()
                    self._attempts[position] += 1
                    self._in_flight += 1
                    return position, task, self._attempts[position]
                if self._in_flight == 0:
                    return None
                self._condition.wait(timeout=0.1)

    def task_completed(self, position: int, partial) -> None:
        with self._condition:
            self._in_flight -= 1
            self._completed += 1
            self._condition.notify_all()
        self.results.put((position, partial))

    def task_failed(
        self, position: int, task, attempt: int, worker: str, error
    ) -> bool:
        """Requeue a failed assignment; returns whether it was requeued."""
        with self._condition:
            self._in_flight -= 1
            if attempt >= self.max_attempts:
                self._aborted = True
                self._condition.notify_all()
                self.results.put(
                    FabricError(
                        f"shard (position {position}) failed "
                        f"{attempt} time(s), most recently on {worker}: "
                        f"{error}"
                    )
                )
                return False
            self._pending.appendleft((position, task))
            self._condition.notify_all()
            return True

    def completed_count(self) -> int:
        with self._condition:
            return self._completed

    def abort(self) -> None:
        with self._condition:
            self._aborted = True
            self._condition.notify_all()
