"""Pluggable shard executors: serial and multi-process, one interface.

An executor runs ``function`` over ``tasks`` and yields ``(position,
result)`` pairs *in completion order* — positions index into the submitted
task list, so callers can route each partial to its shard (and checkpoint it)
the moment it lands, without waiting for stragglers.

:class:`SerialExecutor` runs in-process (the reference path; also what makes
``run_campaign`` usable with zero setup).  :class:`MultiprocessExecutor`
fans shards out over a ``concurrent.futures.ProcessPoolExecutor``; shard
tasks and partials are plain picklable payloads (specs are tuples/floats,
partials are dicts of arrays), so the only requirement on workers is that
``repro`` is importable — true for forked children and for spawned ones that
inherit ``PYTHONPATH``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar

from ..backends import BACKEND_ENV_VAR, pool_worker_backend
from ..backends.kernel import raise_malloc_thresholds

Task = TypeVar("Task")
Result = TypeVar("Result")


def _adopt_backend(spec: str) -> None:
    """Pool-worker initializer: make ``spec`` this process's default backend,
    and let the fresh process recycle the kernel's FFT scratch."""
    os.environ[BACKEND_ENV_VAR] = spec
    raise_malloc_thresholds()


class SerialExecutor:
    """Run shard tasks one after another in the current process."""

    def run(
        self, function: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> Iterator[Tuple[int, Result]]:
        """Yield ``(position, function(task))`` in submission order."""
        for position, task in enumerate(tasks):
            yield position, function(task)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class MultiprocessExecutor:
    """Run shard tasks across a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.  More shards than workers
        is the normal regime — shards queue and keep every worker busy, which
        is also what balances heterogeneous shard costs.  Each worker's
        default synthesis backend gets its share of the host's cores
        (:func:`~repro.engine.backends.pool_worker_backend`).
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``).  ``None`` uses the platform default.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = int(max_workers)
        self.start_method = start_method

    def run(
        self, function: Callable[[Task], Result], tasks: Sequence[Task]
    ) -> Iterator[Tuple[int, Result]]:
        """Yield ``(position, result)`` pairs as workers complete tasks."""
        tasks = list(tasks)
        if not tasks:
            return
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else None
        )
        workers = min(self.max_workers, len(tasks))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_adopt_backend,
            initargs=(pool_worker_backend(workers),),
        ) as pool:
            futures = {
                pool.submit(function, task): position
                for position, task in enumerate(tasks)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield futures[future], future.result()

    def __repr__(self) -> str:
        method = f", start_method={self.start_method!r}" if self.start_method else ""
        return f"MultiprocessExecutor(max_workers={self.max_workers}{method})"
