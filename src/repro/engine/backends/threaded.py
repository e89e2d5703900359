"""Multithreaded synthesis backend: contiguous row blocks on a thread pool.

The synthesis kernel is row-independent by construction (each row consumes
only its own spawned generator), so rows can execute concurrently without
changing a single bit of output.  :class:`ThreadedBackend` partitions the
batch into contiguous row blocks, one per worker, and runs the shared row
loop of :mod:`repro.engine.backends.kernel` — the same code the
:class:`~repro.engine.backends.numpy_backend.NumpyBackend` reference runs as
one whole-batch block — on a :class:`concurrent.futures.ThreadPoolExecutor`.

Why threads help despite the GIL: the two dominant costs both release it —
``numpy.random.Generator`` fill operations (``standard_normal``) run
``nogil`` under the generator's own lock, and the pocketfft transforms
behind the spectral pink-noise shaping release the GIL too.  Each block
shapes its own flicker rows, so the FFT work parallelizes along with the
draws; row-wise FFT results are identical however the rows are grouped
(the engine already relies on this: the scalar 1-D transform equals the
batched transform row by row).

Determinism: block boundaries only decide *which thread* runs a row, never
what the row computes — output is bit-for-bit identical to the reference at
any worker count, enforced by ``tests/engine/test_backend_equivalence.py``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import SynthesisBackend
from .kernel import flicker_offsets, run_block
from .plan import synthesis_plan


def _row_blocks(batch: int, n_blocks: int) -> List[Tuple[int, int]]:
    """Split ``range(batch)`` into ``n_blocks`` balanced contiguous ranges."""
    n_blocks = max(1, min(n_blocks, batch))
    bounds = np.linspace(0, batch, n_blocks + 1, dtype=int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_blocks)
        if bounds[i] < bounds[i + 1]
    ]


class ThreadedBackend(SynthesisBackend):
    """Runs the shared kernel on contiguous row blocks across threads.

    Parameters
    ----------
    max_workers:
        Thread count (and maximum number of row blocks).  Defaults to the
        host CPU count.  ``threaded:1`` is the reference loop behind the
        same interface — useful for isolating thread effects in tests.
    """

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = int(max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    @property
    def spec(self) -> str:
        return f"threaded:{self.max_workers}"

    def min_shard_rows(self, n_periods: Optional[int] = None) -> int:
        # A shard thinner than the worker count leaves threads idle.
        return self.max_workers

    def _executor(self) -> ThreadPoolExecutor:
        # Lazy: a backend constructed only to be serialized (spec strings in
        # campaign specs) never starts threads.  Guarded by a lock — one
        # backend instance is shared by any number of synthesizers, possibly
        # first-used from concurrent serving worker threads.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-synthesis",
                )
            return self._pool

    def synthesize(
        self,
        n_periods: int,
        rngs: Sequence[np.random.Generator],
        thermal_std_s: np.ndarray,
        h_minus1: np.ndarray,
        flicker_method: str,
        n_blocks: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = int(n_periods)
        n_blocks = int(n_blocks)
        batch = len(rngs)
        thermal = np.zeros((batch, n_blocks * n))
        # Compact destination row of each flicker row: blocks write disjoint
        # slices of `pink`, offset by the flicker-row count before them.
        offsets = flicker_offsets(h_minus1)
        n_flicker = int(offsets[-1])
        pink = np.empty((n_flicker, n_blocks * n))
        blocks = _row_blocks(batch, self.max_workers)
        # One plan lookup for the whole batch: every worker block shares the
        # same immutable tables (they only read them).
        plan = synthesis_plan(n, flicker_method, n_flicker > 0)

        def block_task(start: int, stop: int) -> None:
            run_block(
                n,
                rngs,
                thermal_std_s,
                h_minus1,
                flicker_method,
                thermal,
                pink,
                int(offsets[start]),
                start,
                stop,
                plan=plan,
                n_blocks=n_blocks,
            )

        if len(blocks) == 1:
            # B = 1 views and threaded:1 skip the pool entirely.
            block_task(*blocks[0])
        else:
            pool = self._executor()
            futures = [pool.submit(block_task, start, stop) for start, stop in blocks]
            for future in futures:
                future.result()
        return thermal, pink
