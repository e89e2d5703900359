"""The synthesis executor: the shared row loop on contiguous row ranges.

Every in-process synthesis call runs :meth:`NumpyBackend.synthesize`.  The
kernel of :mod:`repro.engine.backends.kernel` is row-independent by
construction (each row consumes only its own generator), so the executor may
split a call's batch into contiguous row ranges and run them concurrently:
range boundaries only decide *which thread* runs a row, never what the row
computes, and the output is bit-for-bit identical at any worker count.

Threads help despite the GIL because the two dominant costs release it:
``Generator.standard_normal`` fills and the pocketfft transforms behind the
spectral pink-noise shaping.  Each range shapes its own flicker rows, and a
row-wise FFT does not depend on how rows are grouped.

A call runs as one range on the calling thread (the single-thread
reference) when the backend has one worker, the batch has one row, or the
call's row-sample count ``B x K x n`` is below the threshold.  Otherwise it
runs ``min(workers, B)`` balanced ranges: the calling thread runs the first
and a pool of ``workers - 1`` threads the rest.

:data:`AUTO_THRESHOLD` is measured.  On a 2-vCPU host (CPython 3.11,
numpy 2.4), 2 workers against 1, spectral, median of 9 calls, three sweeps
over the splits ``B`` in {2, 8, 32, 64} with ``n = count // B``:

=====================  ==================
row-samples per call   2 workers vs 1
=====================  ==================
4,096                  0.52-1.00x
8,192                  0.58-1.24x
16,384                 0.82-1.86x
32,768                 1.16-2.06x
=====================  ==================

:func:`measure_auto_threshold` returned ``2**14`` twice and ``2**15`` once
(wide batches of short rows, ``B = 64`` at ``n = 256``, can still lose at
``2**14``), so the constant is ``2**15``, where every split won.  A served
``B = 32``, ``D = 512`` burst (``32 x 1,024`` row-samples per call)
threads; a multi-block call under the ``2**12`` row-period budget does not.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...obs import metrics as _obs
from .base import SynthesisBackend
from .kernel import flicker_offsets, run_block
from .plan import synthesis_plan

#: Row-samples (``B x K x n``) from which a call with ``B >= 2`` threads.
AUTO_THRESHOLD = 2**15

#: Kernel timing (process-wide), observed once per backend call.  The
#: kill switch (``configure_metrics(enabled=False)``) skips even the clock
#: reads; no observation touches an RNG stream.
_BLOCK_SECONDS = _obs.global_registry().histogram(
    "engine_kernel_block_seconds",
    "Wall-clock seconds per synthesis kernel call (draw + shape)",
)
_BLOCK_ROWS = _obs.global_registry().counter(
    "engine_kernel_rows_total",
    "Row-blocks synthesized by the kernel (rows x synthesis blocks per call)",
)


def process_cores() -> int:
    """CPUs this process may run on (its affinity mask, else the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class NumpyBackend(SynthesisBackend):
    """The synthesis executor: the shared kernel on contiguous row ranges.

    Parameters
    ----------
    workers:
        Threads a call may use, the calling thread included.  ``1`` (the
        default, spec ``numpy``) is the single-thread reference every other
        configuration is tested against.
    threshold:
        Row-samples per call (``B x K x n``) from which a multi-row call
        threads; ``0`` threads every multi-row call (spec ``threaded:N``).
    """

    name = "numpy"

    def __init__(self, workers: int = 1, threshold: int = AUTO_THRESHOLD) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold!r}")
        self.workers = int(workers)
        self.threshold = int(threshold)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    @property
    def spec(self) -> str:
        if self.workers == 1:
            return "numpy"
        if self.threshold == 0:
            return f"threaded:{self.workers}"
        return f"auto:{self.workers}"

    def min_shard_rows(self, n_periods: Optional[int] = None) -> int:
        # A shard thinner than the worker count leaves threads idle — but
        # only when its calls reach the threshold and thread at all.
        if self.workers > 1 and self.workers * (n_periods or 0) >= self.threshold:
            return self.workers
        return 1

    def row_ranges(self, batch: int, row_samples: int) -> List[Tuple[int, int]]:
        """The contiguous row ranges of a call: one unless it threads."""
        if batch < 2 or batch * row_samples < self.threshold:
            return [(0, batch)]
        parts = min(self.workers, batch)
        base, extra = divmod(batch, parts)
        bounds = [k * base + min(k, extra) for k in range(parts + 1)]
        return list(zip(bounds[:-1], bounds[1:]))

    def _executor(self) -> ThreadPoolExecutor:
        # Lazy: a backend that never threads (one worker, small calls, or
        # one built only to be serialized) starts no threads.  Locked: one
        # instance serves any number of synthesizers, possibly first used
        # from concurrent serving threads.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers - 1,
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
        timed = _obs.metrics_enabled()
        began = time.perf_counter() if timed else 0.0
        thermal = np.zeros((batch, n_blocks * n))
        # Compact destination row of each flicker row: ranges write disjoint
        # slices of `pink`, offset by the flicker-row count before them.
        offsets = flicker_offsets(h_minus1)
        n_flicker = int(offsets[-1])
        pink = np.empty((n_flicker, n_blocks * n))
        # One plan lookup per call: every range only reads its tables.
        plan = synthesis_plan(n, flicker_method, n_flicker > 0)

        def run_range(start: int, stop: int) -> None:
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

        first, *rest = self.row_ranges(batch, n_blocks * n)
        if not rest:
            run_range(*first)
        else:
            futures = [self._executor().submit(run_range, *r) for r in rest]
            try:
                run_range(*first)
            finally:
                # No range may still be writing into thermal/pink once this
                # call returns or raises.
                wait(futures)
            for future in futures:
                future.result()
        if timed:
            _BLOCK_SECONDS.observe(time.perf_counter() - began)
            _BLOCK_ROWS.inc(batch * n_blocks)
        return thermal, pink


def measure_auto_threshold(
    workers: Optional[int] = None,
    batches: Sequence[int] = (2, 8, 32, 64),
    max_row_samples: int = 2**17,
    repeats: int = 9,
    flicker_method: str = "spectral",
    time_function: Callable[[], float] = time.perf_counter,
) -> Optional[int]:
    """Locate the row-sample threshold from which threading wins on this host.

    For doubling row-sample counts ``B x n`` from ``2**12``, times
    ``workers`` threads against the single-thread reference on the same
    calls (median of ``repeats`` calls), split as every batch size in
    ``batches`` with ``n = count // B``.  Returns the smallest count at
    which threading wins for every split, or ``None`` if it never does
    (e.g. on a single-core host).  The shipped :data:`AUTO_THRESHOLD` is
    this measurement.
    """
    if workers is None:
        workers = process_cores()
    if workers < 2:
        return None
    reference = NumpyBackend()
    threaded = NumpyBackend(workers, threshold=0)

    def median_time(backend: SynthesisBackend, batch: int, n: int) -> float:
        sigma = np.full(batch, 1e-12)
        h_minus1 = np.full(batch, 1e-22)
        times = []
        for repeat in range(repeats):
            seeds = np.random.SeedSequence(repeat).spawn(batch)
            generators = [np.random.Generator(np.random.SFC64(s)) for s in seeds]
            start = time_function()
            backend.synthesize(n, generators, sigma, h_minus1, flicker_method)
            times.append(time_function() - start)
        return statistics.median(times)

    count = 2**12
    while count <= max_row_samples:
        splits = [(batch, count // batch) for batch in batches]
        if all(
            median_time(threaded, batch, n) < median_time(reference, batch, n)
            for batch, n in splits
        ):
            return count
        count *= 2
    return None
