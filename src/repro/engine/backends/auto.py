"""Automatic backend selection: a measured cost model picks the executor.

Neither fixed choice is right everywhere.  The threaded backend pays a
thread-pool dispatch round-trip per synthesis call (measured at ~30-100 us
on this codebase's reference hardware) that dwarfs the kernel time of small
serving-sized blocks, while the NumPy reference leaves multicore hosts idle
on campaign-sized batches.  :class:`AutoBackend` routes each call by the
one quantity the kernel cost is proportional to — the total row-sample
count ``B x n_periods`` of the call (``B x n_blocks x n_periods`` for a
multi-block call; the kernel runs at ~100 ns/sample independent of
the B/n split) — and the available core count:

* fewer than 2 usable workers, or a single-row batch: the thread pool can
  never win, use the reference;
* ``B x n_periods`` below the threshold: dispatch overhead is a material
  fraction of the kernel time, use the reference;
* otherwise: the threaded backend.

The default threshold of ``2**16`` row-samples corresponds to ~6.5 ms of
kernel work, keeping the measured dispatch round-trip below ~2% of it;
``REPRO_AUTO_THRESHOLD`` overrides it process-wide and
:func:`measure_auto_threshold` re-derives it empirically for unusual hosts.

Selection never changes output — both candidate backends are bit-for-bit
identical by the backend contract — so ``auto`` is safe anywhere a backend
spec is accepted (CLIs, campaign specs, serving).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .base import SynthesisBackend
from .numpy_backend import NumpyBackend
from .threaded import ThreadedBackend

#: Environment variable overriding the ``B x n_periods`` crossover threshold.
AUTO_THRESHOLD_ENV_VAR = "REPRO_AUTO_THRESHOLD"

#: Default crossover in row-samples (``B x n_periods``).  Measured basis: the
#: synthesis kernel runs at roughly 100 ns/sample (spectral method, n in the
#: serving-to-campaign range), so 2**16 samples is ~6.5 ms of work, against
#: which the ~30-100 us thread-pool dispatch round-trip is noise; below it,
#: thin serving blocks lose more to dispatch than they gain from overlap.
DEFAULT_AUTO_THRESHOLD = 2**16


def _resolve_threshold(threshold: Optional[int]) -> int:
    if threshold is None:
        raw = os.environ.get(AUTO_THRESHOLD_ENV_VAR)
        if raw:
            try:
                threshold = int(raw)
            except ValueError:
                raise ValueError(
                    f"{AUTO_THRESHOLD_ENV_VAR}={raw!r} is not an integer"
                ) from None
        else:
            threshold = DEFAULT_AUTO_THRESHOLD
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    return int(threshold)


class AutoBackend(SynthesisBackend):
    """Cost-model dispatch between the reference and threaded backends.

    Parameters
    ----------
    max_workers:
        Worker budget for the threaded side (and the core-count input of
        the cost model).  Defaults to the host CPU count; ``auto:N`` spec
        strings set it explicitly.
    threshold:
        ``B x n_periods`` crossover above which the threaded backend is
        selected.  Defaults to ``REPRO_AUTO_THRESHOLD`` when set, else
        :data:`DEFAULT_AUTO_THRESHOLD`.
    """

    name = "auto"

    def __init__(
        self, max_workers: Optional[int] = None, threshold: Optional[int] = None
    ) -> None:
        self._explicit_workers = max_workers is not None
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = int(max_workers)
        self.threshold = _resolve_threshold(threshold)
        self._numpy = NumpyBackend()
        # Lazy: a 1-core host (or an all-small workload) never builds the
        # thread pool at all.
        self._threaded: Optional[ThreadedBackend] = None

    @property
    def spec(self) -> str:
        return f"auto:{self.max_workers}" if self._explicit_workers else "auto"

    def select(self, batch: int, n_periods: int) -> SynthesisBackend:
        """The backend the cost model picks for a ``(batch, n_periods)`` call."""
        if self.max_workers < 2 or batch < 2:
            return self._numpy
        if batch * n_periods < self.threshold:
            return self._numpy
        if self._threaded is None:
            self._threaded = ThreadedBackend(max_workers=self.max_workers)
        return self._threaded

    def synthesize(
        self,
        n_periods: int,
        rngs: Sequence[np.random.Generator],
        thermal_std_s: np.ndarray,
        h_minus1: np.ndarray,
        flicker_method: str,
        n_blocks: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        backend = self.select(len(rngs), int(n_blocks) * int(n_periods))
        return backend.synthesize(
            n_periods, rngs, thermal_std_s, h_minus1, flicker_method,
            n_blocks=n_blocks,
        )

    def min_shard_rows(self, n_periods: Optional[int] = None) -> int:
        """Threaded-sized shards only when the cost model could pick threads.

        A shard of ``max_workers`` rows at ``n_periods`` samples is the
        thinnest shard on which the threaded side both engages (crosses the
        threshold) and saturates its pool; below that workload the auto
        backend degenerates to the reference, for which any shard size is
        fine.
        """
        if self.max_workers < 2:
            return 1
        if n_periods is None:
            return 1
        if self.max_workers * int(n_periods) >= self.threshold:
            return self.max_workers
        return 1


def measure_auto_threshold(
    max_workers: Optional[int] = None,
    n_periods: int = 1024,
    max_batch: int = 512,
    repeats: int = 3,
    flicker_method: str = "spectral",
    time_function: Callable[[], float] = time.perf_counter,
) -> Optional[int]:
    """Empirically locate the ``B x n_periods`` crossover on this host.

    Times the reference and threaded backends on identical workloads over a
    geometric batch sweep and returns the smallest ``B x n_periods`` at
    which the threaded backend wins, or ``None`` if it never does (e.g. on
    a single-core host).  Intended for calibration tooling (the synthesis
    benchmarks report it) — pin the result via ``REPRO_AUTO_THRESHOLD`` on
    hosts where the shipped default is wrong.
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers < 2:
        return None
    reference = NumpyBackend()
    threaded = ThreadedBackend(max_workers=max_workers)

    def best_time(backend: SynthesisBackend, batch: int) -> float:
        sigma = np.full(batch, 1e-12)
        h_minus1 = np.full(batch, 1e-22)
        best = float("inf")
        for repeat in range(repeats):
            rngs = np.random.SeedSequence(repeat).spawn(batch)
            generators = [np.random.Generator(np.random.SFC64(s)) for s in rngs]
            start = time_function()
            backend.synthesize(n_periods, generators, sigma, h_minus1, flicker_method)
            best = min(best, time_function() - start)
        return best

    batch = 2
    while batch <= max_batch:
        if best_time(threaded, batch) < best_time(reference, batch):
            return batch * n_periods
        batch *= 2
    return None
