"""The one synthesis row-loop every backend executes.

There is exactly one copy of the draw-and-shape kernel in the tree: both
:class:`~repro.engine.backends.numpy_backend.NumpyBackend` (one block
covering all rows) and
:class:`~repro.engine.backends.threaded.ThreadedBackend` (one block per
worker) call :func:`run_block` — so the bitwise cross-backend contract can
only drift if the *partitioning* changes, never the per-row draws.

Per-row stream order (the scalar synthesizer's, exactly): a row's thermal
variates are drawn before its flicker white noise — fused into one
``standard_normal`` call when both coefficients are positive, which consumes
the stream identically — and zero-coefficient rows skip their draw entirely.
Each row touches only its own generator, so any block partition of the rows
produces identical output; the spectral shaping is a row-wise FFT, so
shaping per block equals shaping all rows at once.

Multi-block calls (``n_blocks = K``) synthesize ``K`` consecutive synthesis
blocks of ``n`` samples per row in one pass: each row makes, per block and
in block order, exactly the draws one single-block call makes, and the
``F * K`` white rows of a spectral call are shaped by one batched FFT.  Row
``i``'s samples ``k*n .. (k+1)*n - 1`` are therefore bit-for-bit the ``k``-th
of ``K`` consecutive single-block calls.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ...noise.flicker import (
    _pink_ar_cascade,
    _pink_spectral_shape,
    _spectral_fft_length,
    generate_pink_noise,
)
from ...obs import metrics as _obs
from .plan import SynthesisPlan

#: Kernel timing (process-wide).  The histogram observe costs well under a
#: microsecond per *kernel call* (not per row), and the kill switch
#: (``configure_metrics(enabled=False)``) skips even the clock reads — so
#: the instrumentation never touches an RNG stream and enabled/disabled
#: runs are bit-for-bit identical.
_BLOCK_SECONDS = _obs.global_registry().histogram(
    "engine_kernel_block_seconds",
    "Wall-clock seconds per synthesis kernel call (draw + shape)",
)
_BLOCK_ROWS = _obs.global_registry().counter(
    "engine_kernel_rows_total",
    "Row-blocks synthesized by the kernel (rows x synthesis blocks per call)",
)


def flicker_offsets(h_minus1: np.ndarray) -> np.ndarray:
    """Compact ``pink``-row offset of each row: ``offsets[i]`` is the number
    of flicker rows (``h_minus1 > 0``) before row ``i``; ``offsets[-1]`` is
    the total flicker-row count."""
    return np.concatenate(([0], np.cumsum(np.asarray(h_minus1) > 0.0)))


def run_block(
    n: int,
    rngs: Sequence[np.random.Generator],
    thermal_std_s: np.ndarray,
    h_minus1: np.ndarray,
    flicker_method: str,
    thermal: np.ndarray,
    pink: np.ndarray,
    position: int,
    start: int,
    stop: int,
    plan: Optional[SynthesisPlan] = None,
    n_blocks: int = 1,
) -> None:
    """Draw and shape rows ``start..stop-1`` into the shared output arrays.

    ``n`` is the synthesis-block length; each row gets ``n_blocks``
    consecutive blocks, so ``thermal``/``pink`` rows are ``n_blocks * n``
    long.

    ``thermal`` is written at rows ``start..stop-1``; the block's shaped
    pink rows land at ``pink[position:...]`` (``position`` = the block's
    first compact flicker index, from :func:`flicker_offsets`).  Blocks
    write disjoint slices, so concurrent calls need no synchronization.

    ``plan``, when given, must be the
    :class:`~repro.engine.backends.plan.SynthesisPlan` of this block's group
    key ``(n, flicker_method, any flicker rows)``; its precomputed tables
    replace the inline FFT-scaling / AR-cascade setup with values that are
    bit-for-bit identical (both come from the same builders in
    :mod:`repro.noise.flicker`).  ``None`` computes everything inline — the
    uncached reference path the equivalence tests compare against.
    """
    if not _obs.metrics_enabled():
        _run_block_rows(
            n, rngs, thermal_std_s, h_minus1, flicker_method,
            thermal, pink, position, start, stop, plan, n_blocks,
        )
        return
    began = time.perf_counter()
    _run_block_rows(
        n, rngs, thermal_std_s, h_minus1, flicker_method,
        thermal, pink, position, start, stop, plan, n_blocks,
    )
    _BLOCK_SECONDS.observe(time.perf_counter() - began)
    _BLOCK_ROWS.inc((stop - start) * n_blocks)


def _run_block_rows(
    n: int,
    rngs: Sequence[np.random.Generator],
    thermal_std_s: np.ndarray,
    h_minus1: np.ndarray,
    flicker_method: str,
    thermal: np.ndarray,
    pink: np.ndarray,
    position: int,
    start: int,
    stop: int,
    plan: Optional[SynthesisPlan],
    n_blocks: int,
) -> None:
    sigma = thermal_std_s
    scaling = plan.spectral_scaling if plan is not None else None
    ar_tables = plan.ar_tables if plan is not None else None
    blocks = [slice(k * n, (k + 1) * n) for k in range(n_blocks)]
    if flicker_method == "spectral":
        if plan is not None and plan.n_fft is not None:
            n_fft = plan.n_fft
        else:
            n_fft = _spectral_fft_length(n)
        n_flicker = sum(1 for i in range(start, stop) if h_minus1[i] > 0.0)
        # Row-major (flicker row, block): white row f * n_blocks + k is block
        # k of flicker row f, so the shaped (F * K, n) result reshapes to
        # (F, K * n) with every row's blocks in order.
        white = np.empty((n_flicker * n_blocks, n_fft))
        drawn = 0
        for index in range(start, stop):
            rng = rngs[index]
            if sigma[index] > 0.0 and h_minus1[index] > 0.0:
                for block in blocks:
                    draw = rng.standard_normal(n + n_fft)
                    np.multiply(draw[:n], sigma[index], out=thermal[index, block])
                    white[drawn] = draw[n:]
                    drawn += 1
            elif sigma[index] > 0.0:
                for block in blocks:
                    np.multiply(
                        rng.standard_normal(n), sigma[index], out=thermal[index, block]
                    )
            elif h_minus1[index] > 0.0:
                for _ in blocks:
                    white[drawn] = rng.standard_normal(n_fft)
                    drawn += 1
        if n_flicker:
            shaped = _pink_spectral_shape(white, n, scaling=scaling)
            pink[position : position + n_flicker] = shaped.reshape(n_flicker, -1)
    else:
        for index in range(start, stop):
            for block in blocks:
                if sigma[index] > 0.0:
                    draw = rngs[index].standard_normal(n)
                    thermal[index, block] = sigma[index] * draw
                if h_minus1[index] > 0.0:
                    if flicker_method == "ar" and ar_tables is not None:
                        pink[position, block] = _pink_ar_cascade(
                            n, rngs[index], tables=ar_tables
                        )
                    else:
                        pink[position, block] = generate_pink_noise(
                            n, rng=rngs[index], method=flicker_method
                        )
            if h_minus1[index] > 0.0:
                position += 1
