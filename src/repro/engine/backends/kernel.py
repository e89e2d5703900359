"""The one synthesis row-loop every backend executes.

There is exactly one copy of the draw-and-shape kernel in the tree:
:class:`~repro.engine.backends.numpy_backend.NumpyBackend` calls
:func:`run_block` once per contiguous row range (one range covering every
row on the single-thread path) — so the bitwise contract between worker
counts can only drift if the *partitioning* changes, never the per-row
draws.

Per-row stream consumption (the scalar synthesizer's, exactly): in each
block a row's ``n`` thermal variates come before its ``n_fft`` flicker white
values, and zero-coefficient rows skip their draw entirely.  A spectral row
consumes its stream exactly as ``K`` calls of ``standard_normal(n + n_fft)``
would (``standard_normal(n)`` / ``(n_fft)`` with one coefficient zero).  A
numpy ``Generator`` row makes that one call of all ``K`` blocks, which
leaves it in the same state; a stream keyed per call
(:class:`~repro.engine.rng.PhiloxRowStream`) still draws once per block.
Each row touches only its own stream, so any block partition of the rows
produces identical output; the spectral shaping is a row-wise FFT, so
shaping per block equals shaping all rows at once.

Multi-block calls (``n_blocks = K``) synthesize ``K`` consecutive synthesis
blocks of ``n`` samples per row in one pass, and the ``F * K`` white rows of
a spectral chunk are shaped by one batched FFT.  Row ``i``'s samples
``k*n .. (k+1)*n - 1`` are therefore bit-for-bit the ``k``-th of ``K``
consecutive single-block calls.

Row chunks.  A spectral range is drawn and shaped in chunks of consecutive
rows, each holding at most :func:`spectral_chunk_rows` flicker rows: as many
as fit :data:`SPECTRAL_CHUNK_BYTES` of white rows plus spectrum, and at
least one.  Every served call and bit-campaign range fits in one chunk; a
Fig. 7 ``sigma^2_N`` range (262,144-point FFTs) takes one row per chunk, so
its temporaries are one row's, not the range's.  Chunking is another row
partition, so it changes no output.

Workspace lifetime.  The spectral path's large temporaries (the ``scratch``
draw rows, taken only when the range has a row with both noise components,
the chunk's ``white`` rows and the FFT spectrum inside
:func:`~repro.noise.flicker._pink_spectral_shape`, whose inverse FFT
overwrites the spent ``white`` rows) are reused by every chunk of one
:func:`run_block` call.  A temporary of at least :data:`WORKSPACE_MIN_BYTES`
is not allocated per call either: it is a view of a buffer the calling
thread keeps (:data:`WORKSPACE`), reused by that thread's next call and
freed with the thread.  Allocating them per chunk or per call costs page
faults: glibc returns freed large blocks to the OS, and the next allocation
faults the pages back in.  A thread retains at most
:data:`WORKSPACE_CAP_BYTES`, which holds one chunk's three temporaries; a
temporary that does not fit (a row whose blocks hold more than 262,144 white
values) is allocated per call.  Smaller temporaries are allocated per call
too, since malloc recycles them without faults.  Nothing a call returns
aliases a buffer: ``thermal`` and ``pink`` are the caller's arrays.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ...noise.flicker import (
    _pink_ar_cascade,
    _pink_spectral_shape,
    _spectral_fft_length,
    generate_pink_noise,
)
from .plan import SynthesisPlan


#: Smallest temporary (bytes) drawn from the thread's workspace.  Smaller
#: ones, such as every temporary of a served D = 16 call of up to 32 rows,
#: keep the plain allocation.
WORKSPACE_MIN_BYTES = 128 * 1024

#: Most bytes a thread's workspace retains: one Fig. 7 ``sigma^2_N`` row
#: (a 262,144-point FFT) needs 7 MiB of white row, spectrum and draw scratch,
#: and keeps them from one chunk (:data:`SPECTRAL_CHUNK_BYTES`) to the next.
#: A served ``B = 32``, ``D = 512`` range (16 flicker rows of 2,048-point
#: FFTs) needs 0.5 MiB, a solo ``D = 512`` step (16 blocks of one row)
#: 0.88 MiB and a bit-campaign shard's range 0.69 MiB, all in one chunk.
WORKSPACE_CAP_BYTES = 8 * 1024 * 1024

#: Most bytes of white rows plus FFT spectrum that one chunk of a spectral
#: range draws and shapes at a time; a chunk holds at least one flicker row.
#: Half the cap: a row within it has at most 2 MiB of white blocks, so its
#: draw scratch (``n + n_fft`` per block, ``n <= n_fft / 2``) is at most
#: 3 MiB, and a chunk's three temporaries fit the cap together.
SPECTRAL_CHUNK_BYTES = WORKSPACE_CAP_BYTES // 2


class Workspace(threading.local):
    """Per-thread named byte buffers backing the kernel's large temporaries.

    :meth:`empty` hands out a view of slot ``key``, grown when too small, so
    two live temporaries need two keys.  The view is valid until the same
    thread's next :meth:`empty` of that key.
    """

    def __init__(self) -> None:
        self.slots: Dict[str, np.ndarray] = {}

    @property
    def retained_bytes(self) -> int:
        return sum(buffer.nbytes for buffer in self.slots.values())

    def empty(self, key: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized ``shape`` array; from slot ``key`` if gated in."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes < WORKSPACE_MIN_BYTES:
            return np.empty(shape, dtype)
        buffer = self.slots.get(key)
        if buffer is None or buffer.nbytes < nbytes:
            held = buffer.nbytes if buffer is not None else 0
            if self.retained_bytes - held + nbytes > WORKSPACE_CAP_BYTES:
                return np.empty(shape, dtype)
            buffer = self.slots[key] = np.empty(nbytes, np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


#: The kernel's workspace: each thread sees its own slots.  It is per
#: thread, not per backend: engine objects resolve a fresh backend (every
#: ``run_bits_batch`` call does), so a backend's buffers would start empty
#: on every request.
WORKSPACE = Workspace()

#: glibc ``mallopt`` parameters (``M_MMAP_THRESHOLD``, ``M_TRIM_THRESHOLD``)
#: and the values :func:`raise_malloc_thresholds` gives them: what glibc's
#: dynamic thresholds become after the first free of a 16 MiB block.
_MALLOC_THRESHOLDS = ((-3, 16 * 2**20), (-1, 32 * 2**20))


def raise_malloc_thresholds() -> None:
    """Let a fresh process recycle numpy's per-call FFT scratch.

    numpy's FFT allocates its own scratch (about 4 MiB for one 262,144-point
    row) on every call, which no workspace can hold.  A fresh glibc process
    serves it from the top of the heap and trims it back to the OS on free,
    so each one-row chunk of its first Fig. 7 shard faults the scratch in
    again (about 1,000 minor faults per row, 37k per 16-row shard against
    4k) until some free of a larger block raises glibc's dynamic
    thresholds.  Campaign pool workers and fabric workers call this at start
    to begin with the thresholds they would reach anyway.  A no-op where the C library has no
    ``mallopt``.
    """
    try:
        # The running program's symbols, the C library's among them.
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for parameter, value in _MALLOC_THRESHOLDS:
        mallopt(parameter, value)


def spectral_chunk_rows(n_fft: int, n_blocks: int = 1) -> int:
    """Flicker rows per chunk of a spectral range: as many as fit
    :data:`SPECTRAL_CHUNK_BYTES` of white blocks (``n_fft`` floats each) and
    their spectra (``n_fft // 2 + 1`` complex each), and at least one."""
    row_bytes = n_blocks * (n_fft + 2 * (n_fft // 2 + 1)) * 8
    return max(1, SPECTRAL_CHUNK_BYTES // row_bytes)


def flicker_offsets(h_minus1: np.ndarray) -> np.ndarray:
    """Compact ``pink``-row offset of each row: ``offsets[i]`` is the number
    of flicker rows (``h_minus1 > 0``) before row ``i``; ``offsets[-1]`` is
    the total flicker-row count."""
    return np.concatenate(([0], np.cumsum(np.asarray(h_minus1) > 0.0)))


def _draw_blocks(rng, out: np.ndarray) -> None:
    """Fill ``out`` ``(K, m)`` with a row's next ``K`` blocks of ``m`` normals.

    A numpy ``Generator`` caches nothing between calls, so one call of
    ``K * m`` leaves it where ``K`` calls of ``m`` would; a stream keyed per
    call (:class:`~repro.engine.rng.PhiloxRowStream`) draws once per block.
    """
    if isinstance(getattr(rng, "bit_generator", None), np.random.BitGenerator):
        rng.standard_normal(out=out)
    else:
        for block in out:
            block[...] = rng.standard_normal(out.shape[1])


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
    sigma = thermal_std_s
    scaling = plan.spectral_scaling if plan is not None else None
    ar_tables = plan.ar_tables if plan is not None else None
    if flicker_method == "spectral":
        if plan is not None and plan.n_fft is not None:
            n_fft = plan.n_fft
        else:
            n_fft = _spectral_fft_length(n)
        rows = range(start, stop)
        n_flicker = sum(1 for i in rows if h_minus1[i] > 0.0)
        # Row-major (flicker row, block): white row f * n_blocks + k is block
        # k of the chunk's flicker row f, so the shaped (F * K, n) result
        # reshapes to (F, K * n) with every row's blocks in order.
        chunk = min(n_flicker, spectral_chunk_rows(n_fft, n_blocks))
        white = WORKSPACE.empty("white", (chunk * n_blocks, n_fft))
        # Draws of a two-component row: K blocks of (thermal, white) each.
        # Only such rows use it, so single-component ranges do not take it.
        if any(sigma[i] > 0.0 and h_minus1[i] > 0.0 for i in rows):
            scratch = WORKSPACE.empty("scratch", (n_blocks, n + n_fft))
        drawn = 0
        for index in rows:
            row = thermal[index].reshape(n_blocks, n)
            if sigma[index] > 0.0 and h_minus1[index] > 0.0:
                _draw_blocks(rngs[index], scratch)
                np.multiply(scratch[:, :n], sigma[index], out=row)
                white[drawn : drawn + n_blocks] = scratch[:, n:]
                drawn += n_blocks
            elif sigma[index] > 0.0:
                _draw_blocks(rngs[index], row)
                row *= sigma[index]
            elif h_minus1[index] > 0.0:
                _draw_blocks(rngs[index], white[drawn : drawn + n_blocks])
                drawn += n_blocks
            # Shape a full chunk, and the last one however full it is.
            if drawn and (drawn == len(white) or index == stop - 1):
                shaped = drawn // n_blocks
                out = pink[position : position + shaped].reshape(-1, n)
                _pink_spectral_shape(
                    white[:drawn], n, scaling=scaling, out=out, workspace=WORKSPACE
                )
                position += shaped
                drawn = 0
    else:
        blocks = [slice(k * n, (k + 1) * n) for k in range(n_blocks)]
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
