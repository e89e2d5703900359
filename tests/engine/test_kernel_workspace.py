"""The spectral kernel's per-thread workspace changes no output.

The kernel draws and shapes a range's rows in chunks, and takes its large
temporaries (the white rows, the draw scratch and the FFT spectrum) from
buffers each thread keeps between chunks and calls; the inverse FFT
overwrites the spent white rows.  These tests pin what that reuse must never
do: hand a caller an array that a later call overwrites, make a call's
output depend on the calls before it on the same thread or on where its
chunks end, keep more than the cap after an oversized call, or hold a buffer
a call did not need.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchedOscillatorEnsemble
from repro.engine.backends import NumpyBackend
from repro.engine.backends import kernel
from repro.engine.batch import spawn_generators
from repro.noise.flicker import (
    _pink_spectral_shape,
    _spectral_fft_length,
    spectral_scaling_table,
)
from repro.serving import BitsRequest
from repro.serving.scatter import run_bits_batch

SIGMA = 1.4e-12
H_MINUS1 = 2.5e-22

#: (B, n, K, flicker-row pattern): spans under and over the workspace gate,
#: multi-block calls, thermal-only and flicker-only rows.
CALLS = (
    (16, 1024, 1, "all"),
    (3, 128, 8, "all"),
    (5, 2048, 2, "mixed"),
    (16, 1024, 1, "mixed"),
    (2, 8192, 1, "all"),
    (4, 100, 1, "mixed"),
    (7, 1024, 3, "all"),
)


def _coefficients(batch: int, pattern: str):
    sigma = np.full(batch, SIGMA)
    h_minus1 = np.full(batch, H_MINUS1)
    if pattern == "mixed" and batch >= 3:
        h_minus1[1::3] = 0.0  # thermal-only rows
        sigma[2::3] = 0.0  # flicker-only rows
    elif pattern == "thermal":
        h_minus1[:] = 0.0
    elif pattern == "flicker":
        sigma[:] = 0.0
    return sigma, h_minus1


def _call(backend, batch, n, n_blocks, pattern, seed):
    sigma, h_minus1 = _coefficients(batch, pattern)
    rngs = spawn_generators(seed, batch)
    return backend.synthesize(n, rngs, sigma, h_minus1, "spectral", n_blocks=n_blocks)


def _on_fresh_thread(function, *args):
    """``function(*args)`` on a new thread, whose workspace starts empty."""
    outcome = {}

    def target():
        try:
            outcome["value"] = function(*args)
        except BaseException as error:  # re-raised on the calling thread
            outcome["error"] = error

    worker = threading.Thread(target=target)
    worker.start()
    worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _fresh_call(workers, *call):
    """:func:`_call` on a new backend, run from a new thread."""
    return _on_fresh_thread(_call, NumpyBackend(workers, threshold=0), *call)


def _retained(backend=None) -> list:
    """Workspace bytes the calling thread (and the backend's pool) retains."""
    sizes = [kernel.WORKSPACE.retained_bytes]
    if backend is not None and backend._pool is not None:
        future = backend._pool.submit(lambda: kernel.WORKSPACE.retained_bytes)
        sizes.append(future.result())
    return sizes


@pytest.mark.parametrize("workers", [1, 2])
def test_interleaved_calls_equal_fresh_calls(workers):
    backend = NumpyBackend(workers, threshold=0)
    # Twice through the mix, so every shape also runs after larger and
    # smaller calls have grown the slots.
    for round_index in range(2):
        for index, (batch, n, n_blocks, pattern) in enumerate(CALLS):
            seed = 100 * round_index + index
            thermal, pink = _call(backend, batch, n, n_blocks, pattern, seed)
            fresh_thermal, fresh_pink = _fresh_call(
                workers, batch, n, n_blocks, pattern, seed
            )
            np.testing.assert_array_equal(thermal, fresh_thermal)
            np.testing.assert_array_equal(pink, fresh_pink)


def test_returned_arrays_survive_later_calls():
    backend = NumpyBackend(2, threshold=0)
    kept = [_call(backend, 16, 1024, 1, "all", seed=1)]
    copies = [(thermal.copy(), pink.copy()) for thermal, pink in kept]
    for seed, (batch, n, n_blocks, pattern) in enumerate(CALLS, start=2):
        kept.append(_call(backend, batch, n, n_blocks, pattern, seed))
        copies.append(tuple(array.copy() for array in kept[-1]))
    for (thermal, pink), (thermal_copy, pink_copy) in zip(kept, copies):
        np.testing.assert_array_equal(thermal, thermal_copy)
        np.testing.assert_array_equal(pink, pink_copy)
        for slot in kernel.WORKSPACE.slots.values():
            assert not np.shares_memory(thermal, slot)
            assert not np.shares_memory(pink, slot)


def test_periods_survive_later_calls():
    ensemble = BatchedOscillatorEnsemble.from_phase_noise(
        103.05e6, 276.0, 5.42, batch_size=16, seed=4, backend="numpy"
    )
    first = ensemble.periods(4096)
    snapshot = first.copy()
    for n in (4096, 1024, 8192):
        ensemble.periods(n)
    np.testing.assert_array_equal(first, snapshot)


def test_small_calls_retain_nothing():
    # A front-door request's temporaries fall under the gate.
    def small_calls():
        for batch, n, n_blocks in ((4, 128, 1), (1, 128, 32), (4, 128, 8)):
            _call(NumpyBackend(), batch, n, n_blocks, "all", seed=batch)
        return kernel.WORKSPACE.retained_bytes

    assert _on_fresh_thread(small_calls) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_call_above_the_cap_retains_at_most_the_cap(workers):
    def run():
        backend = NumpyBackend(workers, threshold=0)
        _call(backend, 16, 1024, 1, "all", seed=5)
        before = _retained(backend)
        assert all(size > 0 for size in before)
        # 2 rows per thread of 524,288-point FFTs: even a one-row chunk's
        # temporaries (14 MiB) exceed the cap.
        rows = 2 * workers
        thermal, pink = _call(backend, rows, 262_144, 1, "all", seed=6)
        after = _retained(backend)
        assert all(size <= kernel.WORKSPACE_CAP_BYTES for size in after), after
        # The oversized call still computes what a fresh thread computes.
        fresh = _fresh_call(workers, rows, 262_144, 1, "all", 6)
        np.testing.assert_array_equal(thermal, fresh[0])
        np.testing.assert_array_equal(pink, fresh[1])

    _on_fresh_thread(run)


def _chunk_budget(rows: int, n: int, n_blocks: int) -> int:
    """A chunk budget that holds exactly ``rows`` flicker rows of this call:
    each row's K white blocks of ``n_fft`` floats and their spectra."""
    n_fft = _spectral_fft_length(n)
    return rows * n_blocks * (n_fft * 8 + (n_fft // 2 + 1) * 16)


@pytest.mark.parametrize("contract", ["spawn", "philox"])
@pytest.mark.parametrize("workers", [1, 2], ids=["numpy", "threaded-2"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
def test_chunk_boundaries_are_invisible(chunk_rows, workers, contract, monkeypatch):
    shaped_rows = []

    def shape(white, *args, **kwargs):
        shaped_rows.append(white.shape[0])
        return _pink_spectral_shape(white, *args, **kwargs)

    def synthesize(batch, n, n_blocks, pattern, seed):
        backend = NumpyBackend() if workers == 1 else NumpyBackend(2, threshold=0)
        sigma, h_minus1 = _coefficients(batch, pattern)
        rngs = spawn_generators(seed, batch, rng_contract=contract)
        outputs = backend.synthesize(
            n, rngs, sigma, h_minus1, "spectral", n_blocks=n_blocks
        )
        return outputs, [getattr(rng, "block", None) for rng in rngs]

    monkeypatch.setattr(kernel, "_pink_spectral_shape", shape)
    for seed, (batch, n, n_blocks, _) in enumerate(CALLS):
        for pattern in ("all", "mixed", "thermal", "flicker"):
            monkeypatch.setattr(kernel, "SPECTRAL_CHUNK_BYTES", 2**40)
            (thermal, pink), blocks = synthesize(batch, n, n_blocks, pattern, seed)
            budget = _chunk_budget(chunk_rows, n, n_blocks)
            monkeypatch.setattr(kernel, "SPECTRAL_CHUNK_BYTES", budget)
            n_fft = _spectral_fft_length(n)
            assert kernel.spectral_chunk_rows(n_fft, n_blocks) == chunk_rows
            shaped_rows.clear()
            (chunked_thermal, chunked_pink), chunked_blocks = synthesize(
                batch, n, n_blocks, pattern, seed
            )
            np.testing.assert_array_equal(chunked_thermal, thermal)
            np.testing.assert_array_equal(chunked_pink, pink)
            assert chunked_blocks == blocks
            # The chunks really split: at most chunk_rows rows each, every
            # flicker row shaped once.
            assert all(rows <= chunk_rows * n_blocks for rows in shaped_rows)
            assert sum(shaped_rows) == len(pink) * n_blocks
            if chunk_rows == 1:
                assert len(shaped_rows) == len(pink)


@pytest.mark.parametrize("with_table", [False, True], ids=["inline", "table"])
@pytest.mark.parametrize("batch,n,n_blocks,pattern", CALLS)
def test_in_place_shaping_equals_fresh_shaping(batch, n, n_blocks, pattern, with_table):
    n_fft = _spectral_fft_length(n)
    rows = int(np.count_nonzero(_coefficients(batch, pattern)[1])) * n_blocks
    white = np.random.default_rng(batch * n).standard_normal((rows, n_fft))
    scaling = spectral_scaling_table(n_fft) if with_table else None
    expected = _pink_spectral_shape(white.copy(), n, scaling=scaling)
    got = np.empty((rows, n))
    _pink_spectral_shape(
        white, n, scaling=scaling, out=got, workspace=kernel.Workspace()
    )
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_shaped_slot(workers):
    def run():
        backend = NumpyBackend(workers, threshold=0)
        for seed, call in enumerate(CALLS):
            _call(backend, *call, seed=seed)
        keys = [set(kernel.WORKSPACE.slots)]
        if backend._pool is not None:
            future = backend._pool.submit(lambda: set(kernel.WORKSPACE.slots))
            keys.append(future.result())
        return keys

    for keys in _on_fresh_thread(run):
        assert "white" in keys and "spectrum" in keys
        assert "shaped" not in keys


def _row_by_row(batch, n, pattern, seed):
    """A one-block call drawn and shaped row by row without any workspace."""
    sigma, h_minus1 = _coefficients(batch, pattern)
    n_fft = _spectral_fft_length(n)
    thermal, pink = np.zeros((batch, n)), []
    for row, rng in enumerate(spawn_generators(seed, batch)):
        if sigma[row] > 0.0:
            thermal[row] = sigma[row] * rng.standard_normal(n)
        if h_minus1[row] > 0.0:
            pink.append(_pink_spectral_shape(rng.standard_normal(n_fft), n))
    return thermal, np.array(pink).reshape(-1, n)


@pytest.mark.parametrize("pattern", ["thermal", "flicker"])
def test_single_component_calls_take_no_scratch(pattern):
    # 8,192-period rows: a two-component row's scratch (192 KiB) is above
    # the gate, so a call that took it would leave a "scratch" slot.
    batch, n, seed = 2, 8192, 9

    def run(kind):
        sigma, h_minus1 = _coefficients(batch, kind)
        thermal, pink = NumpyBackend().synthesize(
            n, spawn_generators(seed, batch), sigma, h_minus1, "spectral"
        )
        return thermal, pink, set(kernel.WORKSPACE.slots)

    thermal, pink, keys = _on_fresh_thread(run, pattern)
    assert "scratch" not in keys
    expected_thermal, expected_pink = _row_by_row(batch, n, pattern, seed)
    np.testing.assert_array_equal(thermal, expected_thermal)
    np.testing.assert_array_equal(pink, expected_pink)
    # A call with two-component rows does take it.
    assert "scratch" in _on_fresh_thread(run, "all")[2]


def test_in_place_shaping_bounds_an_oversized_call():
    """One (16, 131072) call peaks at its returned arrays plus one row's white
    row, spectrum and scratch: the range is drawn and shaped one row at a
    time, and the inverse FFT has no buffer of its own."""
    batch, n = 16, 131_072
    n_fft = _spectral_fft_length(n)

    def peak():
        backend = NumpyBackend()
        _call(backend, batch, n, 1, "all", seed=3)  # plan cache, workspace
        tracemalloc.start()
        try:
            _call(backend, batch, n, 1, "all", seed=3)
            return tracemalloc.get_traced_memory()[1], kernel.WORKSPACE.retained_bytes
        finally:
            tracemalloc.stop()

    itemsize = np.dtype(np.float64).itemsize
    thermal = pink = batch * n * itemsize
    white_row = n_fft * itemsize
    spectrum_row = (n_fft // 2 + 1) * 2 * itemsize
    scratch_row = (n + n_fft) * itemsize
    traced, retained = _on_fresh_thread(peak)
    assert traced <= thermal + pink + white_row + spectrum_row + scratch_row
    # The row's three temporaries stay in the workspace from one chunk and
    # call to the next instead of being allocated per row.
    assert retained == white_row + spectrum_row + scratch_row


def _retained_after_served_call(requests):
    """Workspace bytes each thread of a fresh two-worker backend keeps after
    serving ``requests`` (the calling thread runs the first row range)."""

    def serve():
        backend = NumpyBackend(2)
        run_bits_batch(requests, backend=backend)
        return _retained(backend)

    return _on_fresh_thread(serve)


def test_served_calls_retain_at_most_one_mib():
    # A served B = 32, D = 512 burst (two 16-row ranges) and a solo D = 512
    # request (K = 16 blocks of one row per step) fit one chunk; the cap for
    # a Fig. 7 row must not grow what a serving thread keeps.
    burst = [BitsRequest(n_bits=256, divider=512, seed=row) for row in range(32)]
    solo = [BitsRequest(n_bits=256, divider=512, seed=1)]
    for requests, threads in ((burst, 2), (solo, 1)):
        sizes = _retained_after_served_call(requests)
        assert len(sizes) == threads
        assert all(0 < size <= 1024 * 1024 for size in sizes), sizes


_FIRST_CALL_FAULTS = textwrap.dedent(
    """
    import resource
    import sys

    import numpy as np

    from repro.engine.backends import NumpyBackend
    from repro.engine.batch import spawn_generators
    from repro.engine.distributed.executor import _adopt_backend

    if sys.argv[1] == "pool-worker":
        _adopt_backend("numpy")
    rows = 8
    sigma, h_minus1 = np.full(rows, 1.4e-12), np.full(rows, 2.5e-22)
    rngs = spawn_generators(1, rows)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    NumpyBackend().synthesize(131_072, rngs, sigma, h_minus1, "spectral")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds"
)
def test_pool_workers_recycle_fft_scratch():
    # A fresh process's first one-row chunks fault numpy's per-call FFT
    # scratch back in (about 20k minor faults for these 8 rows); a campaign
    # pool worker starts with thresholds that keep it (about 4k).
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *sys.path]))

    def first_call_faults(mode):
        completed = subprocess.run(
            [sys.executable, "-c", _FIRST_CALL_FAULTS, mode],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        return int(completed.stdout)

    assert first_call_faults("pool-worker") < first_call_faults("plain") / 2


def test_fabric_worker_raises_malloc_thresholds(monkeypatch):
    # A fabric worker runs the same shards as a pool worker, so it starts
    # with the same thresholds, before it serves anything.
    from repro import worker

    calls = []
    monkeypatch.setattr(
        worker, "raise_malloc_thresholds", lambda: calls.append("thresholds")
    )

    async def serve(host, port):
        calls.append("serve")
        return 0

    monkeypatch.setattr(worker, "_serve", serve)
    assert worker.main(["--listen", "127.0.0.1:0"]) == 0
    assert calls == ["thresholds", "serve"]
