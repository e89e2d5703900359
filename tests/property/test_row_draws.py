"""One draw call per row: the spectral kernel consumes streams as K block draws.

The spectral branch of :func:`~repro.engine.backends.kernel.run_block` fills
all ``K`` blocks of a row whose stream is a numpy ``Generator`` with one
``standard_normal`` call.  These tests hold it against a test-local copy of
the per-block loop it replaced (``K`` calls of ``standard_normal(n + n_fft)``
per row, shaped one block per white row):

* thermal and unit pink rows are bitwise equal for every batch size, block
  length and block count, over rows with both coefficients, thermal only,
  flicker only and neither, on SFC64, PCG64 and ``PhiloxRowStream`` rows,
  single-threaded and threaded;
* every stream is left where the loop leaves it (equal next draw, equal
  Philox block counter);
* rows wrapped in a duck-typed draw proxy (forwarding ``standard_normal``
  and every other attribute) take the same path as their unwrapped stream:
  one call per ``Generator`` row, one call per block per Philox row;
* flicker-only rows equal the scalar :func:`~repro.noise.flicker.\
generate_pink_noise` drawn from the same stream, block after block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import NumpyBackend
from repro.engine.batch import BatchedJitterSynthesizer
from repro.engine.rng import PhiloxRowStream
from repro.noise.flicker import (
    _spectral_fft_length,
    generate_pink_noise,
    spectral_scaling_table,
)
from repro.phase.psd import PhaseNoisePSD

SIGMA = 1.7e-12
H_MINUS1 = 3.1e-9

#: Per-row coefficients (thermal std, h_-1): both, thermal only, flicker
#: only, neither.  Rows cycle through them.
ROW_COEFFICIENTS = ((SIGMA, H_MINUS1), (SIGMA, 0.0), (0.0, H_MINUS1), (0.0, 0.0))

#: Per-row stream kinds; cycled with a different period than the
#: coefficients, so a wide batch mixes every kind with every mix.
STREAM_KINDS = ("sfc64", "pcg64", "philox")

BACKENDS = {
    "numpy": NumpyBackend(),
    "threaded:2-threshold-0": NumpyBackend(2, threshold=0),
}


def _stream(kind, row, seed):
    if kind == "philox":
        return PhiloxRowStream(seed, (row,))
    child = np.random.SeedSequence(seed, spawn_key=(row,))
    bit_generator = np.random.SFC64 if kind == "sfc64" else np.random.PCG64
    return np.random.Generator(bit_generator(child))


def _rows(batch, seed=29, kinds=STREAM_KINDS):
    """Two identical sets of streams plus the per-row coefficients."""
    sigma = np.array([ROW_COEFFICIENTS[row % 4][0] for row in range(batch)])
    h_minus1 = np.array([ROW_COEFFICIENTS[row % 4][1] for row in range(batch)])
    pair = [
        [_stream(kinds[row % len(kinds)], row, seed) for row in range(batch)]
        for _ in range(2)
    ]
    return pair[0], pair[1], sigma, h_minus1


def _per_block_loop(n, rngs, sigma, h_minus1, n_blocks):
    """The spectral kernel as it was: per row, per block, one draw call."""
    n_fft = _spectral_fft_length(n)
    thermal = np.zeros((len(rngs), n_blocks * n))
    white = []
    for row, rng in enumerate(rngs):
        for k in range(n_blocks):
            block = slice(k * n, (k + 1) * n)
            if sigma[row] > 0.0 and h_minus1[row] > 0.0:
                draw = rng.standard_normal(n + n_fft)
                np.multiply(draw[:n], sigma[row], out=thermal[row, block])
                white.append(draw[n:])
            elif sigma[row] > 0.0:
                np.multiply(rng.standard_normal(n), sigma[row], out=thermal[row, block])
            elif h_minus1[row] > 0.0:
                white.append(rng.standard_normal(n_fft))
    n_flicker = int(np.count_nonzero(h_minus1 > 0.0))
    if not n_flicker:
        return thermal, np.empty((0, n_blocks * n))
    spectrum = np.fft.rfft(np.array(white), axis=-1)
    shaped = np.fft.irfft(spectrum * spectral_scaling_table(n_fft), n=n_fft, axis=-1)
    pink = shaped[:, :n] / np.sqrt(2.0)
    return thermal, pink.reshape(n_flicker, n_blocks * n)


def _assert_same_positions(left, right):
    for row, (a, b) in enumerate(zip(left, right)):
        if isinstance(a, PhiloxRowStream):
            assert a.block == b.block, f"row {row}"
        np.testing.assert_array_equal(
            a.standard_normal(5), b.standard_normal(5), err_msg=f"row {row}"
        )


@pytest.mark.parametrize("backend", BACKENDS.values(), ids=list(BACKENDS))
@pytest.mark.parametrize("n_blocks", [1, 2, 32])
@pytest.mark.parametrize("n", [1, 3, 128, 1000])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_kernel_matches_per_block_loop(batch, n, n_blocks, backend):
    rngs, reference_rngs, sigma, h_minus1 = _rows(batch)
    thermal, pink = backend.synthesize(
        n, rngs, sigma, h_minus1, "spectral", n_blocks=n_blocks
    )
    expected_thermal, expected_pink = _per_block_loop(
        n, reference_rngs, sigma, h_minus1, n_blocks
    )
    np.testing.assert_array_equal(thermal, expected_thermal)
    np.testing.assert_array_equal(pink, expected_pink)
    _assert_same_positions(rngs, reference_rngs)


class _DrawProxy:
    """A row stream seen through a wrapper that counts its draw calls."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._inner.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("backend", BACKENDS.values(), ids=list(BACKENDS))
@pytest.mark.parametrize("kinds", [("sfc64",), ("philox",), ("pcg64", "philox")])
def test_proxied_rows_take_their_streams_path(kinds, backend):
    batch, n, n_blocks = 8, 128, 4
    rngs, reference_rngs, sigma, h_minus1 = _rows(batch, kinds=kinds)
    proxies = [_DrawProxy(rng) for rng in rngs]
    thermal, pink = backend.synthesize(
        n, proxies, sigma, h_minus1, "spectral", n_blocks=n_blocks
    )
    expected_thermal, expected_pink = _per_block_loop(
        n, reference_rngs, sigma, h_minus1, n_blocks
    )
    np.testing.assert_array_equal(thermal, expected_thermal)
    np.testing.assert_array_equal(pink, expected_pink)
    _assert_same_positions(rngs, reference_rngs)
    for row, proxy in enumerate(proxies):
        drawing = sigma[row] > 0.0 or h_minus1[row] > 0.0
        per_block = isinstance(rngs[row], PhiloxRowStream)
        expected_calls = (n_blocks if per_block else 1) if drawing else 0
        assert proxy.calls == expected_calls, f"row {row}"


def _plain(state):
    """A bit-generator state with its arrays as lists, so ``==`` compares."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


@pytest.mark.parametrize(
    "bit_generator",
    [
        np.random.SFC64,
        np.random.PCG64,
        np.random.PCG64DXSM,
        np.random.MT19937,
        np.random.Philox,
    ],
)
def test_split_draws_equal_one_draw(bit_generator):
    """The fused path's premise: a Generator caches nothing between calls."""
    split = np.random.Generator(bit_generator(41))
    fused = np.random.Generator(bit_generator(41))
    parts = [split.standard_normal(size) for size in (1, 7, 384, 2)]
    np.testing.assert_array_equal(np.concatenate(parts), fused.standard_normal(394))
    assert _plain(split.bit_generator.state) == _plain(fused.bit_generator.state)


class TestFlickerRowsEqualScalarGenerator:
    """Flicker-only kernel rows == ``generate_pink_noise`` on the same stream."""

    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("method", ["spectral", "ar"])
    def test_rows_match_scalar(self, method, n_blocks):
        n = 512 if method == "spectral" else 128
        rngs = np.random.default_rng(6).spawn(3)
        reference = np.random.default_rng(6).spawn(3)
        _, pink = NumpyBackend().synthesize(
            n, rngs, np.zeros(3), np.full(3, H_MINUS1), method, n_blocks=n_blocks
        )
        for row in range(3):
            for k in range(n_blocks):
                np.testing.assert_allclose(
                    pink[row, k * n : (k + 1) * n],
                    generate_pink_noise(n, rng=reference[row], method=method),
                    rtol=0.0,
                    atol=0.0,
                )

    def test_empty_inputs(self):
        thermal, pink = NumpyBackend().synthesize(
            16, [], np.empty(0), np.empty(0), "spectral"
        )
        assert thermal.shape == (0, 16) and pink.shape == (0, 16)
        psd = PhaseNoisePSD(b_thermal_hz=276.0, b_flicker_hz2=5.42)
        synthesizer = BatchedJitterSynthesizer(103e6, psd, batch_size=1, seed=0)
        assert synthesizer.periods(0).shape == (1, 0)
        with pytest.raises(ValueError):
            synthesizer.periods(-1)
