"""Multi-block synthesis in the streaming bit sampler changes nothing but speed.

:class:`~repro.engine.bits.BatchedDFlipFlopSampler` synthesizes several
grid blocks per backend call when the batch is small.  These tests hold it
against a test-local copy of the block-at-a-time loop it replaced:

* bits and sample times are bitwise equal for every batch size, divider,
  block size, read chunking, RNG contract and flicker method, including
  rows whose thermal or flicker coefficient is zero;
* after every ``sample`` call both rings' streams stand exactly where the
  loop leaves them (equal Philox block counters, equal spawn-generator
  states), so the sampler never draws a block the loop would not draw;
* a K-block backend call equals K single-block calls and counts ``B * K``
  row-blocks in ``engine_kernel_rows_total``;
* golden digests of the served bit streams (solo and coalesced requests at
  D = 512, a chunked session at D = 16) are those of the block-at-a-time
  sampler.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import bits as bits_module
from repro.engine.backends import NumpyBackend
from repro.engine.batch import BatchedOscillatorEnsemble, spawn_generators
from repro.engine.bits import BatchedDFlipFlopSampler
from repro.engine.rng import PhiloxRowStream
from repro.obs import global_registry
from repro.phase.psd import PhaseNoisePSD
from repro.serving import BitsRequest
from repro.serving.http.sessions import StreamSession
from repro.serving.scatter import run_bits_batch

F0_HZ = 103.0e6
MISMATCH = 1e-3

#: Per-row phase-noise mixes: both components, thermal only (zero h_-1),
#: flicker only (zero sigma).  Rows cycle through them.
ROW_PSDS = (
    PhaseNoisePSD(b_thermal_hz=138.0, b_flicker_hz2=2.71),
    PhaseNoisePSD(b_thermal_hz=138.0, b_flicker_hz2=0.0),
    PhaseNoisePSD(b_thermal_hz=0.0, b_flicker_hz2=2.71),
)


class _BlockAtATimeSampler(BatchedDFlipFlopSampler):
    """The sampler as it was before multi-block steps: one block per call."""

    def _next_sample_times(self, n_samples):
        pending = [self._pending_sample_times]
        available = self._pending_sample_times.shape[1]
        while available < n_samples:
            periods = self.sampling_source.periods(self._block)
            edges = self._sampling_last_edge_s[:, None] + np.cumsum(periods, axis=1)
            self._sampling_last_edge_s = edges[:, -1].copy()
            first_global_index = self._sampling_period_count + 1
            self._sampling_period_count += self._block
            offset = (-first_global_index) % self.divider
            chosen = edges[:, offset :: self.divider]
            pending.append(chosen)
            available += chosen.shape[1]
        buffer = np.concatenate(pending, axis=1)
        self._pending_sample_times = buffer[:, n_samples:]
        return buffer[:, :n_samples]

    def _extend_coverage(self, last_sample_s):
        chunks = [self._oscillator_edges]
        last = self._oscillator_last_edge_s
        while np.any(last <= last_sample_s):
            periods = self.sampled_source.periods(self._block)
            edges = last[:, None] + np.cumsum(periods, axis=1)
            chunks.append(edges)
            last = edges[:, -1].copy()
        self._oscillator_last_edge_s = last
        if len(chunks) > 1:
            self._oscillator_edges = np.concatenate(chunks, axis=1)

    def sample(self, n_bits):
        batch = self._batch_size
        bits = np.empty((batch, n_bits), dtype=np.int8)
        times = np.empty((batch, n_bits))
        step_bits = max(self._block // self.divider, 1)
        produced = 0
        while produced < n_bits:
            step = min(n_bits - produced, step_bits)
            step_times = self._next_sample_times(step)
            self._extend_coverage(step_times[:, -1])
            bits[:, produced : produced + step] = bits_module._levels(
                step_times, self._oscillator_edges, self.duty_cycle
            )
            times[:, produced : produced + step] = step_times
            self._trim_consumed(step_times[:, -1])
            produced += step
        return bits, times


def _build(sampler_class, batch, divider, block, contract, method, seed):
    """A sampler over two freshly derived ring ensembles (like BatchedEROTRNG)."""
    parents = spawn_generators(seed, batch, rng_contract=contract)
    streams = [parent.spawn(2) for parent in parents]
    psds = [ROW_PSDS[row % len(ROW_PSDS)] for row in range(batch)]
    rings = [
        BatchedOscillatorEnsemble(
            F0_HZ * (1.0 + sign * MISMATCH / 2.0),
            psds,
            batch_size=batch,
            rngs=[pair[ring] for pair in streams],
            flicker_method=method,
        )
        for ring, sign in ((0, 1.0), (1, -1.0))
    ]
    sampler = sampler_class(
        rings[0], rings[1], divider=divider, synthesis_block_periods=block
    )
    return sampler, rings


def _stream_positions(rings):
    """Where every row stream of both rings stands (block counter / state)."""
    positions = []
    for ring in rings:
        for stream in ring.rngs:
            if isinstance(stream, PhiloxRowStream):
                positions.append(stream.block)
            else:
                positions.append(_plain(stream.bit_generator.state))
    return positions


def _plain(state):
    """A bit-generator state with its arrays as lists, so ``==`` compares."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


def _chunks(total, seed):
    """A deterministic arbitrary split of ``total`` into read sizes."""
    rng = np.random.default_rng(seed)
    sizes = []
    while sum(sizes) < total:
        size = int(rng.integers(1, max(total // 2, 2)))
        sizes.append(min(size, total - sum(sizes)))
    return sizes


@pytest.fixture(params=[None, 2**15], ids=["default-budget", "budget-2**15"])
def budget(request, monkeypatch):
    """Run each stream case at the shipped budget and at a larger one, so
    wide batches and long blocks also take multi-block steps."""
    if request.param is not None:
        monkeypatch.setattr(bits_module, "_MULTIBLOCK_BUDGET", request.param)


def _assert_same_stream(batch, divider, block, contract, method, n_bits, seed=5):
    new, new_rings = _build(
        BatchedDFlipFlopSampler, batch, divider, block, contract, method, seed
    )
    old, old_rings = _build(
        _BlockAtATimeSampler, batch, divider, block, contract, method, seed
    )
    for size in _chunks(n_bits, seed + batch + divider + block):
        result = new.sample(size)
        bits, times = old.sample(size)
        np.testing.assert_array_equal(result.bits, bits)
        np.testing.assert_array_equal(result.sample_times_s, times)
        assert _stream_positions(new_rings) == _stream_positions(old_rings)


#: (batch, divider, block, n_bits): every divider and block of the grid, at
#: bit counts that cross several multi-block steps where K > 1 (at the
#: larger budget, wherever B * block <= 2**14).
SPECTRAL_CASES = [
    (1, 1, 128, 3000),
    (1, 16, 128, 4100),
    (1, 16, 1024, 2500),
    (1, 511, 1024, 160),
    (1, 512, 1024, 200),
    (1, 512, 8192, 130),
    (3, 1, 128, 1200),
    (3, 16, 128, 1500),
    (3, 511, 1024, 90),
    (3, 512, 8192, 40),
    (32, 16, 128, 300),
    (32, 512, 1024, 24),
    (32, 16, 8192, 40),
]


@pytest.mark.parametrize("contract", ["spawn", "philox"])
@pytest.mark.parametrize("batch,divider,block,n_bits", SPECTRAL_CASES)
def test_spectral_matches_block_at_a_time(
    batch, divider, block, n_bits, contract, budget
):
    _assert_same_stream(batch, divider, block, contract, "spectral", n_bits)


@pytest.mark.parametrize("contract", ["spawn", "philox"])
@pytest.mark.parametrize("method", ["ar", "hosking"])
@pytest.mark.parametrize("batch,divider", [(1, 16), (3, 1), (1, 511)])
def test_recursive_flicker_matches_block_at_a_time(
    batch, divider, method, contract, budget
):
    n_bits = 24 if divider > 16 else 300
    _assert_same_stream(batch, divider, 128, contract, method, n_bits)


def test_blocks_per_call_follows_the_row_period_budget():
    sampler, _ = _build(BatchedDFlipFlopSampler, 1, 16, 128, "spawn", "spectral", 1)
    assert sampler._blocks_per_call == bits_module._MULTIBLOCK_BUDGET // 128
    wide, _ = _build(BatchedDFlipFlopSampler, 32, 512, 1024, "spawn", "spectral", 1)
    assert wide._blocks_per_call == 1


class TestMultiBlockBackendCall:
    """``synthesize(..., n_blocks=K)`` is K consecutive single-block calls."""

    def _inputs(self, contract, batch=4):
        rngs = spawn_generators(11, batch, rng_contract=contract)
        sigma = np.array([1e-12, 0.0, 2e-12, 1e-12])[:batch]
        h_minus1 = np.array([1e-22, 3e-22, 0.0, 2e-22])[:batch]
        return rngs, sigma, h_minus1

    @pytest.mark.parametrize("contract", ["spawn", "philox"])
    @pytest.mark.parametrize("method", ["spectral", "ar", "hosking"])
    @pytest.mark.parametrize(
        "backend",
        [NumpyBackend(), NumpyBackend(2, threshold=0), NumpyBackend(8, threshold=0)],
    )
    def test_k_blocks_equal_k_calls(self, backend, method, contract):
        n, k = 64, 5
        rngs, sigma, h_minus1 = self._inputs(contract)
        thermal, pink = backend.synthesize(
            n, rngs, sigma, h_minus1, method, n_blocks=k
        )
        rngs, sigma, h_minus1 = self._inputs(contract)
        reference = NumpyBackend()
        singles = [
            reference.synthesize(n, rngs, sigma, h_minus1, method) for _ in range(k)
        ]
        np.testing.assert_array_equal(
            thermal, np.concatenate([t for t, _ in singles], axis=1)
        )
        np.testing.assert_array_equal(
            pink, np.concatenate([p for _, p in singles], axis=1)
        )

    def test_rows_counter_counts_row_blocks(self):
        counter = global_registry().counter("engine_kernel_rows_total")
        rngs, sigma, h_minus1 = self._inputs("spawn", batch=3)
        before = counter.value()
        NumpyBackend().synthesize(32, rngs, sigma, h_minus1, "spectral", n_blocks=7)
        assert counter.value() - before == 3 * 7


def _digest(*arrays):
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


#: Digests of the block-at-a-time sampler's served bits (int8 bytes).
GOLDEN = {
    "spawn": {
        "solo": "750068e6f6de99306f89ee180f4d2dbdd0b8174b2a178a3a2e135a9ff2a3b951",
        "burst": "89334f37ee8647936188f1a36dda8c822c59067fb859edf6121d9acac2acfaa8",
        "session": "43d9510ba623157e3ee7762c3ad4a5d46069d0ed088626bcf54c5f89da681bca",
    },
    "philox": {
        "solo": "309515ab903664d9cb6028e419ab2c6aea0f0e14de5f8a2090a4380507b977c5",
        "burst": "3da59574e86a037c30e67873cc6488cd615fd36140ffd77bf9075afb032016fe",
        "session": "0609573dca6fcc627f30411baabd71e793038357df42d20e707e6d16cdd12d02",
    },
}


@pytest.mark.parametrize("contract", ["spawn", "philox"])
class TestGoldenDigests:
    def test_solo_d512(self, contract):
        request = BitsRequest(n_bits=256, divider=512, seed=2024, rng_contract=contract)
        (result,) = run_bits_batch([request])
        assert _digest(result.bits) == GOLDEN[contract]["solo"]

    def test_burst_of_32_at_d512(self, contract):
        requests = [
            BitsRequest(n_bits=256, divider=512, seed=100 + row, rng_contract=contract)
            for row in range(32)
        ]
        digest = _digest(*[result.bits for result in run_bits_batch(requests)])
        assert digest == GOLDEN[contract]["burst"]

    def test_session_of_four_1024_bit_reads_at_d16(self, contract):
        session = StreamSession(
            BitsRequest(n_bits=1, divider=16, seed=77, rng_contract=contract)
        )
        reads = [session.read(1024)[1] for _ in range(4)]
        assert _digest(*reads) == GOLDEN[contract]["session"]
