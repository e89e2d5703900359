"""Coalescing determinism: served results == solo-served results, bit for bit.

The serving-layer counterpart of ``tests/engine/test_distributed_invariance``:
where sharding must be pure bookkeeping for campaigns, *coalescing* must be
pure bookkeeping for requests.  For every ``max_batch`` and every arrival
pattern, the bits (or sigma^2_N curves and fits) a request receives must be
``np.array_equal`` to what the same request receives from a ``max_batch=1``
service — because each request derives its engine RNG stream from its own
seed, never from its batch companions.

The ground truth is computed once per request through the engine bridge with
a single-request batch (the solo-served path), so every serving
configuration is compared against the same reference arrays.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serving import BitsRequest, ServiceConfig, Sigma2NRequest, TRNGService
from repro.serving.scatter import run_bits_batch, run_sigma2n_batch

MAX_BATCHES = (1, 4, 32)
ARRIVALS = ("burst", "trickle", "interleaved")

#: Two coalescing groups (different dividers) with heterogeneous n_bits, so
#: group routing, deferred requeueing and prefix slicing are all exercised.
BIT_REQUESTS = [
    BitsRequest(
        n_bits=16 + 3 * (index % 5),
        divider=(8, 16)[index % 2],
        seed=52_000 + index,
    )
    for index in range(12)
]

SIGMA_REQUESTS = [
    Sigma2NRequest(
        n_periods=2048,
        b_thermal_hz=100.0 * (1 + index % 3),
        seed=63_000 + index,
    )
    for index in range(6)
]


@pytest.fixture(scope="module")
def solo_bits():
    """Ground truth: every request served alone through the engine bridge."""
    return [run_bits_batch([request])[0] for request in BIT_REQUESTS]


@pytest.fixture(scope="module")
def solo_sigma():
    return [run_sigma2n_batch([request])[0] for request in SIGMA_REQUESTS]


def serve_all(requests, max_batch: int, arrival: str):
    """Serve the request list through one service with the given arrival."""

    async def scenario():
        config = ServiceConfig(
            max_batch=max_batch, max_wait_ms=40.0, max_pending=len(requests)
        )
        async with TRNGService(config) as service:

            async def submit(request, delay: float):
                if delay:
                    await asyncio.sleep(delay)
                if isinstance(request, BitsRequest):
                    return await service.get_bits(request)
                return await service.get_sigma2n(request)

            if arrival == "burst":
                delays = [0.0] * len(requests)
            elif arrival == "trickle":
                delays = [0.004 * index for index in range(len(requests))]
            else:  # interleaved: the two groups alternate in time
                delays = [0.002 * (index % 4) for index in range(len(requests))]
            results = await asyncio.gather(
                *(
                    submit(request, delay)
                    for request, delay in zip(requests, delays)
                )
            )
            return results, service.stats.snapshot()

    return asyncio.run(scenario())


class TestBitsDeterminism:
    @pytest.mark.parametrize("max_batch", MAX_BATCHES)
    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_bits_identical_solo_or_coalesced(
        self, max_batch, arrival, solo_bits
    ):
        results, stats = serve_all(BIT_REQUESTS, max_batch, arrival)
        assert stats["completed"] == len(BIT_REQUESTS)
        for request, result, reference in zip(
            BIT_REQUESTS, results, solo_bits
        ):
            assert result.seed == request.seed
            assert result.n_bits == request.n_bits
            assert np.array_equal(result.bits, reference.bits), (
                f"seed {request.seed} (D={request.divider}, "
                f"n={request.n_bits}): served bits != solo bits "
                f"under max_batch={max_batch}, arrival={arrival}"
            )

    def test_burst_actually_coalesces(self, solo_bits):
        _, stats = serve_all(BIT_REQUESTS, 32, "burst")
        # Determinism must not be vacuous: the burst really was batched.
        assert stats["max_batch_size"] > 1
        assert stats["batches"] < len(BIT_REQUESTS)

    def test_serial_mode_never_batches(self, solo_bits):
        _, stats = serve_all(BIT_REQUESTS, 1, "burst")
        assert stats["max_batch_size"] == 1
        assert stats["batches"] == len(BIT_REQUESTS)


class TestSigma2NDeterminism:
    @pytest.mark.parametrize("max_batch", MAX_BATCHES)
    def test_curves_and_fits_identical_solo_or_coalesced(
        self, max_batch, solo_sigma
    ):
        results, stats = serve_all(SIGMA_REQUESTS, max_batch, "burst")
        assert stats["completed"] == len(SIGMA_REQUESTS)
        for request, result, reference in zip(
            SIGMA_REQUESTS, results, solo_sigma
        ):
            assert result.seed == request.seed
            assert np.array_equal(result.n_values, reference.n_values)
            assert np.array_equal(result.sigma2_s2, reference.sigma2_s2)
            assert np.array_equal(
                result.realization_counts, reference.realization_counts
            )
            assert result.b_thermal_hz == reference.b_thermal_hz
            assert result.b_flicker_hz2 == reference.b_flicker_hz2
            assert result.r_squared == reference.r_squared

    def test_long_record_identical_solo_or_with_a_companion(self):
        # 32768 periods: long enough that a batched reduction would order
        # this request's sums differently once it has a companion row.
        request = Sigma2NRequest(n_periods=32_768, seed=64_001)
        companion = Sigma2NRequest(n_periods=32_768, b_thermal_hz=150.0, seed=64_002)
        (solo,) = run_sigma2n_batch([request])
        paired, _ = run_sigma2n_batch([request, companion])
        assert np.array_equal(paired.sigma2_s2, solo.sigma2_s2)
        assert paired.b_thermal_hz == solo.b_thermal_hz
        assert paired.b_flicker_hz2 == solo.b_flicker_hz2
        assert paired.r_squared == solo.r_squared

    def test_mixed_kind_burst_stays_deterministic(self, solo_bits, solo_sigma):
        requests = [
            item
            for pair in zip(BIT_REQUESTS[:6], SIGMA_REQUESTS)
            for item in pair
        ]
        references = [
            item for pair in zip(solo_bits[:6], solo_sigma) for item in pair
        ]
        results, stats = serve_all(requests, 32, "burst")
        assert stats["completed"] == len(requests)
        for request, result, reference in zip(requests, results, references):
            if isinstance(request, BitsRequest):
                assert np.array_equal(result.bits, reference.bits)
            else:
                assert np.array_equal(result.sigma2_s2, reference.sigma2_s2)
                assert result.b_thermal_hz == reference.b_thermal_hz
