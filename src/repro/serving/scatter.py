"""Batch execution and result scattering: one engine call, many futures.

:func:`execute_batch` is the worker-side bridge to the batched engine: it
takes one coalesced group of compatible requests, runs a **single**
``BatchedEROTRNG.generate_exact`` / ``batched_sigma2_n_campaign`` call with
one spawned RNG stream per request (row ``i`` = request ``i``'s own seed),
and returns per-request results in order.  The :class:`Scatterer` then
slices those results back onto the per-request futures.

Determinism: because every engine kernel is row-independent and row ``i``
consumes only request ``i``'s stream, slicing row ``i`` out of the batched
result is bit-for-bit the result of serving request ``i`` alone.  For bit
requests with heterogeneous ``n_bits`` the batch generates the group
maximum and each row keeps its prefix — the streaming sampler's fixed
synthesis-block grid guarantees a prefix never depends on how much further
the record was generated.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..engine.backends import BackendLike
from ..engine.batch import BatchedOscillatorEnsemble
from ..engine.bits import BatchedEROTRNG
from ..engine.campaign import batched_sigma2_n_campaign
from .queue import PendingRequest
from .requests import (
    BitsRequest,
    BitsResult,
    Request,
    Sigma2NRequest,
    Sigma2NResult,
)


#: Floor of the serving synthesis block [periods].  Small requests should
#: not pay for campaign-sized synthesis blocks.
SERVING_BLOCK_MIN_PERIODS = 128


def serving_synthesis_block(divider: int) -> int:
    """Synthesis block length the serving layer uses for bit requests.

    Deliberately a function of **group-key fields only** (the divider): the
    block length shapes the edge-time grid and the per-block RNG draw
    pattern, so deriving it from anything per-row (say, the batch's maximum
    ``n_bits``) would make a request's bits depend on its batch companions
    and break the solo/coalesced determinism contract.
    """
    return max(SERVING_BLOCK_MIN_PERIODS, 2 * int(divider))


def run_bits_batch(
    requests: Sequence[BitsRequest], backend: BackendLike = None
) -> List[BitsResult]:
    """Serve a compatible group of bit requests with one batched TRNG pass.

    ``backend`` selects the synthesis backend of the engine call (bit-for-bit
    equivalent across backends, so served bits never depend on it).
    """
    lead = requests[0]
    trng = BatchedEROTRNG(
        lead.configuration(),
        batch_size=len(requests),
        rngs=[request.generator() for request in requests],
        synthesis_block_periods=serving_synthesis_block(lead.divider),
        backend=backend,
    )
    bits = trng.generate_exact(max(request.n_bits for request in requests))
    return [
        BitsResult(
            bits=bits[row, : request.n_bits].copy(),
            seed=request.seed,
            divider=request.divider,
        )
        for row, request in enumerate(requests)
    ]


def run_sigma2n_batch(
    requests: Sequence[Sigma2NRequest], backend: BackendLike = None
) -> List[Sigma2NResult]:
    """Serve a compatible group of sigma^2_N requests with one batched campaign."""
    lead = requests[0]
    ensemble = BatchedOscillatorEnsemble.from_phase_noise(
        np.array([request.f0_hz for request in requests]),
        np.array([request.b_thermal_hz for request in requests]),
        np.array([request.b_flicker_hz2 for request in requests]),
        batch_size=len(requests),
        rngs=[request.generator() for request in requests],
        backend=backend,
        name="serving",
    )
    campaign = batched_sigma2_n_campaign(
        ensemble,
        lead.n_periods,
        n_sweep=lead.n_sweep,
        overlapping=lead.overlapping,
        min_realizations=lead.min_realizations,
    )
    table = campaign.table()
    return [
        Sigma2NResult(
            n_values=campaign.n_values.copy(),
            sigma2_s2=campaign.sigma2_s2[row].copy(),
            realization_counts=campaign.realization_counts.copy(),
            f0_hz=float(campaign.f0_hz[row]),
            b_thermal_hz=float(table["b_thermal_hz"][row]),
            b_flicker_hz2=float(table["b_flicker_hz2"][row]),
            r_squared=float(table["r_squared"][row]),
            thermal_jitter_std_s=float(table["thermal_jitter_std_s"][row]),
            seed=request.seed,
        )
        for row, request in enumerate(requests)
    ]


def execute_batch(
    requests: Sequence[Request], backend: BackendLike = None
) -> List:
    """Run one coalesced batch on the engine (synchronous; worker-thread side)."""
    if not requests:
        return []
    if isinstance(requests[0], BitsRequest):
        return run_bits_batch(requests, backend=backend)
    return run_sigma2n_batch(requests, backend=backend)


class Scatterer:
    """Slices one batch's results back onto the per-request futures."""

    def scatter(self, batch: Sequence[PendingRequest], results: Sequence) -> int:
        """Resolve each pending future with its own result; returns #resolved.

        Futures whose callers went away (cancelled, disconnected) are
        skipped — their rows were computed but nobody is waiting.
        """
        if len(results) != len(batch):
            raise ValueError(
                f"batch produced {len(results)} results for {len(batch)} requests"
            )
        return sum(
            pending.resolve(result)
            for pending, result in zip(batch, results)
        )

    def fail(self, batch: Sequence[PendingRequest], error: BaseException) -> int:
        """Fail every pending future of a batch; returns the count."""
        return sum(pending.fail(error) for pending in batch)
