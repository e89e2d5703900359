"""Shard execution: turn ``(spec, shard)`` into a mergeable partial payload.

:func:`run_shard` is the single function every executor dispatches — a
module-level callable, so it pickles by reference into worker processes.  A
*partial* is a flat dict of numpy arrays plus a ``kind`` tag, chosen so it
(a) pickles cheaply between processes, (b) saves losslessly to a per-shard
``.npz`` checkpoint, and (c) merges into the exact arrays the unsharded
campaign produces (see :mod:`repro.engine.distributed.merge`).

Memory discipline: a sigma^2_N shard holds its ``O(rows x n_periods)``
record and ``O(n_periods)`` sweep scratch, since the sweep reduces one row at
a time (or ``O(rows x chunk_periods)`` in streaming mode, where the partial is
the streaming estimator's *state*, not a record, and the estimator also
reduces one row at a time); a bit shard holds ``O(rows x synthesis_block)``
thanks to the streaming sampler.  Synthesis adds ``O(n_fft)`` per synthesis
thread, not ``O(rows x n_fft)``: the spectral kernel draws and shapes a
range in row chunks (one row of a Fig. 7 record), and each thread keeps that
chunk's white rows, spectrum and draw scratch, 7 MiB at 262,144-point FFTs,
between chunks and calls.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ...core.sigma_n import batched_sigma2_n_sweep
from ..streaming import streaming_sigma2_n_estimator
from .plan import Shard
from .spec import BitCampaignSpec, CampaignSpec, Sigma2NCampaignSpec

ShardTask = Tuple[CampaignSpec, Shard]
Partial = Dict[str, np.ndarray]


def run_shard(task: ShardTask) -> Partial:
    """Run one shard of a campaign and return its partial payload."""
    spec, shard = task
    if isinstance(spec, Sigma2NCampaignSpec):
        return _run_sigma2n_shard(spec, shard)
    if isinstance(spec, BitCampaignSpec):
        return _run_bit_shard(spec, shard)
    raise TypeError(f"unsupported campaign spec: {type(spec)!r}")


def _run_sigma2n_shard(spec: Sigma2NCampaignSpec, shard: Shard) -> Partial:
    ensemble = spec.ensemble(shard.start, shard.stop)
    if spec.chunk_periods is not None:
        estimator = streaming_sigma2_n_estimator(
            ensemble,
            spec.n_periods,
            spec.chunk_periods,
            n_sweep=spec.n_sweep,
            overlapping=spec.overlapping,
            min_realizations=spec.min_realizations,
        )
        payload: Partial = {"kind": np.array("sigma2n_stream")}
        payload.update(estimator.export_state())
        payload["f0"] = ensemble.f0_hz
        payload["rng_contract"] = np.array(spec.rng_contract)
        return payload
    records = ensemble.jitter(spec.n_periods)
    n_list, sigma2, counts, f0 = batched_sigma2_n_sweep(
        records,
        ensemble.f0_hz,
        n_sweep=spec.n_sweep,
        overlapping=spec.overlapping,
        min_realizations=spec.min_realizations,
        exact=spec.exact,
    )
    return {
        "kind": np.array("sigma2n_sweep"),
        "n_values": np.array(n_list, dtype=np.int64),
        "sigma2": sigma2,
        "counts": np.asarray(counts),
        "f0": f0,
        "rng_contract": np.array(spec.rng_contract),
    }


def _run_bit_shard(spec: BitCampaignSpec, shard: Shard) -> Partial:
    from ..campaign import batched_bit_campaign

    result = batched_bit_campaign(
        spec.configuration(),
        spec.dividers,
        spec.batch_size,
        spec.n_bits,
        seed=spec.seed,
        run_procedure_a=spec.run_procedure_a,
        include_t0=spec.include_t0,
        run_procedure_b=spec.run_procedure_b,
        min_entropy_block_size=spec.min_entropy_block_size,
        instance_range=(shard.start, shard.stop),
        backend=spec.backend,
        rng_contract=spec.rng_contract,
    )
    payload: Partial = {
        "kind": np.array("bits"),
        "rng_contract": np.array(spec.rng_contract),
        "dividers": result.dividers,
        "bias": result.bias,
        "shannon_entropy": result.shannon_entropy,
        "min_entropy": result.min_entropy,
        "markov_entropy": result.markov_entropy,
        "n_bits": np.array(result.n_bits, dtype=np.int64),
    }
    if result.procedure_a_passed is not None:
        payload["procedure_a_passed"] = result.procedure_a_passed
    if result.procedure_b_passed is not None:
        payload["procedure_b_passed"] = result.procedure_b_passed
    return payload
