"""Batched simulation engine: vectorized multi-instance synthesis and campaigns.

This package scales the paper's experiments from one oscillator pair at a
time to whole ensembles:

* :mod:`repro.engine.batch` — ``(B, n_periods)`` vectorized thermal + flicker
  synthesis with one spawned RNG stream per instance
  (:class:`BatchedOscillatorEnsemble`); the scalar oscillator/synthesizer
  classes are thin ``B = 1`` views over it.
* :mod:`repro.engine.backends` — the row-parallel executor of the synthesis
  hot kernel (:class:`NumpyBackend`), bit-for-bit equivalent at any worker
  count; selected with ``backend=`` / ``--backend`` / ``REPRO_BACKEND``.
* :mod:`repro.engine.bits` — the batched TRNG bit pipeline: ensemble
  D-flip-flop sampling (:class:`BatchedDFlipFlopSampler`) and whole
  eRO-TRNG ensembles (:class:`BatchedEROTRNG`) producing ``(B, n_bits)``
  raw-bit records with streaming (chunk-invariant) semantics; the scalar
  digitizer and TRNG are thin ``B = 1`` views over it.
* :mod:`repro.engine.streaming` — chunked generation and online ``sigma^2_N``
  accumulation, so campaigns and bit generation run in O(chunk) memory for
  arbitrarily long records.
* :mod:`repro.engine.campaign` — batched Fig. 7 campaigns (estimate + fit
  every instance in one pass) and batched bit campaigns
  (:func:`batched_bit_campaign`: entropy-vs-divider tables with per-ensemble
  AIS31 evaluation).
* :mod:`repro.engine.distributed` — the sharded campaign runner: campaign
  specs with deterministic per-shard RNG re-derivation, serial/multi-process
  executors behind :func:`run_campaign`, result merging and shard-level
  checkpoint/resume.  ``python -m repro.campaigns`` is its CLI.

``streaming``, ``campaign`` and ``distributed`` are imported lazily:
``batch``/``bits`` sit below the measurement/core layers, while the others
sit above them, and the scalar synthesis layer imports ``batch`` during
package initialisation.
"""

from __future__ import annotations

from .backends import (
    NumpyBackend,
    SynthesisBackend,
    resolve_backend,
)
from .batch import (
    BatchedJitterDecomposition,
    BatchedJitterSynthesizer,
    BatchedOscillatorEnsemble,
    spawn_generators,
)
from .bits import (
    BatchedDFlipFlopSampler,
    BatchedEROTRNG,
    BatchedSamplingResult,
    square_wave_level_batch,
)

__all__ = [
    "BatchedCampaignResult",
    "BatchedDFlipFlopSampler",
    "BatchedEROTRNG",
    "BatchedJitterDecomposition",
    "BatchedJitterSynthesizer",
    "BatchedOscillatorEnsemble",
    "BatchedSamplingResult",
    "BitCampaignResult",
    "BitCampaignSpec",
    "MultiprocessExecutor",
    "NumpyBackend",
    "SerialExecutor",
    "ShardPlan",
    "Sigma2NCampaignSpec",
    "StreamingSigma2NEstimator",
    "SynthesisBackend",
    "backends",
    "batched_bit_campaign",
    "batched_relative_jitter_campaign",
    "batched_sigma2_n_campaign",
    "bits",
    "campaign",
    "batch",
    "distributed",
    "resolve_backend",
    "fit_sigma2_n_curves",
    "generate_bits_exact",
    "plan_shards",
    "run_campaign",
    "spawn_generators",
    "square_wave_level_batch",
    "stream_bits",
    "streaming",
    "streaming_accumulated_variance_curves",
    "streaming_sigma2_n_estimator",
]

_LAZY_EXPORTS = {
    "BatchedCampaignResult": "campaign",
    "BitCampaignResult": "campaign",
    "batched_bit_campaign": "campaign",
    "batched_relative_jitter_campaign": "campaign",
    "batched_sigma2_n_campaign": "campaign",
    "fit_sigma2_n_curves": "campaign",
    "StreamingSigma2NEstimator": "streaming",
    "generate_bits_exact": "streaming",
    "stream_bits": "streaming",
    "streaming_accumulated_variance_curves": "streaming",
    "streaming_sigma2_n_estimator": "streaming",
    "BitCampaignSpec": "distributed",
    "MultiprocessExecutor": "distributed",
    "SerialExecutor": "distributed",
    "ShardPlan": "distributed",
    "Sigma2NCampaignSpec": "distributed",
    "plan_shards": "distributed",
    "run_campaign": "distributed",
    "campaign": None,
    "streaming": None,
    "distributed": None,
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        from importlib import import_module

        module_name = _LAZY_EXPORTS[name] or name
        module = import_module(f".{module_name}", __name__)
        if _LAZY_EXPORTS[name] is None:
            return module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
