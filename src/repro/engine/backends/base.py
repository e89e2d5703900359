"""The synthesis-backend interface: who executes the engine's hot kernel.

Every workload in this reproduction — ``sigma^2_N`` campaigns, the batched
bit pipeline, distributed shards, the serving layer — bottlenecks on one
kernel: the draw-and-shape step of
:meth:`repro.engine.batch.BatchedJitterSynthesizer._components` (per-row
``standard_normal`` draws, thermal scaling, pink spectral shaping).  A
:class:`SynthesisBackend` owns exactly that step, so an accelerated backend
speeds up every campaign at once without touching any caller.

Backend contract
----------------
:meth:`SynthesisBackend.synthesize` receives the per-row generators and the
per-row synthesis coefficients and must return arrays **bit-for-bit
identical** to the reference :class:`~repro.engine.backends.numpy_backend.
NumpyBackend` for the same inputs.  Concretely, for every row ``i``:

* when both ``thermal_std_s[i]`` and ``h_minus1[i]`` are positive and the
  flicker method is spectral, the row consumes ``rngs[i]`` exactly as one
  ``standard_normal(n + n_fft)`` call would (thermal variates first, flicker
  white noise second) — how many calls make those draws is the backend's
  business, except that a stream keyed per call
  (:class:`~repro.engine.rng.PhiloxRowStream`) draws one call per block;
* when only one coefficient is positive, only that component's draw happens;
* zero-coefficient rows skip their draw entirely (their generator is not
  touched);
* each row consumes **only its own** generator, so rows may execute in any
  order or concurrently — this row independence is what makes threaded (and
  future GPU) backends bit-for-bit reproducible at any worker count;
* a multi-block call (``n_blocks = K``) consumes each row's stream exactly
  as ``K`` consecutive single-block calls would, in block order, so block
  ``k`` of its output equals the ``k``-th of those calls.

The equivalence matrix in ``tests/engine/test_backend_equivalence.py``
enforces the contract for every shipped backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np


class SynthesisBackend(ABC):
    """Executes the draw-and-shape step of the batched jitter synthesis.

    Subclasses must be stateless with respect to the synthesis itself (all
    randomness lives in the per-row generators), so one backend instance may
    be shared by any number of synthesizers.
    """

    #: Short machine name (``"numpy"``, ``"threaded"``); the parsable spec
    #: string is :attr:`spec`.
    name: str = "abstract"

    #: The RNG contract this backend is *natively keyed for* (see
    #: :mod:`repro.engine.rng`).  Execution is stream-agnostic — any backend
    #: runs correctly on any contract's streams — but contract resolution
    #: uses this to let a ``"philox[:N]"`` backend selection imply the
    #: index-keyed stream contract in campaign specs and environments.
    rng_contract: str = "spawn"

    @property
    def spec(self) -> str:
        """The backend-spec string that recreates this backend."""
        return self.name

    def min_shard_rows(self, n_periods: Optional[int] = None) -> int:
        """Rows a shard should keep to exploit this backend's parallelism.

        The distributed planner uses this to avoid slicing a batch into
        shards so thin that an intra-shard parallel backend runs starved
        (e.g. a ``threaded:8`` backend inside a 1-row shard parallelises
        nothing).  Sequential backends return 1 — any shard size is fine.
        ``n_periods`` lets cost-model backends answer per workload.
        """
        return 1

    @abstractmethod
    def synthesize(
        self,
        n_periods: int,
        rngs: Sequence[np.random.Generator],
        thermal_std_s: np.ndarray,
        h_minus1: np.ndarray,
        flicker_method: str,
        n_blocks: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw thermal jitter and shaped unit pink noise for every row.

        Parameters
        ----------
        n_periods:
            Synthesis-block length: samples per row and block (``> 0``; the
            ``n = 0`` short-circuit lives in the caller).
        rngs:
            One generator per row; row ``i`` must consume ``rngs[i]`` only.
        thermal_std_s:
            Per-row thermal jitter std ``(B,)`` [s]; rows with ``0.0`` skip
            the thermal draw.
        h_minus1:
            Per-row flicker fractional-frequency coefficients ``(B,)``; rows
            with ``0.0`` skip the flicker draw.
        flicker_method:
            1/f generator method (see
            :data:`repro.noise.flicker.FLICKER_METHODS`).
        n_blocks:
            Number ``K >= 1`` of consecutive synthesis blocks per row.  The
            result is bit-for-bit the concatenation, per row, of ``K``
            single-block calls: each block has its own draws and its own
            DC-free spectrum, in block order, and a row's stream is consumed
            exactly as ``K`` calls of ``standard_normal(n + n_fft)`` would
            consume it.  A :class:`~repro.engine.rng.PhiloxRowStream` keys
            every call, so it still draws once per block and its block
            counter advances by ``K``.

        Returns
        -------
        thermal:
            ``(B, K * n_periods)`` thermal jitter [s]; zero rows where
            ``thermal_std_s`` is zero.
        pink:
            ``(F, K * n_periods)`` unit-PSD pink noise, one row per flicker
            row (``h_minus1 > 0``) in ascending row order.  The caller
            applies the ``sqrt(h_-1)``/period scaling.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r})"
