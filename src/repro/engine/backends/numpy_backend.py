"""The reference backend: the engine's original single-threaded kernel.

A pure refactor of the draw-and-shape step that used to live inline in
:meth:`repro.engine.batch.BatchedJitterSynthesizer._components`; every other
backend is defined (and tested) as bit-for-bit equal to it.  The row loop
itself lives in :mod:`repro.engine.backends.kernel` and is shared with the
threaded backend — this class runs it as one block covering every row.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .base import SynthesisBackend
from .kernel import flicker_offsets, run_block
from .plan import synthesis_plan


class NumpyBackend(SynthesisBackend):
    """Single-threaded reference implementation of the synthesis kernel.

    Per-row stream order matches the scalar synthesizer exactly (see
    :mod:`repro.engine.backends.kernel`); the spectral path shapes all
    flicker rows with one batched FFT.
    """

    name = "numpy"

    def synthesize(
        self,
        n_periods: int,
        rngs: Sequence[np.random.Generator],
        thermal_std_s: np.ndarray,
        h_minus1: np.ndarray,
        flicker_method: str,
        n_blocks: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = int(n_periods)
        n_blocks = int(n_blocks)
        batch = len(rngs)
        thermal = np.zeros((batch, n_blocks * n))
        offsets = flicker_offsets(h_minus1)
        n_flicker = int(offsets[-1])
        pink = np.empty((n_flicker, n_blocks * n))
        plan = synthesis_plan(n, flicker_method, n_flicker > 0)
        run_block(
            n,
            rngs,
            thermal_std_s,
            h_minus1,
            flicker_method,
            thermal,
            pink,
            0,
            0,
            batch,
            plan=plan,
            n_blocks=n_blocks,
        )
        return thermal, pink
