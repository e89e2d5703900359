"""Philox-tier synthesis backend: the counter-based RNG contract's executor.

:class:`PhiloxBackend` is the row-parallel executor of
:class:`~repro.engine.backends.numpy_backend.NumpyBackend`, threading every
multi-row call, so with spawn-contract streams it is bit-for-bit identical
to every other backend — selecting it via ``--backend philox[:N]`` /
``REPRO_BACKEND`` is always safe.

What the tier *adds* is its native stream contract: ``rng_contract =
"philox"`` tells contract resolution (see :func:`repro.engine.rng.
resolve_rng_contract`) that a campaign spec or environment selecting this
backend wants index-keyed :class:`~repro.engine.rng.PhiloxRowStream` rows,
whose every draw is a pure function of ``(root_key, row, block, offset)``.
Under that contract nothing about this backend is stateful between rows
or calls — the execution plan of a future vectorized-Philox or CuPy/JAX
backend is "evaluate the same keys on device", with host/device outputs
reproducible by construction.

Execution backends are deliberately *stream-agnostic*: the kernel draws
from whatever per-row streams the synthesizer owns, so a philox backend
given spawn streams (or vice versa) computes correctly under that
contract.  The contract, not the backend, decides the draws.
"""

from __future__ import annotations

from typing import Optional

from .numpy_backend import NumpyBackend, process_cores


class PhiloxBackend(NumpyBackend):
    """Counter-based-tier backend: shared kernel, index-keyed native streams.

    Parameters
    ----------
    workers:
        Threads per call, as for ``threaded:N`` (defaults to the cores the
        process may use); ``philox:1`` is the single-thread reference loop.
    """

    name = "philox"
    rng_contract = "philox"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(
            process_cores() if workers is None else workers, threshold=0
        )

    @property
    def spec(self) -> str:
        return f"philox:{self.workers}"
