"""Pluggable synthesis backends for the batched engine's hot kernel.

The draw-and-shape step of
:meth:`repro.engine.batch.BatchedJitterSynthesizer._components` — per-row
fused ``standard_normal`` draws, thermal scaling, pink spectral shaping — is
the single kernel every campaign bottlenecks on.  This package abstracts it
behind :class:`SynthesisBackend` so accelerated implementations drop in
underneath every workload at once:

* :class:`NumpyBackend` — the row-parallel executor every in-process call
  runs: the shared kernel on contiguous row ranges, on a pool of
  ``workers - 1`` threads plus the calling thread.  Output is bit-for-bit
  identical at any worker count, because each row consumes only its own
  RNG stream; with one worker it is the single-thread reference, the
  definition of correct output.  A measured row-sample threshold keeps
  calls too small to gain from threads on the calling thread; see
  :mod:`repro.engine.backends.numpy_backend`.
* :class:`PhiloxBackend` — the counter-based tier: the same executor, but
  its native stream contract is ``"philox"`` (index-keyed
  :class:`~repro.engine.rng.PhiloxRowStream` rows); see
  :mod:`repro.engine.backends.philox` and :mod:`repro.engine.rng`.

All backends share the RNG-independent per-group setup (FFT scaling table,
AR corner/pole tables) through the :mod:`repro.engine.backends.plan` cache;
cached plans are bit-for-bit identical to the inline computation by
construction.

Selection is by *backend spec*, a short string that serializes through
campaign-spec JSON and CLI flags alike:

* ``"numpy"`` — one worker, the single-thread reference;
* ``"threaded[:N]"`` — ``N`` workers, threading every multi-row call;
* ``"auto[:N]"`` — ``N`` workers behind the threshold;
* ``"philox[:N]"`` — as ``threaded``, with the philox contract hint.

``N`` defaults to the cores the process may use.  :func:`resolve_backend`
turns a spec into a backend instance; ``None`` honours the
``REPRO_BACKEND`` environment default and otherwise means ``"auto"``.  A
process that is one of several pool workers on the host runs its share of
the cores instead (:func:`pool_worker_backend`).  Passing an instance
returns it unchanged.

The equivalence contract (every spec == ``NumpyBackend()``, bitwise)
is enforced by ``tests/engine/test_backend_equivalence.py`` and, end to end,
by ``tests/property/test_backend_streams.py``.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Union

from .base import SynthesisBackend
from .numpy_backend import (
    AUTO_THRESHOLD,
    NumpyBackend,
    measure_auto_threshold,
    process_cores,
)
from .philox import PhiloxBackend
from .plan import (
    SynthesisPlan,
    configure_plan_cache,
    plan_cache_stats,
    reset_plan_cache,
    synthesis_plan,
)

#: Environment variable consulted when no backend is requested explicitly.
#: ``REPRO_BACKEND=numpy`` (or ``threaded:N``, ...) switches the default for
#: a whole process tree — how CI runs the tier-1 suite once per executor.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Spec names accepted by :func:`resolve_backend` (``threaded``, ``auto``
#: and ``philox`` also take a ``:N`` worker-count suffix).
BACKEND_NAMES = ("numpy", "threaded", "auto", "philox")

BackendLike = Union[SynthesisBackend, str, None]


def parse_backend_spec(spec: str) -> SynthesisBackend:
    """Build a backend from a spec string (``numpy`` | ``threaded[:N]`` |
    ``auto[:N]`` | ``philox[:N]``)."""
    name, _, argument = str(spec).strip().partition(":")
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown synthesis backend {spec!r}: choose one of "
            f"{', '.join(BACKEND_NAMES)} (threaded, auto and philox accept a "
            f"':N' worker suffix)"
        )
    if name == "numpy":
        if argument:
            raise ValueError(
                f"backend spec {spec!r} invalid: 'numpy' takes no argument"
            )
        return NumpyBackend()
    workers = process_cores()
    if argument:
        try:
            workers = int(argument)
        except ValueError:
            raise ValueError(
                f"backend spec {spec!r} invalid: worker count must be an "
                f"integer, got {argument!r}"
            ) from None
    if name == "philox":
        return PhiloxBackend(workers)
    threshold = 0 if name == "threaded" else AUTO_THRESHOLD
    return NumpyBackend(workers, threshold=threshold)


def resolve_backend(backend: BackendLike = None) -> SynthesisBackend:
    """Resolve a backend argument to an instance.

    ``None`` consults the ``REPRO_BACKEND`` environment variable and falls
    back to ``"auto"`` (every core the process may use, behind the
    threshold); a string is parsed as a backend spec; an instance passes
    through unchanged.  Every engine entry point funnels its ``backend=``
    parameter through here, which is what makes the environment default
    reach campaigns, shards and the serving layer without per-call-site
    wiring.
    """
    if isinstance(backend, SynthesisBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "auto"
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a SynthesisBackend, a spec string or None, "
            f"got {type(backend).__name__}"
        )
    return parse_backend_spec(backend)


def pool_worker_backend(
    pool_size: int, environ: Mapping[str, str] = os.environ
) -> str:
    """The ``REPRO_BACKEND`` a worker of a ``pool_size``-process pool runs.

    The default (``auto`` on every core) would give each of ``pool_size``
    processes on one host all of its cores; a pool worker gets its share,
    ``cores // pool_size`` (at least one).  An explicit default in
    ``environ`` (``numpy``, ``threaded:N``, ...) passes through unchanged.
    The process that starts the pool sets the result in each worker's
    environment.
    """
    current = (environ.get(BACKEND_ENV_VAR) or "auto").strip()
    if current != "auto":
        return current
    return f"auto:{max(1, process_cores() // int(pool_size))}"


def validate_backend_spec(spec: Optional[str]) -> Optional[str]:
    """Validate a to-be-serialized spec string (``None`` passes through).

    Campaign specs and serving requests store the *string*, not the
    instance, so shards and remote workers re-create the backend host-side;
    this validates eagerly at spec construction instead of failing inside a
    worker process.
    """
    if spec is None:
        return None
    parse_backend_spec(spec)
    return str(spec)


__all__ = [
    "AUTO_THRESHOLD",
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "BackendLike",
    "NumpyBackend",
    "PhiloxBackend",
    "SynthesisBackend",
    "SynthesisPlan",
    "configure_plan_cache",
    "measure_auto_threshold",
    "parse_backend_spec",
    "plan_cache_stats",
    "pool_worker_backend",
    "process_cores",
    "reset_plan_cache",
    "resolve_backend",
    "synthesis_plan",
    "validate_backend_spec",
]
