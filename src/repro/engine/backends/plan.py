"""Precomputed synthesis plans: the RNG-independent setup of one group key.

Profiling the serving layer showed that for small-``n`` requests (streaming
sessions, coalesced serving rows) a large share of each synthesis call is
spent rebuilding values that depend only on the group-key fields ``(n,
flicker_method, has_flicker)`` and never on the random streams: the FFT
buffer length of the spectral method, its rFFT ``1/sqrt(f)`` shaping table,
and the corner/pole/weight tables of the AR cascade.  A
:class:`SynthesisPlan` captures exactly that setup; the process-wide cache
below shares one plan across every coalesced row, streaming session and
backend synthesising the same group key.

Correctness contract: a plan stores the *same values* the generators compute
inline (the table builders in :mod:`repro.noise.flicker` are the single
source of truth for both paths), so cached synthesis is bit-for-bit
identical to the uncached reference — enforced by
``tests/engine/test_synthesis_plan.py``.  Cached arrays are frozen
(``writeable=False``) so no caller can corrupt a shared plan in place.

The cache is a small LRU guarded by a lock (plans are requested from serving
worker threads); hit/miss/eviction counters are surfaced through
:class:`repro.serving.service.ServiceStats`.  ``configure_plan_cache(0)``
disables caching entirely — every request builds a fresh plan — which is the
comparison mode the cache-on/cache-off equivalence tests use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ...noise.flicker import (
    FLICKER_METHODS,
    ArCascadeTables,
    _spectral_fft_length,
    ar_cascade_tables,
    spectral_scaling_table,
)
from ...obs import metrics as _obs

#: Default maximum number of cached plans.  Spectral tables are the large
#: ones (``n_fft/2 + 1`` floats, with ``n_fft`` ~ 2-4x ``n``); 64 plans of
#: even 1M samples each stay well under typical memory budgets while easily
#: covering the distinct group keys of a serving process.
DEFAULT_PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class SynthesisPlan:
    """The RNG-independent synthesis setup of one ``(n, method, flicker)`` key.

    ``n_fft``/``spectral_scaling`` are populated for the spectral method,
    ``ar_tables`` for the AR cascade; Hosking's recursion interleaves its
    coefficient updates with the sample draws, so it has no reusable setup
    and its plan carries the key only.  Flicker-free groups skip the tables
    entirely.
    """

    n_periods: int
    flicker_method: str
    has_flicker: bool
    n_fft: Optional[int] = None
    spectral_scaling: Optional[np.ndarray] = None
    ar_tables: Optional[ArCascadeTables] = None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def build_plan(
    n_periods: int, flicker_method: str, has_flicker: bool
) -> SynthesisPlan:
    """Compute a plan from scratch (no cache involvement).

    Delegates to the table builders in :mod:`repro.noise.flicker` — the same
    functions the generators call inline when handed no tables — so the
    cached and uncached paths cannot drift apart.
    """
    if n_periods <= 0:
        raise ValueError(f"n_periods must be > 0, got {n_periods!r}")
    if flicker_method not in FLICKER_METHODS:
        raise ValueError(
            f"unknown flicker method {flicker_method!r}: choose one of "
            f"{', '.join(FLICKER_METHODS)}"
        )
    n_fft: Optional[int] = None
    spectral_scaling: Optional[np.ndarray] = None
    ar_tables: Optional[ArCascadeTables] = None
    if has_flicker:
        if flicker_method == "spectral":
            n_fft = _spectral_fft_length(n_periods)
            spectral_scaling = _frozen(spectral_scaling_table(n_fft))
        elif flicker_method == "ar":
            tables = ar_cascade_tables(n_periods)
            ar_tables = ArCascadeTables(
                corners=_frozen(tables.corners),
                poles=_frozen(tables.poles),
                weights=_frozen(tables.weights),
                target_variance=tables.target_variance,
            )
    return SynthesisPlan(
        n_periods=int(n_periods),
        flicker_method=str(flicker_method),
        has_flicker=bool(has_flicker),
        n_fft=n_fft,
        spectral_scaling=spectral_scaling,
        ar_tables=ar_tables,
    )


_PlanKey = Tuple[int, str, bool]

_lock = threading.Lock()
_cache: "OrderedDict[_PlanKey, SynthesisPlan]" = OrderedDict()
_maxsize = DEFAULT_PLAN_CACHE_SIZE

# The hit/miss/eviction counters live in the process-wide observability
# registry — plan_cache_stats(), ServiceStats.snapshot() and the Prometheus
# exposition all read the *same* counters, so there is exactly one source of
# truth.  Cache bookkeeping itself (entries, LRU order) is unaffected by the
# metrics kill switch; only the counters pause while metrics are disabled.
_HITS = _obs.global_registry().counter(
    "plan_cache_hits_total", "Synthesis-plan cache hits"
)
_MISSES = _obs.global_registry().counter(
    "plan_cache_misses_total", "Synthesis-plan cache misses"
)
_EVICTIONS = _obs.global_registry().counter(
    "plan_cache_evictions_total", "Synthesis-plan cache LRU evictions"
)


def synthesis_plan(
    n_periods: int, flicker_method: str, has_flicker: bool
) -> SynthesisPlan:
    """Return the (shared, possibly cached) plan for one group key.

    This is the entry point every backend uses; with the cache disabled
    (``configure_plan_cache(0)``) it still returns a correct plan, just a
    freshly built one on every call.
    """
    key: _PlanKey = (int(n_periods), str(flicker_method), bool(has_flicker))
    with _lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
    if plan is not None:
        _HITS.inc()
        return plan
    _MISSES.inc()
    # Build outside the lock: plans are immutable and building twice under a
    # race is merely wasted work, never wrong output.
    plan = build_plan(*key)
    evicted = 0
    with _lock:
        if _maxsize > 0 and key not in _cache:
            _cache[key] = plan
            while len(_cache) > _maxsize:
                _cache.popitem(last=False)
                evicted += 1
    if evicted:
        _EVICTIONS.inc(evicted)
    return plan


def plan_cache_stats() -> Dict[str, int]:
    """A snapshot of the cache counters (surfaced in ``ServiceStats``).

    The hit/miss/eviction values are read from the shared observability
    registry (:func:`repro.obs.global_registry`) — the same counters the
    ``metrics`` protocol kind and the Prometheus exposition export.
    """
    with _lock:
        size = len(_cache)
        maxsize = _maxsize
    return {
        "hits": int(_HITS.value()),
        "misses": int(_MISSES.value()),
        "evictions": int(_EVICTIONS.value()),
        "size": size,
        "maxsize": maxsize,
    }


def reset_plan_cache() -> None:
    """Drop every cached plan and zero the counters (test isolation)."""
    with _lock:
        _cache.clear()
    _HITS.reset()
    _MISSES.reset()
    _EVICTIONS.reset()


def configure_plan_cache(maxsize: int) -> None:
    """Set the cache capacity; ``0`` disables caching (fresh plan per call)."""
    global _maxsize
    if maxsize < 0:
        raise ValueError(f"maxsize must be >= 0, got {maxsize!r}")
    evicted = 0
    with _lock:
        _maxsize = int(maxsize)
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
            evicted += 1
    if evicted:
        _EVICTIONS.inc(evicted)
