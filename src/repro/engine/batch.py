"""Batched multi-instance jitter synthesis: ``(B, n_periods)`` records.

This module is the computational core of the batched simulation engine.  A
:class:`BatchedJitterSynthesizer` generates the period/jitter records of ``B``
oscillators *simultaneously* as ``(B, n_periods)`` arrays, and a
:class:`BatchedOscillatorEnsemble` wraps it with the oscillator-level API
(mirroring :class:`repro.oscillator.ring.RingOscillator`).

Reproducibility contract
------------------------
Each instance owns one independent RNG stream, obtained with
``numpy.random.Generator.spawn``.  Row ``i`` of every batched output is
**bit-for-bit identical** to what a scalar
:class:`repro.phase.synthesis.PeriodJitterSynthesizer` (or
:class:`~repro.oscillator.ring.RingOscillator`) produces when constructed with
the same child generator, because:

* the thermal draw ``sigma * standard_normal(n)`` consumes the stream exactly
  like the scalar ``rng.normal(0, sigma, n)``;
* the flicker white-noise buffer is drawn per row *after* the row's thermal
  draw (matching the scalar call order) and shaped with a batched FFT whose
  row-wise results equal the 1-D transform;
* rows whose thermal (or flicker) coefficient is zero skip the corresponding
  draw, exactly like the scalar synthesizer.

The scalar classes are thin ``B = 1`` views over this module, so the contract
is enforced structurally, and verified bit-for-bit by ``tests/engine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..noise.flicker import FLICKER_METHODS
from ..phase.psd import PhaseNoisePSD
from .backends import BackendLike, resolve_backend
from .rng import derive_row_streams

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def spawn_generators(
    seed: SeedLike, batch_size: int, rng_contract: Optional[str] = None
) -> List[np.random.Generator]:
    """``batch_size`` independent per-row streams from one seed (or generator).

    This is the engine's seeding protocol: scalar instance ``i`` built from
    ``spawn_generators(seed, B)[i]`` reproduces batched row ``i`` bit-for-bit.
    What the streams *are* is decided by the RNG contract
    (:mod:`repro.engine.rng`): under the default ``"spawn"`` contract, seeds
    (ints / ``SeedSequence`` / ``None``) spawn children of an ``SFC64`` bit
    generator — the fastest generator numpy ships — and a ``Generator`` seed
    spawns children of its own bit generator.  Under the ``"philox"``
    contract the rows are index-keyed
    :class:`~repro.engine.rng.PhiloxRowStream` objects whose draws are pure
    functions of ``(root_key, row, block, offset)``.  ``rng_contract=None``
    resolves the process default (``REPRO_RNG_CONTRACT``, or a
    ``REPRO_BACKEND=philox[:N]`` default), so one environment switch moves
    every derivation in the stack onto the same contract coherently.
    """
    return derive_row_streams(seed, batch_size, rng_contract=rng_contract)


def _as_batched_array(value, batch_size: int, name: str) -> np.ndarray:
    """Broadcast a scalar or length-``B`` sequence to a float ``(B,)`` array."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        return np.full(batch_size, float(array))
    if array.ndim != 1 or array.size != batch_size:
        raise ValueError(
            f"{name} must be a scalar or a length-{batch_size} sequence, "
            f"got shape {array.shape}"
        )
    return array


def _as_psd_list(psds, batch_size: int) -> List[PhaseNoisePSD]:
    if isinstance(psds, PhaseNoisePSD):
        return [psds] * batch_size
    psd_list = list(psds)
    if len(psd_list) != batch_size:
        raise ValueError(
            f"need one PSD or {batch_size} PSDs, got {len(psd_list)}"
        )
    for psd in psd_list:
        if not isinstance(psd, PhaseNoisePSD):
            raise TypeError(f"expected PhaseNoisePSD, got {type(psd)!r}")
    return psd_list


@dataclass(frozen=True)
class BatchedJitterDecomposition:
    """Synthesized period records of a batch, with the ground-truth split.

    All record attributes are ``(B, n_periods)`` arrays; row ``i`` is the
    record of instance ``i``.
    """

    periods_s: np.ndarray
    thermal_jitter_s: np.ndarray
    flicker_jitter_s: np.ndarray
    nominal_period_s: np.ndarray

    @property
    def jitter_s(self) -> np.ndarray:
        """Total period jitter ``J = T - 1/f0`` per instance, ``(B, n)`` [s]."""
        return self.periods_s - self.nominal_period_s[:, None]

    @property
    def batch_size(self) -> int:
        """Number of instances ``B``."""
        return int(self.periods_s.shape[0])

    @property
    def n_periods(self) -> int:
        """Number of synthesized periods per instance."""
        return int(self.periods_s.shape[1])

    def row(self, index: int):
        """The scalar :class:`repro.phase.synthesis.JitterDecomposition` of row ``index``."""
        from ..phase.synthesis import JitterDecomposition

        return JitterDecomposition(
            periods_s=self.periods_s[index],
            thermal_jitter_s=self.thermal_jitter_s[index],
            flicker_jitter_s=self.flicker_jitter_s[index],
            nominal_period_s=float(self.nominal_period_s[index]),
        )


class BatchedJitterSynthesizer:
    """Synthesizes ``(B, n)`` period records for ``B`` phase-noise models at once.

    Parameters
    ----------
    f0_hz:
        Nominal frequency, a scalar (shared) or a length-``B`` array [Hz].
    psds:
        One shared :class:`~repro.phase.psd.PhaseNoisePSD` or a length-``B``
        sequence of per-instance PSDs.
    batch_size:
        ``B``; may be omitted when it is implied by ``f0_hz``/``psds``/``rngs``.
    rngs:
        Per-instance generators (length ``B``).  Takes precedence over ``seed``.
    seed:
        Seed (or parent generator) from which per-instance streams are spawned
        via :func:`spawn_generators`.
    rng_contract:
        Stream contract the seed path derives under (``"spawn"`` |
        ``"philox"`` | ``None`` for the ``REPRO_RNG_CONTRACT``/
        ``REPRO_BACKEND`` process default; see :mod:`repro.engine.rng`).
        Ignored when ``rngs`` is given — explicit streams already embody
        their contract.
    flicker_method:
        1/f generator passed to :func:`repro.noise.flicker.generate_pink_noise`;
        ``"spectral"`` uses the batched FFT fast path.
    backend:
        Who executes the draw-and-shape kernel: a
        :class:`~repro.engine.backends.SynthesisBackend` instance, a spec
        string (``"numpy"`` | ``"threaded[:N]"`` | ``"auto[:N]"``) or ``None``
        (the ``REPRO_BACKEND`` environment default, falling back to
        ``"auto"``).  Backend choice never changes output — every backend is
        bit-for-bit identical to the single-thread reference.
    """

    def __init__(
        self,
        f0_hz,
        psds,
        batch_size: Optional[int] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        seed: SeedLike = None,
        flicker_method: str = "spectral",
        backend: BackendLike = None,
        rng_contract: Optional[str] = None,
    ) -> None:
        if flicker_method not in FLICKER_METHODS:
            raise ValueError(
                f"unknown flicker_method {flicker_method!r}: choose one of "
                f"{', '.join(FLICKER_METHODS)}"
            )
        if not isinstance(psds, PhaseNoisePSD):
            psds = list(psds)  # materialize once: iterators must survive inference
        inferred = batch_size
        if inferred is None:
            if rngs is not None:
                inferred = len(rngs)
            elif not isinstance(psds, PhaseNoisePSD):
                inferred = len(psds)
            elif np.ndim(f0_hz) == 1:
                inferred = len(f0_hz)
            else:
                inferred = 1
        if inferred < 1:
            raise ValueError(f"batch_size must be >= 1, got {inferred!r}")
        self._batch_size = int(inferred)
        self.f0_hz = _as_batched_array(f0_hz, self._batch_size, "f0_hz")
        if np.any(self.f0_hz <= 0.0):
            raise ValueError("f0 must be > 0 for every instance")
        self.psds = _as_psd_list(psds, self._batch_size)
        if rngs is not None:
            self.rngs = list(rngs)
            if len(self.rngs) != self._batch_size:
                raise ValueError(
                    f"need {self._batch_size} generators, got {len(self.rngs)}"
                )
        else:
            self.rngs = spawn_generators(
                seed, self._batch_size, rng_contract=rng_contract
            )
        self.flicker_method = flicker_method
        self._backend = resolve_backend(backend)
        # Per-instance synthesis coefficients (ground truth, not fitted).
        self._thermal_std_s = np.array(
            [
                np.sqrt(psd.thermal_period_jitter_variance(f0))
                for psd, f0 in zip(self.psds, self.f0_hz)
            ]
        )
        self._h_minus1 = np.array(
            [
                psd.flicker_fractional_frequency_coefficient(f0)
                for psd, f0 in zip(self.psds, self.f0_hz)
            ]
        )

    # -- parameters ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of instances ``B``."""
        return self._batch_size

    @property
    def nominal_period_s(self) -> np.ndarray:
        """Nominal periods ``T0 = 1/f0`` per instance, ``(B,)`` [s]."""
        return 1.0 / self.f0_hz

    @property
    def thermal_jitter_std_s(self) -> np.ndarray:
        """Ground-truth thermal per-period jitter std per instance, ``(B,)`` [s]."""
        return self._thermal_std_s.copy()

    @property
    def backend(self):
        """The :class:`~repro.engine.backends.SynthesisBackend` in use."""
        return self._backend

    def use_backend(self, backend: BackendLike) -> None:
        """Re-bind the synthesis backend (a pure execution-strategy change).

        Safe at any point in the stream: backends are bit-for-bit equivalent,
        so switching mid-record cannot change a single output value.
        """
        self._backend = resolve_backend(backend)

    # -- synthesis -----------------------------------------------------------

    def _components(self, n_periods: int, n_blocks: int = 1):
        """Draw the thermal and flicker components, ``(B, n_blocks * n)`` each.

        The draw-and-shape step (per-row fused ``standard_normal`` draws,
        thermal scaling, pink spectral shaping) is delegated to the backend;
        per-row stream order matches the scalar synthesizer exactly (a row's
        thermal variates precede its flicker white noise, zero-coefficient
        rows skip their draw entirely), whatever backend executes it.
        ``n_blocks`` synthesizes that many consecutive ``n``-period blocks
        in one backend call (see :meth:`periods`).
        """
        if n_periods < 0:
            raise ValueError(f"n_periods must be >= 0, got {n_periods!r}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks!r}")
        n = int(n_periods)
        batch = self._batch_size
        if n == 0:
            return np.zeros((batch, 0)), np.zeros((batch, 0))
        h_minus1 = self._h_minus1
        thermal, pink = self._backend.synthesize(
            n,
            self.rngs,
            self._thermal_std_s,
            h_minus1,
            self.flicker_method,
            n_blocks=int(n_blocks),
        )
        flicker = np.zeros(thermal.shape)
        flicker_rows = np.flatnonzero(h_minus1 > 0.0)
        if flicker_rows.size:
            fractional_frequency = np.sqrt(h_minus1[flicker_rows])[:, None] * pink
            fractional_frequency *= -self.nominal_period_s[flicker_rows, None]
            flicker[flicker_rows] = fractional_frequency
        return thermal, flicker

    def decompose(self, n_periods: int) -> BatchedJitterDecomposition:
        """Synthesize ``n_periods`` periods per instance, components separate."""
        thermal, flicker = self._components(n_periods)
        periods = self.nominal_period_s[:, None] + thermal
        periods += flicker
        return BatchedJitterDecomposition(
            periods_s=periods,
            thermal_jitter_s=thermal,
            flicker_jitter_s=flicker,
            nominal_period_s=self.nominal_period_s,
        )

    def periods(self, n_periods: int, n_blocks: int = 1) -> np.ndarray:
        """Next ``n_periods`` period durations per instance, ``(B, n)`` [s].

        With ``n_blocks = K`` the result is ``(B, K * n)``: bit-for-bit the
        concatenation of ``K`` consecutive ``periods(n_periods)`` calls
        (each ``n``-period block is synthesized exactly as its own call
        would), produced by one backend call.
        """
        thermal, flicker = self._components(n_periods, n_blocks)
        periods = thermal
        periods += self.nominal_period_s[:, None]
        periods += flicker
        return periods

    def jitter(self, n_periods: int) -> np.ndarray:
        """Next ``n_periods`` jitter values per instance, ``(B, n)`` [s].

        Identical (bit-for-bit) to ``decompose(n).jitter_s``: the components
        are accumulated in the same order, reusing the thermal buffer.
        """
        thermal, flicker = self._components(n_periods)
        jitter = thermal
        jitter += self.nominal_period_s[:, None]
        jitter += flicker
        jitter -= self.nominal_period_s[:, None]
        return jitter

    def edge_times(self, n_periods: int, start_time_s: float = 0.0) -> np.ndarray:
        """Rising-edge times per instance, ``(B, n_periods + 1)`` [s]."""
        periods = self.periods(n_periods)
        edges = np.empty((self._batch_size, n_periods + 1))
        edges[:, 0] = start_time_s
        np.cumsum(periods, axis=1, out=edges[:, 1:])
        edges[:, 1:] += start_time_s
        return edges

    def excess_phase(self, n_periods: int) -> np.ndarray:
        """Excess phase at each rising edge per instance, ``(B, n + 1)`` [rad]."""
        jitter = self.jitter(n_periods)
        phase = np.empty((self._batch_size, n_periods + 1))
        phase[:, 0] = 0.0
        np.cumsum(
            -jitter * (2.0 * np.pi) * self.f0_hz[:, None], axis=1, out=phase[:, 1:]
        )
        return phase


class BatchedOscillatorEnsemble:
    """``B`` ring oscillators simulated as one vectorized ensemble.

    The ensemble is the batched counterpart of
    :class:`repro.oscillator.ring.RingOscillator`: it synthesizes the period,
    jitter and edge-time records of every instance at once as ``(B, ...)``
    arrays.  Heterogeneous ensembles (per-instance ``f0`` and PSD — e.g. a
    technology-corner sweep) are supported by passing arrays/sequences.
    """

    def __init__(
        self,
        f0_hz,
        psds,
        batch_size: Optional[int] = None,
        n_stages: int = 3,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        seed: SeedLike = None,
        flicker_method: str = "spectral",
        backend: BackendLike = None,
        rng_contract: Optional[str] = None,
        name: str = "ensemble",
    ) -> None:
        if n_stages < 3:
            raise ValueError("a ring oscillator needs at least 3 stages")
        self.n_stages = int(n_stages)
        self.name = name
        self._synthesizer = BatchedJitterSynthesizer(
            f0_hz,
            psds,
            batch_size=batch_size,
            rngs=rngs,
            seed=seed,
            flicker_method=flicker_method,
            backend=backend,
            rng_contract=rng_contract,
        )

    @classmethod
    def from_phase_noise(
        cls,
        f0_hz,
        b_thermal_hz,
        b_flicker_hz2,
        batch_size: Optional[int] = None,
        n_stages: int = 3,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        seed: SeedLike = None,
        flicker_method: str = "spectral",
        backend: BackendLike = None,
        rng_contract: Optional[str] = None,
        name: str = "ensemble",
    ) -> "BatchedOscillatorEnsemble":
        """Ensemble from Eq. 10 coefficients (scalars or per-instance arrays)."""
        sizes = [
            np.size(value)
            for value in (f0_hz, b_thermal_hz, b_flicker_hz2)
            if np.ndim(value) == 1
        ]
        if batch_size is None:
            if sizes:
                batch_size = sizes[0]
            elif rngs is not None:
                batch_size = len(rngs)
            else:
                batch_size = 1
        b_thermal = _as_batched_array(b_thermal_hz, batch_size, "b_thermal_hz")
        b_flicker = _as_batched_array(b_flicker_hz2, batch_size, "b_flicker_hz2")
        psds = [
            PhaseNoisePSD(b_thermal_hz=bt, b_flicker_hz2=bf)
            for bt, bf in zip(b_thermal, b_flicker)
        ]
        return cls(
            f0_hz,
            psds,
            batch_size=batch_size,
            n_stages=n_stages,
            rngs=rngs,
            seed=seed,
            flicker_method=flicker_method,
            backend=backend,
            rng_contract=rng_contract,
            name=name,
        )

    # -- parameters ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of oscillator instances ``B``."""
        return self._synthesizer.batch_size

    @property
    def f0_hz(self) -> np.ndarray:
        """Nominal frequencies per instance, ``(B,)`` [Hz]."""
        return self._synthesizer.f0_hz

    @property
    def psds(self) -> List[PhaseNoisePSD]:
        """Per-instance phase-noise PSDs."""
        return list(self._synthesizer.psds)

    @property
    def nominal_period_s(self) -> np.ndarray:
        """Nominal periods per instance, ``(B,)`` [s]."""
        return self._synthesizer.nominal_period_s

    @property
    def thermal_jitter_std_s(self) -> np.ndarray:
        """Ground-truth thermal jitter std per instance, ``(B,)`` [s]."""
        return self._synthesizer.thermal_jitter_std_s

    @property
    def rngs(self) -> List[np.random.Generator]:
        """Per-instance RNG streams (consuming them advances the ensemble)."""
        return self._synthesizer.rngs

    @property
    def backend(self):
        """The :class:`~repro.engine.backends.SynthesisBackend` in use."""
        return self._synthesizer.backend

    def use_backend(self, backend: BackendLike) -> None:
        """Re-bind the synthesis backend (never changes output — see
        :meth:`BatchedJitterSynthesizer.use_backend`)."""
        self._synthesizer.use_backend(backend)

    # -- synthesis -----------------------------------------------------------

    def decompose(self, n_periods: int) -> BatchedJitterDecomposition:
        """Synthesize with the thermal/flicker ground-truth split, ``(B, n)``."""
        return self._synthesizer.decompose(n_periods)

    def periods(self, n_periods: int, n_blocks: int = 1) -> np.ndarray:
        """Next ``n_periods`` period durations per instance, ``(B, n)`` [s]
        (``(B, n_blocks * n)`` for a multi-block call — see
        :meth:`BatchedJitterSynthesizer.periods`)."""
        return self._synthesizer.periods(n_periods, n_blocks)

    def jitter(self, n_periods: int) -> np.ndarray:
        """Next ``n_periods`` jitter values per instance, ``(B, n)`` [s]."""
        return self._synthesizer.jitter(n_periods)

    def edge_times(self, n_periods: int, start_time_s: float = 0.0) -> np.ndarray:
        """Rising-edge times per instance, ``(B, n_periods + 1)`` [s]."""
        return self._synthesizer.edge_times(n_periods, start_time_s=start_time_s)

    def row(self, index: int):
        """A scalar :class:`~repro.oscillator.ring.RingOscillator` view of row ``index``.

        The returned oscillator *shares* the row's RNG stream: generating
        periods from it advances the same stream the ensemble row uses, which
        is exactly what makes interleaved scalar/batched use reproducible.
        """
        from ..oscillator.ring import RingOscillator

        if not 0 <= index < self.batch_size:
            raise IndexError(f"row {index} out of range for batch {self.batch_size}")
        return RingOscillator(
            f0_hz=float(self.f0_hz[index]),
            psd=self._synthesizer.psds[index],
            n_stages=self.n_stages,
            rng=self._synthesizer.rngs[index],
            flicker_method=self._synthesizer.flicker_method,
            name=f"{self.name}[{index}]",
        )

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:
        f0 = self.f0_hz
        return (
            f"BatchedOscillatorEnsemble(name={self.name!r}, B={self.batch_size}, "
            f"f0=[{f0.min():.4g}..{f0.max():.4g}] Hz, stages={self.n_stages})"
        )
