"""Batched TRNG bit pipeline: ensemble D-flip-flop sampling, ``(B, n)`` bits.

This module is the bit-level counterpart of :mod:`repro.engine.batch`: where
the batch engine synthesizes ``(B, n_periods)`` jitter records, this one turns
them into ``(B, n_bits)`` raw-bit records.  A :class:`BatchedDFlipFlopSampler`
samples ``B`` jittery oscillators on the divided edges of ``B`` sampling
clocks at once, and a :class:`BatchedEROTRNG` wires two
:class:`~repro.engine.batch.BatchedOscillatorEnsemble` halves into a whole
ensemble of elementary RO-TRNGs (Fig. 4 of the paper) that generate bits per
ensemble instead of per instance.

Streaming contract
------------------
The sampler is *stateful*: consecutive ``sample`` calls continue both clock
timelines, so the concatenation of chunked calls is **bit-for-bit identical**
to one monolithic call.  This is what makes
:func:`repro.engine.streaming.stream_bits` chunk-invariant.  Internally both
clocks are advanced in fixed-size synthesis blocks
(``synthesis_block_periods``), with partial blocks buffered:

* the block grid never moves with the requested chunk size, so the
  floating-point edge times (block-wise cumulative sums) are identical for
  any chunking;
* the sampled-oscillator edge buffer is drawn on demand and trimmed after
  each step, so peak memory is ``O(max(batch * block, budget))`` regardless
  of the requested number of bits — the one-shot scalar sampler used to
  materialize the full ``O(n_bits * divider)`` edge record.

A sampling step may synthesize several grid blocks in one backend call
(``periods(block, n_blocks)``, bit-for-bit the same blocks one at a time
would give), up to a fixed row-period budget per call.  The step size never
changes which blocks are drawn — each clock draws exactly the blocks the
block-at-a-time loop would, never more — only how many engine calls it
takes.

Reproducibility contract
------------------------
One spawned RNG stream per instance (the engine's seeding discipline): a
:class:`BatchedEROTRNG` spawns one child stream per instance and each
instance spawns one sub-stream per oscillator, so batched row ``i`` is
bit-for-bit the scalar :class:`repro.trng.ero_trng.EROTRNG` built from the
same child generator.  The scalar TRNG and the scalar
:class:`repro.trng.digitizer.DFlipFlopSampler` are thin ``B = 1`` views over
this kernel; ``tests/engine/test_bit_equivalence.py`` verifies the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .backends import BackendLike, resolve_backend
from .batch import (
    BatchedJitterSynthesizer,
    BatchedOscillatorEnsemble,
    SeedLike,
    spawn_generators,
)

#: Row-period budget of one multi-block synthesis call.  A sampling step
#: draws up to ``max(1, _MULTIBLOCK_BUDGET // (B * block))`` grid blocks per
#: backend call: small batches amortize the fixed per-call cost over many
#: blocks, while a call already at ``B * block >= budget`` keeps the
#: block-at-a-time loop.  Peak memory stays ``O(max(B * block, budget))``.
#: Measured on the HTTP/WebSocket serving workload: budgets from 2**13 up
#: raised the server's peak RSS by ~3 MB over 2**12 (their FFT buffers
#: reach glibc's 128 KiB mmap threshold, so freed buffers stay resident in
#: per-thread malloc arenas), for a session-read gain within noise.
_MULTIBLOCK_BUDGET = 2**12

#: Sources whose ``periods(n, n_blocks)`` synthesizes consecutive blocks in
#: one call; any other source (scalar clocks) is drawn one block at a time.
_MULTIBLOCK_SOURCES = (BatchedOscillatorEnsemble, BatchedJitterSynthesizer)


def _row_searchsorted_right(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise ``searchsorted(rows[b], values[b], side="right")`` for all rows.

    Both inputs are ``(B, ...)`` arrays whose rows are sorted ascending.  The
    batched path runs one vectorized binary search over all ``B * m`` queries
    at once (``ceil(log2(n))`` compare-and-gather sweeps); every comparison is
    between original float values — no offset or rescaling trick that could
    round — so the integer indices are exactly the ones the scalar
    ``np.searchsorted`` produces per row.
    """
    batch, n = rows.shape
    if batch == 1:
        return np.searchsorted(rows[0], values[0], side="right")[None, :]
    row_index = np.arange(batch)[:, None]
    low = np.zeros(values.shape, dtype=np.int64)
    high = np.full(values.shape, n, dtype=np.int64)
    for _ in range(max(n.bit_length(), 1)):
        gap = high - low
        middle = low + (gap >> 1)
        pivot = rows[row_index, np.minimum(middle, n - 1)]
        go_right = (pivot <= values) & (gap > 0)
        low = np.where(go_right, middle + 1, low)
        high = np.where(go_right, high, middle)
    return low


def square_wave_level_batch(
    sample_times_s: np.ndarray,
    rising_edge_times_s: np.ndarray,
    duty_cycle: float = 0.5,
) -> np.ndarray:
    """Logic levels of ``B`` square waves at ``B`` rows of sample times.

    The batched counterpart of :func:`repro.trng.digitizer.square_wave_level`:
    ``sample_times_s`` and ``rising_edge_times_s`` are ``(B, m)`` / ``(B, n)``
    arrays and the result is a ``(B, m)`` array of 0/1 levels; row ``b`` is
    bit-for-bit what the scalar function returns for
    ``(sample_times_s[b], rising_edge_times_s[b])``.

    Parameters are validated before any computation: the duty cycle must lie
    in ``(0, 1)``, every edge row must be strictly increasing (a precise
    error, not a span failure, is raised for unsorted edges), and every
    sample must fall inside its row's edge span.
    """
    if not 0.0 < duty_cycle < 1.0:
        raise ValueError("duty cycle must be in (0, 1)")
    samples = np.asarray(sample_times_s, dtype=float)
    edges = np.asarray(rising_edge_times_s, dtype=float)
    if samples.ndim != 2 or edges.ndim != 2:
        raise ValueError("sample times and edges must be (B, m) and (B, n) arrays")
    if samples.shape[0] != edges.shape[0]:
        raise ValueError(
            f"batch mismatch: {samples.shape[0]} sample rows vs "
            f"{edges.shape[0]} edge rows"
        )
    if edges.shape[1] < 2:
        raise ValueError("need at least two rising edges")
    if np.any(np.diff(edges, axis=1) <= 0.0):
        raise ValueError(
            "rising-edge times must be strictly increasing within each row "
            "(unsorted or duplicate edges)"
        )
    if np.any(samples < edges[:, :1]) or np.any(samples >= edges[:, -1:]):
        raise ValueError("sample times must fall within the span of the edges")
    # Each query is an independent binary search, so sample rows may come in
    # any order.
    return _levels(samples, edges, duty_cycle)


def _levels(
    samples: np.ndarray, edges: np.ndarray, duty_cycle: float
) -> np.ndarray:
    """Unchecked level kernel: sorted sample rows, sorted covering edge rows."""
    indices = _row_searchsorted_right(edges, samples) - 1
    row_index = np.arange(edges.shape[0])[:, None]
    period_start = edges[row_index, indices]
    period_length = edges[row_index, indices + 1] - period_start
    phase_fraction = (samples - period_start) / period_length
    return (phase_fraction < duty_cycle).astype(np.int8)


class _ClockRows:
    """``B = 1`` row view of a scalar :class:`repro.oscillator.period_model.Clock`."""

    batch_size = 1

    def __init__(self, clock) -> None:
        self._clock = clock

    @property
    def f0_hz(self) -> np.ndarray:
        return np.array([float(self._clock.f0_hz)])

    def periods(self, n_periods: int) -> np.ndarray:
        return np.asarray(self._clock.periods(n_periods), dtype=float)[None, :]


def _as_rows(source):
    """Pass batched sources through; wrap scalar clocks as one-row sources."""
    if hasattr(source, "batch_size"):
        return source
    return _ClockRows(source)


@dataclass(frozen=True)
class BatchedSamplingResult:
    """Bits of one batched sampling run, with the timing behind them.

    ``bits`` and ``sample_times_s`` are ``(B, n_bits)`` arrays; the frequency
    attributes are ``(B,)`` arrays (``sampling_frequency_hz`` is the divided,
    i.e. effective, sampling frequency).
    """

    bits: np.ndarray
    sample_times_s: np.ndarray
    sampled_frequency_hz: np.ndarray
    sampling_frequency_hz: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of instances ``B``."""
        return int(self.bits.shape[0])

    @property
    def n_bits(self) -> int:
        """Number of sampled bits per instance."""
        return int(self.bits.shape[1])

    @property
    def accumulation_ratio(self) -> np.ndarray:
        """Sampled-oscillator periods between two samples, per instance ``(B,)``."""
        return self.sampled_frequency_hz / self.sampling_frequency_hz

    def row(self, index: int):
        """The scalar :class:`repro.trng.digitizer.SamplingResult` of row ``index``."""
        from ..trng.digitizer import SamplingResult

        return SamplingResult(
            bits=self.bits[index],
            sample_times_s=self.sample_times_s[index],
            sampled_frequency_hz=float(self.sampled_frequency_hz[index]),
            sampling_frequency_hz=float(self.sampling_frequency_hz[index]),
        )


class BatchedDFlipFlopSampler:
    """D flip-flop sampling of ``B`` jittery oscillators by ``B`` divided clocks.

    Parameters
    ----------
    sampled_source:
        The fast oscillators on the D inputs: a
        :class:`~repro.engine.batch.BatchedOscillatorEnsemble` (or anything
        with ``batch_size`` / ``f0_hz`` / ``periods``), or a scalar
        :class:`~repro.oscillator.period_model.Clock` (treated as ``B = 1``).
    sampling_source:
        The clocks on the flip-flop clock inputs (same batch size).
    divider:
        Integer divider ``D``: one sample every ``D`` sampling-clock periods.
    duty_cycle:
        Duty cycle of the sampled waveforms.
    synthesis_block_periods:
        Internal synthesis block length (periods).  Both clocks advance on a
        fixed grid of this many periods, which is what makes chunked
        ``sample`` calls bit-for-bit identical to monolithic ones; the grid
        is set by this parameter only.  The default ``max(8192, 2 *
        divider)`` guarantees at least two samples per block.  Batched
        sources synthesize several grid blocks per backend call (up to a
        fixed row-period budget), so peak memory is ``O(max(batch * block,
        budget))``; scalar clocks are drawn one block per call.
    backend:
        Optional synthesis backend re-bound onto both sources (sources that
        expose ``use_backend``, i.e. the batched ensembles/synthesizers).
        Backend choice never changes the sampled bits.
    """

    def __init__(
        self,
        sampled_source,
        sampling_source,
        divider: int = 1,
        duty_cycle: float = 0.5,
        synthesis_block_periods: Optional[int] = None,
        backend: BackendLike = None,
    ) -> None:
        if divider < 1:
            raise ValueError("divider must be >= 1")
        if not 0.0 < duty_cycle < 1.0:
            raise ValueError("duty cycle must be in (0, 1)")
        self.sampled_source = _as_rows(sampled_source)
        self.sampling_source = _as_rows(sampling_source)
        if backend is not None:
            # Resolve once so both sources share one backend instance (one
            # thread pool), even when a spec string is passed.
            backend = resolve_backend(backend)
            for source in (self.sampled_source, self.sampling_source):
                if hasattr(source, "use_backend"):
                    source.use_backend(backend)
        batch = int(self.sampled_source.batch_size)
        if int(self.sampling_source.batch_size) != batch:
            raise ValueError(
                f"batch mismatch: {batch} sampled oscillators vs "
                f"{self.sampling_source.batch_size} sampling clocks"
            )
        self.divider = int(divider)
        self.duty_cycle = float(duty_cycle)
        if synthesis_block_periods is None:
            synthesis_block_periods = max(8192, 2 * self.divider)
        if synthesis_block_periods < 1:
            raise ValueError("synthesis_block_periods must be >= 1")
        self._block = int(synthesis_block_periods)
        self._batch_size = batch
        # Grid blocks per backend call; 1 is the block-at-a-time loop.
        self._blocks_per_call = 1
        if all(
            isinstance(source, _MULTIBLOCK_SOURCES)
            for source in (self.sampled_source, self.sampling_source)
        ):
            self._blocks_per_call = max(
                1, _MULTIBLOCK_BUDGET // (batch * self._block)
            )
        # Sampling-clock state: last edge time, global period count, and the
        # divider-th edges drawn but not yet consumed as sample times.
        self._sampling_last_edge_s = np.zeros(batch)
        self._sampling_period_count = 0
        self._pending_sample_times = np.empty((batch, 0))
        # Sampled-oscillator state: a rolling edge buffer whose first edge is
        # at or before every not-yet-sampled time (it starts at t = 0).
        self._oscillator_edges = np.zeros((batch, 1))
        self._oscillator_last_edge_s = np.zeros(batch)

    @property
    def batch_size(self) -> int:
        """Number of sampler instances ``B``."""
        return self._batch_size

    @property
    def effective_sampling_frequency_hz(self) -> np.ndarray:
        """Sampling frequency after division, per instance ``(B,)`` [Hz]."""
        return np.asarray(self.sampling_source.f0_hz, dtype=float) / self.divider

    # -- streaming internals -------------------------------------------------

    def _draw_edges(self, source, last_edge_s: np.ndarray, n_blocks: int):
        """Edge times of the next ``n_blocks`` grid blocks of ``source``.

        Each block's edges are its own cumulative sum offset by the block
        start, and each block starts at the previous block's last edge —
        the float operations of drawing the blocks one at a time, so the
        edges are identical however many blocks one call draws.
        """
        block = self._block
        if n_blocks == 1:
            return last_edge_s[:, None] + np.cumsum(source.periods(block), axis=1)
        periods = source.periods(block, n_blocks)
        sums = np.cumsum(periods.reshape(self._batch_size, n_blocks, block), axis=2)
        # Block starts: a sequential running sum of the carried last edge and
        # each block's total, i.e. start[k] = start[k-1] + sums[k-1, -1].
        starts = np.cumsum(
            np.concatenate((last_edge_s[:, None], sums[:, :-1, -1]), axis=1), axis=1
        )
        sums += starts[:, :, None]
        return sums.reshape(self._batch_size, n_blocks * block)

    def _next_sample_times(self, n_samples: int) -> np.ndarray:
        """The next ``n_samples`` sample times per row, advancing the clocks.

        Sample ``j`` of the stream (1-based) is sampling-clock edge ``j * D``,
        so the number of grid blocks still needed is known exactly.
        """
        pending = [self._pending_sample_times]
        available = self._pending_sample_times.shape[1]
        count = self._sampling_period_count
        consumed = count // self.divider - available
        missing = (consumed + n_samples) * self.divider - count
        blocks_needed = -(-missing // self._block) if missing > 0 else 0
        while blocks_needed > 0:
            n_blocks = min(blocks_needed, self._blocks_per_call)
            edges = self._draw_edges(
                self.sampling_source, self._sampling_last_edge_s, n_blocks
            )
            self._sampling_last_edge_s = edges[:, -1].copy()
            first_global_index = self._sampling_period_count + 1
            self._sampling_period_count += n_blocks * self._block
            offset = (-first_global_index) % self.divider
            pending.append(edges[:, offset :: self.divider])
            blocks_needed -= n_blocks
        buffer = np.concatenate(pending, axis=1)
        self._pending_sample_times = buffer[:, n_samples:]
        return buffer[:, :n_samples]

    def _extend_coverage(self, last_sample_s: np.ndarray) -> None:
        """Draw oscillator blocks until every row's record covers its samples.

        Multi-block calls first draw one block fewer than the nominal
        frequency says the widest gap needs, then finish one block at a
        time.  The one-at-a-time loop would draw those blocks too unless the
        rings ran a whole block of periods ahead of nominal over the gap,
        so the same blocks are drawn, never more.
        """
        chunks = [self._oscillator_edges]
        last = self._oscillator_last_edge_s
        f0 = np.asarray(self.sampled_source.f0_hz, dtype=float)
        while np.any(last <= last_sample_s):
            n_blocks = 1
            if self._blocks_per_call > 1:
                gap_blocks = np.max((last_sample_s - last) * f0) / self._block
                n_blocks = min(
                    self._blocks_per_call, max(1, int(np.ceil(gap_blocks)) - 1)
                )
            edges = self._draw_edges(self.sampled_source, last, n_blocks)
            chunks.append(edges)
            last = edges[:, -1].copy()
        self._oscillator_last_edge_s = last
        if len(chunks) > 1:
            self._oscillator_edges = np.concatenate(chunks, axis=1)

    def _trim_consumed(self, last_sample_s: np.ndarray) -> None:
        """Drop edges no future sample can need (keep each row's bracket edge)."""
        brackets = _row_searchsorted_right(
            self._oscillator_edges, last_sample_s[:, None]
        )
        keep_from = int(np.min(brackets)) - 1
        if keep_from > 0:
            self._oscillator_edges = self._oscillator_edges[:, keep_from:]

    # -- sampling ------------------------------------------------------------

    def sample(self, n_bits: int) -> BatchedSamplingResult:
        """Produce the next ``n_bits`` raw bits per instance, ``(B, n_bits)``.

        Consecutive calls continue the clock timelines: ``sample(a)`` followed
        by ``sample(b)`` yields exactly the bits of ``sample(a + b)``.
        """
        if n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        batch = self._batch_size
        bits = np.empty((batch, n_bits), dtype=np.int8)
        times = np.empty((batch, n_bits))
        step_bits = max(self._blocks_per_call * self._block // self.divider, 1)
        produced = 0
        while produced < n_bits:
            step = min(n_bits - produced, step_bits)
            step_times = self._next_sample_times(step)
            self._extend_coverage(step_times[:, -1])
            bits[:, produced : produced + step] = _levels(
                step_times, self._oscillator_edges, self.duty_cycle
            )
            times[:, produced : produced + step] = step_times
            self._trim_consumed(step_times[:, -1])
            produced += step
        return BatchedSamplingResult(
            bits=bits,
            sample_times_s=times,
            sampled_frequency_hz=np.asarray(self.sampled_source.f0_hz, dtype=float),
            sampling_frequency_hz=self.effective_sampling_frequency_hz,
        )


class BatchedEROTRNG:
    """An ensemble of ``B`` elementary RO-TRNGs generating bits in one pass.

    Each instance owns one spawned RNG stream (the engine's seeding
    discipline) and splits it into one sub-stream per ring oscillator, so the
    two rings of an instance are independent and batched row ``i`` is
    bit-for-bit the scalar :class:`repro.trng.ero_trng.EROTRNG` built from
    the same per-instance generator.

    Parameters
    ----------
    configuration:
        The shared :class:`repro.trng.ero_trng.EROTRNGConfiguration` (design
        parameters: ``f0``, per-oscillator PSD, divider, mismatch).
    batch_size:
        Number of TRNG instances ``B``.
    rngs:
        Per-instance parent generators (length ``B``); takes precedence over
        ``seed``.
    seed:
        Seed (or parent generator) from which the per-instance streams are
        spawned via :func:`repro.engine.batch.spawn_generators`.
    postprocessor:
        Optional per-row post-processing callable (applied row by row, since
        decimating post-processors produce ragged row lengths).
    synthesis_block_periods:
        Internal synthesis block length of the sampler (see
        :class:`BatchedDFlipFlopSampler`).  The default suits long
        campaign-style records; short-request workloads (the serving layer)
        pass a smaller block so a few output bits do not cost thousands of
        synthesized periods.  Bits are a deterministic function of
        (streams, configuration, block size): chunked calls never depend on
        chunking, but changing the block changes the edge-time grid.
    backend:
        Synthesis backend for both ring-oscillator ensembles (instance, spec
        string or ``None`` for the ``REPRO_BACKEND``/``auto`` default).
        Backend choice never changes the generated bits.
    rng_contract:
        Stream contract the ``seed`` path derives under (``"spawn"`` |
        ``"philox"`` | ``None`` for the process default; see
        :mod:`repro.engine.rng`).  Ignored when ``rngs`` is given.
    """

    def __init__(
        self,
        configuration,
        batch_size: Optional[int] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        seed: SeedLike = None,
        postprocessor=None,
        flicker_method: str = "spectral",
        synthesis_block_periods: Optional[int] = None,
        backend: BackendLike = None,
        rng_contract: Optional[str] = None,
    ) -> None:
        self.configuration = configuration
        if batch_size is None:
            batch_size = len(rngs) if rngs is not None else 1
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if rngs is not None:
            parents = list(rngs)
            if len(parents) != batch_size:
                raise ValueError(
                    f"need {batch_size} generators, got {len(parents)}"
                )
        else:
            parents = spawn_generators(seed, batch_size, rng_contract=rng_contract)
        # Resolve the backend once (honouring the REPRO_BACKEND default) so
        # both ring ensembles share one instance — one thread pool, not two.
        backend = resolve_backend(backend)
        streams = [parent.spawn(2) for parent in parents]
        mismatch = configuration.frequency_mismatch
        psd = configuration.oscillator_psd
        self.postprocessor = postprocessor
        self.sampled_ensemble = BatchedOscillatorEnsemble(
            configuration.f0_hz * (1.0 + mismatch / 2.0),
            psd,
            batch_size=batch_size,
            rngs=[pair[0] for pair in streams],
            flicker_method=flicker_method,
            backend=backend,
            name="sampled",
        )
        self.sampling_ensemble = BatchedOscillatorEnsemble(
            configuration.f0_hz * (1.0 - mismatch / 2.0),
            psd,
            batch_size=batch_size,
            rngs=[pair[1] for pair in streams],
            flicker_method=flicker_method,
            backend=backend,
            name="sampling",
        )
        self._sampler = BatchedDFlipFlopSampler(
            self.sampled_ensemble,
            self.sampling_ensemble,
            divider=configuration.divider,
            synthesis_block_periods=synthesis_block_periods,
        )

    @property
    def batch_size(self) -> int:
        """Number of TRNG instances ``B``."""
        return self._sampler.batch_size

    @property
    def divider(self) -> int:
        """Accumulation length ``D`` (sampling-oscillator periods per bit)."""
        return int(self.configuration.divider)

    @property
    def backend(self):
        """The synthesis backend both ring ensembles run on."""
        return self.sampled_ensemble.backend

    def use_backend(self, backend: BackendLike) -> None:
        """Re-bind the synthesis backend of both ring ensembles.

        A pure execution-strategy change: the generated bit stream is
        bit-for-bit unaffected.  Spec strings resolve once, so both
        ensembles share the resulting instance.
        """
        backend = resolve_backend(backend)
        self.sampled_ensemble.use_backend(backend)
        self.sampling_ensemble.use_backend(backend)

    @property
    def output_bit_rate_hz(self) -> np.ndarray:
        """Raw bit rate before post-processing, per instance ``(B,)`` [bit/s]."""
        return self._sampler.effective_sampling_frequency_hz

    def generate_raw(self, n_bits: int) -> BatchedSamplingResult:
        """Next ``n_bits`` raw bits per instance, with their sampling times.

        Streaming semantics: consecutive calls continue the bit stream (the
        concatenation over calls is independent of how it was chunked).
        """
        return self._sampler.sample(n_bits)

    def generate(self, n_bits: int) -> Union[np.ndarray, List[np.ndarray]]:
        """Next ``n_bits`` raw bits per instance, post-processed if configured.

        Without a post-processor this returns the raw ``(B, n_bits)`` array;
        with one it returns a list of ``B`` per-row arrays, because a
        decimating post-processor produces a different length per row.  Use
        :meth:`generate_exact` for a rectangular post-processed block.
        """
        raw = self.generate_raw(n_bits).bits
        if self.postprocessor is None:
            return raw
        return [self.postprocessor(row) for row in raw]

    def generate_exact(
        self, n_bits: int, chunk_bits: Optional[int] = None
    ) -> np.ndarray:
        """Exactly ``n_bits`` post-processed bits per instance, ``(B, n_bits)``."""
        from .streaming import generate_bits_exact

        return generate_bits_exact(self, n_bits, chunk_bits=chunk_bits)

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:
        return (
            f"BatchedEROTRNG(B={self.batch_size}, "
            f"f0={self.configuration.f0_hz:.4g} Hz, D={self.divider})"
        )
