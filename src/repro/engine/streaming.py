"""Streaming (chunked) campaigns: O(chunk) memory for arbitrarily long records.

The one-shot estimators in :mod:`repro.core.sigma_n` hold the whole jitter
record in memory, which caps a sigma^2_N campaign at a few 10^7 periods.  This
module provides:

* :class:`StreamingSigma2NEstimator` — an online accumulator of the
  mean-of-squares sigma^2_N estimator over a sweep of ``N``, fed with
  consecutive chunks of a (batched) jitter record.  It keeps only a
  ``2 N_max - 1``-sample tail between chunks, so memory is
  ``O(batch * (chunk + N_max))`` regardless of the total record length, while
  *every* overlapping (or disjoint) window of the underlying record is still
  counted exactly once — including the windows that span chunk boundaries.
* :func:`streaming_accumulated_variance_curves` — a chunked drop-in for
  :func:`repro.core.sigma_n.accumulated_variance_curves` that synthesizes the
  record chunk by chunk from an ensemble/synthesizer/oscillator.
* :func:`stream_bits` / :func:`generate_bits_exact` — chunked TRNG bit
  generation for scalar and batched TRNGs.  Since the batched bit pipeline
  (:mod:`repro.engine.bits`) the generators themselves stream in fixed
  synthesis blocks, so raw chunked generation is *bit-for-bit independent*
  of the chunk size and peak memory is bounded by the synthesis block, not
  by ``O(n_bits * divider)``.

Statistical caveat for *generated* streams: the phase-noise synthesizer draws
statistically independent stretches on every call, so a chunked synthesis
truncates flicker correlations at the chunk length.  Choose
``chunk_periods >> max(n_sweep)`` (the estimator enforces a 4x margin by
default) so the sigma^2_N points are unaffected; a chunked campaign then
matches the one-shot campaign within the estimator's statistical scatter.
When the estimator is fed chunks of an *existing* record, the window set is
identical to the one-shot estimator and results agree to floating-point
accuracy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.sigma_n import (
    AccumulatedVarianceCurve,
    AccumulatedVariancePoint,
    default_n_sweep,
    sum_of_squares,
)


class StreamingSigma2NEstimator:
    """Online mean-of-squares estimator of ``sigma^2_N`` over a sweep of ``N``.

    Feed consecutive chunks of one (or ``B`` parallel) jitter records with
    :meth:`update`; read the accumulated curves with :meth:`curves`.  Windows
    spanning chunk boundaries are recovered from a retained tail of
    ``2 N_max - 1`` samples, so the set of counted ``s_N`` windows is exactly
    the set the one-shot estimator uses on the concatenated record.

    Parameters
    ----------
    n_sweep:
        Accumulation lengths ``N`` to track.
    batch_size:
        Number of parallel records ``B`` (rows of the chunks).
    overlapping:
        When True every window start is used; when False only starts at
        multiples of ``2N`` (the one-shot disjoint-window semantics).
    """

    def __init__(
        self,
        n_sweep: Sequence[int],
        batch_size: int = 1,
        overlapping: bool = True,
    ) -> None:
        sweep = sorted({int(n) for n in n_sweep})
        if not sweep:
            raise ValueError("n_sweep must contain at least one N")
        if sweep[0] < 1:
            raise ValueError(f"N must be >= 1, got {sweep[0]!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.n_sweep = sweep
        self.batch_size = int(batch_size)
        self.overlapping = bool(overlapping)
        self._max_n = sweep[-1]
        self._tail = np.empty((self.batch_size, 0))
        self._tail_start = 0  # global index of the first tail sample
        self._n_samples = 0  # total samples seen per record
        self._sum_sq = {n: np.zeros(self.batch_size) for n in sweep}
        self._counts = {n: 0 for n in sweep}
        self._next_start = {n: 0 for n in sweep}  # next uncounted window start

    @property
    def n_samples_seen(self) -> int:
        """Total samples consumed per record so far."""
        return self._n_samples

    def update(self, chunk: np.ndarray) -> None:
        """Consume the next chunk (``(B, m)`` array, or ``(m,)`` when B = 1)."""
        data = np.asarray(chunk, dtype=float)
        if data.ndim == 1:
            data = data[None, :]
        if data.ndim != 2 or data.shape[0] != self.batch_size:
            raise ValueError(
                f"chunk must have shape ({self.batch_size}, m), got {data.shape}"
            )
        if data.shape[1] == 0:
            return
        tail_length = self._tail.shape[1]
        buffer_start = self._tail_start
        length = tail_length + data.shape[1]
        # One row at a time, as batched_sigma2_n_sweep: the row's samples and
        # cumulative sums go into reused (length,) / (length + 1,) buffers, its
        # block differences into reused (length,) ones, through per-N views
        # built once per chunk.
        row_buffer = np.empty(length)
        cumulative = np.zeros(length + 1)
        s_n_buffer, first_buffer = np.empty((2, length))
        views = []
        for n in self.n_sweep:
            window = 2 * n
            last_start = buffer_start + length - window  # global, inclusive
            start = self._next_start[n]
            if not self.overlapping:
                # Disjoint windows begin at global multiples of 2N.
                start = -(-start // window) * window
            if last_start < start:
                continue
            lo = start - buffer_start
            stride = window if not self.overlapping else 1
            c0 = cumulative[lo : length - window + 1 : stride]
            c1 = cumulative[lo + n : length - n + 1 : stride]
            c2 = cumulative[lo + window : length + 1 : stride]
            m = c0.size
            views.append(
                (self._sum_sq[n], c0, c1, c2, s_n_buffer[:m], first_buffer[:m])
            )
            self._counts[n] += m
            self._next_start[n] = (
                start + stride * m if not self.overlapping else last_start + 1
            )
        keep = min(length, 2 * self._max_n - 1)
        tail = np.empty((self.batch_size, keep))
        for row in range(self.batch_size):
            row_buffer[:tail_length] = self._tail[row]
            row_buffer[tail_length:] = data[row]
            np.cumsum(row_buffer, out=cumulative[1:])
            for sum_sq, c0, c1, c2, s_n, first_block in views:
                np.subtract(c2, c1, out=s_n)
                np.subtract(c1, c0, out=first_block)
                np.subtract(s_n, first_block, out=s_n)
                sum_sq[row] += sum_of_squares(s_n)
            tail[row] = row_buffer[length - keep :]
        self._n_samples += data.shape[1]
        self._tail = tail
        self._tail_start = buffer_start + length - keep

    def export_state(self) -> Dict[str, np.ndarray]:
        """Snapshot of the accumulator as plain arrays (picklable, ``.npz``-able).

        The state is complete: :meth:`from_state` reconstructs an estimator
        that continues accumulating (the boundary tail is included), and
        :meth:`merge_rows` combines states of disjoint row-shards.  Array
        layout: ``sum_sq`` is ``(P, B)`` with one row per sweep ``N`` (in
        ``n_sweep`` order); ``counts``/``next_start`` are ``(P,)``.
        """
        sweep = self.n_sweep
        return {
            "n_sweep": np.array(sweep, dtype=np.int64),
            "overlapping": np.array(self.overlapping),
            "n_samples": np.array(self._n_samples, dtype=np.int64),
            "sum_sq": np.stack([self._sum_sq[n] for n in sweep]),
            "counts": np.array([self._counts[n] for n in sweep], dtype=np.int64),
            "next_start": np.array(
                [self._next_start[n] for n in sweep], dtype=np.int64
            ),
            "tail": self._tail.copy(),
            "tail_start": np.array(self._tail_start, dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state) -> "StreamingSigma2NEstimator":
        """Reconstruct an estimator from an :meth:`export_state` snapshot."""
        sum_sq = np.asarray(state["sum_sq"], dtype=float)
        estimator = cls(
            [int(n) for n in np.asarray(state["n_sweep"])],
            batch_size=int(sum_sq.shape[1]),
            overlapping=bool(np.asarray(state["overlapping"])),
        )
        estimator._n_samples = int(np.asarray(state["n_samples"]))
        counts = np.asarray(state["counts"])
        next_start = np.asarray(state["next_start"])
        for index, n in enumerate(estimator.n_sweep):
            estimator._sum_sq[n] = sum_sq[index].copy()
            estimator._counts[n] = int(counts[index])
            estimator._next_start[n] = int(next_start[index])
        estimator._tail = np.asarray(state["tail"], dtype=float).copy()
        estimator._tail_start = int(np.asarray(state["tail_start"]))
        return estimator

    @classmethod
    def merge_rows(
        cls, estimators: Sequence["StreamingSigma2NEstimator"]
    ) -> "StreamingSigma2NEstimator":
        """Merge estimators that consumed disjoint *row-shards* of one record set.

        Every estimator must have seen the same scalar timeline (same sweep,
        overlap mode, sample count and window bookkeeping — which is exactly
        what row-range shards of one campaign produce); the merged estimator
        holds the concatenated rows, in argument order, and is
        indistinguishable from one estimator fed the stacked records.  Memory
        stays ``O(P x B_total + B_total x N_max)`` — no record is revisited.
        """
        estimators = list(estimators)
        if not estimators:
            raise ValueError("need at least one estimator to merge")
        first = estimators[0]
        for other in estimators[1:]:
            if other.n_sweep != first.n_sweep:
                raise ValueError("estimators disagree on the N sweep")
            if other.overlapping != first.overlapping:
                raise ValueError("estimators disagree on the overlap mode")
            if other._n_samples != first._n_samples:
                raise ValueError(
                    "estimators consumed different record lengths: "
                    f"{first._n_samples} vs {other._n_samples} samples"
                )
            if other._counts != first._counts:
                raise ValueError("estimators disagree on window counts")
            if other._next_start != first._next_start:
                raise ValueError("estimators disagree on window bookkeeping")
            if other._tail_start != first._tail_start:
                raise ValueError("estimators disagree on the retained tail")
        merged = cls(
            first.n_sweep,
            batch_size=sum(e.batch_size for e in estimators),
            overlapping=first.overlapping,
        )
        merged._n_samples = first._n_samples
        for n in first.n_sweep:
            merged._sum_sq[n] = np.concatenate([e._sum_sq[n] for e in estimators])
            merged._counts[n] = first._counts[n]
            merged._next_start[n] = first._next_start[n]
        merged._tail = np.concatenate([e._tail for e in estimators], axis=0)
        merged._tail_start = first._tail_start
        return merged

    def curves(
        self, f0_hz, min_realizations: int = 8
    ) -> List[AccumulatedVarianceCurve]:
        """Curves accumulated so far (one per record row).

        Sweep points with fewer than two realizations, or fewer than
        ``min_realizations`` effectively independent windows, are skipped —
        the same rule as the one-shot estimators.
        """
        f0 = np.asarray(f0_hz, dtype=float)
        if f0.ndim == 0:
            f0 = np.full(self.batch_size, float(f0))
        if f0.shape != (self.batch_size,):
            raise ValueError(
                f"f0_hz must be a scalar or shape ({self.batch_size},) array"
            )
        usable = []
        for n in self.n_sweep:
            count = self._counts[n]
            effective = (
                self._n_samples // (2 * n) if self.overlapping else count
            )
            if count < 2 or effective < min_realizations:
                continue
            usable.append((n, self._sum_sq[n] / count, count))
        if not usable:
            raise ValueError("record too short to estimate any sigma^2_N point")
        curves = []
        for row in range(self.batch_size):
            points = [
                AccumulatedVariancePoint(
                    n_accumulations=n,
                    sigma2_n_s2=float(sigma2[row]),
                    n_realizations=count,
                )
                for n, sigma2, count in usable
            ]
            curves.append(
                AccumulatedVarianceCurve(points=points, f0_hz=float(f0[row]))
            )
        return curves


def _source_batch_size(source) -> int:
    """Batch size of a jitter source (1 for scalar oscillators/synthesizers)."""
    return int(getattr(source, "batch_size", 1))


def streaming_sigma2_n_estimator(
    source,
    n_periods: int,
    chunk_periods: int,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
) -> StreamingSigma2NEstimator:
    """Feed a chunked synthesized record into a fresh streaming estimator.

    This is the accumulation step of a chunked campaign, factored out so that
    sharded runs (:mod:`repro.engine.distributed`) can ship the estimator
    *state* between processes and merge shards with
    :meth:`StreamingSigma2NEstimator.merge_rows` instead of materializing
    curves per shard.  The sweep-defaulting and chunk-length validation rules
    depend only on ``n_periods``/``chunk_periods`` (never on the batch size),
    so every row-shard of one campaign resolves the same sweep.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if chunk_periods < 1:
        raise ValueError("chunk_periods must be >= 1")
    chunk_periods = int(min(chunk_periods, n_periods))
    if n_sweep is None:
        max_n = max(
            min(n_periods // (2 * min_realizations), chunk_periods // 4), 1
        )
        n_sweep = default_n_sweep(max_n)
    max_requested = max(int(n) for n in n_sweep)
    if 4 * max_requested > chunk_periods and chunk_periods < n_periods:
        raise ValueError(
            f"chunk_periods = {chunk_periods} is too short for N up to "
            f"{max_requested}: chunked flicker synthesis needs "
            f"chunk_periods >= 4 * max(n_sweep)"
        )
    estimator = StreamingSigma2NEstimator(
        n_sweep,
        batch_size=_source_batch_size(source),
        overlapping=overlapping,
    )
    remaining = int(n_periods)
    while remaining > 0:
        step = min(chunk_periods, remaining)
        estimator.update(source.jitter(step))
        remaining -= step
    return estimator


def streaming_accumulated_variance_curves(
    source,
    n_periods: int,
    chunk_periods: int,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
    f0_hz=None,
) -> List[AccumulatedVarianceCurve]:
    """Chunked sigma^2_N campaign over a synthesized record of any length.

    Parameters
    ----------
    source:
        Anything with a ``jitter(n)`` method and an ``f0_hz`` attribute: a
        :class:`repro.engine.batch.BatchedOscillatorEnsemble`, a batched or
        scalar synthesizer, or a :class:`repro.oscillator.ring.RingOscillator`.
        Periods are drawn ``chunk_periods`` at a time, so peak memory is
        ``O(batch * chunk_periods)`` regardless of ``n_periods``.
    n_periods:
        Total record length per instance.
    chunk_periods:
        Chunk length.  Must be at least ``4 * max(n_sweep)`` so the chunked
        flicker synthesis (independent stretches per chunk) cannot distort the
        largest accumulation windows.
    n_sweep, overlapping, min_realizations:
        As in :func:`repro.core.sigma_n.accumulated_variance_curves`; the
        default sweep is derived from the *total* ``n_periods``, capped at a
        quarter of ``chunk_periods``.
    f0_hz:
        Override for sources that do not expose ``f0_hz``.
    """
    if f0_hz is None:
        f0_hz = source.f0_hz
    estimator = streaming_sigma2_n_estimator(
        source,
        n_periods,
        chunk_periods,
        n_sweep=n_sweep,
        overlapping=overlapping,
        min_realizations=min_realizations,
    )
    return estimator.curves(f0_hz, min_realizations=min_realizations)


def _generate_rows(trng, request: int) -> List[np.ndarray]:
    """Normalize one ``generate`` call to a list of per-row 1-D bit arrays."""
    output = trng.generate(request)
    if isinstance(output, np.ndarray):
        return list(output) if output.ndim == 2 else [output]
    return [np.asarray(row) for row in output]


def stream_bits(
    trng,
    n_bits: int,
    chunk_bits: int = 4096,
    max_empty_chunks: int = 32,
) -> Iterator[np.ndarray]:
    """Yield post-processed TRNG bits in chunks until ``n_bits`` are produced.

    Each step generates ``chunk_bits`` *raw* bits and applies the TRNG's
    post-processor, so peak memory is bounded by the per-chunk synthesis
    blocks instead of the full run.  A scalar
    :class:`repro.trng.ero_trng.EROTRNG` yields 1-D arrays concatenating to
    exactly ``n_bits`` elements; a :class:`repro.engine.bits.BatchedEROTRNG`
    (anything exposing ``batch_size``) yields ``(B, k)`` blocks concatenating
    to ``(B, n_bits)``.  With a decimating post-processor the per-row output
    lengths differ, so rows are buffered and each yielded block advances all
    rows in lockstep.

    Chunk invariance: both TRNG classes generate bits with *streaming*
    semantics (consecutive ``generate`` calls continue the clock timelines on
    a fixed synthesis-block grid), so without a post-processor the yielded
    stream is bit-for-bit independent of ``chunk_bits`` — including chunk
    sizes that split a divider period across synthesis blocks.  A decimating
    post-processor is applied per raw chunk (as before), so *its* output
    depends on the chunking of its input.

    Raises ``RuntimeError`` when ``max_empty_chunks`` consecutive chunks make
    no progress (a pathological decimating post-processor).
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be >= 1")
    batched = getattr(trng, "batch_size", None) is not None
    produced = 0
    empty_streak = 0
    decimating = getattr(trng, "postprocessor", None) is not None
    buffers: Optional[List[np.ndarray]] = None
    while produced < n_bits:
        # Without a post-processor the output length is the raw length, so the
        # final chunk can be trimmed to what is still needed.
        request = chunk_bits if decimating else min(chunk_bits, n_bits - produced)
        rows = _generate_rows(trng, request)
        if buffers is None:
            buffers = rows
        else:
            buffers = [
                np.concatenate([held, new]) for held, new in zip(buffers, rows)
            ]
        available = min(row.size for row in buffers)
        take = min(available, n_bits - produced)
        if take == 0:
            empty_streak += 1
            if empty_streak >= max_empty_chunks:
                raise RuntimeError(
                    f"post-processor produced no bits in {empty_streak} "
                    f"consecutive chunks of {chunk_bits} raw bits"
                )
            continue
        empty_streak = 0
        chunk = (
            np.stack([row[:take] for row in buffers])
            if batched
            else buffers[0][:take]
        )
        buffers = [row[take:] for row in buffers]
        produced += take
        yield chunk


def generate_bits_exact(
    trng, n_bits: int, chunk_bits: Optional[int] = None
) -> np.ndarray:
    """Exactly ``n_bits`` post-processed bits from a TRNG, generated chunkwise.

    This is the helper behind :meth:`repro.trng.ero_trng.EROTRNG.generate_exact`
    and :meth:`repro.engine.bits.BatchedEROTRNG.generate_exact`; unlike
    ``generate``, the output length does not depend on the post-processor's
    decimation ratio.  Scalar TRNGs get a 1-D array, batched TRNGs a
    ``(B, n_bits)`` array.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if chunk_bits is None:
        chunk_bits = max(min(n_bits, 8192), 64)
    chunks = list(stream_bits(trng, n_bits, chunk_bits=chunk_bits))
    return np.concatenate(chunks, axis=-1)
