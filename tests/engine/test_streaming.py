"""Streaming engine tests: chunked estimation and chunked campaigns.

Two distinct guarantees are exercised:

* feeding an *existing* record to the streaming estimator in chunks counts
  exactly the same ``s_N`` windows as the one-shot estimator (agreement to
  floating-point accuracy, any chunking);
* a chunked *generated* campaign over >= 10^6 periods matches the monolithic
  campaign estimates within statistical tolerance (chunking truncates flicker
  correlations at the chunk length, so only statistical agreement is
  possible there).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_sigma2_n_curve
from repro.core.sigma_n import (
    accumulated_variance_curve,
    accumulated_variance_curves,
    sigma2_n_estimate,
    sum_of_squares,
)
from repro.core.theory import sigma2_n_closed_form
from repro.engine.batch import BatchedOscillatorEnsemble
from repro.engine.streaming import (
    StreamingSigma2NEstimator,
    streaming_accumulated_variance_curves,
)
from repro.paper import PAPER_F0_HZ, paper_phase_noise_psd
from repro.phase.psd import PhaseNoisePSD

F0 = PAPER_F0_HZ


class TestStreamingEstimatorWindowExactness:
    @pytest.mark.parametrize("overlapping", [True, False])
    @pytest.mark.parametrize(
        "chunk_sizes",
        [
            [50_000],
            [7, 1234, 999, 12345, 20_000, 15_415],
            [1] * 200 + [49_800],
        ],
        ids=["one-shot", "ragged", "tiny-then-big"],
    )
    def test_matches_one_shot_for_any_chunking(self, rng, overlapping, chunk_sizes):
        record = rng.normal(0.0, 1e-12, size=(2, 50_000))
        sweep = [1, 2, 5, 17, 100, 400]
        estimator = StreamingSigma2NEstimator(
            sweep, batch_size=2, overlapping=overlapping
        )
        position = 0
        for size in chunk_sizes:
            estimator.update(record[:, position : position + size])
            position += size
        assert position == 50_000
        assert estimator.n_samples_seen == 50_000
        streamed = estimator.curves(F0)
        one_shot = accumulated_variance_curves(
            record, F0, n_sweep=sweep, overlapping=overlapping
        )
        for streamed_curve, reference in zip(streamed, one_shot):
            np.testing.assert_array_equal(
                streamed_curve.n_values, reference.n_values
            )
            np.testing.assert_array_equal(
                streamed_curve.realization_counts, reference.realization_counts
            )
            np.testing.assert_allclose(
                streamed_curve.sigma2_values_s2,
                reference.sigma2_values_s2,
                rtol=1e-9,
            )

    def test_one_dimensional_chunks_accepted(self, rng):
        record = rng.normal(size=2000)
        estimator = StreamingSigma2NEstimator([3], batch_size=1)
        for chunk in np.array_split(record, 7):
            estimator.update(chunk)
        curve = estimator.curves(F0)[0]
        expected = sigma2_n_estimate(record, 3)
        assert curve.sigma2_values_s2[0] == pytest.approx(expected, rel=1e-9)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            StreamingSigma2NEstimator([])
        with pytest.raises(ValueError):
            StreamingSigma2NEstimator([0])
        with pytest.raises(ValueError):
            StreamingSigma2NEstimator([3], batch_size=0)
        estimator = StreamingSigma2NEstimator([3], batch_size=2)
        with pytest.raises(ValueError):
            estimator.update(np.zeros((3, 10)))
        with pytest.raises(ValueError):
            # No samples consumed yet: no point can be estimated.
            estimator.curves(F0)

    def test_min_realizations_rule_matches_one_shot(self, rng):
        record = rng.normal(size=(1, 600))
        sweep = [1, 10, 300]  # N = 300 needs 2N = 600 -> only one realization
        estimator = StreamingSigma2NEstimator(sweep, batch_size=1)
        estimator.update(record)
        curve = estimator.curves(F0, min_realizations=8)[0]
        reference = accumulated_variance_curve(
            record[0], F0, n_sweep=sweep, min_realizations=8
        )
        np.testing.assert_array_equal(curve.n_values, reference.n_values)
        assert 300 not in curve.n_values


class TestStreamingCampaign:
    @pytest.mark.slow
    def test_million_period_campaign_matches_monolithic(self):
        """Chunked >= 10^6-period campaign agrees with the one-shot campaign.

        Thermal-only PSD: chunked synthesis is then statistically identical to
        monolithic synthesis (independent periods), so the two estimates of
        sigma^2_N must agree within the estimator's own scatter, and both must
        match the Eq. 11 closed form.
        """
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
        n_periods = 1_000_000
        sweep = [1, 2, 5, 10, 50, 200, 1000]
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=1, seed=31)
        streamed = streaming_accumulated_variance_curves(
            ensemble, n_periods, chunk_periods=125_000, n_sweep=sweep
        )[0]
        monolithic = accumulated_variance_curve(
            BatchedOscillatorEnsemble(F0, psd, batch_size=1, seed=32).jitter(
                n_periods
            )[0],
            F0,
            n_sweep=sweep,
        )
        np.testing.assert_array_equal(streamed.n_values, monolithic.n_values)
        np.testing.assert_allclose(
            streamed.sigma2_values_s2, monolithic.sigma2_values_s2, rtol=0.08
        )
        expected = np.array(
            [sigma2_n_closed_form(psd, F0, n) for n in streamed.n_values]
        )
        np.testing.assert_allclose(streamed.sigma2_values_s2, expected, rtol=0.08)

    @pytest.mark.slow
    def test_mixed_psd_streaming_fit_recovers_coefficients(self):
        """A chunked mixed-noise campaign recovers b_th (and b_fl's scale)."""
        psd = paper_phase_noise_psd()
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=2, seed=8)
        curves = streaming_accumulated_variance_curves(
            ensemble, 400_000, chunk_periods=100_000
        )
        for curve in curves:
            fit = fit_sigma2_n_curve(curve)
            assert fit.b_thermal_hz == pytest.approx(psd.b_thermal_hz, rel=0.25)

    def test_chunk_too_short_for_sweep_rejected(self):
        psd = paper_phase_noise_psd()
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=1, seed=1)
        with pytest.raises(ValueError):
            streaming_accumulated_variance_curves(
                ensemble, 100_000, chunk_periods=256, n_sweep=[1, 10, 1000]
            )

    def test_default_sweep_capped_by_chunk(self):
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=1, seed=2)
        curves = streaming_accumulated_variance_curves(
            ensemble, 100_000, chunk_periods=4096
        )
        assert max(curves[0].n_values) <= 4096 // 4

    def test_campaign_chunked_equals_campaign_streaming_path(self):
        """batched_sigma2_n_campaign(chunk_periods=...) routes to streaming."""
        from repro.engine.campaign import batched_sigma2_n_campaign

        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
        sweep = [1, 2, 5, 10]
        result = batched_sigma2_n_campaign(
            BatchedOscillatorEnsemble(F0, psd, batch_size=2, seed=6),
            200_000,
            n_sweep=sweep,
            chunk_periods=50_000,
        )
        reference = batched_sigma2_n_campaign(
            BatchedOscillatorEnsemble(F0, psd, batch_size=2, seed=6),
            200_000,
            n_sweep=sweep,
        )
        np.testing.assert_array_equal(result.n_values, reference.n_values)
        from repro.engine.rng import default_rng_contract

        if default_rng_contract() == "spawn":
            # Same seed and thermal-only noise: chunked generation consumes
            # the stateful streams identically, so the estimates agree to fp
            # accuracy.
            np.testing.assert_allclose(
                result.sigma2_s2, reference.sigma2_s2, rtol=1e-9
            )
            assert result.table()["b_thermal_hz"] == pytest.approx(
                reference.table()["b_thermal_hz"], rel=1e-6
            )
        else:
            # Under the index-keyed philox contract every draw call is its
            # own block, so chunked and monolithic runs see different (but
            # individually reproducible) variates: the estimates agree only
            # statistically.  Chunk invariance under philox is pinned where
            # the chunking itself is part of the pinned computation (fixed
            # synthesis blocks; see tests/property/test_philox_contract.py).
            np.testing.assert_allclose(
                result.sigma2_s2, reference.sigma2_s2, rtol=0.1
            )
            assert result.table()["b_thermal_hz"] == pytest.approx(
                reference.table()["b_thermal_hz"], rel=0.05
            )


class TestBitStreamChunkInvariance:
    """stream_bits / generate_bits_exact: the raw bit stream must not depend
    on how it is chunked — the generators stream on a fixed synthesis-block
    grid, so any chunking (including chunks that split a divider period
    across synthesis blocks) yields identical bits."""

    @staticmethod
    def _trng(divider: int, seed: int = 17):
        from repro.trng.ero_trng import EROTRNG, EROTRNGConfiguration

        configuration = EROTRNGConfiguration(
            f0_hz=F0,
            oscillator_psd=PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42),
            divider=divider,
            frequency_mismatch=1e-3,
        )
        return EROTRNG(configuration, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("divider", [1, 3, 96])
    @pytest.mark.parametrize("chunk_bits", [1, 7, 64, 1000])
    def test_generate_bits_exact_chunk_invariant(self, divider, chunk_bits):
        """Identical bit streams for any chunk size (odd chunks split the
        divider grid against the synthesis-block grid)."""
        from repro.engine.streaming import generate_bits_exact

        reference = generate_bits_exact(self._trng(divider), 500, chunk_bits=500)
        chunked = generate_bits_exact(
            self._trng(divider), 500, chunk_bits=chunk_bits
        )
        np.testing.assert_array_equal(reference, chunked)

    def test_stream_bits_concatenation_equals_one_shot_generate(self):
        from repro.engine.streaming import stream_bits

        reference = self._trng(33).generate(777)
        chunks = list(stream_bits(self._trng(33), 777, chunk_bits=50))
        np.testing.assert_array_equal(reference, np.concatenate(chunks))

    def test_batched_trng_stream_matches_scalar_rows(self):
        """Chunked batched generation: (B, k) blocks, rows == scalar streams."""
        from repro.engine.batch import spawn_generators
        from repro.engine.bits import BatchedEROTRNG
        from repro.engine.streaming import generate_bits_exact
        from repro.trng.ero_trng import EROTRNG, EROTRNGConfiguration

        configuration = EROTRNGConfiguration(
            f0_hz=F0,
            oscillator_psd=PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0),
            divider=5,
            frequency_mismatch=1e-3,
        )
        batched = BatchedEROTRNG(configuration, batch_size=3, seed=23)
        block = generate_bits_exact(batched, 400, chunk_bits=128)
        assert block.shape == (3, 400)
        children = spawn_generators(23, 3)
        for row in range(3):
            scalar = EROTRNG(configuration, rng=children[row])
            np.testing.assert_array_equal(
                block[row], generate_bits_exact(scalar, 400, chunk_bits=128)
            )

    def test_sampler_state_survives_interleaved_chunk_sizes(self):
        """Ragged chunk schedules agree with each other, not just with 1 call."""
        schedule_a = [5, 1, 94, 250, 150]
        schedule_b = [100, 100, 100, 100, 100]
        trng_a, trng_b = self._trng(7), self._trng(7)
        bits_a = np.concatenate([trng_a.generate(k) for k in schedule_a])
        bits_b = np.concatenate([trng_b.generate(k) for k in schedule_b])
        np.testing.assert_array_equal(bits_a, bits_b)


class TestEstimatorStateAndRowMerge:
    """export_state / from_state round-trips and disjoint row-shard merging."""

    def _fed_estimator(self, rows: np.ndarray, chunks=(300, 200, 500)):
        estimator = StreamingSigma2NEstimator(
            [2, 8, 32], batch_size=rows.shape[0]
        )
        start = 0
        for size in chunks:
            estimator.update(rows[:, start : start + size])
            start += size
        return estimator

    def test_state_round_trip_preserves_curves_and_updates(self):
        rng = np.random.default_rng(41)
        record = rng.normal(0.0, 1e-12, size=(2, 1400))
        direct = self._fed_estimator(record)
        restored = StreamingSigma2NEstimator.from_state(
            self._fed_estimator(record).export_state()
        )
        # Continuing to update after restoration must match the original.
        extra = rng.normal(0.0, 1e-12, size=(2, 700))
        direct.update(extra)
        restored.update(extra)
        for a, b in zip(direct.curves(F0), restored.curves(F0)):
            np.testing.assert_array_equal(a.sigma2_values_s2, b.sigma2_values_s2)
            np.testing.assert_array_equal(a.realization_counts, b.realization_counts)

    def test_merge_rows_equals_stacked_estimation(self):
        rng = np.random.default_rng(42)
        record = rng.normal(0.0, 1e-12, size=(5, 1000))
        stacked = self._fed_estimator(record)
        shards = [
            self._fed_estimator(record[0:2]),
            self._fed_estimator(record[2:3]),
            self._fed_estimator(record[3:5]),
        ]
        merged = StreamingSigma2NEstimator.merge_rows(shards)
        assert merged.batch_size == 5
        for a, b in zip(stacked.curves(F0), merged.curves(F0)):
            np.testing.assert_array_equal(a.sigma2_values_s2, b.sigma2_values_s2)
        # The merged estimator keeps streaming: boundary windows included.
        extra = rng.normal(0.0, 1e-12, size=(5, 400))
        stacked.update(extra)
        merged.update(extra)
        for a, b in zip(stacked.curves(F0), merged.curves(F0)):
            np.testing.assert_array_equal(a.sigma2_values_s2, b.sigma2_values_s2)

    def test_merge_rows_rejects_mismatched_timelines(self):
        rng = np.random.default_rng(43)
        record = rng.normal(0.0, 1e-12, size=(2, 900))
        complete = self._fed_estimator(record, chunks=(900,))
        shorter = self._fed_estimator(record[:, :600], chunks=(600,))
        with pytest.raises(ValueError, match="different record lengths"):
            StreamingSigma2NEstimator.merge_rows([complete, shorter])
        other_sweep = StreamingSigma2NEstimator([2, 8], batch_size=2)
        other_sweep.update(record)
        with pytest.raises(ValueError, match="N sweep"):
            StreamingSigma2NEstimator.merge_rows([complete, other_sweep])
        with pytest.raises(ValueError, match="at least one"):
            StreamingSigma2NEstimator.merge_rows([])


def _reference_update(estimator: StreamingSigma2NEstimator, chunk) -> None:
    """The batched ``update``: one ``(B, chunk + tail)`` cumulative array and
    ``(B, M)`` block differences per N.  The row-by-row ``update`` must leave
    bit-for-bit the same state."""
    data = np.asarray(chunk, dtype=float)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[1] == 0:
        return
    buffer = np.concatenate([estimator._tail, data], axis=1)
    buffer_start = estimator._tail_start
    length = buffer.shape[1]
    cumulative = np.concatenate(
        [np.zeros((estimator.batch_size, 1)), np.cumsum(buffer, axis=1)], axis=1
    )
    for n in estimator.n_sweep:
        window = 2 * n
        last_start = buffer_start + length - window
        start = estimator._next_start[n]
        if not estimator.overlapping:
            start = -(-start // window) * window
        if last_start < start:
            continue
        lo = start - buffer_start
        stride = window if not estimator.overlapping else 1
        c0 = cumulative[:, lo : length - window + 1 : stride]
        c1 = cumulative[:, lo + n : length - n + 1 : stride]
        c2 = cumulative[:, lo + window : length + 1 : stride]
        values = (c2 - c1) - (c1 - c0)
        estimator._sum_sq[n] += [sum_of_squares(row) for row in values]
        estimator._counts[n] += values.shape[1]
        estimator._next_start[n] = (
            start + stride * values.shape[1]
            if not estimator.overlapping
            else last_start + 1
        )
    estimator._n_samples += data.shape[1]
    keep = min(length, 2 * estimator._max_n - 1)
    estimator._tail = buffer[:, length - keep :].copy()
    estimator._tail_start = buffer_start + length - keep


class TestRowByRowUpdate:
    """``update`` reduces one row at a time through reused 1-D buffers; its
    state is bit-for-bit the batched reduction's after every chunk."""

    SWEEP = (1, 3, 8, 32, 100)  # 2 * max_n = 200

    @pytest.mark.parametrize("overlapping", [True, False], ids=["overlap", "disjoint"])
    @pytest.mark.parametrize(
        "chunks",
        [(50, 130, 199, 7), (700, 1500), (37, 450, 12, 900, 1), (20_000,)],
        ids=["shorter", "longer", "mixed", "long-row"],
    )
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_state_equals_the_batched_reduction(self, batch, chunks, overlapping):
        rng = np.random.default_rng(batch * 1000 + len(chunks))
        record = rng.normal(0.0, 1e-12, size=(batch, sum(chunks)))
        estimator = StreamingSigma2NEstimator(
            self.SWEEP, batch_size=batch, overlapping=overlapping
        )
        reference = StreamingSigma2NEstimator(
            self.SWEEP, batch_size=batch, overlapping=overlapping
        )
        start = 0
        for size in chunks:
            chunk = record[:, start : start + size]
            estimator.update(chunk[0] if batch == 1 else chunk)
            _reference_update(reference, chunk)
            start += size
            state, expected = estimator.export_state(), reference.export_state()
            assert state.keys() == expected.keys()
            for key in state:
                np.testing.assert_array_equal(state[key], expected[key], err_msg=key)
                assert state[key].dtype == expected[key].dtype, key
