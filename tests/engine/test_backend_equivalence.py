"""Cross-backend equivalence matrix: every backend == the NumPy reference.

The tentpole contract (ISSUE 5): a synthesis backend is only trustworthy if
its output is **bit-for-bit identical** to :class:`NumpyBackend` for every
workload shape.  This matrix drives backend {numpy, threaded:1, threaded:4,
threaded:8, auto:4, philox:1, philox:4} x flicker_method {spectral,
non-spectral} x batch size {1, 3, 64} x API {decompose, periods, jitter,
stream_bits chunking}, including zero-sigma and
zero-h_-1 rows whose draws must be skipped identically, plus the resolver /
spec / validation surface around the backends.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.engine.backends import (
    BACKEND_ENV_VAR,
    NumpyBackend,
    SynthesisBackend,
    parse_backend_spec,
    resolve_backend,
    validate_backend_spec,
)
from repro.engine.batch import (
    BatchedJitterSynthesizer,
    BatchedOscillatorEnsemble,
    spawn_generators,
)
from repro.engine.bits import BatchedEROTRNG
from repro.paper import PAPER_F0_HZ
from repro.phase.psd import PhaseNoisePSD
from repro.trng.ero_trng import EROTRNGConfiguration

F0 = PAPER_F0_HZ

#: Candidate backends, every one required to match the reference bitwise.
#: ``threaded:8`` runs more threads than most hosts have cores, so ranges
#: interleave arbitrarily.  ``auto:4`` exercises the threshold (whichever
#: way a call goes it must still be bit-for-bit the reference).
#: ``philox:*`` prove execution is stream-agnostic: the philox-tier executor
#: on the same streams as the reference (an engine ``backend=`` argument
#: selects execution only; the stream contract is pinned separately — see
#: tests/engine/test_rng_contract.py and tests/property/
#: test_philox_contract.py).
BACKENDS = (
    "numpy",
    "threaded:1",
    "threaded:4",
    "threaded:8",
    "auto:4",
    "philox:1",
    "philox:4",
)

#: The spectral FFT fast path and the non-spectral per-row fallback.
FLICKER_METHODS_UNDER_TEST = ("spectral", "ar")

BATCH_SIZES = (1, 3, 64)


def _coefficients(batch: int):
    """Per-row (b_th, b_fl) including zero-sigma / zero-h / silent rows.

    The zero rows are the draw-skipping edge of the backend contract: a row
    whose coefficient is zero must not touch its generator for that
    component, or every later draw of that row shifts.
    """
    if batch == 1:
        return np.array([276.04]), np.array([5.42])
    pattern = [
        (276.04, 5.42),  # mixed: fused thermal+flicker draw
        (276.04, 0.0),  # thermal-only: flicker draw skipped
        (0.0, 5.42),  # flicker-only: thermal draw skipped
        (0.0, 0.0),  # silent row: no draw at all
        (100.0, 1.0),  # heterogeneous mixed
    ]
    rows = [pattern[index % len(pattern)] for index in range(batch)]
    b_thermal = np.array([row[0] for row in rows])
    b_flicker = np.array([row[1] for row in rows])
    return b_thermal, b_flicker


def _ensemble(batch: int, method: str, backend, seed: int = 20140324):
    b_thermal, b_flicker = _coefficients(batch)
    return BatchedOscillatorEnsemble.from_phase_noise(
        F0,
        b_thermal,
        b_flicker,
        batch_size=batch,
        seed=seed,
        flicker_method=method,
        backend=backend,
    )


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("method", FLICKER_METHODS_UNDER_TEST)
@pytest.mark.parametrize("backend", BACKENDS)
class TestSynthesisMatrix:
    """backend x flicker_method x B, over the synthesis APIs."""

    def test_decompose_periods_jitter_match_reference(self, backend, method, batch):
        """All three synthesis APIs, called in sequence on live streams.

        Both ensembles advance their per-row streams identically call after
        call, so comparing successive API calls also locks the *stream
        consumption* equality, not just one draw.
        """
        n_periods = 96 if method != "spectral" else 257
        reference = _ensemble(batch, method, NumpyBackend())
        candidate = _ensemble(batch, method, backend)
        ref_parts = reference.decompose(n_periods)
        cand_parts = candidate.decompose(n_periods)
        np.testing.assert_array_equal(ref_parts.periods_s, cand_parts.periods_s)
        np.testing.assert_array_equal(
            ref_parts.thermal_jitter_s, cand_parts.thermal_jitter_s
        )
        np.testing.assert_array_equal(
            ref_parts.flicker_jitter_s, cand_parts.flicker_jitter_s
        )
        np.testing.assert_array_equal(
            reference.periods(n_periods), candidate.periods(n_periods)
        )
        np.testing.assert_array_equal(
            reference.jitter(n_periods), candidate.jitter(n_periods)
        )

    def test_zero_rows_skip_draws_identically(self, backend, method, batch):
        """Zero-coefficient rows leave their generators untouched."""
        b_thermal, b_flicker = _coefficients(batch)
        ensemble = _ensemble(batch, method, backend, seed=7)
        ensemble.periods(64)
        silent = (b_thermal == 0.0) & (b_flicker == 0.0)
        fresh = BatchedOscillatorEnsemble.from_phase_noise(
            F0, b_thermal, b_flicker, batch_size=batch, seed=7
        )
        for row in np.flatnonzero(silent):
            # A generator never drawn from produces the same variates as a
            # freshly spawned one.
            np.testing.assert_array_equal(
                ensemble.rngs[row].standard_normal(8),
                fresh.rngs[row].standard_normal(8),
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitStreamMatrix:
    """The stream_bits / chunked-generation API of the matrix."""

    CONFIGURATION = EROTRNGConfiguration(
        f0_hz=F0,
        oscillator_psd=PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42),
        divider=8,
        frequency_mismatch=1e-3,
    )

    def test_chunked_bits_match_monolithic_reference(self, backend):
        """Chunked candidate bits == one-shot reference bits, bit for bit."""
        reference = BatchedEROTRNG(
            self.CONFIGURATION, batch_size=3, seed=42, backend=NumpyBackend()
        )
        candidate = BatchedEROTRNG(
            self.CONFIGURATION, batch_size=3, seed=42, backend=backend
        )
        whole = reference.generate_raw(300).bits
        parts = [candidate.generate_raw(k).bits for k in (1, 7, 100, 192)]
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=1))

    def test_generate_exact_matches_reference(self, backend):
        reference = BatchedEROTRNG(self.CONFIGURATION, batch_size=2, seed=9)
        candidate = BatchedEROTRNG(
            self.CONFIGURATION, batch_size=2, seed=9, backend=backend
        )
        np.testing.assert_array_equal(
            reference.generate_exact(200, chunk_bits=64),
            candidate.generate_exact(200, chunk_bits=64),
        )


class TestOversubscribedRanges:
    """Eight threads, the GIL handed over every microsecond: the row ranges
    still reproduce the single-thread reference bit for bit."""

    @pytest.mark.parametrize("contract", ["spawn", "philox"])
    @pytest.mark.parametrize("method", ["spectral", "ar", "hosking"])
    @pytest.mark.parametrize("n_blocks", [1, 4])
    @pytest.mark.parametrize("batch", [2, 3, 33])
    def test_fast_switching_matches_reference(self, batch, n_blocks, method, contract):
        n = 32 if method == "hosking" else 64
        b_thermal, b_flicker = _coefficients(batch)
        sigma, h_minus1 = b_thermal * 1e-14, b_flicker * 1e-22

        def synthesize(backend):
            rngs = spawn_generators(11, batch, rng_contract=contract)
            return backend.synthesize(
                n, rngs, sigma, h_minus1, method, n_blocks=n_blocks
            )

        reference = synthesize(NumpyBackend())
        backend = NumpyBackend(8, threshold=0)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: results.extend(synthesize(backend) for _ in range(3))
            )
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(results) == 3
        for thermal, pink in results:
            np.testing.assert_array_equal(reference[0], thermal)
            np.testing.assert_array_equal(reference[1], pink)


class TestBackendResolution:
    def test_parse_specs(self):
        assert isinstance(parse_backend_spec("numpy"), NumpyBackend)
        threaded = parse_backend_spec("threaded:3")
        assert isinstance(threaded, NumpyBackend)
        assert (threaded.workers, threaded.threshold) == (3, 0)
        assert threaded.spec == "threaded:3"
        default = parse_backend_spec("threaded")
        assert default.workers >= 1

    @pytest.mark.parametrize("spec", ["gpu", "numpy:2", "threaded:x", "threaded:0", ""])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_resolve_passthrough_and_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        backend = NumpyBackend(2, threshold=0)
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend(None), NumpyBackend)
        assert resolve_backend(None).spec == parse_backend_spec("auto").spec
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        with pytest.raises(TypeError):
            resolve_backend(3)

    def test_environment_default_hook(self, monkeypatch):
        """REPRO_BACKEND switches the process default — the CI lever."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:2")
        resolved = resolve_backend(None)
        assert resolved.spec == "threaded:2"
        # Explicit selection always beats the environment.
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_environment_default_reaches_the_engine(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:2")
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=2, seed=1)
        assert ensemble.backend.spec == "threaded:2"

    def test_validate_backend_spec_for_serialization(self):
        assert validate_backend_spec(None) is None
        assert validate_backend_spec("threaded:4") == "threaded:4"
        with pytest.raises(ValueError):
            validate_backend_spec("bogus")

    def test_use_backend_rebinds_without_changing_output(self):
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42)
        reference = BatchedOscillatorEnsemble(F0, psd, batch_size=3, seed=5)
        switching = BatchedOscillatorEnsemble(F0, psd, batch_size=3, seed=5)
        first = reference.periods(64)
        np.testing.assert_array_equal(first, switching.periods(64))
        switching.use_backend("threaded:2")
        assert switching.backend.spec == "threaded:2"
        # Mid-stream backend swap: the continuation is still bit-for-bit.
        np.testing.assert_array_equal(reference.periods(64), switching.periods(64))

    def test_trng_use_backend_rebinds_both_ensembles(self):
        trng = BatchedEROTRNG(TestBitStreamMatrix.CONFIGURATION, batch_size=2, seed=3)
        trng.use_backend("threaded:2")
        assert trng.sampled_ensemble.backend.spec == "threaded:2"
        assert trng.sampling_ensemble.backend.spec == "threaded:2"
        # One resolution per call: both ensembles share one instance (and
        # therefore one thread pool), even from a spec string.
        assert trng.sampled_ensemble.backend is trng.sampling_ensemble.backend

    def test_trng_resolves_spec_string_to_one_shared_backend(self, monkeypatch):
        """Regression: a spec string (or the env default) must not create one
        thread pool per ring ensemble."""
        trng = BatchedEROTRNG(
            TestBitStreamMatrix.CONFIGURATION,
            batch_size=2,
            seed=3,
            backend="threaded:2",
        )
        assert trng.sampled_ensemble.backend is trng.sampling_ensemble.backend
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:2")
        via_env = BatchedEROTRNG(
            TestBitStreamMatrix.CONFIGURATION, batch_size=2, seed=3
        )
        assert via_env.sampled_ensemble.backend is via_env.sampling_ensemble.backend

    def test_threaded_pool_is_created_once_under_concurrency(self):
        """Regression: racing first-use must not leak a second thread pool."""
        import threading

        backend = NumpyBackend(3, threshold=0)
        pools = []
        barrier = threading.Barrier(4)

        def grab() -> None:
            barrier.wait()
            pools.append(backend._executor())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(pool is pools[0] for pool in pools)

    def test_campaign_backend_is_scoped_to_the_call(self):
        """backend= on a campaign must not leak onto the caller's ensemble."""
        from repro.engine.campaign import batched_sigma2_n_campaign

        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
        ensemble = BatchedOscillatorEnsemble(F0, psd, batch_size=2, seed=3)
        original = ensemble.backend
        batched_sigma2_n_campaign(ensemble, 2048, backend="threaded:2")
        assert ensemble.backend is original

    def test_sampler_backend_applies_to_both_sources(self):
        """BatchedDFlipFlopSampler(backend=...) re-binds both clock sources."""
        from repro.engine.bits import BatchedDFlipFlopSampler

        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42)
        fast = BatchedOscillatorEnsemble(F0 * 1.0005, psd, batch_size=2, seed=0)
        slow = BatchedOscillatorEnsemble(F0 * 0.9995, psd, batch_size=2, seed=1)
        sampler = BatchedDFlipFlopSampler(fast, slow, divider=8, backend="threaded:2")
        assert fast.backend.spec == "threaded:2"
        assert slow.backend.spec == "threaded:2"
        reference_fast = BatchedOscillatorEnsemble(
            F0 * 1.0005, psd, batch_size=2, seed=0
        )
        reference_slow = BatchedOscillatorEnsemble(
            F0 * 0.9995, psd, batch_size=2, seed=1
        )
        reference = BatchedDFlipFlopSampler(reference_fast, reference_slow, divider=8)
        np.testing.assert_array_equal(
            sampler.sample(100).bits, reference.sample(100).bits
        )

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            SynthesisBackend()

    def test_repr_shows_spec(self):
        assert "threaded:2" in repr(NumpyBackend(2, threshold=0))
        assert "numpy" in repr(NumpyBackend())


class TestFlickerMethodValidation:
    """Unknown methods fail at construction, not deep inside the first
    backend ``synthesize`` call."""

    def test_synthesizer_rejects_unknown_method_eagerly(self):
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42)
        with pytest.raises(ValueError, match="spectral, ar, hosking"):
            BatchedJitterSynthesizer(F0, psd, batch_size=2, flicker_method="fft")

    def test_ensemble_and_trng_inherit_the_validation(self):
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42)
        with pytest.raises(ValueError, match="unknown flicker_method"):
            BatchedOscillatorEnsemble(F0, psd, batch_size=2, flicker_method="pink")
        with pytest.raises(ValueError, match="unknown flicker_method"):
            BatchedEROTRNG(
                TestBitStreamMatrix.CONFIGURATION,
                batch_size=1,
                flicker_method="typo",
            )

    def test_known_methods_still_accepted(self):
        psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42)
        for method in ("spectral", "ar", "hosking"):
            BatchedJitterSynthesizer(F0, psd, batch_size=1, flicker_method=method)
