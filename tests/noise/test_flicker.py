"""Unit tests for the flicker-noise model and the 1/f generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.noise.flicker import (
    FlickerNoiseSource,
    flicker_corner_frequency,
    flicker_current_psd,
    generate_pink_noise,
)
from repro.stats.psd_estimation import fit_power_law, welch_psd


class TestFlickerCurrentPSD:
    def test_inverse_frequency_law(self):
        psd_1hz = flicker_current_psd(1.0, 1e-4, 1e-6, 100e-9, 1e-5)
        psd_10hz = flicker_current_psd(10.0, 1e-4, 1e-6, 100e-9, 1e-5)
        assert psd_1hz == pytest.approx(10.0 * psd_10hz)

    def test_quadratic_in_drain_current(self):
        low = flicker_current_psd(1.0, 1e-4, 1e-6, 100e-9, 1e-5)
        high = flicker_current_psd(1.0, 2e-4, 1e-6, 100e-9, 1e-5)
        assert high == pytest.approx(4.0 * low)

    def test_inverse_square_of_channel_length(self):
        """The scaling the paper's conclusion builds on: S_fl ~ 1/L^2."""
        long_channel = flicker_current_psd(1.0, 1e-4, 1e-6, 130e-9, 1e-5)
        short_channel = flicker_current_psd(1.0, 1e-4, 1e-6, 65e-9, 1e-5)
        assert short_channel == pytest.approx(long_channel * (130.0 / 65.0) ** 2)

    def test_inverse_width(self):
        narrow = flicker_current_psd(1.0, 1e-4, 0.5e-6, 100e-9, 1e-5)
        wide = flicker_current_psd(1.0, 1e-4, 1e-6, 100e-9, 1e-5)
        assert narrow == pytest.approx(2.0 * wide)

    def test_array_input(self):
        frequencies = np.array([1.0, 2.0, 4.0])
        values = flicker_current_psd(frequencies, 1e-4, 1e-6, 100e-9, 1e-5)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(2.0 * values[1])

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            flicker_current_psd(0.0, 1e-4, 1e-6, 100e-9, 1e-5)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            flicker_current_psd(1.0, 1e-4, 0.0, 100e-9, 1e-5)

    def test_corner_frequency(self):
        assert flicker_corner_frequency(1e-18, 1e-22) == pytest.approx(1e4)

    def test_corner_frequency_invalid_thermal(self):
        with pytest.raises(ValueError):
            flicker_corner_frequency(1e-18, 0.0)


class TestFlickerNoiseSource:
    def test_from_device_matches_psd_function(self):
        source = FlickerNoiseSource.from_device(1e-4, 1e-6, 100e-9, 1e-5)
        direct = flicker_current_psd(123.0, 1e-4, 1e-6, 100e-9, 1e-5)
        assert source.psd(123.0) == pytest.approx(direct)

    def test_psd_rejects_non_positive_frequency(self):
        source = FlickerNoiseSource(1e-20)
        with pytest.raises(ValueError):
            source.psd(np.array([1.0, -1.0]))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            FlickerNoiseSource(-1.0)

    def test_sample_scales_with_coefficient(self):
        small = FlickerNoiseSource(1e-24).sample(
            4096, 1e6, rng=np.random.default_rng(4)
        )
        large = FlickerNoiseSource(4e-24).sample(
            4096, 1e6, rng=np.random.default_rng(4)
        )
        assert np.std(large) == pytest.approx(2.0 * np.std(small), rel=1e-9)

    @pytest.mark.parametrize("sampling_rate_hz", [0.0, -1.0])
    def test_sample_rejects_non_positive_sampling_rate(self, sampling_rate_hz):
        source = FlickerNoiseSource(1e-24)
        with pytest.raises(ValueError, match="sampling rate"):
            source.sample(64, sampling_rate_hz, rng=np.random.default_rng(0))

    def test_sample_amplitude_is_sampling_rate_invariant(self):
        """1/f is scale free: the same seed gives the same path at any fs."""
        source = FlickerNoiseSource(1e-24)
        at_1hz = source.sample(512, 1.0, rng=np.random.default_rng(9))
        at_1mhz = source.sample(512, 1e6, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(at_1hz, at_1mhz)


class TestPinkNoiseGenerators:
    @pytest.mark.parametrize("method", ["spectral", "ar", "hosking"])
    def test_length_and_finiteness(self, method):
        samples = generate_pink_noise(
            2048 if method != "hosking" else 512,
            rng=np.random.default_rng(5),
            method=method,
        )
        assert np.all(np.isfinite(samples))
        assert samples.size in (2048, 512)

    def test_empty_request(self):
        assert generate_pink_noise(0).size == 0

    def test_negative_request_rejected(self):
        with pytest.raises(ValueError):
            generate_pink_noise(-1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            generate_pink_noise(16, method="nope")

    @pytest.mark.parametrize("method", ["spectral", "ar"])
    def test_spectral_slope_is_minus_one(self, method):
        """The generated noise must have a ~1/f spectrum over the mid band."""
        samples = generate_pink_noise(
            65536, rng=np.random.default_rng(11), method=method
        )
        estimate = welch_psd(samples, sampling_rate_hz=1.0, segment_length=4096)
        band = estimate.restrict(1e-3, 1e-1)
        _amplitude, exponent = fit_power_law(band)
        assert -1.4 < exponent < -0.6

    def test_spectral_amplitude_near_unity(self):
        """The spectral method is normalised to a one-sided PSD of ~1/f."""
        samples = generate_pink_noise(65536, rng=np.random.default_rng(13))
        estimate = welch_psd(samples, sampling_rate_hz=1.0, segment_length=8192)
        band = estimate.restrict(2e-3, 5e-2)
        amplitude, _exponent = fit_power_law(band)
        assert 0.6 < amplitude < 1.6

    def test_spectral_reproducibility(self):
        first = generate_pink_noise(1024, rng=np.random.default_rng(21))
        second = generate_pink_noise(1024, rng=np.random.default_rng(21))
        np.testing.assert_array_equal(first, second)

    def test_zero_mean(self):
        samples = generate_pink_noise(32768, rng=np.random.default_rng(31))
        assert abs(np.mean(samples)) < 0.5

    def test_hosking_spectral_slope_is_minus_one(self):
        """Regression for the in-place Durbin aliasing bug: with the update
        reading already-overwritten coefficients, the predictor was corrupted
        for every order above 2 and the spectrum drifted off the 1/f law."""
        samples = generate_pink_noise(
            4096, rng=np.random.default_rng(17), method="hosking"
        )
        estimate = welch_psd(samples, sampling_rate_hz=1.0, segment_length=1024)
        band = estimate.restrict(4e-3, 1e-1)
        _amplitude, exponent = fit_power_law(band)
        assert -1.4 < exponent < -0.6

    def test_hosking_matches_explicit_durbin_reference(self):
        """The vectorised Durbin update must equal the textbook double loop
        that reads all previous-order coefficients before writing any."""

        def reference(n_samples, rng):
            d = 0.4999
            white = rng.normal(0.0, 1.0, size=n_samples)
            output = np.empty(n_samples)
            phi = np.empty(n_samples)
            variance = 1.0
            output[0] = white[0]
            for t in range(1, n_samples):
                phi[t - 1] = d / t
                previous = [phi[j] for j in range(t - 1)]
                for j in range(t - 1):
                    phi[j] = previous[j] - phi[t - 1] * previous[t - 2 - j]
                variance *= 1.0 - phi[t - 1] ** 2
                mean = np.dot(phi[:t], output[t - 1 :: -1][:t])
                output[t] = mean + np.sqrt(max(variance, 0.0)) * white[t]
            scale = np.sqrt(np.log(max(n_samples, 2)) / 2.0)
            std = np.std(output)
            if std > 0.0:
                output = output / std * scale
            return output

        actual = generate_pink_noise(
            128, rng=np.random.default_rng(23), method="hosking"
        )
        expected = reference(128, np.random.default_rng(23))
        np.testing.assert_array_equal(actual, expected)
