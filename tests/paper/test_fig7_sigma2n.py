"""Fig. 7: f0^2 sigma^2_N versus N, with the Eq. 11 fit (Sec. III-E / IV-A).

The measured accumulated variance follows ``f0^2 sigma^2_N = 5.36e-6 N +
c2 N^2``: the linear (thermal) regime dominates at small N and the quadratic
(flicker) regime takes over around ``N ~ K = 5354``, which shows that jitter
realizations are not mutually independent at large N.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import accumulated_variance_curve, fit_sigma2_n_curve
from repro.paper import PAPER_REFERENCE

FIG7_SWEEP = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]


def test_fig7_sigma2n_curve(fig7_record, fig7_platform):
    """The Fig. 7 sweep on the 400k-period record has the paper's shape."""
    curve = accumulated_variance_curve(fig7_record, fig7_platform.f0_hz, FIG7_SWEEP)
    fit = fit_sigma2_n_curve(curve)
    n = curve.n_values.astype(float)
    normalized = curve.normalized_sigma2_values

    # Paper 5.36e-6; measured 5.365e-6 (+0.1%).
    small_slope = float(np.median(normalized[n <= 20] / n[n <= 20]))
    assert small_slope == pytest.approx(
        PAPER_REFERENCE.normalized_thermal_slope, rel=0.15
    )

    # Dependence: measured large-N slope / small-N slope = 1.49.
    large_slope = float(np.median(normalized[n >= 2000] / n[n >= 2000]))
    assert large_slope > 1.3 * small_slope

    # Paper K = 5354; measured K = 9008, because the fitted b_fl of this
    # record is 1.14e6 Hz^2 against the paper's 1.92e6.  ROADMAP item 1 owns
    # that flicker gap; until it closes the band stays at 2.5x.
    crossover = (
        fit.b_thermal_hz
        * fig7_platform.f0_hz
        / (4.0 * np.log(2.0) * max(fit.b_flicker_hz2, 1e-30))
    )
    assert (
        PAPER_REFERENCE.ratio_constant / 2.5
        < crossover
        < PAPER_REFERENCE.ratio_constant * 2.5
    )


class TestFig7Shape:
    def test_normalised_curve_is_superlinear(self, campaign_curve):
        """f0^2 sigma^2_N grows faster than linearly at large N."""
        n = campaign_curve.n_values.astype(float)
        normalized = campaign_curve.normalized_sigma2_values
        small = normalized[n <= 10] / n[n <= 10]
        large = normalized[n >= 1000] / n[n >= 1000]
        # Measured large-N / small-N normalised slope = 1.70.
        assert np.median(large) > 1.15 * np.median(small)

    def test_fit_matches_measured_points(self, campaign_curve):
        fit = fit_sigma2_n_curve(campaign_curve)
        prediction = fit.predict(campaign_curve.n_values)
        relative_error = (
            np.abs(prediction - campaign_curve.sigma2_values_s2) / prediction
        )
        # Measured median relative error of the Eq. 11 fit: 1.8%.
        assert np.median(relative_error) < 0.1

    def test_small_n_region_matches_paper_slope(self, campaign_curve):
        """In the thermal-dominated region the normalised slope is ~5.36e-6."""
        n = campaign_curve.n_values
        normalized = campaign_curve.normalized_sigma2_values
        mask = n <= 30
        slopes = normalized[mask] / n[mask]
        # Paper 5.36e-6; measured 5.345e-6 (-0.3%).
        assert np.median(slopes) == pytest.approx(
            PAPER_REFERENCE.normalized_thermal_slope, rel=0.1
        )
