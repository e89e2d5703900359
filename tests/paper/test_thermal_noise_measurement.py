"""Section IV-B: thermal-noise measurement via the multilevel approach.

From the Fig. 7 fit the paper reads ``b_th = 276.04 Hz``, hence a
thermal-only period jitter ``sigma_th = sqrt(b_th/f0^3) ~= 15.89 ps``, a
relative jitter ``sigma/T0 ~= 1.6 permille``, ``K = 5354`` and the 95 %
independence threshold ``N < 281``.  The paper cross-checks against "other
more expensive methods" [19]; here the cross-check is the simulator's
injected ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import extract_thermal_noise_from_curve
from repro.paper import PAPER_REFERENCE


def test_thermal_extraction_pipeline(fig7_report, fig7_platform):
    ground_truth_sigma = np.sqrt(
        fig7_platform.relative_psd.thermal_period_jitter_variance(fig7_platform.f0_hz)
    )
    # Paper 276.04 Hz; measured 276.06 Hz.
    assert fig7_report.b_thermal_hz == pytest.approx(
        PAPER_REFERENCE.b_thermal_hz, rel=0.1
    )
    # Paper 15.89 ps; measured 15.89 ps.
    assert fig7_report.thermal_jitter_std_ps == pytest.approx(15.89, rel=0.05)
    # Paper 1.6 permille; measured 1.64 permille.
    assert fig7_report.jitter_ratio_permille == pytest.approx(1.6, rel=0.1)
    # Injected ground truth 15.89 ps; measured within 5e-5 of it.
    assert fig7_report.thermal_jitter_std_s == pytest.approx(
        ground_truth_sigma, rel=0.05
    )


def test_thermal_extraction_with_confidence_intervals(fig7_curve):
    result = extract_thermal_noise_from_curve(
        fig7_curve, with_confidence_intervals=True, rng=np.random.default_rng(7)
    )
    low, high = result.b_thermal_ci_hz
    # Paper 276.04 Hz; measured 95% interval 275.7-277.0 Hz.
    assert low <= result.b_thermal_hz <= high
    assert low > 0.5 * PAPER_REFERENCE.b_thermal_hz
    assert high < 2.0 * PAPER_REFERENCE.b_thermal_hz


class TestSection4Numbers:
    def test_b_thermal(self, campaign_report):
        # Paper 276.04 Hz; measured 275.04 Hz.
        assert campaign_report.b_thermal_hz == pytest.approx(
            PAPER_REFERENCE.b_thermal_hz, rel=0.08
        )

    def test_thermal_jitter_ps(self, campaign_report):
        # Paper 15.89 ps; measured 15.86 ps.
        assert campaign_report.thermal_jitter_std_ps == pytest.approx(15.89, rel=0.04)

    def test_jitter_ratio_permille(self, campaign_report):
        # Paper 1.6 permille; measured 1.63 permille.
        assert campaign_report.jitter_ratio_permille == pytest.approx(1.6, rel=0.08)

    def test_ratio_constant_k(self, campaign_report):
        # Paper 5354; measured 5672.
        assert campaign_report.ratio_constant == pytest.approx(
            PAPER_REFERENCE.ratio_constant, rel=0.6
        )

    def test_independence_threshold(self, campaign_report):
        # Paper 281; measured 299.
        assert campaign_report.independence_threshold_n == pytest.approx(
            PAPER_REFERENCE.independence_threshold_n, rel=0.6
        )
