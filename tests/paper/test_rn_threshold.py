"""Section III-E: the ratio r_N = K/(K+N), the independence threshold, and
the dependence of jitter realizations.

With the fitted coefficients the paper gets ``r_N = 5354/(5354+N)``;
requiring 95 % thermal dominance limits the accumulation to ``N < 281``.
Beyond it, sigma^2_N is no longer linear in N, so the realizations are not
mutually independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import assess_independence, bienayme_linearity_test
from repro.core.ratio import independence_threshold, ratio_constant, thermal_ratio
from repro.measurement import VirtualEvaristePlatform
from repro.paper import PAPER_REFERENCE, paper_phase_noise_psd


def test_rn_ratio_and_threshold(fig7_report):
    """r_N and the threshold from the coefficients fitted on the Fig. 7 curve."""
    psd = fig7_report.phase_noise_psd
    f0 = fig7_report.f0_hz
    n_values = np.unique(np.logspace(0, 5, 200).astype(int))

    constant = ratio_constant(psd, f0)
    curve = thermal_ratio(psd, f0, n_values)
    threshold = independence_threshold(psd, f0, PAPER_REFERENCE.min_thermal_ratio)

    assert np.all(np.diff(curve) <= 0.0)
    assert 0.0 < curve[-1] < curve[0] <= 1.0
    # Paper K = 5354; measured 9193 (b_fl gap, ROADMAP item 1).
    assert (
        PAPER_REFERENCE.ratio_constant / 3
        < constant
        < PAPER_REFERENCE.ratio_constant * 3
    )
    # Paper N < 281; measured 484.
    assert (
        PAPER_REFERENCE.independence_threshold_n / 3
        < threshold
        < PAPER_REFERENCE.independence_threshold_n * 3
    )


def test_rn_exact_coefficients():
    """With the paper's exact coefficients, K, r_N and the threshold follow."""
    psd = paper_phase_noise_psd()
    f0 = PAPER_REFERENCE.f0_hz
    # Paper 5354; computed 5354.0.
    assert ratio_constant(psd, f0) == pytest.approx(5354.0, rel=1e-3)
    assert thermal_ratio(psd, f0, 281) > 0.95
    assert thermal_ratio(psd, f0, 300) < 0.95
    # Paper N < 281; computed 281.8.
    assert independence_threshold(psd, f0, 0.95) == pytest.approx(281.8, abs=1.0)


def test_dependence_detected_on_platform_data(campaign_curve):
    result = bienayme_linearity_test(campaign_curve)
    assert not result.independent


def test_independence_verdict_from_raw_record():
    platform = VirtualEvaristePlatform(rng=np.random.default_rng(99))
    record = platform.relative_jitter(120_000)
    verdict = assess_independence(record, platform.f0_hz)
    assert not verdict.jitter_realizations_independent
