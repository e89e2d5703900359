"""sigma^2_N and the Allan variance (Sec. III-B).

Following Allan, the classical variance of the jitter does not converge in
the presence of flicker noise, so the paper builds its statistic s_N as a
two-sample difference.  The exact relation is

    Var(s_N) = 2 * (N/f0)^2 * sigma_y^2(N/f0)

where sigma_y^2 is the Allan variance of the fractional frequency.  It is
checked on synthesized white-FM and flicker-FM clocks, together with the
textbook Allan levels h0/(2 tau) and 2 ln2 h_{-1}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sigma_n import sigma2_n_estimate
from repro.paper import PAPER_F0_HZ
from repro.phase import PeriodJitterSynthesizer, PhaseNoisePSD
from repro.stats.allan import (
    allan_variance,
    allan_variance_flicker_fm,
    allan_variance_white_fm,
    fractional_frequency_from_periods,
)

N_PERIODS = 200_000
AVERAGING_FACTORS = [16, 64, 256]


def _periods(psd: PhaseNoisePSD, seed: int) -> np.ndarray:
    synthesizer = PeriodJitterSynthesizer(
        PAPER_F0_HZ, psd, rng=np.random.default_rng(seed)
    )
    return synthesizer.periods(N_PERIODS)


def _link_ratios(periods: np.ndarray) -> list:
    """sigma^2_N / (2 (N/f0)^2 AVAR) at each averaging factor."""
    nominal = 1.0 / PAPER_F0_HZ
    jitter = periods - nominal
    fractional = fractional_frequency_from_periods(periods, nominal)
    return [
        sigma2_n_estimate(jitter, m)
        / (2.0 * (m / PAPER_F0_HZ) ** 2 * allan_variance(fractional, m))
        for m in AVERAGING_FACTORS
    ]


def test_sigma2n_allan_link_white_fm():
    """White-FM clock: the link holds and AVAR sits at h0/(2 tau)."""
    psd = PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=0.0)
    periods = _periods(psd, seed=1)
    fractional = fractional_frequency_from_periods(periods, 1.0 / PAPER_F0_HZ)

    h0 = 2.0 * psd.b_thermal_hz / PAPER_F0_HZ**2
    for m in AVERAGING_FACTORS:
        expected = allan_variance_white_fm(h0, m / PAPER_F0_HZ)
        # Measured AVAR / theory: 0.97-1.00.
        assert allan_variance(fractional, m) == pytest.approx(expected, rel=0.15)
    # Exact in expectation; measured ratios 1.0000 +- 2e-4.
    assert _link_ratios(periods) == pytest.approx([1.0] * 3, rel=0.15)


def test_sigma2n_allan_link_flicker_fm():
    """Flicker-FM clock: AVAR is flat at 2 ln2 h_{-1} and the link holds."""
    psd = PhaseNoisePSD(b_thermal_hz=0.0, b_flicker_hz2=1.915e6)
    periods = _periods(psd, seed=2)
    fractional = fractional_frequency_from_periods(periods, 1.0 / PAPER_F0_HZ)

    expected = allan_variance_flicker_fm(
        psd.flicker_fractional_frequency_coefficient(PAPER_F0_HZ)
    )
    for m in AVERAGING_FACTORS:
        # Measured AVAR / theory: 0.98-1.03.
        assert allan_variance(fractional, m) == pytest.approx(expected, rel=0.35)
    # Exact in expectation; measured ratios 1.0000 +- 2e-4.
    assert _link_ratios(periods) == pytest.approx([1.0] * 3, rel=0.15)
