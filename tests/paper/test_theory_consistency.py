"""Eq. 11 versus Eq. 9: the closed form against the Wiener-Khintchine integral.

Eq. 9 expresses sigma^2_N as an integral of the phase PSD weighted by
sin^4; Eq. 11 is its closed form for ``S_phi = b_fl/f^3 + b_th/f^2``.  The
two must agree to numerical precision over (b_th, b_fl, N).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.theory import sigma2_n_closed_form, sigma2_n_integral
from repro.paper import (
    PAPER_B_FLICKER_HZ2,
    PAPER_B_THERMAL_HZ,
    PAPER_F0_HZ,
    paper_phase_noise_psd,
)
from repro.phase import PhaseNoisePSD

SWEEP = [
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 1),
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 10),
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 100),
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 300),
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 3000),
    (PAPER_B_THERMAL_HZ, PAPER_B_FLICKER_HZ2, 10_000),
    (10.0, 1e8, 50),
    (1e4, 10.0, 50),
]


def test_closed_form_is_increasing_in_n():
    result = sigma2_n_closed_form(
        paper_phase_noise_psd(), PAPER_F0_HZ, np.arange(1, 100_001)
    )
    assert np.all(np.diff(result) > 0.0)


@pytest.mark.parametrize("b_thermal_hz, b_flicker_hz2, n", SWEEP)
def test_integral_matches_closed_form(b_thermal_hz, b_flicker_hz2, n):
    psd = PhaseNoisePSD(b_thermal_hz, b_flicker_hz2)
    closed = float(sigma2_n_closed_form(psd, PAPER_F0_HZ, n))
    integral = sigma2_n_integral(psd, PAPER_F0_HZ, n)
    # Exact identity; measured largest relative deviation 1.2e-9.
    assert integral == pytest.approx(closed, rel=1e-6)
