"""Reference values reported in the paper (Sections III-E and IV-B).

These constants are used by the paper-claim tests in ``tests/paper/`` (each
tolerance there names the paper value and the value measured) and by the
``PAPER_CYCLONE_III`` configuration that calibrates the virtual FPGA platform
to the oscillators measured in the paper.

The published experiment (Evariste II board, Altera Cyclone III FPGA):

* two identical ring oscillators at a mean frequency of 103 MHz;
* fitted thermal slope ``f0^2 sigma^2_N,th = 5.36e-6 * N``;
* hence ``b_th = 5.36e-6 / 2 * f0 = 276.04 Hz``;
* thermal-only period jitter ``sigma_th = sqrt(b_th/f0^3) ~= 15.89 ps``;
* relative jitter ``sigma/T0 ~= 1.6 permille``;
* thermal/total ratio ``r_N = 5354 / (5354 + N)``;
* 95 % thermal-dominance threshold ``N < 281``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase.psd import PhaseNoisePSD

#: Mean oscillation frequency of the two measured ring oscillators [Hz].
PAPER_F0_HZ = 103e6

#: Fitted slope of the normalised thermal term ``f0^2 sigma^2_N,th`` vs N.
PAPER_NORMALIZED_THERMAL_SLOPE = 5.36e-6

#: Thermal phase-noise coefficient reported in Section IV-B [Hz].
PAPER_B_THERMAL_HZ = 276.04

#: Constant of the ratio ``r_N = K / (K + N)`` reported in Section III-E.
PAPER_RATIO_CONSTANT_K = 5354.0

#: Flicker coefficient implied by ``K = b_th f0 / (4 ln2 b_fl)`` [Hz^2].
PAPER_B_FLICKER_HZ2 = PAPER_B_THERMAL_HZ * PAPER_F0_HZ / (
    4.0 * np.log(2.0) * PAPER_RATIO_CONSTANT_K
)

#: Thermal-only period jitter reported in Section IV-B [s].
PAPER_THERMAL_JITTER_S = 15.89e-12

#: Relative jitter sigma/T0 reported in Section IV-B (per-mille).
PAPER_JITTER_RATIO_PERMILLE = 1.6

#: 95 % thermal-dominance threshold on N reported in Section III-E.
PAPER_INDEPENDENCE_THRESHOLD_N = 281

#: Thermal-dominance requirement used for the threshold above.
PAPER_MIN_THERMAL_RATIO = 0.95


def paper_phase_noise_psd() -> PhaseNoisePSD:
    """The relative (Osc1 vs Osc2) phase-noise PSD fitted in the paper.

    Note that the paper's measurement is *differential*: the counter circuit of
    Fig. 6 observes the jitter of Osc1 relative to Osc2, so the fitted
    ``b_th``/``b_fl`` describe the combined (relative) process.  The virtual
    platform therefore assigns half of each coefficient to each of the two
    (independent, identical) oscillators.
    """
    return PhaseNoisePSD(
        b_thermal_hz=PAPER_B_THERMAL_HZ, b_flicker_hz2=PAPER_B_FLICKER_HZ2
    )


def paper_single_oscillator_psd() -> PhaseNoisePSD:
    """Per-oscillator PSD: half of the relative coefficients (see above)."""
    return PhaseNoisePSD(
        b_thermal_hz=PAPER_B_THERMAL_HZ / 2.0,
        b_flicker_hz2=PAPER_B_FLICKER_HZ2 / 2.0,
    )


@dataclass(frozen=True)
class PaperReference:
    """All headline numbers of the paper, bundled for the benchmark reports."""

    f0_hz: float = PAPER_F0_HZ
    normalized_thermal_slope: float = PAPER_NORMALIZED_THERMAL_SLOPE
    b_thermal_hz: float = PAPER_B_THERMAL_HZ
    b_flicker_hz2: float = PAPER_B_FLICKER_HZ2
    ratio_constant: float = PAPER_RATIO_CONSTANT_K
    thermal_jitter_s: float = PAPER_THERMAL_JITTER_S
    jitter_ratio_permille: float = PAPER_JITTER_RATIO_PERMILLE
    independence_threshold_n: int = PAPER_INDEPENDENCE_THRESHOLD_N
    min_thermal_ratio: float = PAPER_MIN_THERMAL_RATIO


PAPER_REFERENCE = PaperReference()
