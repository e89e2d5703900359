"""Virtual Evariste-like FPGA platform (the paper's hardware substitute).

The paper's measurements were performed on the Evariste II modular benchmark
board carrying an Altera Cyclone III FPGA, with two identical ring oscillators
at a mean frequency of 103 MHz.  That hardware is not available here, so the
reproduction provides :class:`VirtualEvaristePlatform`: a software model of
the board that

* instantiates two ring oscillators whose phase-noise coefficients are either
  calibrated to the values the paper fitted (``PAPER_CYCLONE_III``) or derived
  bottom-up from a CMOS technology node;
* exposes the same observables as the real measurement firmware: raw counter
  captures (Fig. 6), relative-jitter records and complete sigma^2_N campaigns;
* optionally applies an attack model (frequency injection, EM harmonic
  injection) to the oscillators, which is how the online-test experiments are
  exercised.

The paper's analysis depends on the oscillators only through the relative
phase-noise PSD (``b_th``, ``b_fl``), which the model reproduces; the tests in
``tests/paper/`` recover the Section IV numbers from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.sigma_n import AccumulatedVarianceCurve
from ..oscillator.ring import RingOscillator
from ..paper import PAPER_B_FLICKER_HZ2, PAPER_B_THERMAL_HZ, PAPER_F0_HZ
from ..phase.psd import PhaseNoisePSD
from .capture import (
    CounterCampaignResult,
    counter_capture_campaign,
    relative_jitter_campaign,
    relative_jitter_record,
)
from .counter import CounterCapture, DifferentialJitterCounter


@dataclass(frozen=True)
class PlatformConfiguration:
    """Static description of a virtual measurement platform.

    Attributes
    ----------
    name:
        Free-form identifier shown in reports.
    f0_hz:
        Nominal frequency of both ring oscillators [Hz].
    oscillator_psd:
        Per-oscillator phase-noise PSD.  The *relative* process observed by
        the measurement circuit has twice these coefficients because the two
        oscillators are independent and identically distributed.
    frequency_mismatch:
        Relative difference between the two nominal frequencies
        (``(f1 - f2)/f0``); real pairs are never perfectly matched.
    n_stages:
        Number of inverter stages per ring (informational).
    """

    name: str
    f0_hz: float
    oscillator_psd: PhaseNoisePSD
    frequency_mismatch: float = 0.0
    n_stages: int = 3

    def __post_init__(self) -> None:
        if self.f0_hz <= 0.0:
            raise ValueError("f0 must be > 0")
        if abs(self.frequency_mismatch) >= 0.05:
            raise ValueError("frequency mismatch must stay below 5%")


#: Configuration calibrated to the paper's measured oscillators: the relative
#: (Osc1 - Osc2) process has b_th = 276.04 Hz and b_fl such that K = 5354, so
#: each of the two identical oscillators carries half of each coefficient.
PAPER_CYCLONE_III = PlatformConfiguration(
    name="Evariste-II / Cyclone III (paper calibration)",
    f0_hz=PAPER_F0_HZ,
    oscillator_psd=PhaseNoisePSD(
        b_thermal_hz=PAPER_B_THERMAL_HZ / 2.0,
        b_flicker_hz2=PAPER_B_FLICKER_HZ2 / 2.0,
    ),
    frequency_mismatch=2e-4,
    n_stages=3,
)


class VirtualEvaristePlatform:
    """Software stand-in for the Evariste II board used in the paper.

    Parameters
    ----------
    configuration:
        Platform description; defaults to the paper-calibrated Cyclone III
        configuration.
    rng:
        Random generator shared by both oscillators (reproducibility).
    """

    def __init__(
        self,
        configuration: PlatformConfiguration = PAPER_CYCLONE_III,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.configuration = configuration
        self.rng = np.random.default_rng() if rng is None else rng
        f0 = configuration.f0_hz
        mismatch = configuration.frequency_mismatch
        self.oscillator_1 = RingOscillator(
            f0_hz=f0 * (1.0 + mismatch / 2.0),
            psd=configuration.oscillator_psd,
            n_stages=configuration.n_stages,
            rng=self.rng,
            name="Osc1",
        )
        self.oscillator_2 = RingOscillator(
            f0_hz=f0 * (1.0 - mismatch / 2.0),
            psd=configuration.oscillator_psd,
            n_stages=configuration.n_stages,
            rng=self.rng,
            name="Osc2",
        )

    @property
    def f0_hz(self) -> float:
        """Nominal oscillator frequency of the platform [Hz]."""
        return self.configuration.f0_hz

    @property
    def relative_psd(self) -> PhaseNoisePSD:
        """Ground-truth PSD of the relative (Osc1 vs Osc2) jitter process."""
        psd = self.configuration.oscillator_psd
        return PhaseNoisePSD(
            b_thermal_hz=2.0 * psd.b_thermal_hz,
            b_flicker_hz2=2.0 * psd.b_flicker_hz2,
        )

    # -- measurement paths ----------------------------------------------------

    def counter_capture(self, n_accumulations: int, n_windows: int) -> CounterCapture:
        """One counter capture exactly as the Fig. 6 firmware would produce it."""
        counter = DifferentialJitterCounter(self.oscillator_1, self.oscillator_2)
        return counter.capture(n_accumulations, n_windows)

    def relative_jitter(self, n_periods: int) -> np.ndarray:
        """Ideal (non-quantised) relative period record [s]."""
        return relative_jitter_record(
            self.oscillator_1, self.oscillator_2, n_periods
        )

    def sigma2_n_campaign(
        self,
        n_periods: int,
        n_sweep: Optional[Sequence[int]] = None,
        min_realizations: int = 8,
    ) -> AccumulatedVarianceCurve:
        """Full Fig. 7 campaign using the ideal relative-timing path."""
        return relative_jitter_campaign(
            self.oscillator_1,
            self.oscillator_2,
            n_periods,
            n_sweep=n_sweep,
            min_realizations=min_realizations,
        )

    def counter_campaign(
        self,
        n_sweep: Sequence[int],
        n_windows: int = 256,
        correct_quantization: bool = True,
    ) -> CounterCampaignResult:
        """Full Fig. 7 campaign using the quantised counter path."""
        return counter_capture_campaign(
            self.oscillator_1,
            self.oscillator_2,
            n_sweep,
            n_windows=n_windows,
            correct_quantization=correct_quantization,
        )

    def __repr__(self) -> str:
        return (
            f"VirtualEvaristePlatform({self.configuration.name!r}, "
            f"f0={self.f0_hz / 1e6:.1f} MHz)"
        )
