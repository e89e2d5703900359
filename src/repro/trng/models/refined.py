"""Refined (multilevel) entropy model: only thermal jitter counts as fresh entropy.

The paper's conclusion: classical models fold the *total* measured jitter —
thermal plus flicker — into the accumulated variance and, assuming mutual
independence, predict an entropy per bit that is higher than reality, "the
entropy per bit at the generator output and in consequence also the security
was thus much lower than expected".

The refined model implemented here follows the paper's recommendation:

* the per-period jitter variance fed to the Wiener/Baudet machinery is the
  *thermal-only* variance ``sigma_th^2 = b_th / f0^3`` extracted via the
  Section IV pipeline (the flicker component is autocorrelated, hence partly
  predictable by an attacker who observed the past, and must not be counted);
* the *naive* figure that a classical evaluation would have produced is also
  computed, by back-dividing the total accumulated variance measured over a
  calibration window of ``N_cal`` periods — this is what
  ``tests/paper/test_entropy_models.py`` compares against the refined figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from ...core.theory import sigma2_n_closed_form
from ...phase.psd import PhaseNoisePSD
from .baudet import BaudetModel, entropy_lower_bound, quality_factor


@dataclass(frozen=True)
class EntropyComparison:
    """Naive vs refined entropy prediction for one accumulation length."""

    accumulation_length: int
    naive_entropy: float
    refined_entropy: float
    naive_quality_factor: float
    refined_quality_factor: float

    @property
    def overestimation(self) -> float:
        """How much entropy the naive model promises in excess of the refined one."""
        return self.naive_entropy - self.refined_entropy


class RefinedEntropyModel:
    """Entropy model of an eRO-TRNG driven by the fitted ``b_th``/``b_fl``.

    Parameters
    ----------
    f0_hz:
        Nominal frequency of the oscillators [Hz].
    relative_psd:
        Phase-noise PSD of the *relative* jitter process between the two
        rings (the sum of the two per-oscillator PSDs).
    """

    def __init__(self, f0_hz: float, relative_psd: PhaseNoisePSD) -> None:
        if f0_hz <= 0.0:
            raise ValueError("f0 must be > 0")
        self.f0_hz = float(f0_hz)
        self.relative_psd = relative_psd

    @property
    def nominal_period_s(self) -> float:
        """Nominal period ``T0`` [s]."""
        return 1.0 / self.f0_hz

    @property
    def thermal_per_period_variance_s2(self) -> float:
        """Thermal-only per-period variance ``b_th / f0^3`` [s^2]."""
        return self.relative_psd.thermal_period_jitter_variance(self.f0_hz)

    # -- refined (paper) prediction ------------------------------------------

    def refined_quality_factor(self, accumulation_length: int) -> float:
        """``Q`` computed from the thermal-only accumulated variance."""
        if accumulation_length < 1:
            raise ValueError("accumulation length must be >= 1")
        accumulated = self.thermal_per_period_variance_s2 * accumulation_length
        return quality_factor(accumulated, self.nominal_period_s)

    def entropy_per_bit(self, accumulation_length: int) -> float:
        """Refined entropy lower bound after ``N`` periods of accumulation."""
        return entropy_lower_bound(self.refined_quality_factor(accumulation_length))

    def accumulation_for_entropy(self, min_entropy_per_bit: float) -> int:
        """Smallest ``N`` achieving the target entropy, counting thermal noise only."""
        baudet = BaudetModel(self.f0_hz, self.thermal_per_period_variance_s2)
        return baudet.accumulation_for_entropy(min_entropy_per_bit)

    # -- naive (classical) prediction ------------------------------------------

    def naive_per_period_variance_s2(self, calibration_length: int) -> float:
        """Per-period variance a classical evaluation would infer.

        The classical procedure measures the accumulated variance over
        ``N_cal`` periods and divides by ``2 N_cal`` (Bienayme, Eq. 6),
        implicitly assuming independence.  Because ``sigma^2_N`` also contains
        the flicker term, the inferred per-period variance is inflated by the
        factor ``1 + N_cal / K``.
        """
        if calibration_length < 1:
            raise ValueError("calibration length must be >= 1")
        total = float(
            sigma2_n_closed_form(self.relative_psd, self.f0_hz, calibration_length)
        )
        return total / (2.0 * calibration_length)

    def naive_quality_factor(
        self, accumulation_length: int, calibration_length: Optional[int] = None
    ) -> float:
        """``Q`` under the classical independence assumption."""
        if accumulation_length < 1:
            raise ValueError("accumulation length must be >= 1")
        calibration = (
            accumulation_length if calibration_length is None else calibration_length
        )
        per_period = self.naive_per_period_variance_s2(calibration)
        return quality_factor(
            per_period * accumulation_length, self.nominal_period_s
        )

    def naive_entropy_per_bit(
        self, accumulation_length: int, calibration_length: Optional[int] = None
    ) -> float:
        """Entropy the classical model would claim for the same design point."""
        return entropy_lower_bound(
            self.naive_quality_factor(accumulation_length, calibration_length)
        )

    # -- side-by-side comparison -----------------------------------------------

    def compare(
        self, accumulation_length: int, calibration_length: Optional[int] = None
    ) -> EntropyComparison:
        """Naive vs refined prediction at one accumulation length."""
        return EntropyComparison(
            accumulation_length=int(accumulation_length),
            naive_entropy=self.naive_entropy_per_bit(
                accumulation_length, calibration_length
            ),
            refined_entropy=self.entropy_per_bit(accumulation_length),
            naive_quality_factor=self.naive_quality_factor(
                accumulation_length, calibration_length
            ),
            refined_quality_factor=self.refined_quality_factor(accumulation_length),
        )
