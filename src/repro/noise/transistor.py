"""MOS transistor model: bias point, transconductance and noise sources.

The multilevel approach of the paper (Fig. 3) starts from "stronger and well
validated low level assumptions based on semiconductor physics".  This module
provides the minimal device model that supports it: a square-law MOSFET with
a bias point, from which the thermal and flicker drain-current noise PSDs of
Section III-A are derived.

The model is intentionally a first-order, hand-calculation style model: the
paper only uses the *form* of the two noise PSDs (white and 1/f), and every
downstream quantity (``b_th``, ``b_fl``, the jitter, the entropy) is a smooth
function of their magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEFAULT_TEMPERATURE_K
from .flicker import FlickerNoiseSource, flicker_current_psd
from .thermal import LONG_CHANNEL_GAMMA, ThermalNoiseSource, thermal_current_psd


@dataclass(frozen=True)
class MOSTransistor:
    """A MOS transistor with its geometry, process parameters and bias.

    Parameters
    ----------
    width_m, length_m:
        Drawn gate width ``W`` and length ``L`` [m].
    kp_a_per_v2:
        Process transconductance parameter ``k' = mu * Cox`` [A/V^2].
    vth_v:
        Threshold voltage [V].
    flicker_alpha:
        Dimensionless flicker constant ``alpha`` of the paper's
        ``S_ids,fl = alpha k T I_D^2 / (W L^2 f)`` expression.
    gamma:
        Thermal-noise excess factor (2/3 long channel, >1 short channel).
    temperature_k:
        Junction temperature [K].
    is_nmos:
        Polarity flag; only used for labelling (the noise model is symmetric).
    """

    width_m: float
    length_m: float
    kp_a_per_v2: float
    vth_v: float
    flicker_alpha: float
    gamma: float = LONG_CHANNEL_GAMMA
    temperature_k: float = DEFAULT_TEMPERATURE_K
    is_nmos: bool = True

    def __post_init__(self) -> None:
        if self.width_m <= 0.0 or self.length_m <= 0.0:
            raise ValueError("transistor W and L must be > 0")
        if self.kp_a_per_v2 <= 0.0:
            raise ValueError("process transconductance k' must be > 0")
        if self.flicker_alpha < 0.0:
            raise ValueError("flicker alpha must be >= 0")
        if self.temperature_k <= 0.0:
            raise ValueError("temperature must be > 0 K")

    @property
    def aspect_ratio(self) -> float:
        """W/L aspect ratio."""
        return self.width_m / self.length_m

    def overdrive_for_current(self, drain_current_a: float) -> float:
        """Gate overdrive ``Vgs - Vth`` needed to conduct ``I_D`` (saturation)."""
        if drain_current_a < 0.0:
            raise ValueError("drain current must be >= 0")
        return float(
            np.sqrt(2.0 * drain_current_a / (self.kp_a_per_v2 * self.aspect_ratio))
        )

    def saturation_current(self, overdrive_v: float) -> float:
        """Square-law saturation current for a given overdrive voltage [A]."""
        if overdrive_v < 0.0:
            raise ValueError("overdrive must be >= 0")
        return 0.5 * self.kp_a_per_v2 * self.aspect_ratio * overdrive_v**2

    def transconductance(self, drain_current_a: float) -> float:
        """Small-signal ``gm = sqrt(2 k' (W/L) I_D)`` at the given bias [S]."""
        if drain_current_a < 0.0:
            raise ValueError("drain current must be >= 0")
        return float(
            np.sqrt(2.0 * self.kp_a_per_v2 * self.aspect_ratio * drain_current_a)
        )

    def thermal_noise_psd(self, drain_current_a: float) -> float:
        """Thermal drain-current noise PSD at the given bias [A^2/Hz]."""
        gm = self.transconductance(drain_current_a)
        return thermal_current_psd(gm, self.temperature_k, self.gamma)

    def flicker_noise_psd(
        self, frequency_hz: np.ndarray | float, drain_current_a: float
    ) -> np.ndarray | float:
        """Flicker drain-current noise PSD at the given bias [A^2/Hz]."""
        return flicker_current_psd(
            frequency_hz,
            drain_current_a,
            self.width_m,
            self.length_m,
            self.flicker_alpha,
            self.temperature_k,
        )

    def thermal_source(self, drain_current_a: float) -> ThermalNoiseSource:
        """Thermal noise source object at the given bias."""
        return ThermalNoiseSource(self.thermal_noise_psd(drain_current_a))

    def flicker_source(self, drain_current_a: float) -> FlickerNoiseSource:
        """Flicker noise source object at the given bias."""
        return FlickerNoiseSource.from_device(
            drain_current_a,
            self.width_m,
            self.length_m,
            self.flicker_alpha,
            self.temperature_k,
        )

    def flicker_corner_hz(self, drain_current_a: float) -> float:
        """Frequency where flicker and thermal PSDs cross [Hz]."""
        thermal = self.thermal_noise_psd(drain_current_a)
        flicker_at_1hz = float(self.flicker_noise_psd(1.0, drain_current_a))
        if thermal <= 0.0:
            raise ValueError("thermal PSD is zero; corner frequency undefined")
        return flicker_at_1hz / thermal

    def scaled(self, shrink_factor: float) -> "MOSTransistor":
        """Return a geometrically shrunk copy of this transistor.

        Both ``W`` and ``L`` are divided by ``shrink_factor`` (> 1 shrinks).
        The paper's conclusion observes that the flicker PSD grows as the
        inverse square of the channel length, so shrinking increases the
        flicker/thermal ratio; this helper supports the technology-scaling
        study (``tests/paper/test_technology_scaling.py``).
        """
        if shrink_factor <= 0.0:
            raise ValueError("shrink factor must be > 0")
        return MOSTransistor(
            width_m=self.width_m / shrink_factor,
            length_m=self.length_m / shrink_factor,
            kp_a_per_v2=self.kp_a_per_v2,
            vth_v=self.vth_v,
            flicker_alpha=self.flicker_alpha,
            gamma=self.gamma,
            temperature_k=self.temperature_k,
            is_nmos=self.is_nmos,
        )


@dataclass(frozen=True)
class InverterCell:
    """A CMOS inverter: an NMOS/PMOS pair plus its load capacitance.

    This is the unit cell of the ring oscillator (Fig. 4).  The Hajimiri ISF
    conversion (``repro.phase.isf``) consumes its switching current, load
    capacitance and the per-transition noise PSDs.
    """

    nmos: MOSTransistor
    pmos: MOSTransistor
    load_capacitance_f: float
    supply_voltage_v: float

    def __post_init__(self) -> None:
        if self.load_capacitance_f <= 0.0:
            raise ValueError("load capacitance must be > 0")
        if self.supply_voltage_v <= 0.0:
            raise ValueError("supply voltage must be > 0")

    def switching_current(self) -> float:
        """Average charging current during a transition [A].

        Uses the NMOS square-law saturation current at an overdrive of
        ``VDD/2 - Vth`` as a first-order estimate of the average current that
        (dis)charges the load during a logic transition.
        """
        overdrive = max(self.supply_voltage_v / 2.0 - self.nmos.vth_v, 0.05)
        return self.nmos.saturation_current(overdrive)

    def propagation_delay(self) -> float:
        """First-order propagation delay ``C_L * VDD / (2 * I_sw)`` [s]."""
        current = self.switching_current()
        if current <= 0.0:
            raise ValueError("switching current must be > 0")
        return self.load_capacitance_f * self.supply_voltage_v / (2.0 * current)

    def total_thermal_psd(self) -> float:
        """Combined thermal drain-current PSD of both devices [A^2/Hz]."""
        current = self.switching_current()
        return self.nmos.thermal_noise_psd(current) + self.pmos.thermal_noise_psd(
            current
        )

    def total_flicker_coefficient(self) -> float:
        """Combined flicker coefficient (PSD x f) of both devices [A^2]."""
        current = self.switching_current()
        nmos_coeff = float(self.nmos.flicker_noise_psd(1.0, current))
        pmos_coeff = float(self.pmos.flicker_noise_psd(1.0, current))
        return nmos_coeff + pmos_coeff
