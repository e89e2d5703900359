"""Frequency-injection attack on ring-oscillator TRNGs (Markettos & Moore, CHES 2009).

The introduction of the paper cites the frequency-injection attack as one of
the non-invasive attacks that motivate precise stochastic models and online
tests: injecting a signal close to the oscillator frequency (through the power
supply or an input pin) pulls the ring into injection locking, which

* suppresses the random (thermal) jitter of the locked oscillator, and
* correlates the two oscillators of an eRO-TRNG, killing the *relative*
  jitter the TRNG harvests.

:class:`FrequencyInjectionAttack` wraps any clock and produces the periods the
attacked oscillator would exhibit, parameterised by a locking strength in
``[0, 1]`` (0 = no effect, 1 = fully locked) and the injected frequency.  The
model captures the two first-order effects above without simulating the full
Adler injection-locking dynamics — sufficient for exercising the online tests
of the paper's conclusion (``tests/paper/test_online_test.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..oscillator.period_model import Clock


@dataclass(frozen=True)
class InjectionParameters:
    """Parameters of a frequency-injection attack.

    Attributes
    ----------
    injection_frequency_hz:
        Frequency of the injected signal [Hz].
    locking_strength:
        0 (no locking) .. 1 (complete lock).  Random jitter is scaled by
        ``sqrt(1 - strength)`` and the oscillator frequency is pulled toward
        the injection frequency proportionally to the strength.
    deterministic_modulation_fraction:
        Amplitude of the residual deterministic (beat) modulation of the
        period, as a fraction of the nominal period.
    """

    injection_frequency_hz: float
    locking_strength: float
    deterministic_modulation_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.injection_frequency_hz <= 0.0:
            raise ValueError("injection frequency must be > 0")
        if not 0.0 <= self.locking_strength <= 1.0:
            raise ValueError("locking strength must be in [0, 1]")
        if self.deterministic_modulation_fraction < 0.0:
            raise ValueError("modulation fraction must be >= 0")


class FrequencyInjectionAttack:
    """A clock wrapper modelling an oscillator under frequency injection.

    The attacker does not control the phase of the injected signal relative
    to the victim's oscillation at attack onset, so the beat modulation
    starts at a random initial phase drawn from ``rng`` at construction.
    Passing a seeded generator makes the whole attack reproducible; two
    attacks built from identically seeded generators produce bit-identical
    period sequences.
    """

    def __init__(
        self,
        victim: Clock,
        parameters: InjectionParameters,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.victim = victim
        self.parameters = parameters
        self.rng = np.random.default_rng() if rng is None else rng
        self._injection_phase_rad = float(self.rng.uniform(0.0, 2.0 * np.pi))
        self._phase_index = 0

    @property
    def f0_hz(self) -> float:
        """Frequency of the attacked oscillator: pulled toward the injection."""
        strength = self.parameters.locking_strength
        return (
            (1.0 - strength) * self.victim.f0_hz
            + strength * self.parameters.injection_frequency_hz
        )

    def periods(self, n_periods: int) -> np.ndarray:
        """Periods of the attacked oscillator [s].

        The victim's jitter (deviation from its own nominal period) is scaled
        by ``sqrt(1 - locking_strength)``; a deterministic beat-frequency
        modulation is added on top, and the mean period is shifted to the
        pulled frequency.
        """
        if n_periods < 0:
            raise ValueError("n_periods must be >= 0")
        victim_periods = self.victim.periods(n_periods)
        victim_nominal = 1.0 / self.victim.f0_hz
        jitter = victim_periods - victim_nominal
        strength = self.parameters.locking_strength
        suppressed_jitter = jitter * np.sqrt(max(1.0 - strength, 0.0))
        pulled_nominal = 1.0 / self.f0_hz
        periods = pulled_nominal + suppressed_jitter
        modulation = self.parameters.deterministic_modulation_fraction
        if modulation > 0.0 and n_periods > 0:
            beat_frequency = abs(
                self.parameters.injection_frequency_hz - self.victim.f0_hz
            )
            indices = self._phase_index + np.arange(n_periods)
            phase = (
                2.0 * np.pi * beat_frequency * indices / self.victim.f0_hz
                + self._injection_phase_rad
            )
            periods = periods + modulation * pulled_nominal * np.sin(phase)
            self._phase_index += n_periods
        return periods

    def edge_times(self, n_periods: int, start_time_s: float = 0.0) -> np.ndarray:
        """Rising-edge times of the attacked oscillator [s]."""
        periods = self.periods(n_periods)
        edges = np.empty(n_periods + 1)
        edges[0] = start_time_s
        np.cumsum(periods, out=edges[1:])
        edges[1:] += start_time_s
        return edges
