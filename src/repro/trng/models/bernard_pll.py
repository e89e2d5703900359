"""Bernard-Fischer-Valtchanov stochastic model of the PLL-based (coherent-sampling) TRNG.

Bernard, Fischer and Valtchanov ("Mathematical model of physical RNGs based on
coherent sampling", 2010) analyse a TRNG in which a PLL-synthesized clock at
``f_ref * K_M / K_D`` is sampled by the reference clock.  Thanks to the
rational frequency ratio, the relative phase of the two clocks visits ``K_M``
equidistant positions (pitch ``T_out / K_D``) before the pattern repeats.
Samples whose distance to the nearest clock edge is small compared to the
jitter are random; the others are deterministic.

The model below computes, for a given jitter, the per-sample probability of a
"1", the expected number of random samples per pattern and the entropy per
pattern — the figures the original paper uses to dimension ``K_M``/``K_D``.
Like the other classical models it assumes the per-sample jitter realizations
are independent, which is reasonable here because the PLL loop filters out the
slow flicker wander (see ``repro.oscillator.pll``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...oscillator.pll import PLLConfiguration
from ..entropy import binary_entropy


@dataclass(frozen=True)
class CoherentSamplingModel:
    """Stochastic model of one coherent-sampling pattern.

    Parameters
    ----------
    configuration:
        The PLL ratio and output jitter.
    reference_frequency_hz:
        Frequency of the sampling (reference) clock [Hz].
    duty_cycle:
        Duty cycle of the sampled (PLL output) clock.
    """

    configuration: PLLConfiguration
    reference_frequency_hz: float
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.reference_frequency_hz <= 0.0:
            raise ValueError("reference frequency must be > 0")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty cycle must be in (0, 1)")

    @property
    def output_period_s(self) -> float:
        """Period of the PLL-synthesized (sampled) clock [s]."""
        ratio = (
            self.configuration.multiplication_factor
            / self.configuration.division_factor
        )
        return 1.0 / (self.reference_frequency_hz * ratio)

    @property
    def phase_positions_s(self) -> np.ndarray:
        """Relative phase of each of the ``K_D`` samples within one output period [s].

        With coherent sampling the ``K_D`` samples of one pattern land on a
        regular grid of pitch ``T_out / K_D`` (in some pattern-dependent
        order; the order does not affect the entropy computation).
        """
        k_d = self.configuration.division_factor
        return (np.arange(k_d) + 0.5) * self.output_period_s / k_d

    def probability_of_one(self) -> np.ndarray:
        """Probability that each sample of the pattern reads 1.

        A sample at relative phase ``x`` reads the sampled clock high when the
        (jittered) rising edge happens before ``x`` and the falling edge after
        it; with Gaussian edge jitter ``sigma`` this is a difference of two
        normal CDFs centred on the two edges.
        """
        from scipy import stats

        sigma = self.configuration.output_jitter_std_s
        period = self.output_period_s
        positions = self.phase_positions_s
        rising_edge = 0.0
        falling_edge = self.duty_cycle * period
        if sigma == 0.0:
            return ((positions >= rising_edge) & (positions < falling_edge)).astype(
                float
            )
        after_rising = stats.norm.cdf((positions - rising_edge) / sigma)
        after_falling = stats.norm.cdf((positions - falling_edge) / sigma)
        # Wrap-around of the previous period's falling edge.
        after_previous_falling = stats.norm.cdf(
            (positions - (falling_edge - period)) / sigma
        )
        return np.clip(
            after_rising - after_falling + (1.0 - after_previous_falling), 0.0, 1.0
        )

    def sensitive_samples(self, probability_margin: float = 0.01) -> int:
        """Number of samples per pattern whose outcome is genuinely uncertain."""
        if not 0.0 < probability_margin < 0.5:
            raise ValueError("probability margin must be in (0, 0.5)")
        probabilities = self.probability_of_one()
        uncertain = (probabilities > probability_margin) & (
            probabilities < 1.0 - probability_margin
        )
        return int(np.count_nonzero(uncertain))

    def entropy_per_pattern(self) -> float:
        """Shannon entropy contributed by one pattern of ``K_D`` samples [bits].

        Samples are treated as independent (the PLL jitter is white), so the
        pattern entropy is the sum of the per-sample binary entropies.
        """
        probabilities = self.probability_of_one()
        return float(sum(binary_entropy(float(p)) for p in probabilities))

    def entropy_per_output_bit(self) -> float:
        """Entropy per output bit when the pattern is XOR-compressed to one bit.

        The original design XORs the ``K_D`` samples of a pattern into a single
        output bit; the piling-up lemma gives the resulting bias.
        """
        probabilities = self.probability_of_one()
        # Bias of the XOR of independent bits: product of individual biases
        # times 2^(n-1) (piling-up lemma), folded into probability space.
        correlation = np.prod(1.0 - 2.0 * probabilities)
        probability_one = 0.5 * (1.0 - correlation)
        return binary_entropy(float(probability_one))


def sweep_jitter(
    configuration: PLLConfiguration,
    reference_frequency_hz: float,
    jitter_values_s: np.ndarray,
) -> List[float]:
    """Entropy per output bit as a function of the PLL output jitter."""
    results = []
    for jitter in np.asarray(jitter_values_s, dtype=float):
        swept = PLLConfiguration(
            multiplication_factor=configuration.multiplication_factor,
            division_factor=configuration.division_factor,
            output_jitter_std_s=float(jitter),
        )
        model = CoherentSamplingModel(swept, reference_frequency_hz)
        results.append(model.entropy_per_output_bit())
    return results
