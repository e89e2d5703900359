"""Conclusion: the embedded thermal-noise test as an attack detector.

The thermal-noise measurement "can be used for implementing fast and precise
generator-specific statistical test.  Such test, required by AIS31, could
detect very quickly attacks targeting the entropy source."  A healthy
oscillator pair is characterised, then a frequency-injection attack of
increasing strength is applied: the paper's thermal online test fires while
the bits may still look balanced to a bit-level monobit test.
"""

from __future__ import annotations

import numpy as np

from repro.ais31.online import monobit_online_test
from repro.ais31.thermal_test import ThermalNoiseOnlineTest
from repro.attacks.frequency_injection import (
    FrequencyInjectionAttack,
    InjectionParameters,
)
from repro.oscillator.period_model import JitteryClock
from repro.phase import PhaseNoisePSD
from repro.trng.digitizer import DFlipFlopSampler

F0 = 1e8
PER_OSCILLATOR_PSD = PhaseNoisePSD(b_thermal_hz=5e4, b_flicker_hz2=1e7)
REFERENCE_B_THERMAL = 2.0 * PER_OSCILLATOR_PSD.b_thermal_hz
ATTACK_STRENGTHS = [0.0, 0.5, 0.9, 0.99]


def _attacked_pair(strength: float, seed: int):
    rng = np.random.default_rng(seed)
    osc1 = JitteryClock(F0, PER_OSCILLATOR_PSD, rng=rng)
    osc2 = JitteryClock(F0, PER_OSCILLATOR_PSD, rng=rng)
    if strength == 0.0:
        return osc1, osc2
    parameters = InjectionParameters(
        injection_frequency_hz=F0, locking_strength=strength
    )
    return (
        FrequencyInjectionAttack(osc1, parameters, rng=np.random.default_rng(seed + 1)),
        FrequencyInjectionAttack(osc2, parameters, rng=np.random.default_rng(seed + 2)),
    )


def _online_test() -> ThermalNoiseOnlineTest:
    return ThermalNoiseOnlineTest(
        reference_b_thermal_hz=REFERENCE_B_THERMAL,
        minimum_ratio=0.5,
        accumulation_lengths=(2048, 8192),
        n_windows=256,
    )


def test_thermal_online_test_detection_curve():
    online = _online_test()
    results = [
        online.execute(*_attacked_pair(strength, seed=100 + index))
        for index, strength in enumerate(ATTACK_STRENGTHS)
    ]
    # Measured b_th ratio (alarm below 0.5): 0.86, 0.55, 0.11, 0.00.
    assert results[0].passed
    assert not results[-1].passed
    assert results[-1].ratio < results[0].ratio


def test_thermal_test_fires_before_monobit_test():
    """At locking strength 0.9 the thermal test alarms while the bit-level
    monobit test still sees balanced output."""
    strength = 0.9
    thermal = _online_test().execute(*_attacked_pair(strength, seed=300))
    # Measured b_th ratio 0.10 (alarm below 0.5).
    assert not thermal.passed

    sampler = DFlipFlopSampler(*_attacked_pair(strength, seed=301), divider=256)
    monobit = monobit_online_test(block_size_bits=20_000).run(
        sampler.sample(40_000).bits
    )
    # Measured 10,099 and 9,854 ones per 20,000-bit block: no alarm.
    assert not monobit.alarm
