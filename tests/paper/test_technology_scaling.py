"""Conclusion: flicker noise dominates more as technology shrinks.

"Since the flicker noise ... is related to the technology (its PSD is the
inverse of the square of the channel length), it can be expected that the
autocorrelated noise will become more and more important in future": r_N
drops and the independence threshold shrinks from node to node.  The full
bottom-up multilevel pipeline (device -> noise PSDs -> ISF -> b_th/b_fl ->
K, threshold) runs for every node of the library.
"""

from __future__ import annotations

from repro.core.multilevel import MultilevelModel
from repro.noise.technology import list_nodes

N_STAGES = 5
MIN_THERMAL_RATIO = 0.95


def test_scaling_shrinks_independence_threshold():
    models = [MultilevelModel.from_technology(name, N_STAGES) for name in list_nodes()]
    thresholds = [model.independence_threshold(MIN_THERMAL_RATIO) for model in models]
    ratios_at_1000 = [model.thermal_ratio(1000) for model in models]
    # list_nodes() runs from the largest node to the smallest: the threshold
    # and the thermal ratio must shrink monotonically along it.  Measured
    # thresholds 180 nm -> 28 nm: 350, 275, 230, 123, 51, 29.
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
    assert all(b < a for a, b in zip(ratios_at_1000, ratios_at_1000[1:]))
