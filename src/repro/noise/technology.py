"""Representative CMOS technology nodes for the scaling study.

The paper's conclusion argues that, because the flicker PSD scales as the
inverse square of the channel length, technology shrinking will make flicker
noise dominate further over thermal noise, shrinking the range of ``N`` over
which jitter realizations may be treated as independent.
``tests/paper/test_technology_scaling.py`` sweeps the nodes defined here.

The parameter values are *representative hand-calculation* numbers (supply,
threshold, k', typical inverter sizing and load), not foundry data — foundry
PDKs are proprietary.  What matters for the reproduction is the trend with
``L``, which ``tests/paper/test_technology_scaling.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .transistor import InverterCell, MOSTransistor


@dataclass(frozen=True)
class TechnologyNode:
    """Parameter set of one CMOS node, sufficient to build an inverter cell."""

    name: str
    feature_size_m: float
    supply_voltage_v: float
    threshold_voltage_v: float
    kp_nmos_a_per_v2: float
    kp_pmos_a_per_v2: float
    flicker_alpha: float
    gamma: float
    inverter_width_multiplier_n: float
    inverter_width_multiplier_p: float
    load_capacitance_f: float

    def nmos(self) -> MOSTransistor:
        """NMOS device of a minimum-length inverter in this node."""
        return MOSTransistor(
            width_m=self.inverter_width_multiplier_n * self.feature_size_m,
            length_m=self.feature_size_m,
            kp_a_per_v2=self.kp_nmos_a_per_v2,
            vth_v=self.threshold_voltage_v,
            flicker_alpha=self.flicker_alpha,
            gamma=self.gamma,
            is_nmos=True,
        )

    def pmos(self) -> MOSTransistor:
        """PMOS device of a minimum-length inverter in this node."""
        return MOSTransistor(
            width_m=self.inverter_width_multiplier_p * self.feature_size_m,
            length_m=self.feature_size_m,
            kp_a_per_v2=self.kp_pmos_a_per_v2,
            vth_v=self.threshold_voltage_v,
            flicker_alpha=self.flicker_alpha,
            gamma=self.gamma,
            is_nmos=False,
        )

    def inverter(self) -> InverterCell:
        """Minimum-size inverter cell in this node."""
        return InverterCell(
            nmos=self.nmos(),
            pmos=self.pmos(),
            load_capacitance_f=self.load_capacitance_f,
            supply_voltage_v=self.supply_voltage_v,
        )


def _node(
    name: str,
    feature_nm: float,
    vdd: float,
    vth: float,
    kp_n_ua: float,
    kp_p_ua: float,
    alpha: float,
    gamma: float,
    load_ff: float,
) -> TechnologyNode:
    return TechnologyNode(
        name=name,
        feature_size_m=feature_nm * 1e-9,
        supply_voltage_v=vdd,
        threshold_voltage_v=vth,
        kp_nmos_a_per_v2=kp_n_ua * 1e-6,
        kp_pmos_a_per_v2=kp_p_ua * 1e-6,
        flicker_alpha=alpha,
        gamma=gamma,
        inverter_width_multiplier_n=4.0,
        inverter_width_multiplier_p=8.0,
        load_capacitance_f=load_ff * 1e-15,
    )


#: Representative node library, from mature to deeply scaled.  ``gamma``
#: increases (short-channel thermal excess noise) and ``alpha`` increases
#: slightly (thinner oxides, more trapping) while the load shrinks.  The
#: ``alpha`` values are calibrated so minimum-size inverters exhibit 1/f
#: corner frequencies in the MHz-to-hundreds-of-MHz range, as reported for
#: bulk CMOS ring-oscillator devices.
TECHNOLOGY_LIBRARY: Dict[str, TechnologyNode] = {
    node.name: node
    for node in [
        _node("180nm", 180.0, 1.8, 0.45, 170.0, 60.0, 1.0e-8, 0.70, 12.0),
        _node("130nm", 130.0, 1.5, 0.40, 220.0, 80.0, 1.2e-8, 0.75, 8.0),
        _node("90nm", 90.0, 1.2, 0.35, 280.0, 100.0, 1.5e-8, 0.85, 5.0),
        _node("65nm", 65.0, 1.2, 0.35, 350.0, 130.0, 1.8e-8, 1.00, 3.5),
        _node("40nm", 40.0, 1.1, 0.32, 420.0, 160.0, 2.2e-8, 1.15, 2.2),
        _node("28nm", 28.0, 1.0, 0.30, 500.0, 200.0, 2.8e-8, 1.30, 1.5),
    ]
}


def get_node(name: str) -> TechnologyNode:
    """Look up a technology node by name (e.g. ``"65nm"``).

    Raises
    ------
    KeyError
        If the node is not in :data:`TECHNOLOGY_LIBRARY`.
    """
    try:
        return TECHNOLOGY_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGY_LIBRARY))
        raise KeyError(f"unknown technology node {name!r}; known nodes: {known}")


def list_nodes() -> List[str]:
    """Names of the available nodes, ordered from largest to smallest feature."""
    return sorted(
        TECHNOLOGY_LIBRARY,
        key=lambda name: TECHNOLOGY_LIBRARY[name].feature_size_m,
        reverse=True,
    )
