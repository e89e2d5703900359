"""Shared fixtures of the paper-claim tests.

Each test in this directory checks one number or shape the paper reports
against the virtual Cyclone III platform (the hardware substitute), and
states next to each tolerance the paper value and the value measured on the
fixture it uses.  Two platform records feed them, both built once per
session with a fixed seed:

* the **Fig. 7 record** — 400,000 relative-jitter periods, from which the
  Fig. 7 curve and the Section IV extraction are computed;
* the **campaign curve** — a complete 250,000-period ``sigma2_n_campaign``
  run on a second platform instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import accumulated_variance_curve, extract_thermal_noise_from_curve
from repro.measurement import VirtualEvaristePlatform


@pytest.fixture(scope="session")
def fig7_platform() -> VirtualEvaristePlatform:
    """Paper-calibrated platform behind the Fig. 7 record."""
    return VirtualEvaristePlatform(rng=np.random.default_rng(20140324))


@pytest.fixture(scope="session")
def fig7_record(fig7_platform) -> np.ndarray:
    """A 400,000-period relative-jitter record captured on the platform."""
    return fig7_platform.relative_jitter(400_000)


@pytest.fixture(scope="session")
def fig7_curve(fig7_record, fig7_platform):
    """The sigma^2_N vs N curve behind Fig. 7."""
    return accumulated_variance_curve(
        fig7_record, fig7_platform.f0_hz, min_realizations=16
    )


@pytest.fixture(scope="session")
def fig7_report(fig7_curve):
    """The Section IV thermal-noise extraction applied to the Fig. 7 curve."""
    return extract_thermal_noise_from_curve(fig7_curve)


@pytest.fixture(scope="session")
def campaign_curve():
    """A complete Fig. 7 campaign (250,000 periods) on a second platform."""
    platform = VirtualEvaristePlatform(rng=np.random.default_rng(2014))
    return platform.sigma2_n_campaign(n_periods=250_000)


@pytest.fixture(scope="session")
def campaign_report(campaign_curve):
    """The Section IV thermal-noise extraction applied to the campaign curve."""
    return extract_thermal_noise_from_curve(campaign_curve)
