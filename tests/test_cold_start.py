"""Cold start: serving and campaigns never load scipy.

scipy backs only the statistical tests, PSD estimators, the Eq. 9 quadrature
and the PLL-TRNG model, and each of those modules imports it inside the
function that uses it.  Importing it costs a serving or campaign process
most of its start-up time and resident memory, so the entry points must run
end to end with scipy unavailable.  The second group calls one scipy-backed
function per deferred module, so a deferred import that names the wrong
scipy symbol fails here rather than at a user's first call.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

_WITHOUT_SCIPY = textwrap.dedent(
    """
    import asyncio
    import sys

    sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError

    import repro
    import repro.campaigns
    import repro.serve
    from repro import BitsRequest, ServiceConfig, TRNGService
    from repro.engine.distributed import (
        BitCampaignSpec,
        Sigma2NCampaignSpec,
        run_campaign,
    )

    async def serve_one():
        async with TRNGService(ServiceConfig(max_wait_ms=1.0)) as service:
            return await service.get_bits(BitsRequest(n_bits=64, divider=16, seed=3))

    served = asyncio.run(serve_one())
    assert served.bits.shape == (64,), served.bits.shape
    sigma2n = run_campaign(
        Sigma2NCampaignSpec(batch_size=2, n_periods=4096, seed=5), n_shards=2
    )
    assert sigma2n.sigma2_s2.shape[0] == 2
    bits = run_campaign(
        BitCampaignSpec(batch_size=2, n_bits=256, dividers=(16,), seed=5),
        n_shards=2,
    )
    assert bits is not None
    loaded = sorted(
        name
        for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    )
    assert not loaded, loaded
    print("ok")
    """
)


def test_serving_and_campaigns_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *sys.path]))
    completed = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert completed.stdout.strip().endswith("ok")


def test_ais31_tests_load_scipy_on_first_use():
    from repro.ais31.nist import nist_battery
    from repro.ais31.procedure_b import procedure_b

    bits = np.random.default_rng(1).integers(0, 2, 400_000, dtype=np.int8)
    assert all(result.passed for result in nist_battery(bits[:20_000]))
    assert all(result.passed for result in procedure_b(bits))


def test_stats_helpers_load_scipy_on_first_use():
    from repro.stats.autocorrelation import first_lag_correlation_test, ljung_box_test
    from repro.stats.psd_estimation import periodogram_psd, welch_psd

    white = np.random.default_rng(2).standard_normal(1 << 14)
    assert ljung_box_test(white).p_value > 0.01
    assert first_lag_correlation_test(white).p_value > 0.01
    # Unit-variance white noise at fs = 1 has one-sided PSD 2.
    assert np.isclose(np.mean(welch_psd(white, 1.0).psd), 2.0, rtol=0.1)
    assert np.isclose(np.mean(periodogram_psd(white, 1.0).psd), 2.0, rtol=0.1)


def test_theory_and_pll_model_load_scipy_on_first_use():
    from repro.core.theory import sigma2_n_closed_form, sigma2_n_integral
    from repro.oscillator.pll import PLLConfiguration
    from repro.paper import PAPER_REFERENCE
    from repro.phase import PhaseNoisePSD
    from repro.trng.models.bernard_pll import CoherentSamplingModel

    psd = PhaseNoisePSD(b_thermal_hz=276.0, b_flicker_hz2=5.42e6)
    f0 = PAPER_REFERENCE.f0_hz
    assert np.isclose(
        sigma2_n_integral(psd, f0, 100),
        sigma2_n_closed_form(psd, f0, 100),
        rtol=1e-6,
    )
    model = CoherentSamplingModel(PLLConfiguration(157, 8, 15e-12), 125e6)
    probabilities = model.probability_of_one()
    assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))
    assert 0.0 < model.entropy_per_pattern()
