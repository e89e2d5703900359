"""The metrics kill switch is bitwise transparent on the synthesis hot path.

Instrumentation never touches an RNG stream, so synthesis run with metrics
enabled and with ``configure_metrics(enabled=False)`` must produce identical
arrays: through the threaded executor, the single-thread reference, and one
served bit batch end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.backends import NumpyBackend
from repro.engine.batch import spawn_generators
from repro.obs import configure_metrics, global_registry, metrics_enabled
from repro.serving import BitsRequest
from repro.serving.scatter import run_bits_batch

BATCH = 4
N_PERIODS = 512
CALLS = 3
SIGMA_S = 1.2e-12
H_MINUS1 = 3.1e-22


def _kernel_rows() -> float:
    return global_registry().counter("engine_kernel_rows_total", "").value()


def _enabled_and_killed(workload):
    """``workload()`` with metrics on, then with the kill switch thrown."""
    assert metrics_enabled()
    rows_before = _kernel_rows()
    enabled = workload()
    assert _kernel_rows() > rows_before  # the enabled arm really is instrumented
    configure_metrics(enabled=False)
    try:
        rows_before = _kernel_rows()
        killed = workload()
        assert _kernel_rows() == rows_before
    finally:
        configure_metrics(enabled=True)
    return enabled, killed


@pytest.mark.parametrize(
    "backend",
    [NumpyBackend(2, threshold=0), NumpyBackend()],
    ids=["threaded:2", "numpy"],
)
def test_synthesis_is_identical_with_metrics_killed(backend):
    sigma = np.full(BATCH, SIGMA_S)
    h_minus1 = np.full(BATCH, H_MINUS1)

    def workload():
        return [
            backend.synthesize(
                N_PERIODS,
                spawn_generators(seed, BATCH),
                sigma,
                h_minus1,
                "spectral",
            )
            for seed in range(CALLS)
        ]

    enabled, killed = _enabled_and_killed(workload)
    for (thermal, pink), (killed_thermal, killed_pink) in zip(enabled, killed):
        assert np.array_equal(thermal, killed_thermal)
        assert np.array_equal(pink, killed_pink)


def test_served_bits_are_identical_with_metrics_killed():
    requests = [BitsRequest(n_bits=128, divider=16, seed=500 + row) for row in range(3)]

    def workload():
        return [result.bits for result in run_bits_batch(requests)]

    enabled, killed = _enabled_and_killed(workload)
    for bits, killed_bits in zip(enabled, killed):
        assert np.array_equal(bits, killed_bits)
