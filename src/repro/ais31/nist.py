"""Additional black-box statistical tests (NIST SP 800-22 style).

AIS31 evaluations are commonly complemented with the NIST SP 800-22 battery.
This module implements the subset most relevant to oscillator-based TRNG
defects (bias, short-range correlation, slow drift): frequency-within-block,
runs, cumulative sums, serial and approximate-entropy tests.  Each returns the
same :class:`repro.ais31.procedure_a.TestResult` structure so it can plug into
the online-test framework.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .procedure_a import TestResult, _as_bits

DEFAULT_SIGNIFICANCE = 0.01


def frequency_within_block_test(
    bits: Sequence[int] | np.ndarray,
    block_size: int = 128,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> TestResult:
    """NIST frequency-within-block test: local bias in M-bit blocks."""
    from scipy.special import gammaincc

    array = _as_bits(bits, 100)
    if block_size < 8:
        raise ValueError("block size must be >= 8")
    n_blocks = array.size // block_size
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    blocks = array[: n_blocks * block_size].reshape(n_blocks, block_size)
    proportions = blocks.mean(axis=1)
    chi_squared = float(4.0 * block_size * np.sum((proportions - 0.5) ** 2))
    p_value = float(gammaincc(n_blocks / 2.0, chi_squared / 2.0))
    return TestResult(
        name="NIST frequency within block",
        passed=bool(p_value >= significance),
        statistic=p_value,
        details=f"chi^2 = {chi_squared:.2f} over {n_blocks} blocks",
    )


def runs_test(
    bits: Sequence[int] | np.ndarray, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    """NIST runs test: total number of runs versus the expectation for i.i.d. bits."""
    from scipy.special import erfc

    array = _as_bits(bits, 100)
    proportion = float(np.mean(array))
    n = array.size
    if abs(proportion - 0.5) >= 2.0 / np.sqrt(n):
        return TestResult(
            name="NIST runs",
            passed=False,
            statistic=0.0,
            details="pre-test failed: bias too large for the runs test",
        )
    n_runs = 1 + int(np.count_nonzero(np.diff(array)))
    expected = 2.0 * n * proportion * (1.0 - proportion)
    p_value = float(
        erfc(
            abs(n_runs - expected)
            / (2.0 * np.sqrt(2.0 * n) * proportion * (1.0 - proportion))
        )
    )
    return TestResult(
        name="NIST runs",
        passed=bool(p_value >= significance),
        statistic=p_value,
        details=f"{n_runs} runs, expected {expected:.0f}",
    )


def cumulative_sums_test(
    bits: Sequence[int] | np.ndarray, significance: float = DEFAULT_SIGNIFICANCE
) -> TestResult:
    """NIST cumulative-sums (cusum, forward) test: detects slow drift of the bias."""
    from scipy import stats

    array = _as_bits(bits, 100)
    n = array.size
    adjusted = 2 * array - 1
    cumulative = np.cumsum(adjusted)
    z = float(np.max(np.abs(cumulative)))
    if z == 0.0:
        return TestResult(
            name="NIST cumulative sums",
            passed=False,
            statistic=0.0,
            details="degenerate constant sequence",
        )
    k_start = int(np.floor((-n / z + 1.0) / 4.0))
    k_end = int(np.floor((n / z - 1.0) / 4.0))
    first_sum = sum(
        stats.norm.cdf((4 * k + 1) * z / np.sqrt(n))
        - stats.norm.cdf((4 * k - 1) * z / np.sqrt(n))
        for k in range(k_start, k_end + 1)
    )
    k_start = int(np.floor((-n / z - 3.0) / 4.0))
    second_sum = sum(
        stats.norm.cdf((4 * k + 3) * z / np.sqrt(n))
        - stats.norm.cdf((4 * k + 1) * z / np.sqrt(n))
        for k in range(k_start, k_end + 1)
    )
    p_value = float(1.0 - first_sum + second_sum)
    p_value = float(np.clip(p_value, 0.0, 1.0))
    return TestResult(
        name="NIST cumulative sums",
        passed=bool(p_value >= significance),
        statistic=p_value,
        details=f"max |cusum| = {z:.0f}",
    )


def serial_test(
    bits: Sequence[int] | np.ndarray,
    pattern_length: int = 3,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> TestResult:
    """NIST serial test: uniformity of overlapping m-bit pattern frequencies."""
    from scipy.special import gammaincc

    array = _as_bits(bits, 100)
    if pattern_length < 2 or pattern_length > 16:
        raise ValueError("pattern length must be in [2, 16]")

    def psi_squared(m: int) -> float:
        if m == 0:
            return 0.0
        extended = np.concatenate([array, array[: m - 1]]) if m > 1 else array
        weights = 1 << np.arange(m - 1, -1, -1)
        windows = np.lib.stride_tricks.sliding_window_view(extended, m)[: array.size]
        values = windows @ weights
        counts = np.bincount(values, minlength=1 << m)
        return float((1 << m) / array.size * np.sum(counts.astype(float) ** 2) - array.size)

    psi_m = psi_squared(pattern_length)
    psi_m1 = psi_squared(pattern_length - 1)
    psi_m2 = psi_squared(pattern_length - 2)
    delta1 = psi_m - psi_m1
    delta2 = psi_m - 2.0 * psi_m1 + psi_m2
    p_value_1 = float(gammaincc(2 ** (pattern_length - 2), delta1 / 2.0))
    p_value_2 = float(gammaincc(2 ** (pattern_length - 3), delta2 / 2.0))
    p_value = min(p_value_1, p_value_2)
    return TestResult(
        name="NIST serial",
        passed=bool(p_value >= significance),
        statistic=p_value,
        details=f"delta psi^2 = {delta1:.2f}, {delta2:.2f}",
    )


def approximate_entropy_test(
    bits: Sequence[int] | np.ndarray,
    pattern_length: int = 3,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> TestResult:
    """NIST approximate-entropy test: compares m and m+1 pattern statistics."""
    from scipy.special import gammaincc

    array = _as_bits(bits, 100)
    if pattern_length < 1 or pattern_length > 14:
        raise ValueError("pattern length must be in [1, 14]")

    def phi(m: int) -> float:
        extended = np.concatenate([array, array[: m - 1]]) if m > 1 else array
        weights = 1 << np.arange(m - 1, -1, -1)
        windows = np.lib.stride_tricks.sliding_window_view(extended, m)[: array.size]
        values = windows @ weights
        counts = np.bincount(values, minlength=1 << m).astype(float)
        proportions = counts[counts > 0] / array.size
        return float(np.sum(proportions * np.log(proportions)))

    ap_en = phi(pattern_length) - phi(pattern_length + 1)
    chi_squared = 2.0 * array.size * (np.log(2.0) - ap_en)
    p_value = float(gammaincc(2 ** (pattern_length - 1), chi_squared / 2.0))
    return TestResult(
        name="NIST approximate entropy",
        passed=bool(p_value >= significance),
        statistic=p_value,
        details=f"ApEn = {ap_en:.6f}",
    )


def nist_battery(bits: Sequence[int] | np.ndarray) -> List[TestResult]:
    """Run the implemented NIST-style tests on a bit stream."""
    return [
        frequency_within_block_test(bits),
        runs_test(bits),
        cumulative_sums_test(bits),
        serial_test(bits),
        approximate_entropy_test(bits),
    ]
