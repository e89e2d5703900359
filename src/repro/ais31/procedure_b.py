"""AIS31 Procedure B tests (T6 - T8) on the raw binary sequence.

Procedure B evaluates the *raw* (pre-post-processing) sequence: T6 checks the
uniformity of the one-step transition probabilities, T7 the homogeneity of
multinomial transition distributions, and T8 estimates the entropy per bit
with Coron's estimator.  Together with the stochastic model they support the
PTG.2 / PTG.3 claims; the paper's contribution directly affects how the
stochastic-model part should be built.

Like Procedure A, every test accepts one sequence (``(n,)``, returning one
:class:`~repro.ais31.procedure_a.TestResult`) or a ``(B, n)`` ensemble
(returning ``B`` results), with all statistics — including the Coron
recurrence distances — computed vectorized across rows.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .procedure_a import TestResult, _as_bit_rows, _one_or_many

_EULER_GAMMA = 0.5772156649015329


def t6_uniform_distribution_test(
    bits: Sequence[int] | np.ndarray, tolerance: float = 0.025
) -> Union[TestResult, List[TestResult]]:
    """T6: the conditional probabilities P(1 | previous bit) must be near 1/2.

    AIS31's T6(a)/T6(b) check |P(x=1) - 0.5| and the disjointness of the
    one-step transition frequencies; this implementation checks
    ``|P(1|0) - P(1|1)| < 2 * tolerance`` and ``|P(1) - 0.5| < tolerance`` on
    100 000 bits.
    """
    rows, scalar = _as_bit_rows(bits, 100_000)
    rows = rows[:, :100_000]
    marginals = np.mean(rows, axis=1)
    previous = rows[:, :-1]
    following = rows[:, 1:]
    ones_after_one = np.sum(following * previous, axis=1)
    ones_after_zero = np.sum(following, axis=1) - ones_after_one
    count_one = np.sum(previous, axis=1)
    count_zero = previous.shape[1] - count_one
    with np.errstate(divide="ignore", invalid="ignore"):
        probability_one_after_zero = ones_after_zero / count_zero
        probability_one_after_one = ones_after_one / count_one
    conditional_gaps = np.abs(
        probability_one_after_one - probability_one_after_zero
    )
    results = []
    for row in range(rows.shape[0]):
        marginal_ok = abs(marginals[row] - 0.5) < tolerance
        conditional_ok = conditional_gaps[row] < 2.0 * tolerance
        results.append(
            TestResult(
                name="T6 uniform distribution",
                passed=bool(marginal_ok and conditional_ok),
                statistic=float(
                    max(abs(marginals[row] - 0.5), conditional_gaps[row] / 2.0)
                ),
                details=(
                    f"P(1) = {marginals[row]:.4f}, "
                    f"P(1|0) = {probability_one_after_zero[row]:.4f}, "
                    f"P(1|1) = {probability_one_after_one[row]:.4f}"
                ),
            )
        )
    return _one_or_many(results, scalar)


def t7_comparative_test(
    bits: Sequence[int] | np.ndarray, significance: float = 1e-4
) -> Union[TestResult, List[TestResult]]:
    """T7: homogeneity of the transition distributions for 2-bit histories.

    The empirical distributions of the bit following each 2-bit history are
    compared with a chi-square homogeneity test; under the null (i.i.d. bits)
    the statistic is chi-square distributed with 3 degrees of freedom.
    """
    from scipy import stats

    rows, scalar = _as_bit_rows(bits, 100_000)
    rows = rows[:, :100_000]
    batch = rows.shape[0]
    histories = rows[:, :-2] * 2 + rows[:, 1:-1]
    following = rows[:, 2:]
    keys = (np.arange(batch)[:, None] * 4 + histories) * 2 + following
    counts = np.bincount(keys.ravel(), minlength=batch * 8).reshape(batch, 4, 2)
    counts = counts.astype(float)
    row_totals = counts.sum(axis=2, keepdims=True)
    column_totals = counts.sum(axis=1, keepdims=True)
    grand_totals = counts.sum(axis=(1, 2))[:, None, None]
    expected = row_totals * column_totals / grand_totals
    with np.errstate(divide="ignore", invalid="ignore"):
        contributions = np.where(
            expected > 0, (counts - expected) ** 2 / expected, 0.0
        )
    statistics = np.sum(contributions, axis=(1, 2))
    p_values = stats.chi2.sf(statistics, df=3)
    return _one_or_many(
        [
            TestResult(
                name="T7 comparative",
                passed=bool(p_value > significance),
                statistic=float(statistic),
                details=f"chi-square = {statistic:.2f}, p = {p_value:.3g}",
            )
            for statistic, p_value in zip(statistics, p_values)
        ],
        scalar,
    )


def coron_recurrence_distances(values: np.ndarray) -> np.ndarray:
    """Distance of every word to its previous occurrence, per row.

    ``values`` is a ``(B, n_words)`` integer array; the result has the same
    shape, with first occurrences assigned ``index + 1`` (Coron's
    convention).  Computed for all rows at once with one stable argsort that
    groups equal words per row while preserving their temporal order.
    """
    batch, n_words = values.shape
    spread = int(values.max()) + 1 if values.size else 1
    keys = (np.arange(batch, dtype=np.int64)[:, None] * spread + values).ravel()
    order = np.argsort(keys, kind="stable")
    columns = np.tile(np.arange(n_words, dtype=np.int64), batch)
    sorted_keys = keys[order]
    sorted_columns = columns[order]
    same_group = np.empty(keys.size, dtype=bool)
    same_group[0] = False
    np.equal(sorted_keys[1:], sorted_keys[:-1], out=same_group[1:])
    previous_columns = np.empty_like(sorted_columns)
    previous_columns[0] = 0
    previous_columns[1:] = sorted_columns[:-1]
    sorted_distances = np.where(
        same_group, sorted_columns - previous_columns, sorted_columns + 1
    )
    distances = np.empty(keys.size, dtype=np.int64)
    distances[order] = sorted_distances
    return distances.reshape(batch, n_words)


def coron_entropy_estimate(
    bits: Sequence[int] | np.ndarray, block_size: int = 8, q: int = 2560
) -> Union[float, np.ndarray]:
    """Coron's entropy estimator (the statistic behind AIS31's T8) [bits/block].

    The sequence is split into ``block_size``-bit words; after an
    initialisation segment of ``q`` words, each word contributes
    ``log2(distance to its previous occurrence)`` (in the Coron-corrected
    ``g`` function).  The result approaches the entropy per block for
    stationary sources with memory shorter than the block.  A ``(B, n)``
    input returns the ``(B,)`` per-row estimates, computed without a Python
    loop over rows (or words).
    """
    rows, scalar = _as_bit_rows(bits, (q + 256) * block_size)
    n_words = rows.shape[1] // block_size
    if n_words <= q:
        raise ValueError("sequence too short for the requested q")
    words = rows[:, : n_words * block_size].reshape(-1, n_words, block_size)
    weights = 1 << np.arange(block_size - 1, -1, -1)
    values = words @ weights
    distances = coron_recurrence_distances(values)[:, q:]
    estimates = np.mean(_coron_g_array(distances), axis=1)
    return float(estimates[0]) if scalar else estimates


def _coron_g_array(distances: np.ndarray) -> np.ndarray:
    """Vectorized Coron ``g``: expectation-corrected log2 of the distances."""
    from scipy.special import digamma

    # (1/ln2) * (psi(d) + Euler-Mascheroni) equals sum_{k=1}^{d-1} 1/k / ln2.
    return (digamma(distances) + _EULER_GAMMA) / np.log(2.0)


def _coron_g(distance: int) -> float:
    """Coron's ``g`` function: expectation-corrected log2 of the recurrence distance."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    return float(_coron_g_array(np.asarray(distance, dtype=float)))


def t8_entropy_test(
    bits: Sequence[int] | np.ndarray,
    block_size: int = 8,
    minimum_entropy_per_bit: float = 0.997,
) -> Union[TestResult, List[TestResult]]:
    """T8: Coron entropy estimate per bit must exceed ``minimum_entropy_per_bit``."""
    rows, scalar = _as_bit_rows(bits, (2560 + 256) * block_size)
    estimates_per_bit = (
        np.atleast_1d(coron_entropy_estimate(rows, block_size=block_size))
        / block_size
    )
    return _one_or_many(
        [
            TestResult(
                name="T8 entropy",
                passed=bool(estimate > minimum_entropy_per_bit),
                statistic=float(estimate),
                details=f"Coron estimate = {estimate:.4f} bit/bit",
            )
            for estimate in estimates_per_bit
        ],
        scalar,
    )


def procedure_b(
    bits: Sequence[int] | np.ndarray,
) -> Union[List[TestResult], List[List[TestResult]]]:
    """Run the Procedure B battery (T6, T7, T8) on a raw bit stream.

    A 1-D input returns one flat result list; a ``(B, n)`` ensemble returns
    one result list per row (vectorized across rows).
    """
    array = np.asarray(bits)
    batteries = [
        t6_uniform_distribution_test(array),
        t7_comparative_test(array),
        t8_entropy_test(array),
    ]
    if array.ndim == 1:
        return batteries
    return [list(row_results) for row_results in zip(*batteries)]


__all__ = [
    "coron_entropy_estimate",
    "coron_recurrence_distances",
    "procedure_b",
    "t6_uniform_distribution_test",
    "t7_comparative_test",
    "t8_entropy_test",
]
