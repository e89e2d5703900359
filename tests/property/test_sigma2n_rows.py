"""One row at a time: the sigma^2_N sweep reduces every row by itself.

:func:`~repro.core.sigma_n.batched_sigma2_n_sweep` takes each row's
cumulative sum into a reused buffer and reduces that row alone.  These tests
hold it against test-local copies of the batched ``(B, M)`` formulas it
replaced:

* the exact path is bitwise equal to the batched exact formula and to the
  scalar :func:`~repro.core.sigma_n.accumulated_variance_curve` of each row;
* each fast-path row is bitwise equal to the batched fast formula run on that
  row alone (``B = 1``) — for a batched einsum, rows past ~16k periods are
  summed in another order, so only the one-row formula is the reference;
* the output for ``B`` rows equals the row-by-row output, bitwise, so it
  cannot depend on batch companions or the shard plan;
* retained ``N`` values and realization counts are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sigma_n import (
    accumulated_variance_curve,
    batched_sigma2_n_sweep,
    default_n_sweep,
)

BATCHES = (1, 2, 3, 16)
SIZES = (64, 4097, 16_384, 40_000)
MIN_REALIZATIONS = 8
F0_HZ = 103.0e6


def reference_sweep(jitter, n_sweep, overlapping, exact):
    """The batched ``(B, M)`` sweep, as the engine computed it before."""
    batch, size = jitter.shape
    if n_sweep is None:
        n_sweep = default_n_sweep(max(size // (2 * MIN_REALIZATIONS), 1))
    cumulative = np.concatenate(
        [np.zeros((batch, 1)), np.cumsum(jitter, axis=1)], axis=1
    )
    n_list, sigma2_list, count_list = [], [], []
    for n in n_sweep:
        n = int(n)
        if 2 * n > size:
            continue
        n_values = size - 2 * n + 1
        if not overlapping:
            n_values = -(-n_values // (2 * n))
        effective = size // (2 * n) if overlapping else n_values
        if n_values < 2 or effective < MIN_REALIZATIONS:
            continue
        if exact:
            second_block = cumulative[:, 2 * n :] - cumulative[:, n:-n]
            first_block = cumulative[:, n:-n] - cumulative[:, : -2 * n]
            values = second_block - first_block
            if not overlapping:
                values = values[:, :: 2 * n]
            sigma2 = np.mean(values**2, axis=1)
        else:
            values = cumulative[:, 2 * n :] - cumulative[:, n:-n]
            values -= cumulative[:, n:-n]
            values += cumulative[:, : -2 * n]
            if not overlapping:
                values = np.ascontiguousarray(values[:, :: 2 * n])
            sigma2 = np.einsum("ij,ij->i", values, values) / values.shape[1]
        n_list.append(n)
        sigma2_list.append(sigma2)
        count_list.append(n_values)
    return n_list, np.stack(sigma2_list, axis=1), np.array(count_list)


def records(batch: int, size: int) -> np.ndarray:
    """Period records with a nominal offset, as the engine's jitter carries."""
    rng = np.random.default_rng(batch * 100_003 + size)
    white = rng.standard_normal((batch, size)) * 1.6e-11
    drift = np.cumsum(rng.standard_normal((batch, size)), axis=1) * 2.0e-14
    return 1.0 / F0_HZ + white + drift


#: Default sweep, and an explicit one with a duplicate N, N that leave the
#: short records too few realizations, and an N too large for every record.
SWEEPS = {"default": None, "explicit": [1, 3, 3, 17, 40, 40, 500, 20_001, 10**6]}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("overlapping", [True, False])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("batch", BATCHES)
def test_rows_match_reference(batch, size, overlapping, exact, sweep):
    n_sweep = SWEEPS[sweep]
    jitter = records(batch, size)
    try:
        n_list, sigma2, counts, f0 = batched_sigma2_n_sweep(
            jitter,
            F0_HZ,
            n_sweep=n_sweep,
            overlapping=overlapping,
            min_realizations=MIN_REALIZATIONS,
            exact=exact,
        )
    except ValueError as error:
        assert "too short" in str(error)
        with pytest.raises(ValueError, match="too short"):
            reference_sweep(jitter, n_sweep, overlapping, exact)
        return
    ref_n, ref_sigma2, ref_counts = reference_sweep(jitter, n_sweep, overlapping, exact)
    assert n_list == ref_n
    np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_array_equal(f0, np.full(batch, F0_HZ))
    assert sigma2.shape == (batch, len(n_list))

    if exact:
        np.testing.assert_array_equal(sigma2, ref_sigma2)
    for row in range(batch):
        alone = reference_sweep(jitter[row : row + 1], n_sweep, overlapping, exact)
        np.testing.assert_array_equal(sigma2[row], alone[1][0])
        one_row = batched_sigma2_n_sweep(
            jitter[row],
            F0_HZ,
            n_sweep=n_sweep,
            overlapping=overlapping,
            min_realizations=MIN_REALIZATIONS,
            exact=exact,
        )[1]
        np.testing.assert_array_equal(sigma2[row], one_row[0])
        if exact:
            curve = accumulated_variance_curve(
                jitter[row],
                F0_HZ,
                n_sweep=n_list,
                overlapping=overlapping,
                min_realizations=MIN_REALIZATIONS,
            )
            np.testing.assert_array_equal(curve.n_values, n_list)
            np.testing.assert_array_equal(sigma2[row], curve.sigma2_values_s2)
            np.testing.assert_array_equal(curve.realization_counts, counts)

