"""Shard invariance: merged output == unsharded batched campaigns, bit for bit.

The distributed runner's contract is that sharding is *pure bookkeeping*:
for every shard count and executor, the merged tables equal the unsharded
``batched_sigma2_n_campaign`` / ``batched_bit_campaign`` output exactly —
``np.array_equal``, not approx — because each shard re-derives its rows'
RNG streams from the root ``SeedSequence`` spawn tree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.campaign import (
    batched_bit_campaign,
    batched_sigma2_n_campaign,
)
from repro.engine.distributed import (
    BitCampaignSpec,
    MultiprocessExecutor,
    SerialExecutor,
    Sigma2NCampaignSpec,
    run_campaign,
)

SHARD_COUNTS = (1, 2, 3, 7)


@pytest.fixture(scope="module")
def sigma2n_spec() -> Sigma2NCampaignSpec:
    # Heterogeneous corners: row mix-ups would be caught immediately.
    return Sigma2NCampaignSpec(
        batch_size=10,
        n_periods=8192,
        b_thermal_hz=tuple(np.linspace(100.0, 600.0, 10)),
        b_flicker_hz2=5.42,
        seed=1203,
    )


@pytest.fixture(scope="module")
def sigma2n_reference(sigma2n_spec):
    return batched_sigma2_n_campaign(
        sigma2n_spec.ensemble(), sigma2n_spec.n_periods
    )


def assert_same_campaign(result, reference, fit: bool = True) -> None:
    np.testing.assert_array_equal(result.n_values, reference.n_values)
    np.testing.assert_array_equal(result.sigma2_s2, reference.sigma2_s2)
    np.testing.assert_array_equal(
        result.realization_counts, reference.realization_counts
    )
    np.testing.assert_array_equal(result.f0_hz, reference.f0_hz)
    if fit:
        table, expected = result.table(), reference.table()
        assert set(table) == set(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(table[name], values, err_msg=name)


class TestSigma2NShardInvariance:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_merged_equals_unsharded(
        self, sigma2n_spec, sigma2n_reference, n_shards
    ):
        result = run_campaign(sigma2n_spec, n_shards=n_shards)
        assert_same_campaign(result, sigma2n_reference)

    def test_multiprocess_executor_matches(
        self, sigma2n_spec, sigma2n_reference
    ):
        result = run_campaign(
            sigma2n_spec,
            executor=MultiprocessExecutor(max_workers=2),
            n_shards=4,
        )
        assert_same_campaign(result, sigma2n_reference)

    def test_explicit_plan_overrides_shard_count(
        self, sigma2n_spec, sigma2n_reference
    ):
        from repro.engine.distributed import plan_shards

        plan = plan_shards(sigma2n_spec.batch_size, 5)
        result = run_campaign(sigma2n_spec, plan=plan)
        assert_same_campaign(result, sigma2n_reference)
        with pytest.raises(ValueError, match="rows"):
            run_campaign(sigma2n_spec, plan=plan_shards(7, 2))

    def test_fit_false_round_trips(self, sigma2n_spec, sigma2n_reference):
        from dataclasses import replace

        spec = replace(sigma2n_spec, fit=False)
        result = run_campaign(spec, n_shards=3)
        assert_same_campaign(result, sigma2n_reference, fit=False)
        with pytest.raises(ValueError, match="fit=False"):
            result.table()


class TestOneRowShards:
    """One-row shards over records long enough for reduction order to show.

    Past ~16k periods numpy sums a row of a ``(B, m)`` einsum in a different
    order from the same row alone, so a one-row shard matches the serial
    campaign only because every row is reduced by itself.  The 8192-period
    chunks stay below that length; the 16384-period chunks do not.
    """

    @pytest.mark.parametrize("chunk_periods", [None, 8192, 16_384])
    def test_one_row_shards_equal_serial(self, chunk_periods):
        spec = Sigma2NCampaignSpec(
            batch_size=3, n_periods=32_768, chunk_periods=chunk_periods, seed=7
        )
        assert_same_campaign(
            run_campaign(spec, n_shards=3), run_campaign(spec, n_shards=1)
        )


class TestStreamingShardInvariance:
    # Spec and unsharded reference are read-only across the shard-count
    # parametrization; computing the reference once saves three streaming
    # campaigns per run.
    @pytest.fixture(scope="class")
    def streaming_spec(self) -> Sigma2NCampaignSpec:
        return Sigma2NCampaignSpec(
            batch_size=8,
            n_periods=16_384,
            chunk_periods=4096,
            seed=77,
        )

    @pytest.fixture(scope="class")
    def streaming_reference(self, streaming_spec):
        return batched_sigma2_n_campaign(
            streaming_spec.ensemble(),
            streaming_spec.n_periods,
            chunk_periods=streaming_spec.chunk_periods,
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_streaming_merge_equals_unsharded(
        self, streaming_spec, streaming_reference, n_shards
    ):
        result = run_campaign(streaming_spec, n_shards=n_shards)
        assert_same_campaign(result, streaming_reference)


class TestBitShardInvariance:
    @pytest.fixture(scope="class")
    def spec(self) -> BitCampaignSpec:
        return BitCampaignSpec(
            batch_size=6,
            n_bits=768,
            dividers=(4, 8, 16),
            seed=2014,
        )

    @pytest.fixture(scope="class")
    def reference(self, spec):
        return batched_bit_campaign(
            spec.configuration(),
            spec.dividers,
            spec.batch_size,
            spec.n_bits,
            seed=spec.seed,
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_merged_equals_unsharded(self, spec, reference, n_shards):
        result = run_campaign(spec, n_shards=n_shards)
        np.testing.assert_array_equal(result.dividers, reference.dividers)
        assert result.n_bits == reference.n_bits
        for name in ("bias", "shannon_entropy", "min_entropy", "markov_entropy"):
            np.testing.assert_array_equal(
                getattr(result, name), getattr(reference, name), err_msg=name
            )
        summary = result.entropy_vs_divider()
        expected = reference.entropy_vs_divider()
        for name, values in expected.items():
            np.testing.assert_array_equal(summary[name], values, err_msg=name)

    def test_serial_executor_is_default(self, spec, reference):
        result = run_campaign(spec, executor=SerialExecutor(), n_shards=2)
        np.testing.assert_array_equal(result.bias, reference.bias)


class TestInstanceRange:
    def test_bit_campaign_instance_range_slices_rows(self):
        spec = BitCampaignSpec(
            batch_size=5, n_bits=256, dividers=(4,), seed=3
        )
        full = batched_bit_campaign(
            spec.configuration(), spec.dividers, 5, 256, seed=3
        )
        part = batched_bit_campaign(
            spec.configuration(),
            spec.dividers,
            5,
            256,
            seed=3,
            instance_range=(1, 4),
        )
        np.testing.assert_array_equal(part.bias, full.bias[:, 1:4])
        np.testing.assert_array_equal(
            part.min_entropy, full.min_entropy[:, 1:4]
        )

    def test_bit_campaign_instance_range_validation(self):
        spec = BitCampaignSpec(batch_size=4, n_bits=64, dividers=(4,), seed=3)
        with pytest.raises(ValueError, match="instance_range"):
            batched_bit_campaign(
                spec.configuration(),
                spec.dividers,
                4,
                64,
                seed=3,
                instance_range=(2, 6),
            )

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_instance_range_requires_stateless_seed(self, seed):
        """Regression: shard rows must belong to one re-derivable campaign."""
        import numpy as np

        spec = BitCampaignSpec(batch_size=4, n_bits=64, dividers=(4,), seed=3)
        if seed == "generator":
            seed = np.random.default_rng(3)
        with pytest.raises(ValueError, match="stateless seed"):
            batched_bit_campaign(
                spec.configuration(),
                spec.dividers,
                4,
                64,
                seed=seed,
                instance_range=(0, 2),
            )
