"""The RNG stream-contract layer: resolution, pinning, refusal, compat.

The counter-based ("philox") contract makes every draw a pure function of
``(root_key, row, block, offset)``; the legacy ("spawn") contract ties
streams to a stateful ``SeedSequence`` spawn tree.  These tests lock the
*plumbing*: how a contract is selected and pinned (args > backend spec >
environment > default), how it serializes through specs, wire payloads and
checkpoint manifests, and where mixing contracts is refused.  The draw-level
index properties live in ``tests/property/test_philox_contract.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine.backends import BACKEND_ENV_VAR, BACKEND_NAMES, PhiloxBackend
from repro.engine.backends import parse_backend_spec, resolve_backend
from repro.engine.batch import spawn_generators
from repro.engine.distributed import (
    BitCampaignSpec,
    CampaignCheckpoint,
    Sigma2NCampaignSpec,
    plan_shards,
    run_shard,
)
from repro.engine.distributed.merge import merge_bit_partials, merge_sigma2n_partials
from repro.engine.distributed.spec import spec_from_json, spec_to_json
from repro.engine.rng import (
    DEFAULT_RNG_CONTRACT,
    PhiloxRowStream,
    RNG_CONTRACT_ENV_VAR,
    RNG_CONTRACTS,
    default_rng_contract,
    derive_row_streams,
    philox_row_streams,
    resolve_rng_contract,
    root_key_of,
    validate_rng_contract,
)


class TestContractResolution:
    def test_contract_names(self):
        assert DEFAULT_RNG_CONTRACT == "spawn"
        assert set(RNG_CONTRACTS) == {"spawn", "philox"}
        for name in RNG_CONTRACTS:
            assert validate_rng_contract(name) == name
        with pytest.raises(ValueError, match="unknown rng_contract"):
            validate_rng_contract("sobol")

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "philox")
        assert resolve_rng_contract("spawn", backend_spec="philox:4") == "spawn"
        assert resolve_rng_contract("philox") == "philox"

    def test_backend_spec_implies_philox(self, monkeypatch):
        monkeypatch.delenv(RNG_CONTRACT_ENV_VAR, raising=False)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_rng_contract(backend_spec="philox") == "philox"
        assert resolve_rng_contract(backend_spec="philox:8") == "philox"
        assert resolve_rng_contract(backend_spec="threaded:8") == "spawn"
        assert resolve_rng_contract(backend_spec=None) == "spawn"

    def test_environment_hooks(self, monkeypatch):
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "philox")
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_rng_contract() == "philox"
        # REPRO_BACKEND=philox[:N] implies the contract (the CI tier lever);
        # REPRO_RNG_CONTRACT can still override it in either direction.
        monkeypatch.delenv(RNG_CONTRACT_ENV_VAR, raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "philox:4")
        assert default_rng_contract() == "philox"
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "spawn")
        assert default_rng_contract() == "spawn"
        monkeypatch.delenv(RNG_CONTRACT_ENV_VAR, raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "threaded:4")
        assert default_rng_contract() == "spawn"

    def test_invalid_environment_contract_rejected(self, monkeypatch):
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown rng_contract"):
            default_rng_contract()

    def test_philox_backend_carries_native_contract(self):
        assert "philox" in BACKEND_NAMES
        backend = parse_backend_spec("philox:3")
        assert isinstance(backend, PhiloxBackend)
        assert backend.rng_contract == "philox"
        assert backend.spec == "philox:3"
        assert backend.workers == 3
        assert resolve_backend("numpy").rng_contract == "spawn"


class TestDeriveRowStreams:
    def test_spawn_contract_matches_legacy_tree(self):
        """The refactor is a pure factoring: spawn streams are unchanged."""
        seed = 20140324
        parent = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
        legacy = list(parent.spawn(5))
        derived = derive_row_streams(seed, 5, rng_contract="spawn")
        for expected, actual in zip(legacy, derived):
            np.testing.assert_array_equal(
                expected.standard_normal(16), actual.standard_normal(16)
            )

    def test_philox_rows_are_index_keyed(self):
        rows = derive_row_streams(7, 4, rng_contract="philox")
        assert all(isinstance(row, PhiloxRowStream) for row in rows)
        assert [row.path for row in rows] == [(0,), (1,), (2,), (3,)]
        assert all(row.root_key == 7 for row in rows)

    def test_philox_subrange_needs_no_full_tree(self):
        full = derive_row_streams(7, 100, rng_contract="philox")
        sub = derive_row_streams(7, 100, start=97, stop=99, rng_contract="philox")
        for offset, row in enumerate(sub):
            np.testing.assert_array_equal(
                full[97 + offset].standard_normal(8), row.standard_normal(8)
            )

    def test_generator_seed_explicit_philox_rejected(self):
        with pytest.raises(ValueError, match="stateless seed"):
            derive_row_streams(
                np.random.default_rng(0), 2, rng_contract="philox"
            )

    def test_generator_seed_env_philox_degrades_to_spawn(self, monkeypatch):
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "philox")
        parent = np.random.default_rng(3)
        rows = derive_row_streams(parent, 2)
        assert all(isinstance(row, np.random.Generator) for row in rows)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            derive_row_streams(1, 0)
        with pytest.raises(ValueError, match="rows must satisfy"):
            derive_row_streams(1, 4, start=3, stop=2, rng_contract="philox")
        with pytest.raises(ValueError, match="rows must satisfy"):
            derive_row_streams(1, 4, start=0, stop=5, rng_contract="philox")

    def test_spawn_generators_passes_contract_through(self):
        via_wrapper = spawn_generators(11, 3, rng_contract="philox")
        direct = derive_row_streams(11, 3, rng_contract="philox")
        for expected, actual in zip(direct, via_wrapper):
            np.testing.assert_array_equal(
                expected.standard_normal(4), actual.standard_normal(4)
            )

    def test_seed_sequence_spawn_key_prefixes_the_path(self):
        child = np.random.SeedSequence(99).spawn(3)[2]
        root_key, prefix = root_key_of(child)
        assert root_key == 99
        assert prefix == (2,)
        rows = philox_row_streams(child, 0, 2)
        assert rows[0].path == (2, 0)
        assert rows[1].path == (2, 1)
        # ... and the prefixed family differs from the parent's.
        parent_rows = philox_row_streams(99, 0, 2)
        assert not np.array_equal(
            rows[0].standard_normal(8), parent_rows[0].standard_normal(8)
        )

    def test_root_key_rejects_generators(self):
        with pytest.raises(TypeError, match="stateless seed"):
            root_key_of(np.random.default_rng(0))


class TestPhiloxRowStream:
    def test_draws_are_recomputable_by_block(self):
        stream = PhiloxRowStream(5, (2,))
        first = stream.standard_normal(16)
        second = stream.normal(0.0, 2.0, 16)
        np.testing.assert_array_equal(
            first, PhiloxRowStream(5, (2,)).block_generator(0).standard_normal(16)
        )
        np.testing.assert_array_equal(
            second,
            PhiloxRowStream(5, (2,)).block_generator(1).normal(0.0, 2.0, 16),
        )

    def test_sibling_and_depth_keys_never_collide(self):
        draws = [
            PhiloxRowStream(5, (0,)).standard_normal(4),
            PhiloxRowStream(5, (1,)).standard_normal(4),
            PhiloxRowStream(5, (0, 0)).standard_normal(4),
            PhiloxRowStream(5, (0, 1)).standard_normal(4),
        ]
        for index, left in enumerate(draws):
            for right in draws[index + 1 :]:
                assert not np.array_equal(left, right)

    def test_spawn_counts_like_generator_spawn(self):
        stream = PhiloxRowStream(5, (3,))
        first_pair = stream.spawn(2)
        second_pair = stream.spawn(2)
        assert [child.path for child in first_pair] == [(3, 0), (3, 1)]
        assert [child.path for child in second_pair] == [(3, 2), (3, 3)]
        with pytest.raises(ValueError):
            stream.spawn(-1)

    def test_repr_shows_indices(self):
        assert "path=(1,)" in repr(PhiloxRowStream(9, (1,)))


class TestSpecContractPinning:
    def test_specs_pin_and_roundtrip_the_contract(self):
        spec = BitCampaignSpec(
            batch_size=2, n_bits=32, dividers=(8,), seed=1, rng_contract="philox"
        )
        assert spec.rng_contract == "philox"
        assert spec_from_json(spec_to_json(spec)) == spec
        sigma = Sigma2NCampaignSpec(batch_size=2, n_periods=64, seed=1)
        assert sigma.rng_contract == default_rng_contract()

    def test_philox_backend_spec_implies_the_contract(self):
        spec = Sigma2NCampaignSpec(
            batch_size=2, n_periods=64, seed=1, backend="philox:2"
        )
        assert spec.rng_contract == "philox"
        # An explicit contract still overrides the backend's native one.
        pinned = Sigma2NCampaignSpec(
            batch_size=2,
            n_periods=64,
            seed=1,
            backend="philox:2",
            rng_contract="spawn",
        )
        assert pinned.rng_contract == "spawn"

    def test_environment_default_reaches_specs(self, monkeypatch):
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "philox")
        spec = BitCampaignSpec(batch_size=2, n_bits=32, dividers=(8,), seed=1)
        assert spec.rng_contract == "philox"

    def test_invalid_contract_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown rng_contract"):
            BitCampaignSpec(
                batch_size=2, n_bits=32, dividers=(8,), seed=1, rng_contract="x"
            )

    def test_legacy_manifest_payload_defaults_to_spawn(self):
        spec = Sigma2NCampaignSpec(batch_size=2, n_periods=64, seed=1)
        payload = spec_to_json(spec)
        del payload["rng_contract"]  # pre-contract manifests have no field
        assert spec_from_json(payload).rng_contract == "spawn"

    def test_row_generators_follow_the_pinned_contract(self, monkeypatch):
        spec = Sigma2NCampaignSpec(
            batch_size=3, n_periods=64, seed=4, rng_contract="philox"
        )
        # The pin, not the worker's environment, decides the streams.
        monkeypatch.setenv(RNG_CONTRACT_ENV_VAR, "spawn")
        rows = spec.row_generators()
        assert all(isinstance(row, PhiloxRowStream) for row in rows)
        sub = spec.row_generators(1, 3)
        np.testing.assert_array_equal(
            rows[1].standard_normal(8), sub[0].standard_normal(8)
        )


class TestMergeRefusal:
    def _bit_partials(self, rng_contract):
        spec = BitCampaignSpec(
            batch_size=4,
            n_bits=64,
            dividers=(16,),
            seed=5,
            rng_contract=rng_contract,
        )
        shards = plan_shards(spec.batch_size, 2)
        return spec, [run_shard((spec, shard)) for shard in shards]

    def test_partials_carry_the_contract(self):
        _, partials = self._bit_partials("philox")
        assert all(
            str(np.asarray(partial["rng_contract"])) == "philox"
            for partial in partials
        )

    def test_mixed_contract_bit_merge_refused(self):
        philox_spec, philox_partials = self._bit_partials("philox")
        spawn_spec, spawn_partials = self._bit_partials("spawn")
        with pytest.raises(ValueError, match="mixed RNG stream contracts"):
            merge_bit_partials(philox_spec, spawn_partials)
        with pytest.raises(ValueError, match="mixed RNG stream contracts"):
            merge_bit_partials(
                spawn_spec, [philox_partials[0], spawn_partials[1]]
            )

    def test_mixed_contract_sigma2n_merge_refused(self):
        def partials(contract):
            spec = Sigma2NCampaignSpec(
                batch_size=4, n_periods=128, seed=5, rng_contract=contract
            )
            shards = plan_shards(spec.batch_size, 2)
            return spec, [run_shard((spec, shard)) for shard in shards]

        philox_spec, _ = partials("philox")
        _, spawn_partials = partials("spawn")
        with pytest.raises(ValueError, match="mixed RNG stream contracts"):
            merge_sigma2n_partials(philox_spec, spawn_partials)

    def test_legacy_untagged_partials_merge_as_spawn(self):
        spec, partials = self._bit_partials("spawn")
        for partial in partials:
            del partial["rng_contract"]  # pre-contract shard checkpoints
        merged = merge_bit_partials(spec, partials)
        assert merged.bias.shape == (1, 4)


class TestCheckpointCompat:
    def test_legacy_manifest_resumes_under_spawn_spec(self, tmp_path):
        """A manifest written before the contract field must keep resuming."""
        spec = Sigma2NCampaignSpec(
            batch_size=4, n_periods=128, seed=3, rng_contract="spawn"
        )
        plan = plan_shards(spec.batch_size, 2)
        checkpoint = CampaignCheckpoint(tmp_path)
        checkpoint.initialize(spec, plan, resume=False)
        checkpoint.release()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["spec"]["rng_contract"]  # simulate a pre-contract file
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        resumed = CampaignCheckpoint(tmp_path)
        assert resumed.initialize(spec, plan, resume=True) == set()
        resumed.release()

    def test_contract_change_refuses_to_resume(self, tmp_path):
        spawn_spec = Sigma2NCampaignSpec(
            batch_size=4, n_periods=128, seed=3, rng_contract="spawn"
        )
        plan = plan_shards(spawn_spec.batch_size, 2)
        checkpoint = CampaignCheckpoint(tmp_path)
        checkpoint.initialize(spawn_spec, plan, resume=False)
        checkpoint.release()
        philox_spec = Sigma2NCampaignSpec(
            batch_size=4, n_periods=128, seed=3, rng_contract="philox"
        )
        resumed = CampaignCheckpoint(tmp_path)
        with pytest.raises(ValueError, match="different campaign"):
            resumed.initialize(philox_spec, plan, resume=True)
        resumed.release()


class TestCampaignsCLI:
    def test_rng_contract_flag_pins_the_spec(self, tmp_path):
        from repro.campaigns import main

        out = tmp_path / "bits.json"
        arguments = ["bits", "--batch", "2", "--n-bits", "256"]
        arguments += ["--dividers", "8", "--seed", "5", "--shards", "2"]
        arguments += ["--rng-contract", "philox", "--verify"]
        arguments += ["--json", str(out)]
        assert main(arguments) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["rng_contract"] == "philox"

    def test_philox_backend_flag_implies_contract(self, tmp_path):
        from repro.campaigns import main

        out = tmp_path / "sigma2n.json"
        arguments = ["sigma2n", "--batch", "2", "--n-periods", "1024"]
        arguments += ["--seed", "5", "--backend", "philox:2", "--verify"]
        arguments += ["--json", str(out)]
        assert main(arguments) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["rng_contract"] == "philox"

    def test_unpinned_resume_adopts_recorded_contract(self, tmp_path):
        from repro.campaigns import main

        checkpoint = tmp_path / "ck"
        out = tmp_path / "out.json"
        arguments = ["bits", "--batch", "2", "--n-bits", "128", "--dividers", "8"]
        arguments += ["--seed", "5", "--checkpoint-dir", str(checkpoint)]
        assert main(arguments + ["--rng-contract", "philox"]) == 0
        # Resume without --rng-contract: adopt the recorded contract instead
        # of refusing on a spec mismatch.
        assert main(arguments + ["--resume", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["rng_contract"] == "philox"
