"""Fabric coordinator tests: bitwise invariance over localhost worker fleets.

These spawn real ``python -m repro.worker`` processes and run campaigns
through :class:`FabricCoordinator`, asserting the merged output is
bit-for-bit identical to the single-host run — the fabric form of the
shard-invariance contract.  Fault paths live in ``test_fabric_faults.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns import main as campaigns_main
from repro.engine.distributed.fabric.connection import (
    connect_workers,
    spawn_worker,
)
from repro.engine.distributed import (
    BitCampaignSpec,
    FabricCoordinator,
    FabricTelemetry,
    Sigma2NCampaignSpec,
    parse_endpoint,
    run_campaign,
)


@pytest.fixture(scope="module")
def fabric():
    coordinator = FabricCoordinator(spawn=2, heartbeat_interval=0.5)
    with coordinator:
        yield coordinator


class TestFabricBitwiseInvariance:
    def test_sigma2n_campaign_matches_single_host(self, fabric):
        spec = Sigma2NCampaignSpec(batch_size=8, n_periods=4096, seed=77)
        reference = run_campaign(spec, n_shards=3)
        result = run_campaign(spec, executor=fabric, n_shards=3)
        np.testing.assert_array_equal(result.sigma2_s2, reference.sigma2_s2)
        for name, column in reference.table().items():
            np.testing.assert_array_equal(result.table()[name], column)

    def test_bit_campaign_matches_single_host(self, fabric):
        spec = BitCampaignSpec(
            batch_size=4, n_bits=512, dividers=(4, 8), seed=5
        )
        reference = run_campaign(spec, n_shards=2)
        result = run_campaign(spec, executor=fabric, n_shards=2)
        for name, column in reference.table().items():
            np.testing.assert_array_equal(result.table()[name], column)

    def test_streaming_chunks_ship_estimator_state(self, fabric):
        spec = Sigma2NCampaignSpec(
            batch_size=4, n_periods=8192, chunk_periods=2048, seed=3
        )
        reference = run_campaign(spec, n_shards=2)
        result = run_campaign(spec, executor=fabric, n_shards=2)
        np.testing.assert_array_equal(result.sigma2_s2, reference.sigma2_s2)

    def test_telemetry_records_every_shard(self, fabric):
        fabric.telemetry = FabricTelemetry()  # fresh log for this run
        spec = Sigma2NCampaignSpec(batch_size=6, n_periods=2048, seed=11)
        run_campaign(spec, executor=fabric, n_shards=3)
        summary = fabric.telemetry.summary()
        assert sorted(summary["shards"]) == ["0", "1", "2"]
        assert summary["reassignments"] == 0
        assert summary["worker_failures"] == []
        for record in summary["shards"].values():
            assert record["attempts"] == 1
            assert record["seconds"] >= 0.0


class TestFabricValidation:
    def test_run_only_accepts_campaign_shards(self, fabric):
        with pytest.raises(ValueError, match="only executes campaign shards"):
            list(fabric.run(abs, [(None, None)]))

    def test_zero_workers_is_refused(self):
        with pytest.raises(ValueError, match="at least one worker"):
            FabricCoordinator()

    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            FabricCoordinator(
                spawn=1, heartbeat_interval=1.0, heartbeat_timeout=0.5
            )

    @pytest.mark.parametrize(
        "endpoint", ["nohost", "host:notaport", ":8765", "host:"]
    )
    def test_bad_endpoints_are_rejected(self, endpoint):
        with pytest.raises(ValueError):
            parse_endpoint(endpoint)

    def test_parse_endpoint_round_trip(self):
        assert parse_endpoint("127.0.0.1:8765") == ("127.0.0.1", 8765)


class TestCampaignsCLIFabric:
    def test_spawn_workers_with_verify_and_json(self, tmp_path, capsys):
        out = tmp_path / "fabric.json"
        arguments = ["sigma2n", "--batch", "6", "--n-periods", "2048"]
        arguments += ["--shards", "3", "--spawn-workers", "2", "--seed", "7"]
        arguments += ["--verify", "--json", str(out)]
        assert campaigns_main(arguments) == 0
        captured = capsys.readouterr()
        assert "bit-for-bit identical" in captured.out
        assert "fabric worker(s)" in captured.out
        assert "[fabric] shard" in captured.err  # live progress lines
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        assert payload["substrate"] == "fabric"
        assert payload["workers"] == 2
        assert len(payload["fabric"]["shards"]) == 3
        assert payload["fabric"]["reassignments"] == 0

    def test_local_workers_cannot_mix_with_fabric_flags(self, capsys):
        arguments = ["sigma2n", "--batch", "4", "--workers", "2"]
        arguments += ["--spawn-workers", "2"]
        assert campaigns_main(arguments) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestFleetHasNoBackendKnob:
    # Each shard carries its campaign's backend spec, so nothing that builds
    # or connects the fleet takes a backend of its own.
    @pytest.mark.parametrize(
        "build", [FabricCoordinator, spawn_worker, connect_workers],
        ids=["coordinator", "spawn_worker", "connect_workers"],
    )
    def test_backend_keyword_is_rejected(self, build):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build(backend="numpy")
