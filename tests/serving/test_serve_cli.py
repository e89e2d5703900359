"""``python -m repro.serve`` CLI: argument handling, stdio serving, self-test."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import serve, worker
from repro.serving.protocol import string_to_bits
from repro.serving.scatter import run_bits_batch
from repro.serving.requests import BitsRequest


class TestArgumentValidation:
    def test_rejects_bad_max_batch(self, capsys):
        assert serve.main(["--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_rejects_negative_wait(self, capsys):
        assert serve.main(["--max-wait-ms", "-1"]) == 2
        assert "--max-wait-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "main, argv",
        [
            (serve.main, ["--spawn-workers", "1"]),
            (serve.main, ["--workers-remote", "127.0.0.1:9900"]),
            (serve.main, ["--no-fast-tier"]),
            (worker.main, ["--backend", "numpy"]),
        ],
        ids=["serve-spawn-workers", "serve-workers-remote",
             "serve-no-fast-tier", "worker-backend"],
    )
    def test_removed_flags_are_usage_errors(self, main, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStdioServing:
    def _run(self, monkeypatch, lines, argv):
        stdin = io.StringIO("\n".join(json.dumps(line) for line in lines) + "\n")
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        exit_code = serve.main(["--stdio", *argv])
        return exit_code, [
            json.loads(response)
            for response in stdout.getvalue().splitlines()
            if response
        ]

    def test_serves_bits_and_stats_until_eof(self, monkeypatch):
        request = BitsRequest(n_bits=12, divider=8, seed=31)
        exit_code, responses = self._run(
            monkeypatch,
            [
                {
                    "id": 1,
                    "kind": "bits",
                    "n_bits": request.n_bits,
                    "divider": request.divider,
                    "seed": request.seed,
                },
                {"id": 2, "kind": "ping"},
            ],
            ["--max-wait-ms", "1"],
        )
        assert exit_code == 0
        by_id = {response["id"]: response for response in responses}
        assert by_id[2]["result"]["pong"] is True
        served = string_to_bits(by_id[1]["result"]["bits"])
        assert np.array_equal(served, run_bits_batch([request])[0].bits)

    def test_server_seed_makes_unseeded_requests_reproducible(
        self, monkeypatch
    ):
        lines = [{"id": 1, "kind": "bits", "n_bits": 8, "divider": 8}]
        _, first = self._run(monkeypatch, lines, ["--seed", "9"])
        _, again = self._run(monkeypatch, lines, ["--seed", "9"])
        assert first[0]["result"]["seed"] == again[0]["result"]["seed"]
        assert first[0]["result"]["bits"] == again[0]["result"]["bits"]

    def test_stats_flag_reports_to_stderr(self, monkeypatch, capsys):
        exit_code, _ = self._run(
            monkeypatch,
            [{"id": 1, "kind": "bits", "n_bits": 4, "divider": 8, "seed": 1}],
            ["--stats"],
        )
        assert exit_code == 0
        assert "final stats" in capsys.readouterr().err


class TestSelfTestCommand:
    def test_self_test_exits_zero(self, capsys):
        assert serve.main(["--self-test"]) == 0
        output = capsys.readouterr().out
        assert "coalescing happened" in output
        assert "solo-served bits" in output
