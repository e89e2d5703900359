"""Wire protocol and end-to-end TCP serving tests."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serving import (
    BitsRequest,
    ServiceConfig,
    Sigma2NRequest,
    TRNGServer,
    TRNGService,
    run_self_test,
)
from repro.serving.protocol import (
    ProtocolError,
    bits_to_string,
    build_request,
    decode_partial,
    encode_partial,
    parse_request_line,
    result_to_payload,
    string_to_bits,
)
from repro.serving.scatter import execute_batch, run_bits_batch
from repro.serving.server import handle_request_line, seed_stream


class TestBitEncoding:
    def test_round_trip(self):
        bits = np.array([0, 1, 1, 0, 1], dtype=np.int8)
        assert np.array_equal(string_to_bits(bits_to_string(bits)), bits)

    def test_rejects_non_binary_text(self):
        with pytest.raises(ProtocolError):
            string_to_bits("01x0")


class TestPartialEncoding:
    def test_partial_encoding_round_trips_bitwise(self):
        partial = {
            "floats": np.linspace(0.0, 1.0, 7),
            "ints": np.arange(5, dtype=np.int64),
        }
        restored = decode_partial(encode_partial(partial))
        for name, values in partial.items():
            np.testing.assert_array_equal(restored[name], values)
            assert restored[name].dtype == values.dtype

    def test_decode_partial_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="invalid partial encoding"):
            decode_partial("not base64!!")


class TestResultPayload:
    def test_bits_payload_decodes_to_the_served_bits(self):
        result = execute_batch([BitsRequest(n_bits=16, divider=128, seed=3)])[0]
        payload = result_to_payload(result)
        np.testing.assert_array_equal(string_to_bits(payload["bits"]), result.bits)
        assert payload == {
            "kind": "bits",
            "bits": payload["bits"],
            "n_bits": 16,
            "divider": 128,
            "seed": 3,
        }

    def test_sigma2n_payload_carries_the_measured_curve(self):
        request = Sigma2NRequest(n_periods=2048, seed=9, n_sweep=(1, 2, 4))
        result = execute_batch([request])[0]
        payload = result_to_payload(result)
        assert sorted(payload) == sorted(
            ["kind", "n_values", "sigma2_s2", "realization_counts", "f0_hz",
             "b_thermal_hz", "b_flicker_hz2", "r_squared",
             "thermal_jitter_std_s", "seed"]
        )
        np.testing.assert_array_equal(payload["n_values"], result.n_values)
        np.testing.assert_array_equal(payload["sigma2_s2"], result.sigma2_s2)
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_result_type_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            result_to_payload({"kind": "bits"})


class TestParseRequestLine:
    def test_bits_request_round_trip(self):
        request_id, kind, fields = parse_request_line(
            '{"id": 7, "kind": "bits", "n_bits": 16, "divider": 8, "seed": 3}'
        )
        assert (request_id, kind) == (7, "bits")
        request = build_request(kind, fields)
        assert isinstance(request, BitsRequest)
        assert (request.n_bits, request.divider, request.seed) == (16, 8, 3)

    def test_sigma2n_sweep_becomes_tuple(self):
        _, kind, fields = parse_request_line(
            '{"kind": "sigma2n", "n_periods": 4096, "n_sweep": [1, 2, 4]}'
        )
        request = build_request(kind, fields)
        assert request.n_sweep == (1, 2, 4)

    @pytest.mark.parametrize(
        "line, message_part",
        [
            ("not json", "invalid JSON"),
            ('["a", "list"]', "JSON object"),
            ('{"kind": "frobnicate"}', "unknown request kind"),
            ('{"kind": "bits", "n_bits": 8, "bogus": 1}', "unknown fields"),
            ('{"kind": "stats", "extra": 1}', "unexpected fields"),
            (
                '{"kind": "sigma2n", "n_periods": 4096, "tier": "fast"}',
                r"unknown fields for 'sigma2n': \['tier'\]",
            ),
            ('{"kind": "batch", "requests": []}', "unknown request kind 'batch'"),
            (
                '{"kind": "bits", "n_bits": 8, "trace": {"trace_id": "t"}}',
                r"unknown fields for 'bits': \['trace'\]",
            ),
        ],
    )
    def test_malformed_lines_raise_protocol_errors(self, line, message_part):
        with pytest.raises(ProtocolError, match=message_part):
            parse_request_line(line)

    def test_invalid_values_raise_protocol_errors(self):
        _, kind, fields = parse_request_line(
            '{"kind": "bits", "n_bits": 0}'
        )
        with pytest.raises(ProtocolError, match="invalid bits request"):
            build_request(kind, fields)

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "sigma2n", "n_periods": 4096, "n_sweep": 8}',
            '{"kind": "bits", "n_bits": 64.5}',
            '{"kind": "sigma2n", "n_periods": 4096.5}',
        ],
    )
    def test_bad_field_values_are_client_errors_not_internal(self, line):
        # Regression: these used to escape as "internal error" responses.
        _, kind, fields = parse_request_line(line)
        with pytest.raises(ProtocolError, match=f"invalid {kind} request"):
            build_request(kind, fields)

    def test_tier_is_not_a_request_field(self):
        # Callers that build requests without the wire parser hit the same
        # wall: a sigma2n request has no tier to choose.
        with pytest.raises(ProtocolError, match="invalid sigma2n request"):
            build_request("sigma2n", {"n_periods": 4096, "tier": "fast"})

    def test_default_seed_factory_fills_unseeded_requests(self):
        _, kind, fields = parse_request_line('{"kind": "bits", "n_bits": 8}')
        first = build_request(kind, fields, default_seed=seed_stream(5))
        again = build_request(kind, fields, default_seed=seed_stream(5))
        assert first.seed == again.seed  # same root, same arrival order

    def test_explicit_seed_wins_over_factory(self):
        _, kind, fields = parse_request_line(
            '{"kind": "bits", "n_bits": 8, "seed": 11}'
        )
        request = build_request(kind, fields, default_seed=seed_stream(5))
        assert request.seed == 11


class TestFrontDoorKinds:
    @pytest.mark.parametrize(
        "kind, code, message_part",
        [
            ("shard", "worker_only", "fabric workers"),
            ("shutdown", "worker_only", "fabric workers"),
            ("batch", "bad_request", "unknown request kind 'batch'"),
        ],
    )
    def test_public_server_rejects_worker_kinds(self, kind, code, message_part):
        async def runner():
            async with TRNGService() as service:
                return await handle_request_line(
                    service, f'{{"id": 1, "kind": "{kind}"}}'
                )

        response = json.loads(asyncio.run(runner()))
        assert response["ok"] is False
        assert response["code"] == code
        assert message_part in response["error"]


class TestStatsReply:
    def test_stats_has_no_cache_or_fleet_section(self):
        # Every batch is executed locally, so the counters describe one
        # execution path: no fast-tier cache and no worker fleet.
        async def runner():
            async with TRNGService() as service:
                await service.get_bits(BitsRequest(n_bits=8, divider=16, seed=2))
                return await handle_request_line(service, '{"id": 1, "kind": "stats"}')

        stats = json.loads(asyncio.run(runner()))["result"]
        assert stats["completed"] == 1
        assert stats["batches"] == 1
        assert not [key for key in stats if key.startswith("fast")]
        assert "fabric" not in stats


async def _roundtrip(host: str, port: int, lines):
    reader, writer = await asyncio.open_connection(host, port)
    for line in lines:
        writer.write((json.dumps(line) + "\n").encode())
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in lines]
    writer.close()
    await writer.wait_closed()
    return responses


class TestTCPServer:
    def test_pipelined_requests_match_solo_serving(self):
        requests = [
            BitsRequest(n_bits=12 + index, divider=8, seed=71_000 + index)
            for index in range(6)
        ]

        async def scenario():
            config = ServiceConfig(max_batch=8, max_wait_ms=40.0)
            async with TRNGService(config) as service:
                server = TRNGServer(service, port=0)
                await server.start()
                try:
                    responses = await _roundtrip(
                        server.host,
                        server.port,
                        [
                            {
                                "id": index,
                                "kind": "bits",
                                "n_bits": request.n_bits,
                                "divider": request.divider,
                                "seed": request.seed,
                            }
                            for index, request in enumerate(requests)
                        ],
                    )
                finally:
                    await server.stop()
                return responses

        responses = asyncio.run(scenario())
        by_id = {response["id"]: response for response in responses}
        for index, request in enumerate(requests):
            response = by_id[index]
            assert response["ok"], response
            served = string_to_bits(response["result"]["bits"])
            solo = run_bits_batch([request])[0].bits
            assert np.array_equal(served, solo)

    def test_stats_ping_and_errors_on_one_connection(self):
        async def scenario():
            config = ServiceConfig(max_batch=4, max_wait_ms=5.0)
            async with TRNGService(config) as service:
                server = TRNGServer(service, port=0)
                await server.start()
                try:
                    responses = await _roundtrip(
                        server.host,
                        server.port,
                        [
                            {"id": 1, "kind": "ping"},
                            {"id": 2, "kind": "bits", "n_bits": 4,
                             "divider": 8, "seed": 1},
                            {"id": 3, "kind": "stats"},
                            {"id": 4, "kind": "nonsense"},
                            {"id": 5, "kind": "sigma2n", "n_periods": 256,
                             "seed": 1, "tier": "exact"},
                        ],
                    )
                finally:
                    await server.stop()
                return responses

        responses = {r["id"]: r for r in asyncio.run(scenario())}
        assert responses[1]["result"]["pong"] is True
        assert responses[2]["ok"]
        assert responses[3]["result"]["submitted"] >= 1
        assert not responses[4]["ok"]
        assert "unknown request kind" in responses[4]["error"]
        assert responses[5]["code"] == "bad_request"
        assert "['tier']" in responses[5]["error"]


    def test_oversized_line_gets_an_error_response_not_a_dead_socket(self):
        async def scenario():
            config = ServiceConfig(max_batch=2, max_wait_ms=5.0)
            async with TRNGService(config) as service:
                server = TRNGServer(service, port=0)
                await server.start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    from repro.serving.server import MAX_LINE_BYTES

                    writer.write(b"x" * (MAX_LINE_BYTES + 1024) + b"\n")
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                finally:
                    await server.stop()
                return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "exceeds" in response["error"]


class TestSelfTest:
    def test_self_test_passes(self):
        summary = asyncio.run(
            run_self_test(n_clients=12, n_bits=16, max_wait_ms=80.0)
        )
        assert summary["solo_equivalence"] == "bitwise"
        assert summary["stats"]["max_batch_size"] > 1
        assert summary["stats"]["completed"] == 12
