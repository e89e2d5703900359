"""HTTP gateway: TCP bitwise equivalence, limits, sessions, WebSocket."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs import render_prometheus
from repro.serving import ServiceConfig, TRNGService, TRNGServer
from repro.serving.http import CODE_STATUS, HTTPGateway, http_request
from repro.serving.http.wire import (
    OP_CLOSE,
    OP_TEXT,
    encode_client_frame,
    websocket_accept,
)
from repro.serving.protocol import string_to_bits
from repro.serving.requests import BitsRequest
from repro.serving.scatter import run_bits_batch
from repro.serving.server import seed_stream


def run(coroutine):
    return asyncio.run(coroutine)


class _Stack:
    """One service with both front doors (HTTP gateway + TCP server)."""

    def __init__(self, default_seed=None, max_body=None, **config_kwargs):
        self.config = ServiceConfig(**config_kwargs)
        self.service = TRNGService(self.config)
        gateway_kwargs = {} if max_body is None else {"max_body": max_body}
        self.gateway = HTTPGateway(
            self.service, port=0, default_seed=default_seed, **gateway_kwargs
        )
        self.server = TRNGServer(self.service, port=0, default_seed=default_seed)

    async def __aenter__(self):
        await self.service.start()
        await self.gateway.start()
        await self.server.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.server.stop()
        await self.gateway.stop()
        await self.service.stop()

    async def http(self, method, path, payload=None):
        status, body = await http_request(
            "127.0.0.1", self.gateway.port, method, path, payload
        )
        return status, json.loads(body) if body else None

    async def tcp(self, payload):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.server.port
        )
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        raw = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return json.loads(raw)


BITS_BODY = {"kind": "bits", "n_bits": 16, "divider": 8, "seed": 101}
SIGMA_BODY = {"kind": "sigma2n", "n_periods": 256, "seed": 202}


class TestTransportEquivalence:
    @pytest.mark.parametrize("max_batch", [1, 8], ids=["solo", "coalesced"])
    @pytest.mark.parametrize(
        "body", [BITS_BODY, SIGMA_BODY], ids=["bits", "sigma2n"]
    )
    def test_http_result_is_bitwise_identical_to_tcp(self, max_batch, body):
        async def scenario():
            async with _Stack(max_batch=max_batch, max_wait_ms=20.0) as stack:
                path = f"/v1/{body['kind']}"
                http_call = stack.http("POST", path, dict(body))
                tcp_call = stack.tcp(dict(body))
                if max_batch > 1:
                    # Concurrent submission: both edges land in one window.
                    (status, via_http), via_tcp = await asyncio.gather(
                        http_call, tcp_call
                    )
                else:
                    status, via_http = await http_call
                    via_tcp = await tcp_call
                assert status == 200
                assert via_http["ok"] and via_tcp["ok"]
                assert via_http["v"] == via_tcp["v"] == 1
                # The full result payloads must be identical objects —
                # bit strings, curves, fits, everything.
                assert via_http["result"] == via_tcp["result"]

        run(scenario())

    @pytest.mark.parametrize("kind", ["bits", "sigma2n"])
    def test_unseeded_requests_pin_a_replayable_seed(self, kind):
        async def scenario():
            async with _Stack(max_batch=4, max_wait_ms=5.0) as stack:
                body = {k: v for k, v in
                        (BITS_BODY if kind == "bits" else SIGMA_BODY).items()
                        if k != "seed"}
                status, fresh = await stack.http("POST", f"/v1/{kind}", body)
                assert status == 200 and fresh["ok"]
                seed = fresh["result"]["seed"]
                replay = await stack.tcp({**body, "seed": seed})
                assert replay["result"] == fresh["result"]

        run(scenario())

    def test_server_seed_stream_is_shared_across_transports(self):
        async def scenario():
            # Same root seed -> the n-th unseeded request gets the same
            # pinned seed regardless of which edge carried it.
            async with _Stack(default_seed=seed_stream(9)) as first_stack:
                _, via_http = await first_stack.http(
                    "POST", "/v1/bits", {"n_bits": 8, "divider": 8}
                )
            async with _Stack(default_seed=seed_stream(9)) as second_stack:
                via_tcp = await second_stack.tcp(
                    {"kind": "bits", "n_bits": 8, "divider": 8}
                )
            assert via_http["result"] == via_tcp["result"]

        run(scenario())


class TestHTTPErrors:
    def test_error_code_to_status_mapping_is_total(self):
        from repro.serving.protocol import ERROR_CODES

        assert set(CODE_STATUS) == set(ERROR_CODES)

    def test_unsupported_protocol_version_maps_to_400(self):
        async def scenario():
            async with _Stack() as stack:
                status, envelope = await stack.http(
                    "POST", "/v1/bits", {"v": 99, **BITS_BODY}
                )
                assert status == 400
                assert envelope["code"] == "unsupported_version"

        run(scenario())

    def test_unknown_route_and_wrong_method(self):
        async def scenario():
            async with _Stack() as stack:
                status, envelope = await stack.http("POST", "/v1/nope", {})
                assert status == 404
                status, envelope = await stack.http("GET", "/v1/bits")
                assert status == 405
                assert envelope["ok"] is False

        run(scenario())

    def test_invalid_json_body_is_a_400(self):
        async def scenario():
            async with _Stack() as stack:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.gateway.port
                )
                body = b"{not json"
                writer.write(
                    b"POST /v1/bits HTTP/1.1\r\nhost: t\r\n"
                    b"content-length: %d\r\nconnection: close\r\n\r\n%b"
                    % (len(body), body)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert raw.startswith(b"HTTP/1.1 400 ")

        run(scenario())

    def test_malformed_request_line_gets_400_then_close(self):
        async def scenario():
            async with _Stack() as stack:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.gateway.port
                )
                writer.write(b"COMPLETE GARBAGE\r\n\r\n")
                await writer.drain()
                raw = await reader.read()  # server answers then closes
                writer.close()
                await writer.wait_closed()
                assert raw.startswith(b"HTTP/1.1 400 ")

        run(scenario())

    def test_oversized_body_is_rejected_with_413(self):
        async def scenario():
            async with _Stack(max_body=512) as stack:
                big = {"kind": "bits", "n_bits": 8, "junk": "x" * 2048}
                status, envelope = await stack.http("POST", "/v1/bits", big)
                assert status == 413
                assert envelope["ok"] is False

        run(scenario())

    def test_kind_mismatch_between_path_and_body_is_rejected(self):
        async def scenario():
            async with _Stack() as stack:
                status, _ = await stack.http("POST", "/v1/bits", SIGMA_BODY)
                assert status == 400

        run(scenario())


class TestObservabilityEndpoints:
    def test_metrics_serves_parseable_prometheus_exposition(self):
        async def scenario():
            async with _Stack() as stack:
                await stack.http("POST", "/v1/bits", dict(BITS_BODY))
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.gateway.port
                )
                writer.write(
                    b"GET /metrics HTTP/1.1\r\nhost: t\r\n"
                    b"connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            header_block, _, body = raw.partition(b"\r\n\r\n")
            headers = header_block.decode("latin-1").lower()
            assert "content-type: text/plain; version=0.0.4" in headers
            text = body.decode("utf-8")
            # Exposition format 0.0.4: every non-comment line is
            # `name[{labels}] value`.
            for line in text.splitlines():
                if not line or line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                assert name and float(value) is not None
            assert "serve_requests_total" in text
            assert "serving_coalesce_wait_seconds" in text
            assert "http_requests_total" in text

        run(scenario())

    def test_request_latency_histogram_observes_once_per_request(self):
        async def scenario():
            async with _Stack(max_batch=4, max_wait_ms=1.0) as stack:
                histogram = stack.service.registry.get("http_request_seconds")
                status, reply = await stack.http("POST", "/v1/bits", dict(BITS_BODY))
                assert status == 200 and reply["ok"]
                after_one = histogram.snapshot()
                status, _ = await stack.http("GET", "/nope")
                assert status == 404
                return histogram.snapshot(), after_one, render_prometheus(
                    stack.service.registry
                )

        snapshot, after_one, text = run(scenario())
        # Exactly one observation, under the route and status it was served.
        assert list(after_one) == ["route=/v1/bits,status=200"]
        bits = after_one["route=/v1/bits,status=200"]
        assert bits["count"] == 1
        assert 0.0 < bits["sum"] < 10.0
        assert snapshot["route=error,status=404"]["count"] == 1
        assert snapshot["route=/v1/bits,status=200"]["count"] == 1
        assert (
            'http_request_seconds_count{route="/v1/bits",status="200"} 1'
            in text.splitlines()
        )

    def test_healthz_reports_queue_and_session_state(self):
        async def scenario():
            async with _Stack() as stack:
                status, health = await stack.http("GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["sessions"] == 0
                assert health["fabric"] is False
                assert health["queue_depth"] == 0

        run(scenario())


class TestHTTPSessions:
    def test_session_chunks_match_one_shot_generation(self):
        async def scenario():
            async with _Stack() as stack:
                status, opened = await stack.http(
                    "POST", "/v1/sessions", {"divider": 8, "seed": 77}
                )
                assert status == 201
                session_id = opened["result"]["session"]
                chunks = []
                for n_bits in (5, 1, 26):
                    status, chunk = await stack.http(
                        "POST",
                        f"/v1/sessions/{session_id}/bits",
                        {"n_bits": n_bits},
                    )
                    assert status == 200
                    assert chunk["result"]["offset"] == sum(
                        c.size for c in chunks
                    )
                    chunks.append(string_to_bits(chunk["result"]["bits"]))
                status, info = await stack.http(
                    "GET", f"/v1/sessions/{session_id}"
                )
                assert info["result"]["bits_served"] == 32
                status, closed = await stack.http(
                    "DELETE", f"/v1/sessions/{session_id}"
                )
                assert status == 200 and closed["result"]["closed"] is True
                status, gone = await stack.http(
                    "POST", f"/v1/sessions/{session_id}/bits", {"n_bits": 1}
                )
                assert status == 410
                assert gone["code"] == "session_expired"
            one_shot = run_bits_batch(
                [BitsRequest(n_bits=32, divider=8, seed=77)]
            )[0].bits
            assert np.array_equal(np.concatenate(chunks), one_shot)

        run(scenario())

    def test_unknown_session_is_404_and_bad_reads_400(self):
        async def scenario():
            async with _Stack() as stack:
                status, envelope = await stack.http(
                    "POST", "/v1/sessions/feedc0de/bits", {"n_bits": 4}
                )
                assert status == 404
                assert envelope["code"] == "not_found"
                status, opened = await stack.http(
                    "POST", "/v1/sessions", {"divider": 8, "seed": 1}
                )
                session_id = opened["result"]["session"]
                status, _ = await stack.http(
                    "POST", f"/v1/sessions/{session_id}/bits", {"n_bits": 0}
                )
                assert status == 400
                status, _ = await stack.http(
                    "POST", "/v1/sessions", {"n_bits": 4}
                )
                assert status == 400  # sessions have no fixed length

        run(scenario())


async def _read_server_frame(reader):
    header = await reader.readexactly(2)
    opcode = header[0] & 0x0F
    length = header[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    payload = await reader.readexactly(length) if length else b""
    return opcode, payload


class TestWebSocketStream:
    def test_websocket_session_stream_is_chunk_invariant(self):
        async def scenario():
            async with _Stack() as stack:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.gateway.port
                )
                key = "dGhlIHNhbXBsZSBub25jZQ=="
                writer.write(
                    (
                        "GET /v1/stream HTTP/1.1\r\nhost: t\r\n"
                        "upgrade: websocket\r\nconnection: Upgrade\r\n"
                        f"sec-websocket-key: {key}\r\n"
                        "sec-websocket-version: 13\r\n\r\n"
                    ).encode()
                )
                await writer.drain()
                handshake = await reader.readuntil(b"\r\n\r\n")
                assert b"101 Switching Protocols" in handshake
                assert websocket_accept(key).encode() in handshake

                async def call(message):
                    writer.write(
                        encode_client_frame(
                            OP_TEXT,
                            json.dumps(message).encode(),
                            b"\x12\x34\x56\x78",
                        )
                    )
                    await writer.drain()
                    opcode, payload = await _read_server_frame(reader)
                    assert opcode == OP_TEXT
                    return json.loads(payload)

                opened = await call(
                    {"op": "open", "divider": 8, "seed": 55, "id": 1}
                )
                assert opened["ok"] and opened["id"] == 1
                session_id = opened["result"]["session"]
                chunks = []
                for n_bits in (9, 23):
                    reply = await call(
                        {"op": "read", "session": session_id, "n_bits": n_bits}
                    )
                    assert reply["ok"]
                    chunks.append(string_to_bits(reply["result"]["bits"]))
                bad = await call({"op": "warp"})
                assert bad["ok"] is False and bad["code"] == "bad_request"
                assert len(stack.gateway.sessions) == 1
                # Close frame: the server echoes and drops the connection,
                # taking its sessions with it.
                writer.write(
                    encode_client_frame(OP_CLOSE, b"", b"\x00\x01\x02\x03")
                )
                await writer.drain()
                opcode, _ = await _read_server_frame(reader)
                assert opcode == OP_CLOSE
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                assert len(stack.gateway.sessions) == 0
            one_shot = run_bits_batch(
                [BitsRequest(n_bits=32, divider=8, seed=55)]
            )[0].bits
            assert np.array_equal(np.concatenate(chunks), one_shot)

        run(scenario())

    def test_unmasked_client_frame_is_a_protocol_violation(self):
        async def scenario():
            async with _Stack() as stack:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.gateway.port
                )
                writer.write(
                    (
                        "GET /v1/stream HTTP/1.1\r\nhost: t\r\n"
                        "upgrade: websocket\r\nconnection: Upgrade\r\n"
                        "sec-websocket-key: AAAA\r\n\r\n"
                    ).encode()
                )
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                writer.write(bytes([0x81, 0x02]) + b"{}")  # unmasked
                await writer.drain()
                opcode, payload = await _read_server_frame(reader)
                assert opcode == OP_CLOSE
                assert int.from_bytes(payload[:2], "big") == 1002
                writer.close()
                await writer.wait_closed()

        run(scenario())
