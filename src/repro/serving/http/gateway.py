"""The HTTP/WebSocket front door over one coalescing TRNG service.

:class:`HTTPGateway` maps HTTP onto the exact same versioned envelopes and
the exact same :func:`~repro.serving.server.serve_envelope` core as the TCP
and stdio servers — a ``POST /v1/bits`` body is the identical JSON object a
TCP client would send as a line, it lands in the identical coalescing
window, and the response body is the identical envelope.  The transport
never touches results, so HTTP-served bits are bit-for-bit TCP-served bits
(``run_http_self_test`` proves it end to end).

Routes
------
* ``POST /v1/bits`` / ``POST /v1/sigma2n`` — one-shot requests through the
  coalescing path (``kind`` implied by the path; scheduling fields
  ``priority``/``deadline_ms`` accepted).
* ``POST /v1/sessions`` — open a streaming session;
  ``POST /v1/sessions/<id>/bits`` reads the next chunk,
  ``GET /v1/sessions/<id>`` inspects, ``DELETE /v1/sessions/<id>`` closes.
  This is the plain-HTTP fallback for clients without WebSocket support.
* ``GET /v1/stream`` — WebSocket upgrade; JSON text frames carry
  ``{"op": "open" | "read" | "close" | "ping"}`` messages over one
  connection (sessions opened here are closed with the connection).
* ``GET /metrics`` — Prometheus text exposition (format 0.0.4) of the
  service registry merged with the process-wide one.
* ``GET /healthz`` — liveness/readiness JSON (queue depth, session count,
  fabric attachment).

Error envelopes carry the protocol's stable ``code`` token, mapped onto
HTTP status codes by :data:`CODE_STATUS` — the body of a 4xx/5xx is the
same ``{"ok": false, "error": ..., "code": ...}`` object a TCP client
would read.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ...obs import global_registry, render_prometheus
from ..config import ServiceConfig
from ..protocol import (
    ProtocolError,
    bits_to_string,
    build_request,
    error_envelope,
    response_envelope,
    string_to_bits,
)
from ..scatter import run_bits_batch
from ..server import SeedFactory, serve_envelope
from ..service import TRNGService
from .sessions import SessionError, SessionManager
from .wire import (
    MAX_BODY_BYTES,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    HTTPError,
    HTTPRequest,
    WebSocketError,
    encode_ws_close,
    encode_ws_frame,
    read_request,
    read_ws_frame,
    render_response,
    render_websocket_handshake,
)

#: Protocol error code -> HTTP status.  The JSON body still carries the
#: code, so HTTP clients can match on either.
CODE_STATUS = {
    "bad_request": 400,
    "unsupported_version": 400,
    "worker_only": 403,
    "overloaded": 429,
    "deadline_exceeded": 504,
    "stopped": 503,
    "not_found": 404,
    "session_expired": 410,
    "internal": 500,
}

#: Fields accepted when opening a session: a bits request minus ``n_bits``
#: (the stream has no predetermined length) and minus scheduling fields
#: (session reads run on the session's own sampler, not the coalescer).
SESSION_FIELDS = (
    "divider",
    "seed",
    "f0_hz",
    "b_thermal_hz",
    "b_flicker_hz2",
    "frequency_mismatch",
)

#: Cap on one session read [bits] — keeps a response body ~1 MiB.
MAX_SESSION_READ_BITS = 1 << 20

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_bytes(payload: Dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _envelope_status(envelope: Dict) -> int:
    if envelope.get("ok"):
        return 200
    return CODE_STATUS.get(envelope.get("code"), 500)


class HTTPGateway:
    """Stdlib-only HTTP/1.1 + WebSocket server in front of one service."""

    def __init__(
        self,
        service: TRNGService,
        host: str = "127.0.0.1",
        port: int = 0,
        default_seed: SeedFactory = None,
        sessions: Optional[SessionManager] = None,
        max_sessions: int = 64,
        session_ttl_s: float = 300.0,
        max_body: int = MAX_BODY_BYTES,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self._default_seed = default_seed
        self.max_body = int(max_body)
        self.sessions = (
            sessions
            if sessions is not None
            else SessionManager(
                max_sessions=max_sessions,
                idle_ttl_s=session_ttl_s,
                metrics=service.registry,
            )
        )
        self._requests_total = service.registry.counter(
            "http_requests_total",
            "HTTP requests served by the gateway",
            labelnames=("method", "route", "status"),
        )
        self._request_seconds = service.registry.histogram(
            "http_request_seconds",
            "Seconds from a parsed request line to its written response",
            labelnames=("route", "status"),
        )
        self._ws_connections = service.registry.counter(
            "http_websocket_connections_total",
            "WebSocket streaming connections accepted",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is None:
            # The stream limit bounds any single header/request line; bodies
            # are framed by Content-Length with their own cap.
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self._requested_port,
                limit=self.max_body + (64 << 10),
            )
            self._sweep_task = asyncio.create_task(
                self._sweep_loop(), name="http-session-sweep"
            )

    async def stop(self) -> None:
        sweep, self._sweep_task = self._sweep_task, None
        if sweep is not None:
            sweep.cancel()
            try:
                await sweep
            except asyncio.CancelledError:
                pass
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self.sessions.close_all()

    async def serve_forever(self) -> None:
        await self.start()
        await self._server.serve_forever()

    async def _sweep_loop(self) -> None:
        interval = max(self.sessions.idle_ttl_s / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            self.sessions.sweep()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, max_body=self.max_body)
                except HTTPError as error:
                    # Framing is unknowable after a malformed request:
                    # answer once, then close.
                    body = _json_bytes(error_envelope(None, str(error)))
                    self._count("?", "malformed", error.status)
                    writer.write(
                        render_response(
                            error.status, body, headers=(("connection", "close"),)
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.path == "/v1/stream" and request.wants_websocket:
                    await self._serve_websocket(request, reader, writer)
                    break
                response, keep_alive, route, status = await self._respond(request)
                writer.write(response)
                await writer.drain()
                self._request_seconds.observe(
                    time.monotonic() - request.started,
                    route=route,
                    status=str(status),
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _count(self, method: str, route: str, status: int) -> None:
        self._requests_total.inc(method=method, route=route, status=str(status))

    async def _respond(self, request: HTTPRequest) -> Tuple[bytes, bool, str, int]:
        """One routed exchange: ``(response_bytes, keep_alive, route, status)``."""
        content_type = "application/json"
        try:
            route, handler = self._route(request)
            status, body, content_type = await handler(request)
        except HTTPError as error:
            route = "error"
            status = error.status
            body = _json_bytes(error_envelope(None, str(error)))
        except SessionError as error:
            route = "sessions"
            status = CODE_STATUS[error.code]
            body = _json_bytes(error_envelope(None, str(error), code=error.code))
        except Exception as error:  # route handlers must not kill the server
            route = "error"
            status = 500
            body = _json_bytes(
                error_envelope(None, f"internal error: {error}", code="internal")
            )
        self._count(request.method, route, status)
        keep_alive = request.keep_alive
        headers = (("connection", "keep-alive" if keep_alive else "close"),)
        return (
            render_response(status, body, content_type, headers=headers),
            keep_alive,
            route,
            status,
        )

    def _route(self, request: HTTPRequest):
        """Match ``(method, path)`` to ``(route_label, handler)``."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            self._require(method, ("GET",), path)
            return "/healthz", self._handle_healthz
        if path == "/metrics":
            self._require(method, ("GET",), path)
            return "/metrics", self._handle_metrics
        if path == "/v1/bits":
            self._require(method, ("POST",), path)
            return "/v1/bits", lambda req: self._handle_api(req, "bits")
        if path == "/v1/sigma2n":
            self._require(method, ("POST",), path)
            return "/v1/sigma2n", lambda req: self._handle_api(req, "sigma2n")
        if path == "/v1/sessions":
            self._require(method, ("POST",), path)
            return "/v1/sessions", self._handle_session_open
        parts = path.split("/")
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "sessions":
            session_id = parts[3]
            if len(parts) == 4:
                self._require(method, ("GET", "DELETE"), path)
                if method == "GET":
                    return (
                        "/v1/sessions/{id}",
                        lambda req: self._handle_session_info(req, session_id),
                    )
                return (
                    "/v1/sessions/{id}",
                    lambda req: self._handle_session_close(req, session_id),
                )
            if len(parts) == 5 and parts[4] == "bits":
                self._require(method, ("POST",), path)
                return (
                    "/v1/sessions/{id}/bits",
                    lambda req: self._handle_session_read(req, session_id),
                )
        raise HTTPError(404, f"no route for {method} {request.path}")

    @staticmethod
    def _require(method: str, allowed: Tuple[str, ...], path: str) -> None:
        if method not in allowed:
            raise HTTPError(
                405, f"{path} supports {', '.join(allowed)}, not {method}"
            )

    @staticmethod
    def _json_body(request: HTTPRequest) -> Dict:
        if not request.body:
            return {}
        try:
            payload = json.loads(request.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise HTTPError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload

    # -- route handlers ------------------------------------------------------

    async def _handle_api(self, request: HTTPRequest, kind: str):
        """One-shot bits/sigma2n through the shared envelope core."""
        payload = self._json_body(request)
        if payload.get("kind", kind) != kind:
            raise HTTPError(
                400,
                f"this endpoint serves kind {kind!r}, "
                f"body says {payload.get('kind')!r}",
            )
        payload["kind"] = kind
        _, envelope = await serve_envelope(
            self.service, payload, self._default_seed
        )
        return _envelope_status(envelope), _json_bytes(envelope), "application/json"

    async def _handle_metrics(self, request: HTTPRequest):
        text = render_prometheus(self.service.registry, global_registry())
        return 200, text.encode("utf-8"), _PROMETHEUS_CONTENT_TYPE

    async def _handle_healthz(self, request: HTTPRequest):
        queue_depth = self.service.registry.get("serve_queue_depth")
        healthy = self.service.running
        payload = {
            "status": "ok" if healthy else "stopped",
            "serving": healthy,
            "queue_depth": int(queue_depth.value()) if queue_depth else 0,
            "max_pending": self.service.config.max_pending,
            "sessions": len(self.sessions),
            "fabric": self.service.fabric is not None,
            "backend": type(self.service.backend).__name__,
        }
        return (200 if healthy else 503), _json_bytes(payload), "application/json"

    def _open_session(self, fields: Dict) -> Dict:
        """Validate open fields, create the session, return the result payload."""
        unknown = sorted(set(fields) - set(SESSION_FIELDS))
        if unknown:
            raise ProtocolError(
                f"unknown fields for a session: {unknown} "
                f"(expected a subset of {list(SESSION_FIELDS)})"
            )
        # n_bits=1 is a placeholder: sessions stream, so the carrier request
        # only contributes the generator-defining fields.
        carrier = build_request(
            "bits", {"n_bits": 1, **fields}, default_seed=self._default_seed
        )
        session_id, session = self.sessions.open(
            carrier, backend=self.service.backend
        )
        return {
            "kind": "session",
            "session": session_id,
            "seed": carrier.seed,
            "divider": carrier.divider,
        }

    async def _handle_session_open(self, request: HTTPRequest):
        fields = self._json_body(request)
        try:
            result = self._open_session(fields)
        except ProtocolError as error:
            body = _json_bytes(error_envelope(None, str(error), code=error.code))
            return CODE_STATUS[error.code], body, "application/json"
        return 201, _json_bytes(response_envelope(None, result)), "application/json"

    def _read_chunk_size(self, fields: Dict) -> int:
        n_bits = fields.get("n_bits")
        if not isinstance(n_bits, int) or isinstance(n_bits, bool) or n_bits < 1:
            raise HTTPError(400, f"n_bits must be a positive integer, got {n_bits!r}")
        if n_bits > MAX_SESSION_READ_BITS:
            raise HTTPError(
                400,
                f"n_bits {n_bits} exceeds the per-read cap of "
                f"{MAX_SESSION_READ_BITS} bits; read in chunks (the stream "
                f"is chunk-invariant)",
            )
        return n_bits

    async def _read_session_bits(self, session_id: str, n_bits: int) -> Dict:
        session = self.sessions.get(session_id)
        # The per-session lock serializes concurrent reads; the worker
        # thread keeps the event loop free while the engine runs.
        offset, bits = await asyncio.to_thread(session.read, n_bits)
        return {
            "kind": "bits",
            "session": session_id,
            "bits": bits_to_string(bits),
            "n_bits": int(bits.size),
            "offset": offset,
            "seed": session.request.seed,
            "divider": session.request.divider,
        }

    async def _handle_session_read(self, request: HTTPRequest, session_id: str):
        n_bits = self._read_chunk_size(self._json_body(request))
        result = await self._read_session_bits(session_id, n_bits)
        return 200, _json_bytes(response_envelope(None, result)), "application/json"

    async def _handle_session_info(self, request: HTTPRequest, session_id: str):
        session = self.sessions.get(session_id)
        result = {"kind": "session", "session": session_id, **session.info()}
        return 200, _json_bytes(response_envelope(None, result)), "application/json"

    async def _handle_session_close(self, request: HTTPRequest, session_id: str):
        closed = self.sessions.close(session_id)
        result = {"kind": "session", "session": session_id, "closed": closed}
        return 200, _json_bytes(response_envelope(None, result)), "application/json"

    # -- WebSocket streaming -------------------------------------------------

    async def _serve_websocket(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The ``/v1/stream`` endpoint: session ops as JSON text frames."""
        try:
            handshake = render_websocket_handshake(request)
        except HTTPError as error:
            self._count(request.method, "/v1/stream", error.status)
            body = _json_bytes(error_envelope(None, str(error)))
            writer.write(
                render_response(
                    error.status, body, headers=(("connection", "close"),)
                )
            )
            await writer.drain()
            return
        writer.write(handshake)
        await writer.drain()
        self._ws_connections.inc()
        self._count(request.method, "/v1/stream", 101)
        owned_sessions = set()
        try:
            while True:
                try:
                    opcode, payload = await read_ws_frame(
                        reader, max_payload=self.max_body
                    )
                except WebSocketError as error:
                    writer.write(encode_ws_close(error.code, str(error)))
                    await writer.drain()
                    return
                if opcode == OP_CLOSE:
                    writer.write(encode_ws_close(1000))
                    await writer.drain()
                    return
                if opcode == OP_PING:
                    writer.write(encode_ws_frame(OP_PONG, payload))
                    await writer.drain()
                    continue
                if opcode == OP_PONG:
                    continue
                if opcode != OP_TEXT:
                    writer.write(
                        encode_ws_close(1003, "only JSON text frames are accepted")
                    )
                    await writer.drain()
                    return
                reply = await self._handle_ws_message(payload, owned_sessions)
                writer.write(encode_ws_frame(OP_TEXT, _json_bytes(reply)))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Sessions opened over this socket die with it — a WebSocket
            # stream is connection-scoped, unlike the REST sessions.
            for session_id in owned_sessions:
                try:
                    self.sessions.close(session_id)
                except SessionError:
                    pass

    async def _handle_ws_message(self, payload: bytes, owned_sessions: set) -> Dict:
        """One ``{"op": ...}`` message to one reply envelope (never raises)."""
        message_id = None
        try:
            try:
                message = json.loads(payload)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise ProtocolError(f"invalid JSON frame: {error}") from None
            if not isinstance(message, dict):
                raise ProtocolError("each frame must be a JSON object")
            message_id = message.pop("id", None)
            op = message.pop("op", None)
            if op == "ping":
                return response_envelope(message_id, {"kind": "ping", "pong": True})
            if op == "open":
                result = self._open_session(message)
                owned_sessions.add(result["session"])
                return response_envelope(message_id, result)
            if op == "read":
                session_id = message.pop("session", None)
                if not isinstance(session_id, str):
                    raise ProtocolError("'read' requires a 'session' id")
                try:
                    n_bits = self._read_chunk_size(message)
                except HTTPError as error:
                    raise ProtocolError(str(error)) from None
                result = await self._read_session_bits(session_id, n_bits)
                return response_envelope(message_id, result)
            if op == "close":
                session_id = message.pop("session", None)
                if not isinstance(session_id, str):
                    raise ProtocolError("'close' requires a 'session' id")
                closed = self.sessions.close(session_id)
                owned_sessions.discard(session_id)
                return response_envelope(
                    message_id,
                    {"kind": "session", "session": session_id, "closed": closed},
                )
            raise ProtocolError(
                f"unknown op {op!r} (expected open, read, close or ping)"
            )
        except ProtocolError as error:
            return error_envelope(message_id, str(error), code=error.code)
        except SessionError as error:
            return error_envelope(message_id, str(error), code=error.code)
        except Exception as error:
            return error_envelope(
                message_id, f"internal error: {error}", code="internal"
            )


# -- self-test ---------------------------------------------------------------


async def http_request(
    host: str, port: int, method: str, path: str, payload: Optional[Dict] = None
) -> Tuple[int, bytes]:
    """Minimal one-shot HTTP client; returns ``(status, body)``.

    Used by the self-test and the example client so neither needs anything
    beyond the stdlib (``connection: close`` framing keeps parsing trivial).
    """
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"host: {host}:{port}\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n"
        f"connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):
        pass
    header_block, _, response_body = raw.partition(b"\r\n\r\n")
    status_line = header_block.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split(" ")[1])
    return status, response_body


async def run_http_self_test(
    n_clients: int = 16,
    n_bits: int = 48,
    dividers=(8, 16),
    max_batch: int = 16,
    max_wait_ms: float = 150.0,
    base_seed: int = 20140324,
    host: str = "127.0.0.1",
    backend=None,
) -> Dict:
    """End-to-end HTTP smoke: coalescing, TCP-equivalence, sessions, metrics.

    Spawns a real gateway on an ephemeral port and asserts that

    * concurrent ``POST /v1/bits`` requests coalesce and every response is
      **bit-for-bit** the solo-served result (the same contract the TCP
      self-test proves — and since both edges call the same engine bridge,
      HTTP == TCP bitwise);
    * a streaming session read in chunks reproduces the one-shot result of
      the same seed exactly (chunk invariance);
    * ``GET /metrics`` serves a parseable Prometheus exposition and
      ``GET /healthz`` reports ok.

    Returns a summary dict; raises ``AssertionError`` on any violation.
    """
    from ..requests import BitsRequest

    requests = [
        BitsRequest(
            n_bits=n_bits,
            divider=int(dividers[index % len(dividers)]),
            seed=base_seed + index,
        )
        for index in range(n_clients)
    ]
    config = ServiceConfig(
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_pending=4 * n_clients,
        backend=backend,
    )
    service = TRNGService(config)
    gateway = HTTPGateway(service, host=host, port=0)
    async with service:
        await gateway.start()
        try:
            port = gateway.port

            async def client(index: int) -> Dict:
                request = requests[index]
                status, body = await http_request(
                    host,
                    port,
                    "POST",
                    "/v1/bits",
                    {
                        "id": index,
                        "n_bits": request.n_bits,
                        "divider": request.divider,
                        "seed": request.seed,
                    },
                )
                envelope = json.loads(body)
                if status != 200 or not envelope.get("ok"):
                    raise AssertionError(
                        f"client {index}: HTTP {status}: {envelope.get('error')}"
                    )
                return envelope

            envelopes = await asyncio.gather(
                *(client(index) for index in range(n_clients))
            )

            # Streaming session: three uneven chunks must concatenate to the
            # one-shot solo result for the same seed.
            status, body = await http_request(
                host, port, "POST", "/v1/sessions",
                {"divider": int(dividers[0]), "seed": base_seed},
            )
            assert status == 201, f"session open failed: HTTP {status}"
            session_id = json.loads(body)["result"]["session"]
            chunks = []
            for chunk_bits in (7, 1, n_bits - 8):
                status, body = await http_request(
                    host, port, "POST", f"/v1/sessions/{session_id}/bits",
                    {"n_bits": chunk_bits},
                )
                assert status == 200, f"session read failed: HTTP {status}"
                chunks.append(string_to_bits(json.loads(body)["result"]["bits"]))
            session_bits = np.concatenate(chunks)

            status, metrics_body = await http_request(host, port, "GET", "/metrics")
            assert status == 200, f"metrics scrape failed: HTTP {status}"
            metrics_text = metrics_body.decode("utf-8")
            assert "# TYPE serve_requests_total counter" in metrics_text, (
                "metrics exposition is missing the serving counters"
            )

            status, health_body = await http_request(host, port, "GET", "/healthz")
            assert status == 200, f"healthz failed: HTTP {status}"
            assert json.loads(health_body)["status"] == "ok"
        finally:
            await gateway.stop()
        stats = service.stats.snapshot()

    for index, envelope in enumerate(envelopes):
        served = string_to_bits(envelope["result"]["bits"])
        solo = run_bits_batch([requests[index]])[0].bits
        if not np.array_equal(served, solo):
            raise AssertionError(
                f"client {index}: HTTP-served bits differ from solo-served bits"
            )
    one_shot = run_bits_batch(
        [BitsRequest(n_bits=n_bits, divider=int(dividers[0]), seed=base_seed)]
    )[0].bits
    if not np.array_equal(session_bits, one_shot):
        raise AssertionError(
            "session chunks do not concatenate to the one-shot stream"
        )
    if stats["max_batch_size"] < 2:
        raise AssertionError(
            "no coalescing happened over HTTP: every batch served a single "
            f"request (stats: {stats})"
        )
    return {
        "clients": n_clients,
        "n_bits": n_bits,
        "dividers": list(int(d) for d in dividers),
        "stats": stats,
        "solo_equivalence": "bitwise",
        "session_chunk_invariance": "bitwise",
    }
