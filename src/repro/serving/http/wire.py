"""Stdlib HTTP/1.1 request framing and RFC 6455 WebSocket codec.

This is the byte-level half of the HTTP gateway: parse one request off an
asyncio stream (with hard limits on request line, header block and body so a
hostile peer cannot balloon memory), render responses, and speak just enough
WebSocket for the streaming-session endpoint — the server handshake
(``Sec-WebSocket-Accept``), masked client frames, and unmasked server
frames.  No routing or protocol semantics live here; the gateway maps parsed
requests onto the shared serving envelopes.

Limits are deliberate 4xx responses, not connection drops: an oversized body
gets ``413``, an oversized header block ``431``, a chunked request body
``501`` (``Content-Length`` is the only supported framing).  Only a limit
violation that leaves the stream position unknowable closes the connection.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

import numpy as np

#: Hard cap on the request line (method + target + version) [bytes].
MAX_REQUEST_LINE_BYTES = 8192
#: Hard cap on the whole header block [bytes].
MAX_HEADER_BYTES = 32 * 1024
#: Default cap on request bodies and WebSocket payloads [bytes].
MAX_BODY_BYTES = 1 << 20

STATUS_REASONS = {
    101: "Switching Protocols",
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    413: "Content Too Large",
    414: "URI Too Long",
    426: "Upgrade Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}


class HTTPError(Exception):
    """Unacceptable HTTP input; carries the response status to send back."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


class WebSocketError(Exception):
    """Invalid WebSocket frame; carries the close code to send back."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = int(code)


@dataclass
class HTTPRequest:
    """One parsed HTTP request (headers lower-cased, path percent-decoded)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"
    #: ``time.monotonic()`` once the request line was parsed (the start of
    #: the exchange that ``http_request_seconds`` times).
    started: float = 0.0

    @property
    def keep_alive(self) -> bool:
        """Whether the connection survives this exchange (HTTP/1.1 default)."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection

    @property
    def wants_websocket(self) -> bool:
        """Whether this request asks for a WebSocket upgrade."""
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Optional[HTTPRequest]:
    """Parse the next request off the stream; ``None`` on clean EOF.

    Raises :class:`HTTPError` on anything malformed or over a limit.  The
    body is framed by ``Content-Length`` only; ``Transfer-Encoding`` is
    rejected with ``501`` rather than guessed at.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE_BYTES, status=414)
    if line is None:
        return None
    if not line:
        # Tolerate one stray blank line between pipelined requests (RFC 9112
        # allows ignoring leading CRLFs).
        line = await _read_line(reader, MAX_REQUEST_LINE_BYTES, status=414)
        if line is None or not line:
            return None
    parts = line.split(" ")
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {line[:128]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HTTPError(505, f"unsupported HTTP version {version!r}")
    if not method.isalpha():
        raise HTTPError(400, f"malformed method {method[:32]!r}")
    started = time.monotonic()
    split = urlsplit(target)
    headers = await _read_headers(reader)
    body = await _read_body(reader, headers, max_body)
    return HTTPRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        version=version,
        started=started,
    )


async def _read_line(
    reader: asyncio.StreamReader, limit: int, status: int
) -> Optional[str]:
    try:
        raw = await reader.readline()
    except ValueError:
        # The stream buffer limit tripped before a newline arrived; the
        # stream is no longer line-aligned, so the caller must close.
        raise HTTPError(status, f"line exceeds {limit} bytes") from None
    if not raw:
        return None
    if len(raw) > limit:
        raise HTTPError(status, f"line exceeds {limit} bytes")
    return raw.decode("latin-1").rstrip("\r\n")


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES, status=431)
        if line is None:
            raise HTTPError(400, "connection closed inside the header block")
        if not line:
            return headers
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HTTPError(431, f"header block exceeds {MAX_HEADER_BYTES} bytes")
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise HTTPError(400, f"malformed header line: {line[:128]!r}")
        headers[name.lower()] = value.strip()


async def _read_body(
    reader: asyncio.StreamReader, headers: Dict[str, str], max_body: int
) -> bytes:
    if "transfer-encoding" in headers:
        raise HTTPError(
            501,
            "Transfer-Encoding request bodies are not supported; "
            "send a Content-Length body",
        )
    declared = headers.get("content-length")
    if declared is None:
        return b""
    try:
        length = int(declared)
    except ValueError:
        raise HTTPError(400, f"invalid Content-Length {declared!r}") from None
    if length < 0:
        raise HTTPError(400, f"invalid Content-Length {declared!r}")
    if length > max_body:
        raise HTTPError(
            413, f"request body of {length} bytes exceeds the {max_body}-byte cap"
        )
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise HTTPError(400, "connection closed inside the request body") from None


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """Serialize one HTTP/1.1 response (always with ``Content-Length``)."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body or status not in (101, 204):
        lines.append(f"content-type: {content_type}")
    lines.append(f"content-length: {len(body)}")
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# -- WebSocket (RFC 6455) ----------------------------------------------------

WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONTINUATION = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((key.strip() + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def render_websocket_handshake(request: HTTPRequest) -> bytes:
    """The ``101 Switching Protocols`` response to a WebSocket upgrade.

    Raises :class:`HTTPError` (``400``/``426``) when the upgrade request is
    not a valid RFC 6455 opening handshake.
    """
    if not request.wants_websocket:
        raise HTTPError(426, "this endpoint requires a WebSocket upgrade")
    key = request.headers.get("sec-websocket-key")
    if not key:
        raise HTTPError(400, "WebSocket upgrade is missing Sec-WebSocket-Key")
    if request.headers.get("sec-websocket-version", "13") != "13":
        raise HTTPError(400, "only WebSocket version 13 is supported")
    return render_response(
        101,
        headers=(
            ("upgrade", "websocket"),
            ("connection", "Upgrade"),
            ("sec-websocket-accept", websocket_accept(key)),
        ),
    )


def encode_ws_frame(opcode: int, payload: bytes) -> bytes:
    """One unmasked (server-to-client) WebSocket frame, FIN set."""
    head = bytearray([0x80 | (opcode & 0x0F)])
    n = len(payload)
    if n < 126:
        head.append(n)
    elif n < 1 << 16:
        head.append(126)
        head += n.to_bytes(2, "big")
    else:
        head.append(127)
        head += n.to_bytes(8, "big")
    return bytes(head) + payload


def encode_ws_close(code: int = 1000, reason: str = "") -> bytes:
    """A close frame carrying a status code and optional reason."""
    return encode_ws_frame(
        OP_CLOSE, code.to_bytes(2, "big") + reason.encode("utf-8")[:123]
    )


def _unmask(payload: bytes, mask: bytes) -> bytes:
    if not payload:
        return payload
    data = np.frombuffer(payload, dtype=np.uint8)
    key = np.resize(np.frombuffer(mask, dtype=np.uint8), data.shape)
    return (data ^ key).tobytes()


async def read_ws_frame(
    reader: asyncio.StreamReader, max_payload: int = MAX_BODY_BYTES
) -> Tuple[int, bytes]:
    """The next ``(opcode, payload)`` client frame, unmasked.

    Raises :class:`WebSocketError` (with the RFC 6455 close code to send)
    on protocol violations, and lets EOF surface as
    ``asyncio.IncompleteReadError``.
    """
    header = await reader.readexactly(2)
    if not header[0] & 0x80:
        raise WebSocketError(1003, "fragmented frames are not supported")
    if header[0] & 0x70:
        raise WebSocketError(1002, "RSV bits set without a negotiated extension")
    opcode = header[0] & 0x0F
    masked = bool(header[1] & 0x80)
    length = header[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > max_payload:
        raise WebSocketError(
            1009, f"frame payload of {length} bytes exceeds the {max_payload}-byte cap"
        )
    if not masked:
        raise WebSocketError(1002, "client frames must be masked")
    mask = await reader.readexactly(4)
    payload = await reader.readexactly(length) if length else b""
    return opcode, _unmask(payload, mask)


def encode_client_frame(opcode: int, payload: bytes, mask: bytes) -> bytes:
    """One masked (client-to-server) frame — for tests and the example client."""
    if len(mask) != 4:
        raise ValueError("mask must be 4 bytes")
    head = bytearray([0x80 | (opcode & 0x0F)])
    n = len(payload)
    if n < 126:
        head.append(0x80 | n)
    elif n < 1 << 16:
        head.append(0x80 | 126)
        head += n.to_bytes(2, "big")
    else:
        head.append(0x80 | 127)
        head += n.to_bytes(8, "big")
    return bytes(head) + mask + _unmask(payload, mask)
