"""Load-generating clients: JSON lines over TCP, HTTP/1.1 and WebSocket.

Stdlib asyncio only, written against the wire formats rather than the
program's own client helpers, so a change to the program's codecs cannot
change what the benchmark sends.  Times come from the event loop's
monotonic clock.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .inputs import Arrival

CONNECT_TIMEOUT_S = 10.0
#: How long the open loop waits for stragglers after the last arrival.
DRAIN_TIMEOUT_S = 120.0


def bits_request(request_id: int, seed: int, n_bits: int, divider: int) -> Dict:
    return {
        "v": 1,
        "id": request_id,
        "kind": "bits",
        "n_bits": n_bits,
        "divider": divider,
        "seed": seed,
    }


# -- JSON lines over TCP, open loop ---------------------------------------------


@dataclass
class Sent:
    """One request of the open loop: when it was due and what came back."""

    arrival: int
    kind: str
    seed: int
    due: float
    done: Optional[float] = None
    response: Optional[Dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))


async def _tcp_call(host: str, port: int, kind: str) -> Dict:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), CONNECT_TIMEOUT_S
    )
    try:
        writer.write(json.dumps({"v": 1, "id": 0, "kind": kind}).encode() + b"\n")
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(), CONNECT_TIMEOUT_S))
    finally:
        writer.close()
        await writer.wait_closed()
    if not reply.get("ok"):
        raise RuntimeError(f"{kind} refused: {reply}")
    return reply["result"]


def tcp_call(host: str, port: int, kind: str) -> Dict:
    """One request without parameters (``ping``, ``metrics``); its result."""
    return asyncio.run(_tcp_call(host, port, kind))


async def _open_loop(
    host: str,
    port: int,
    arrivals: Sequence[Arrival],
    n_bits: int,
    divider: int,
    connections: int,
) -> Tuple[List[Sent], float]:
    loop = asyncio.get_running_loop()
    links = [await asyncio.open_connection(host, port) for _ in range(connections)]
    sent: Dict[int, Sent] = {}
    waiting: Dict[int, asyncio.Future] = {}

    async def pump(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            done = loop.time()
            reply = json.loads(line)
            record = sent[reply["id"]]
            record.done, record.response = done, reply
            waiting.pop(reply["id"]).set_result(None)

    pumps = [asyncio.create_task(pump(reader)) for reader, _ in links]
    late_max = 0.0
    start = loop.time() + 0.1
    try:
        for index, arrival in enumerate(arrivals):
            due = start + arrival.offset_s
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late_max = max(late_max, loop.time() - due)
            lines = []
            for seed in arrival.seeds:
                request_id = len(sent)
                sent[request_id] = Sent(index, arrival.kind, seed, due)
                waiting[request_id] = loop.create_future()
                line = json.dumps(bits_request(request_id, seed, n_bits, divider))
                lines.append(line.encode() + b"\n")
            # A whole arrival goes out in one write on one link (links take
            # turns).  Split over two links, a burst reaches the server in two
            # event-loop turns and the 2 ms coalescing window can close
            # between them (16 + 16 or 27 + 5 batches were observed), so the
            # engine would not run at B = 32.
            writer = links[index % len(links)][1]
            writer.write(b"".join(lines))
            await writer.drain()
        if waiting:
            await asyncio.wait(list(waiting.values()), timeout=DRAIN_TIMEOUT_S)
    finally:
        for task in pumps:
            task.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)
        for _, writer in links:
            writer.close()
            await writer.wait_closed()
    return [sent[key] for key in sorted(sent)], late_max


def open_loop(host, port, arrivals, n_bits, divider, connections=2):
    """Send ``arrivals`` on schedule over ``connections`` pipelined links.

    Returns every request (unanswered ones have ``done = None``) and how
    late the generator ran at worst [s].
    """
    return asyncio.run(_open_loop(host, port, arrivals, n_bits, divider, connections))


# -- HTTP/1.1 keep-alive ---------------------------------------------------------


async def _read_http_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ")[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


def _http_request(method: str, path: str, host: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: {host}\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
        f"connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _http_health(host: str, port: int) -> None:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), CONNECT_TIMEOUT_S
    )
    try:
        writer.write(_http_request("GET", "/healthz", host))
        await writer.drain()
        status, body = await asyncio.wait_for(
            _read_http_response(reader), CONNECT_TIMEOUT_S
        )
        if status != 200:
            raise RuntimeError(f"healthz answered {status}: {body[:200]!r}")
    finally:
        writer.close()
        await writer.wait_closed()


def http_health(host: str, port: int) -> None:
    asyncio.run(_http_health(host, port))


@dataclass
class Exchange:
    """One closed-loop exchange: its latency and reply envelope (or ``None``)."""

    seed: int
    latency_s: float
    reply: Optional[Dict]

    @property
    def ok(self) -> bool:
        return bool(self.reply and self.reply.get("ok"))


async def _http_phase(reader, writer, host, seeds, seconds, fields, exchanges) -> None:
    """Closed loop on one keep-alive connection: next request after each reply."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while loop.time() < deadline:
        seed = next(seeds)
        body = json.dumps({"v": 1, "seed": seed, **fields}).encode()
        sent = loop.time()
        writer.write(_http_request("POST", "/v1/bits", host, body))
        await writer.drain()
        status, payload = await _read_http_response(reader)
        latency = loop.time() - sent
        reply = json.loads(payload) if status == 200 else None
        exchanges.append(Exchange(seed, latency, reply))


# -- WebSocket session ------------------------------------------------------------


async def _ws_send(writer: asyncio.StreamWriter, message: Dict) -> None:
    payload = json.dumps(message).encode()
    mask = os.urandom(4)
    head = bytearray([0x81])
    if len(payload) < 126:
        head.append(0x80 | len(payload))
    else:
        head.append(0x80 | 126)
        head += len(payload).to_bytes(2, "big")
    masked = bytes(byte ^ mask[index % 4] for index, byte in enumerate(payload))
    writer.write(bytes(head) + mask + masked)
    await writer.drain()


async def _ws_receive(reader: asyncio.StreamReader) -> Dict:
    header = await reader.readexactly(2)
    length = header[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    payload = await reader.readexactly(length)
    if header[0] & 0x0F != 0x1:
        raise ConnectionError(f"unexpected WebSocket opcode {header[0] & 0x0F}")
    return json.loads(payload)


async def _ws_open(host: str, port: int, open_fields: Dict):
    """A WebSocket ``/v1/stream`` connection with one session opened on it."""
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            f"GET /v1/stream HTTP/1.1\r\nhost: {host}\r\nupgrade: websocket\r\n"
            f"connection: Upgrade\r\nsec-websocket-key: {key}\r\n"
            f"sec-websocket-version: 13\r\n\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    status, _ = await _read_http_response(reader)
    if status != 101:
        raise RuntimeError(f"WebSocket upgrade answered {status}")
    await _ws_send(writer, {"op": "open", **open_fields})
    opened = await _ws_receive(reader)
    if not opened.get("ok"):
        raise RuntimeError(f"session open refused: {opened}")
    return reader, writer, opened["result"]["session"]


async def _ws_phase(
    reader, writer, session, seed, chunk_bits, seconds, exchanges
) -> None:
    """Closed loop of session reads: next read after each reply."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while loop.time() < deadline:
        sent = loop.time()
        await _ws_send(writer, {"op": "read", "session": session, "n_bits": chunk_bits})
        reply = await _ws_receive(reader)
        exchanges.append(Exchange(seed, loop.time() - sent, reply))


@dataclass
class FrontDoorRun:
    """Exchanges of both front-door phases and the intervals each phase ran."""

    http: List[Exchange] = field(default_factory=list)
    session: List[Exchange] = field(default_factory=list)
    http_windows: List[Tuple[float, float]] = field(default_factory=list)
    session_windows: List[Tuple[float, float]] = field(default_factory=list)


async def _front_door(
    host, port, http_seeds, http_fields, session_fields, chunk_bits, seconds, slices
) -> FrontDoorRun:
    loop = asyncio.get_running_loop()
    run = FrontDoorRun()
    seeds = iter(http_seeds)
    http_reader, http_writer = await asyncio.open_connection(host, port)
    ws_reader, ws_writer, session = await _ws_open(host, port, session_fields)
    phase_s = seconds / (2 * slices)
    try:
        for _ in range(slices):
            began = loop.time()
            await _http_phase(
                http_reader, http_writer, host, seeds, phase_s, http_fields, run.http
            )
            run.http_windows.append((began, loop.time()))
            began = loop.time()
            await _ws_phase(
                ws_reader,
                ws_writer,
                session,
                session_fields["seed"],
                chunk_bits,
                phase_s,
                run.session,
            )
            run.session_windows.append((began, loop.time()))
        await _ws_send(ws_writer, {"op": "close", "session": session})
        await _ws_receive(ws_reader)
    finally:
        for writer in (http_writer, ws_writer):
            writer.close()
            await writer.wait_closed()
    return run


def front_door(
    host, port, http_seeds, http_fields, session_fields, chunk_bits, seconds, slices
):
    """Both front-door phases, one after the other, alternating ``slices`` times.

    Phase 1 is a closed loop of ``POST /v1/bits`` on one keep-alive
    connection; phase 2 a closed loop of ``chunk_bits`` reads on one
    WebSocket session.  They never overlap, so neither phase's latency
    includes the other's work.  Alternating them spreads each phase's
    samples over the whole run, so a slow minute of the machine weighs on
    both alike.
    """
    return asyncio.run(
        _front_door(
            host,
            port,
            http_seeds,
            http_fields,
            session_fields,
            chunk_bits,
            seconds,
            slices,
        )
    )
