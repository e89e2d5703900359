"""Burst shapes over real sockets: a burst of requests runs as one batch.

A ``python -m repro.serve`` subprocess (default ``ServiceConfig``) gets 20
bursts of 32 D = 16 bit requests in three shapes: one write on one
connection, 16 + 16 over two connections, and 32 separate writes on one
connection.  The ``stats`` reply read between bursts gives the number of
engine batches each burst took.  The idle-gap rule must keep a burst whose
requests arrive well under a millisecond apart in one batch, however the
client wrote it.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

import repro

BURSTS = 20
BURST_SIZE = 32
SRC = str(Path(repro.__file__).resolve().parents[1])


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def _bits(seed: int) -> bytes:
    return _line(
        {"id": seed, "kind": "bits", "n_bits": 64, "divider": 16, "seed": seed}
    )


@pytest.fixture(scope="module")
def port():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    program = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--host", "127.0.0.1", "--port", "0"],
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        for raw in program.stderr:
            match = re.search(rb"serving on [\d.]+:(\d+)", raw)
            if match:
                break
        else:
            raise RuntimeError(f"server exited with {program.wait()}")
        yield int(match.group(1))
    finally:
        program.terminate()
        program.wait(timeout=30)
        program.stderr.close()


class _Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def replies(self, count: int) -> List[dict]:
        return [json.loads(self.reader.readline()) for _ in range(count)]

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _batches(control: _Connection) -> int:
    control.sock.sendall(_line({"kind": "stats"}))
    return control.replies(1)[0]["result"]["batches"]


def _one_write(connections, lines) -> None:
    connections[0].sock.sendall(b"".join(lines))


def _two_connections(connections, lines) -> None:
    half = len(lines) // 2
    connections[0].sock.sendall(b"".join(lines[:half]))
    connections[1].sock.sendall(b"".join(lines[half:]))


def _separate_writes(connections, lines) -> None:
    for line in lines:
        connections[0].sock.sendall(line)


def _batches_per_burst(port: int, send, n_connections: int) -> List[int]:
    connections = [_Connection(port) for _ in range(n_connections)]
    control = _Connection(port)
    per_burst = []
    try:
        for burst in range(BURSTS):
            before = _batches(control)
            lines = [_bits(burst * BURST_SIZE + i) for i in range(BURST_SIZE)]
            send(connections, lines)
            share = BURST_SIZE // n_connections
            replies = [r for c in connections for r in c.replies(share)]
            assert all(reply["ok"] for reply in replies)
            per_burst.append(_batches(control) - before)
    finally:
        for connection in (*connections, control):
            connection.close()
    return per_burst


@pytest.mark.parametrize(
    "send, n_connections",
    [(_one_write, 1), (_two_connections, 2)],
    ids=["one-write", "two-connections"],
)
def test_bursts_run_as_one_engine_batch(port, send, n_connections):
    per_burst = _batches_per_burst(port, send, n_connections)
    assert sum(count == 1 for count in per_burst) >= BURSTS - 1, per_burst


def test_separate_writes_are_all_served(port):
    # One write per request is the shape most exposed to parse gaps; it is
    # served whole whatever the batching (its one-batch share is reported,
    # not gated).
    per_burst = _batches_per_burst(port, _separate_writes, 1)
    assert all(count >= 1 for count in per_burst)
