"""Worker links: one JSON-lines TCP connection to one fabric worker.

:class:`WorkerLink` is the coordinator-side client of the fabric protocol —
a blocking socket with its own receive buffer, so a read timeout never loses
a partially received line (the failure mode of ``makefile().readline()``
under ``settimeout``).  :func:`spawn_worker` launches a localhost worker
process (``python -m repro.worker --listen 127.0.0.1:0``), parses its
announce line for the bound port, and returns a connected link that owns the
process — the building block of CI worker fleets and of ``--spawn-workers``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ...backends import BACKEND_ENV_VAR, pool_worker_backend

#: What a worker prints (stdout, flushed) once its socket is bound.
ANNOUNCE_PREFIX = "repro-worker listening on "


class WorkerUnavailable(ConnectionError):
    """The worker's connection is gone (refused, reset, or closed)."""


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (the ``--workers-remote`` item format)."""
    host, separator, port = endpoint.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"worker endpoint must be 'host:port', got {endpoint!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"worker endpoint has a non-integer port: {endpoint!r}"
        ) from None


class WorkerLink:
    """One coordinator-side connection to a fabric worker."""

    def __init__(
        self,
        host: str,
        port: int,
        name: Optional[str] = None,
        process: Optional[subprocess.Popen] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"{host}:{port}"
        self.process = process
        self._socket: Optional[socket.socket] = None
        self._buffer = bytearray()

    @property
    def spawned(self) -> bool:
        """Whether this link owns the worker process (spawned locally)."""
        return self.process is not None

    @property
    def connected(self) -> bool:
        return self._socket is not None

    def connect(self, timeout: float = 10.0) -> "WorkerLink":
        """Open the TCP connection (idempotent)."""
        if self._socket is None:
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=timeout
                )
            except OSError as error:
                raise WorkerUnavailable(
                    f"cannot connect to worker {self.name}: {error}"
                ) from None
            self._socket.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self

    def send(self, message: Dict) -> None:
        """Send one wire message (a JSON object) as one line."""
        if self._socket is None:
            raise WorkerUnavailable(f"worker {self.name} is not connected")
        data = (json.dumps(message) + "\n").encode("utf-8")
        try:
            self._socket.sendall(data)
        except OSError as error:
            raise WorkerUnavailable(
                f"send to worker {self.name} failed: {error}"
            ) from None

    def receive(self, timeout: float) -> Optional[Dict]:
        """Read one response line; ``None`` on timeout (buffer preserved).

        Raises :class:`WorkerUnavailable` when the connection is closed or
        reset — the signal the coordinator treats as worker death.
        """
        if self._socket is None:
            raise WorkerUnavailable(f"worker {self.name} is not connected")
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                raw = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                try:
                    return json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    raise WorkerUnavailable(
                        f"worker {self.name} sent an undecodable line: {error}"
                    ) from None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._socket.settimeout(remaining)
            try:
                chunk = self._socket.recv(65536)
            except socket.timeout:
                return None
            except OSError as error:
                raise WorkerUnavailable(
                    f"read from worker {self.name} failed: {error}"
                ) from None
            if not chunk:
                raise WorkerUnavailable(
                    f"worker {self.name} closed the connection"
                )
            self._buffer.extend(chunk)

    def close(self, kill: bool = False) -> None:
        """Close the socket; ``kill=True`` also terminates a spawned worker."""
        sock, self._socket = self._socket, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        self._buffer.clear()
        if kill and self.process is not None:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            if self.process.stdout is not None:
                self.process.stdout.close()

    def __repr__(self) -> str:
        state = "spawned" if self.spawned else "remote"
        return f"WorkerLink({self.name!r}, {state})"


def _worker_environment(pool_size: int) -> Dict[str, str]:
    """Subprocess environment with ``repro`` importable.

    The coordinator may run from a source checkout (``src`` layout) that the
    child would not otherwise see; prepending the package root to
    ``PYTHONPATH`` makes spawned workers work in both installed and
    checkout setups.  Each of the ``pool_size`` local workers defaults to
    its share of the host's cores.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    paths = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env[BACKEND_ENV_VAR] = pool_worker_backend(pool_size, env)
    return env


def spawn_worker(
    name: Optional[str] = None,
    startup_timeout: float = 30.0,
    python: Optional[str] = None,
    pool_size: int = 1,
) -> WorkerLink:
    """Launch a localhost worker process and return a connected link.

    ``pool_size`` is the number of local workers sharing this host's cores.

    The worker binds an ephemeral port and announces it on stdout
    (``repro-worker listening on 127.0.0.1:PORT``); this helper waits for
    the announce line, connects, and hands ownership of the process to the
    returned link (closed/terminated via ``link.close(kill=True)``).
    """
    command = [python or sys.executable, "-m", "repro.worker", "--listen",
               "127.0.0.1:0"]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=None,  # worker stderr stays visible for debugging
        env=_worker_environment(pool_size),
        text=True,
    )
    deadline = time.monotonic() + startup_timeout
    announce = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break  # worker exited before announcing
        if line.startswith(ANNOUNCE_PREFIX):
            announce = line[len(ANNOUNCE_PREFIX):].strip()
            break
    if announce is None:
        code = process.poll()
        process.kill()
        raise WorkerUnavailable(
            f"spawned worker did not announce a port within "
            f"{startup_timeout:.0f}s (exit code {code})"
        )
    host, port = parse_endpoint(announce)
    link = WorkerLink(host, port, name=name or f"spawn:{port}", process=process)
    return link.connect()


def connect_workers(
    remote: Sequence[str] = (),
    spawn: int = 0,
    connect_timeout: float = 10.0,
) -> list:
    """Build the worker fleet: remote ``host:port`` links + spawned locals."""
    if spawn < 0:
        raise ValueError(f"spawn must be >= 0, got {spawn!r}")
    links = []
    try:
        for endpoint in remote:
            host, port = parse_endpoint(endpoint)
            links.append(
                WorkerLink(host, port).connect(timeout=connect_timeout)
            )
        for _ in range(int(spawn)):
            links.append(spawn_worker(pool_size=spawn))
    except Exception:
        for link in links:
            link.close(kill=True)
        raise
    if not links:
        raise ValueError(
            "a fabric needs at least one worker (remote endpoints or spawn)"
        )
    return links
