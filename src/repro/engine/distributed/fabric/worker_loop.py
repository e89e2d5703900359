"""The fabric worker's serve loop: shard assignments over JSON lines.

A worker is the remote half of the fabric: it accepts coordinator
connections and executes campaign shards behind the same wire protocol the
serving layer already speaks (:mod:`repro.serving.protocol`).  A ``shard``
message carries the full campaign spec (seed closure included) plus a row
range, so the worker re-derives exactly the same per-row RNG streams the
single-host run uses and the partial it returns is bit-for-bit a row slice
of the unsharded campaign.

Shards run on worker threads (``asyncio.to_thread``), so the event loop
keeps answering ``ping`` heartbeats while numpy computes — which is what
lets a coordinator distinguish *busy* from *dead*.  ``shutdown`` answers,
then stops the server.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set

from ....obs import (
    MetricsRegistry,
    SpanCollector,
    global_registry,
    json_snapshot,
    render_prometheus,
    span,
    wire_to_parent,
)
from ....serving.protocol import (
    ProtocolError,
    encode_partial,
    error_line,
    parse_request_line,
    response_line,
)
from ..plan import Shard
from ..spec import spec_from_json
from ..worker import run_shard

#: Per-line stream buffer limit [bytes] — sized for campaign specs; a
#: sigma^2_N shard partial travels the *other* way.
MAX_LINE_BYTES = 8 << 20


class WorkerServer:
    """Asyncio JSON-lines server executing fabric work on localhost threads."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self._requested_port = int(port)
        #: Per-worker metrics registry; the ``metrics`` kind merges it with
        #: the process-wide one (kernel timings, plan-cache counters).
        self.registry = registry if registry is not None else MetricsRegistry("worker")
        self._shards = self.registry.counter(
            "worker_shards_served_total", "Campaign shards executed"
        )
        self._shard_seconds = self.registry.histogram(
            "worker_shard_seconds", "Wall-clock seconds per shard execution"
        )
        #: Spans of local shard executions; finished records are also
        #: shipped back in each reply's ``spans`` field so the coordinator
        #: can merge them into the cross-host tree.
        self.spans = SpanCollector()
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[asyncio.StreamWriter] = set()
        self._stopping = asyncio.Event()

    @property
    def shards_served(self) -> int:
        return int(self._shards.value())

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_client,
                self.host,
                self._requested_port,
                limit=MAX_LINE_BYTES,
            )

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Closing client connections hands every handler an EOF, so the
        # handler tasks finish on their own instead of being cancelled at
        # loop teardown (a cancelled client task logs a spurious traceback
        # on 3.11).  The wait is bounded; stragglers only risk that noise.
        for writer in list(self._clients):
            writer.close()
        for _ in range(100):
            if not self._clients:
                break
            await asyncio.sleep(0.01)

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` message arrives (or cancellation)."""
        await self.start()
        await self._stopping.wait()
        await self.stop()

    def _finish_spans(self, local: SpanCollector) -> list:
        """Mirror one execution's spans into the worker store; wire payloads."""
        records = local.records()
        for record in records:
            self.spans.record(record)
        return [record.to_dict() for record in records]

    async def _execute_shard(self, fields: Dict) -> Dict:
        try:
            spec = spec_from_json(fields["spec"])
            shard = Shard(
                index=int(fields.get("index", 0)),
                start=int(fields["start"]),
                stop=int(fields["stop"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"invalid shard assignment: {error}") from None
        started = time.perf_counter()
        # The span continues the coordinator's trace (the optional ``trace``
        # envelope); its finished record rides back in the reply so the
        # coordinator's tree covers this host too.
        local = SpanCollector()
        with span(
            "worker.shard",
            collector=local,
            parent=wire_to_parent(fields.get("trace")),
            shard=shard.index,
            rows=shard.stop - shard.start,
        ):
            partial = await asyncio.to_thread(run_shard, (spec, shard))
        seconds = time.perf_counter() - started
        self._shards.inc()
        self._shard_seconds.observe(seconds)
        return {
            "kind": "shard",
            "index": shard.index,
            "partial": encode_partial(partial),
            "seconds": seconds,
            "spans": self._finish_spans(local),
        }

    async def handle_line(self, line: str) -> str:
        """Serve one wire line; always returns a response line."""
        request_id = None
        try:
            request_id, kind, fields = parse_request_line(line)
            if kind == "ping":
                return response_line(
                    request_id,
                    {"kind": "ping", "pong": True, "role": "worker"},
                )
            if kind == "stats":
                return response_line(
                    request_id,
                    {
                        "kind": "stats",
                        "role": "worker",
                        "shards_served": self.shards_served,
                    },
                )
            if kind == "metrics":
                registries = (self.registry, global_registry())
                fmt = fields.get("format", "json")
                if fmt == "prometheus":
                    payload = {
                        "kind": "metrics",
                        "format": "prometheus",
                        "role": "worker",
                        "text": render_prometheus(*registries),
                    }
                elif fmt == "json":
                    payload = {
                        "kind": "metrics",
                        "format": "json",
                        "role": "worker",
                        "metrics": json_snapshot(*registries),
                    }
                else:
                    raise ProtocolError(
                        f"unknown metrics format {fmt!r} "
                        f"(expected 'json' or 'prometheus')",
                        request_id=request_id,
                    )
                return response_line(request_id, payload)
            if kind == "shutdown":
                self._stopping.set()
                return response_line(
                    request_id, {"kind": "shutdown", "stopping": True}
                )
            if kind == "shard":
                return response_line(
                    request_id, await self._execute_shard(fields)
                )
            return error_line(
                request_id,
                f"request kind {kind!r} is not served by fabric workers "
                f"(use python -m repro.serve for bits/sigma2n traffic)",
            )
        except ProtocolError as error:
            if error.request_id is not None:
                request_id = error.request_id
            return error_line(request_id, str(error), error.code)
        except Exception as error:  # shard failures stay on this line
            return error_line(request_id, f"worker error: {error}")

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks = set()
        self._clients.add(writer)

        async def respond(line: str) -> None:
            response = await self.handle_line(line)
            try:
                async with write_lock:
                    writer.write(response.encode())
                    await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass  # coordinator went away; it will reassign the shard

        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    async with write_lock:
                        writer.write(
                            error_line(
                                None,
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                            ).encode()
                        )
                        await writer.drain()
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                # One task per line: pings pipeline past an in-flight shard,
                # which is what makes heartbeats meaningful.
                task = asyncio.create_task(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            self._clients.discard(writer)
