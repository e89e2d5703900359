"""``python -m repro.worker`` — a fabric worker process.

Listens for a ``FabricCoordinator`` and executes campaign ``shard``
assignments over the JSON-lines protocol, answering ``ping`` heartbeats
while it computes::

    # Ephemeral port, announced on stdout (what --spawn-workers parses)
    python -m repro.worker --listen 127.0.0.1:0

    # Fixed endpoint for python -m repro.campaigns --workers-remote
    python -m repro.worker --listen 0.0.0.0:9900

The worker exits on a ``shutdown`` message, SIGTERM, or Ctrl-C.  Each shard
carries its campaign's backend spec, so the worker itself has no backend
option.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from .engine.backends.kernel import raise_malloc_thresholds
from .engine.distributed.fabric.connection import ANNOUNCE_PREFIX, parse_endpoint
from .engine.distributed.fabric.worker_loop import WorkerServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--listen",
        type=str,
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port "
        "(announced on stdout)",
    )
    return parser


async def _serve(host: str, port: int) -> int:
    server = WorkerServer(host=host, port=port)
    await server.start()
    # The announce line is the spawn contract: exactly this prefix, stdout,
    # flushed before any work — spawn_worker() blocks on it.
    print(f"{ANNOUNCE_PREFIX}{server.host}:{server.port}", flush=True)
    try:
        await server.serve_until_shutdown()
    finally:
        await server.stop()
    print(
        f"repro-worker exiting ({server.shards_served} shards served)",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        host, port = parse_endpoint(args.listen)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    # Start with the malloc thresholds a campaign pool worker gets, so the
    # first shards recycle numpy's FFT scratch instead of faulting it in.
    raise_malloc_thresholds()
    try:
        return asyncio.run(_serve(host, port))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
