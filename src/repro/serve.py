"""``python -m repro.serve`` — the async TRNG serving front-end.

Starts a JSON-lines server (TCP by default, ``--stdio`` for pipes) and
optionally an HTTP/WebSocket gateway over one coalescing
:class:`~repro.serving.service.TRNGService`::

    # TCP server with a 64-request coalescing window
    python -m repro.serve --port 8765 --max-batch 64 --max-wait-ms 5

    # HTTP/WebSocket gateway (REST + streaming sessions + /metrics)
    python -m repro.serve --http 0.0.0.0:8080

    # One-shot request over stdio
    echo '{"kind": "bits", "n_bits": 64, "divider": 512, "seed": 7}' | \
        python -m repro.serve --stdio

    # CI smokes: real sockets, coalescing + solo-equivalence assertions
    python -m repro.serve --self-test
    python -m repro.serve --self-test --http 127.0.0.1:0

All flags funnel into one :class:`~repro.serving.config.ServiceConfig`; see
:mod:`repro.serving.protocol` for the wire format and :mod:`repro.serving`
for the pipeline and its determinism contract.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional, Tuple

from .obs import global_registry, summary_line, write_metrics_json
from .serving.config import ServiceConfig
from .serving.server import TRNGServer, run_self_test, seed_stream, serve_stdio
from .serving.service import TRNGService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 picks one)"
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve stdin/stdout instead of TCP (exits at EOF)",
    )
    parser.add_argument(
        "--http",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="also serve the HTTP/WebSocket gateway (REST requests, "
        "streaming sessions, GET /metrics + /healthz) on this endpoint; "
        "with --self-test, runs the HTTP smoke instead of the TCP one",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most requests one engine call may serve (1 disables coalescing)",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="base coalescing window of a normal-priority batch leader: "
        "the longest a batch waits; it dispatches once half of it passes "
        "with no compatible arrival",
    )
    parser.add_argument(
        "--class-wait-ms",
        type=str,
        default=None,
        dest="class_wait_ms",
        metavar="CLASS=MS,...",
        help="absolute per-priority coalescing windows, e.g. "
        "'interactive=0.5,batch=20' (classes not named scale --max-wait-ms "
        "by the default factors)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="request queue bound (the backpressure knob)",
    )
    parser.add_argument(
        "--overflow",
        choices=("reject", "wait"),
        default="reject",
        help="full-queue policy: shed load (reject) or suspend submitters",
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="numpy|threaded[:N]|auto[:N]|philox[:N]",
        help="synthesis backend for engine calls (default: $REPRO_BACKEND or "
        "numpy); auto picks per call from a measured cost model; all "
        "backends are bit-for-bit equivalent on the same streams, so the "
        "choice selects execution speed only (requests pin their own RNG "
        "stream contract via the rng_contract wire field)",
    )
    parser.add_argument(
        "--no-fast-tier",
        action="store_false",
        dest="fast_tier",
        help="disable the fitted-campaign cache behind tier='fast' sigma2n "
        "requests (every request runs the exact campaign)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed assigned (in arrival order) to unseeded requests",
    )
    parser.add_argument(
        "--spawn-workers",
        type=int,
        default=0,
        metavar="N",
        help="spawn N localhost fabric workers and dispatch coalesced "
        "batches to them (results stay bit-identical to local serving)",
    )
    parser.add_argument(
        "--workers-remote",
        type=str,
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated endpoints of running 'python -m repro.worker' "
        "processes to dispatch batches to (combinable with --spawn-workers)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a one-line metrics summary to stderr every "
        "--stats-interval seconds (full JSON snapshot on exit)",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=10.0, help="seconds between stats"
    )
    parser.add_argument(
        "--metrics-json",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the merged metrics registries (service + process) as JSON "
        "to PATH on exit",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the end-to-end smoke (server + concurrent clients) and exit",
    )
    return parser


def _parse_http_endpoint(text: str) -> Tuple[str, int]:
    host, colon, port = text.rpartition(":")
    if not colon or not host:
        raise ValueError(
            f"--http expects HOST:PORT, got {text!r} (use :0 for ephemeral)"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"--http port must be an integer, got {port!r}") from None


async def _stats_loop(service: TRNGService, interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        print(summary_line(service.registry, global_registry()), file=sys.stderr)


async def _serve(args: argparse.Namespace, config: ServiceConfig) -> int:
    fabric = config.build_fabric()
    if fabric is not None:
        print(
            f"fabric dispatch: {len(fabric.workers)} worker(s) "
            f"({', '.join(worker.name for worker in fabric.workers)})",
            file=sys.stderr,
        )
    service = TRNGService(config, fabric=fabric)
    default_seed = seed_stream(config.seed)
    stats_task: Optional[asyncio.Task] = None
    gateway = None
    try:
        async with service:
            if args.stats:
                stats_task = asyncio.create_task(
                    _stats_loop(service, max(args.stats_interval, 0.1))
                )
            try:
                if args.http is not None:
                    from .serving.http import HTTPGateway

                    http_host, http_port = _parse_http_endpoint(args.http)
                    gateway = HTTPGateway(
                        service,
                        host=http_host,
                        port=http_port,
                        default_seed=default_seed,
                    )
                    await gateway.start()
                    print(
                        f"http gateway on {http_host}:{gateway.port} "
                        f"(POST /v1/bits, /v1/sigma2n; sessions; GET /metrics)",
                        file=sys.stderr,
                    )
                if args.stdio:
                    await serve_stdio(service, default_seed=default_seed)
                else:
                    server = TRNGServer(
                        service,
                        host=args.host,
                        port=args.port,
                        default_seed=default_seed,
                    )
                    await server.start()
                    print(
                        f"serving on {args.host}:{server.port} "
                        f"(max_batch={config.max_batch}, "
                        f"max_wait_ms={config.max_wait_ms})",
                        file=sys.stderr,
                    )
                    try:
                        await server.serve_forever()
                    finally:
                        await server.stop()
            except asyncio.CancelledError:
                pass
            finally:
                if gateway is not None:
                    await gateway.stop()
                if stats_task is not None:
                    stats_task.cancel()
            if args.stats:
                print(
                    f"final stats: {json.dumps(service.stats.snapshot())}",
                    file=sys.stderr,
                )
    finally:
        if fabric is not None:
            fabric.close()
        if args.metrics_json:
            write_metrics_json(
                args.metrics_json, service.registry, global_registry()
            )
            print(f"metrics written to {args.metrics_json}", file=sys.stderr)
    return 0


async def _self_test(args: argparse.Namespace, config: ServiceConfig) -> int:
    over_http = args.http is not None
    try:
        if over_http:
            from .serving.http import run_http_self_test

            http_host, _ = _parse_http_endpoint(args.http)
            summary = await run_http_self_test(
                max_batch=config.max_batch,
                max_wait_ms=max(config.max_wait_ms, 100.0),
                host=http_host or "127.0.0.1",
                backend=config.backend,
            )
        else:
            summary = await run_self_test(
                config=config.replace(max_wait_ms=max(config.max_wait_ms, 100.0))
            )
    except AssertionError as error:
        print(f"self-test FAIL: {error}", file=sys.stderr)
        return 1
    stats = summary["stats"]
    edge = "HTTP" if over_http else "TCP"
    print(
        f"self-test: {summary['clients']} concurrent clients over {edge}, "
        f"dividers {summary['dividers']}"
    )
    print(
        f"self-test: coalescing happened "
        f"(max batch {stats['max_batch_size']}, "
        f"{stats['batches']} batches for {stats['completed']} requests)"
    )
    print("self-test: served bits == solo-served bits (bitwise) for all clients")
    if over_http:
        print("self-test: session chunks == one-shot stream (bitwise)")
    if args.stats:
        print(f"stats: {json.dumps(stats)}", file=sys.stderr)
    return 0


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ServiceConfig.from_args(args)
        if args.http is not None:
            _parse_http_endpoint(args.http)
    except ValueError as error:
        # Config fields validate under their dataclass names; report them
        # under the flag spellings the user typed.
        message = str(error)
        for name in (
            "max_batch",
            "max_wait_ms",
            "max_pending",
            "class_wait_ms",
            "spawn_workers",
            "workers_remote",
        ):
            message = message.replace(name, "--" + name.replace("_", "-"))
        print(message, file=sys.stderr)
        return 2
    if config.workers_remote:
        from .engine.distributed.fabric.connection import parse_endpoint

        for endpoint in config.workers_remote:
            try:
                parse_endpoint(endpoint)
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
    runner = _self_test if args.self_test else _serve
    try:
        return asyncio.run(runner(args, config))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
