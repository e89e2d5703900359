"""``python -m repro.campaigns`` — the distributed campaign runner CLI.

Runs the paper's headline experiments as sharded, optionally multi-process,
optionally checkpointed campaigns::

    # Fig. 7 sigma^2_N sweep, 4 shards over 2 worker processes
    python -m repro.campaigns sigma2n --batch 64 --n-periods 32768 \
        --shards 4 --workers 2 --seed 7 --json sigma2n.json

    # Entropy-vs-divider bit campaign, resumable
    python -m repro.campaigns bits --batch 16 --n-bits 20000 \
        --dividers 500,1000,2000 --shards 8 --workers 4 \
        --checkpoint-dir runs/bits --resume

    # Multi-host fabric: 4 spawned localhost workers (or --workers-remote
    # host:port,... for real remote fleets); merged output is bit-for-bit
    # identical to the single-host run
    python -m repro.campaigns sigma2n --batch 64 --n-periods 32768 \
        --shards 8 --spawn-workers 4 --seed 7 --verify

``--verify`` additionally runs the unsharded batched campaign on the same
spec and asserts the merged tables are bit-for-bit identical (exit code 1 on
any mismatch) — the shard-invariance contract, checkable from the shell.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Dict, Optional

import numpy as np

from .engine.campaign import batched_bit_campaign, batched_sigma2_n_campaign
from .engine.distributed import (
    BitCampaignSpec,
    FabricCoordinator,
    MultiprocessExecutor,
    SerialExecutor,
    Sigma2NCampaignSpec,
    run_campaign,
    spec_to_json,
)
from .engine.distributed.runner import campaign_plan


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batch", type=int, default=64, help="instances B")
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count (default: one per worker)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; 1 runs serially in-process",
    )
    parser.add_argument(
        "--spawn-workers",
        type=int,
        default=0,
        metavar="N",
        help="spawn N localhost fabric worker processes and run the "
        "campaign on them (multi-host fabric, merged bit-for-bit "
        "identically to a single-host run)",
    )
    parser.add_argument(
        "--workers-remote",
        type=str,
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated endpoints of running 'python -m repro.worker' "
        "processes (combinable with --spawn-workers)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=15.0,
        help="seconds of worker silence before it is declared dead and its "
        "shard reassigned (fabric runs only)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard wall-clock bound; exceeding it retires the worker "
        "and reassigns the shard (fabric runs only)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed (default: fresh entropy, recorded in --json output)",
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="numpy|threaded[:N]|auto[:N]|philox[:N]",
        help="synthesis backend (default: $REPRO_BACKEND or numpy); auto "
        "picks per call from a measured cost model; all backends are "
        "bit-for-bit equivalent on the same streams, so execution speed is "
        "the only backend choice — but selecting philox also implies the "
        "philox RNG stream contract unless --rng-contract overrides it",
    )
    parser.add_argument(
        "--rng-contract",
        type=str,
        default=None,
        choices=("spawn", "philox"),
        help="RNG stream contract pinned into the spec (default: implied by "
        "the backend, else $REPRO_RNG_CONTRACT/$REPRO_BACKEND, else spawn); "
        "philox keys every draw by (root_key, row, block, offset) so shards "
        "derive only their own rows — NOTE: the contract changes the drawn "
        "numbers, so results are comparable only within one contract",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="persist completed shards here (manifest + per-shard .npz)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed shards found in --checkpoint-dir",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write results to this JSON file"
    )
    parser.add_argument(
        "--metrics-json",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the merged metrics registries (process + fabric) as JSON "
        "to PATH when the campaign finishes",
    )
    parser.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="print a one-line metrics summary to stderr every SECS seconds "
        "while the campaign runs",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the merged span tree (coordinator + workers) to stderr "
        "after a fabric run",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also run the unsharded campaign and require bit-for-bit equality",
    )
    parser.add_argument(
        "--max-rows", type=int, default=16, help="table rows to print"
    )
    parser.add_argument(
        "--f0", type=float, default=None, help="f0 [Hz] (paper value by default)"
    )
    parser.add_argument(
        "--b-thermal",
        type=float,
        default=None,
        help="thermal coefficient b_th [Hz] (paper value by default)",
    )
    parser.add_argument(
        "--b-flicker",
        type=float,
        default=None,
        help="flicker coefficient b_fl [Hz^2] (default: 5.42 as the pair "
        "value, halved per oscillator for bits; the paper's Fig. 7 fit "
        "implies 1.915e6)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaigns",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sigma2n = commands.add_parser(
        "sigma2n",
        help="sharded Fig. 7 sigma^2_N campaign (estimate + Eq. 11 fit)",
    )
    _add_common_arguments(sigma2n)
    sigma2n.add_argument(
        "--n-periods", type=int, default=32_768, help="record length per instance"
    )
    sigma2n.add_argument(
        "--chunk-periods",
        type=int,
        default=None,
        help="stream in chunks of this length (O(chunk) memory per worker)",
    )
    sigma2n.add_argument(
        "--disjoint",
        action="store_true",
        help="disjoint (non-overlapping) accumulation windows",
    )
    sigma2n.add_argument(
        "--no-fit", action="store_true", help="estimate curves only, skip the fit"
    )

    bits = commands.add_parser(
        "bits", help="sharded entropy-vs-divider bit campaign"
    )
    _add_common_arguments(bits)
    bits.add_argument(
        "--n-bits", type=int, default=4096, help="raw bits per instance"
    )
    bits.add_argument(
        "--dividers",
        type=str,
        default="500,1000,2000",
        help="comma-separated accumulation lengths D",
    )
    bits.add_argument(
        "--mismatch", type=float, default=1e-3, help="relative frequency mismatch"
    )
    bits.add_argument(
        "--procedure-a", action="store_true", help="run AIS31 Procedure A"
    )
    bits.add_argument(
        "--procedure-b", action="store_true", help="run AIS31 Procedure B"
    )
    return parser


def _build_spec(args: argparse.Namespace):
    # Omitted flags fall through to the spec dataclass defaults (the single
    # source of the default coefficients).
    noise = {}
    if args.f0 is not None:
        noise["f0_hz"] = args.f0
    if args.b_thermal is not None:
        noise["b_thermal_hz"] = args.b_thermal
    if args.b_flicker is not None:
        noise["b_flicker_hz2"] = args.b_flicker
    if args.command == "sigma2n":
        return Sigma2NCampaignSpec(
            batch_size=args.batch,
            n_periods=args.n_periods,
            seed=args.seed,
            overlapping=not args.disjoint,
            chunk_periods=args.chunk_periods,
            fit=not args.no_fit,
            backend=args.backend,
            rng_contract=args.rng_contract,
            **noise,
        )
    dividers = tuple(int(d) for d in args.dividers.split(",") if d.strip())
    return BitCampaignSpec(
        batch_size=args.batch,
        n_bits=args.n_bits,
        dividers=dividers,
        frequency_mismatch=args.mismatch,
        seed=args.seed,
        run_procedure_a=args.procedure_a,
        run_procedure_b=args.procedure_b,
        backend=args.backend,
        rng_contract=args.rng_contract,
        **noise,
    )


def _reference_result(spec):
    """The unsharded batched campaign on the same spec (for --verify)."""
    if isinstance(spec, Sigma2NCampaignSpec):
        return batched_sigma2_n_campaign(
            spec.ensemble(),
            spec.n_periods,
            n_sweep=spec.n_sweep,
            overlapping=spec.overlapping,
            min_realizations=spec.min_realizations,
            chunk_periods=spec.chunk_periods,
            fit=spec.fit,
            weighted=spec.weighted,
            exact=spec.exact,
        )
    return batched_bit_campaign(
        spec.configuration(),
        spec.dividers,
        spec.batch_size,
        spec.n_bits,
        seed=spec.seed,
        run_procedure_a=spec.run_procedure_a,
        include_t0=spec.include_t0,
        run_procedure_b=spec.run_procedure_b,
        min_entropy_block_size=spec.min_entropy_block_size,
        backend=spec.backend,
        rng_contract=spec.rng_contract,
    )


def _comparison_tables(spec, result) -> Dict[str, np.ndarray]:
    if isinstance(spec, Sigma2NCampaignSpec):
        tables = {
            "n_values": result.n_values,
            "sigma2_s2": result.sigma2_s2,
            "realization_counts": result.realization_counts,
            "f0_hz": result.f0_hz,
        }
        if spec.fit:
            tables.update(result.table())
        return tables
    return dict(result.table())


def _verify(spec, result) -> bool:
    reference = _reference_result(spec)
    sharded = _comparison_tables(spec, result)
    unsharded = _comparison_tables(spec, reference)
    ok = True
    for name, values in unsharded.items():
        if not np.array_equal(sharded[name], values):
            print(f"VERIFY FAIL: column {name!r} differs", file=sys.stderr)
            ok = False
    return ok


def _json_table(result) -> Dict[str, list]:
    table = result.table()
    return {name: np.asarray(column).tolist() for name, column in table.items()}


def _adopt_checkpoint_seed(args: argparse.Namespace) -> None:
    """Resume without --seed: continue the campaign the manifest records.

    A spec built with ``seed=None`` pins *fresh* entropy, which could never
    match a previous run's manifest — so an unseeded ``--resume`` adopts the
    recorded seed instead of refusing to resume.  The RNG stream contract is
    adopted the same way (an unpinned spec resolves the *local* environment
    default, which need not match the recorded campaign's contract).  Any
    other spec mismatch (changed batch, record length, ...) still fails in
    the checkpoint layer.
    """
    if not (args.resume and args.checkpoint_dir):
        return
    if args.seed is not None and args.rng_contract is not None:
        return
    from pathlib import Path

    manifest_path = Path(args.checkpoint_dir) / "manifest.json"
    if not manifest_path.exists():
        return
    recorded = json.loads(manifest_path.read_text()).get("spec", {})
    if recorded.get("kind") != args.command:
        return
    if args.seed is None and "seed" in recorded:
        args.seed = int(recorded["seed"])
    if args.rng_contract is None and recorded.get("rng_contract"):
        args.rng_contract = str(recorded["rng_contract"])


def _fabric_endpoints(args: argparse.Namespace) -> list:
    return [
        endpoint.strip()
        for endpoint in (args.workers_remote or "").split(",")
        if endpoint.strip()
    ]


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    remote = _fabric_endpoints(args)
    use_fabric = bool(remote) or args.spawn_workers > 0
    if use_fabric and args.workers != 1:
        print(
            "--workers (local processes) cannot be combined with the fabric "
            "flags --spawn-workers/--workers-remote; pick one execution "
            "substrate",
            file=sys.stderr,
        )
        return 2
    _adopt_checkpoint_seed(args)
    try:
        spec = _build_spec(args)
    except ValueError as error:
        # Bad flag combinations (e.g. --backend typos) are usage errors, not
        # tracebacks.
        print(str(error), file=sys.stderr)
        return 2

    def _progress(event) -> None:
        print(event.describe(), file=sys.stderr)

    if use_fabric:
        try:
            executor = FabricCoordinator(
                remote=remote,
                spawn=max(args.spawn_workers, 0),
                heartbeat_timeout=args.heartbeat_timeout,
                shard_timeout=args.shard_timeout,
                on_event=_progress,
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        fleet_size = executor.max_workers
    else:
        executor = (
            SerialExecutor()
            if args.workers == 1
            else MultiprocessExecutor(max_workers=args.workers)
        )
        fleet_size = args.workers

    from .obs import format_tree, global_registry, summary_line, write_metrics_json

    registries = [global_registry()]
    if use_fabric:
        registries.insert(0, executor.telemetry.registry)
    stats_stop: Optional[threading.Event] = None
    if args.stats_interval is not None and args.stats_interval > 0:
        stats_stop = threading.Event()
        interval = max(args.stats_interval, 0.1)

        def _stats_main() -> None:
            while not stats_stop.wait(interval):
                print(summary_line(*registries), file=sys.stderr)

        threading.Thread(
            target=_stats_main, name="campaign-stats", daemon=True
        ).start()

    start = time.perf_counter()
    try:
        result = run_campaign(
            spec,
            executor=executor,
            n_shards=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    finally:
        if use_fabric:
            executor.close()
        if stats_stop is not None:
            stats_stop.set()
    elapsed = time.perf_counter() - start

    # The shard count that actually ran (a derived default may be clamped).
    effective_shards = campaign_plan(spec, executor, args.shards).n_shards
    substrate = "fabric" if use_fabric else "local"
    print(
        f"{args.command} campaign: B={spec.batch_size}, "
        f"{effective_shards} shard(s), {fleet_size} {substrate} worker(s), "
        f"seed={spec.seed}, {elapsed:.3f} s"
    )
    fabric_summary: Optional[Dict] = None
    if use_fabric:
        fabric_summary = executor.telemetry.summary()
        print(
            f"fabric: {len(fabric_summary['shards'])} shard(s) served, "
            f"{fabric_summary['reassignments']} reassignment(s), "
            f"{len(fabric_summary['worker_failures'])} worker failure(s), "
            f"{fabric_summary['shard_seconds_total']:.3f} worker-seconds"
        )
        if args.trace:
            rendered = format_tree(executor.trace_tree())
            if rendered:
                print(f"trace:\n{rendered}", file=sys.stderr)
    if args.metrics_json:
        extra: Dict = {"command": args.command, "elapsed_seconds": elapsed}
        if use_fabric:
            extra["trace"] = executor.trace_tree()
        write_metrics_json(args.metrics_json, *registries, extra=extra)
        print(f"metrics written to {args.metrics_json}")
    if isinstance(spec, Sigma2NCampaignSpec) and not spec.fit:
        print(f"{len(result.curves)} curves estimated (fit skipped)")
    else:
        print(result.format_table(max_rows=args.max_rows))

    verified: Optional[bool] = None
    if args.verify:
        verified = _verify(spec, result)
        if verified:
            print(
                "verify: sharded output is bit-for-bit identical to the "
                "unsharded campaign"
            )
        else:
            print("verify: MISMATCH against the unsharded campaign")

    if args.json:
        payload = {
            "command": args.command,
            "spec": spec_to_json(spec),
            "n_shards": effective_shards,
            "workers": fleet_size,
            "substrate": substrate,
            "elapsed_seconds": elapsed,
            "verified": verified,
        }
        if fabric_summary is not None:
            payload["fabric"] = fabric_summary
        if not (isinstance(spec, Sigma2NCampaignSpec) and not spec.fit):
            payload["table"] = _json_table(result)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"results written to {args.json}")

    return 0 if verified in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())
