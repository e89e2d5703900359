"""Benchmark: observability overhead on the synthesis hot path.

The :mod:`repro.obs` instrumentation sits directly on the hottest code in
the repository — every kernel call observes ``engine_kernel_block_seconds``
and every plan lookup bumps the plan-cache counters — so it must be cheap
enough to leave on.  This benchmark proves two properties of the layer:

* **bitwise transparency**: instrumentation never touches an RNG stream, so
  a synthesis workload produces bit-for-bit identical output with metrics
  enabled and with the ``configure_metrics(enabled=False)`` kill switch
  thrown.  Checked inline (``np.array_equal``) before any timing run; the
  script raises before writing JSON on a mismatch.
* **<= 5% overhead**: best-of-N wall time of a serving-shaped synthesis
  workload, enabled vs killed.  The gated headline is
  ``overhead_ratio = disabled_seconds / enabled_seconds`` — 1.0 means free,
  0.95 means 5% overhead.  The committed baseline
  (``benchmarks/baselines/observability.json``) fails the perf gate when
  the ratio drops below 0.90.

Also reported (informational): raw instrument costs — ns per ``Counter.inc``
and per ``Histogram.observe``, enabled and killed — to make a future
regression easy to localise.

Run ``python benchmarks/bench_observability.py`` (add ``--quick`` for a
smoke run, ``--check`` to gate on the overhead target, ``--json PATH`` for
CI artifacts).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

# Allow running as a plain script from the repository root.
sys.path.insert(0, "src")

from repro.engine.backends import NumpyBackend, reset_plan_cache  # noqa: E402
from repro.engine.batch import spawn_generators  # noqa: E402
from repro.obs import (  # noqa: E402
    Counter,
    Histogram,
    configure_metrics,
    metrics_enabled,
)

TARGET_OVERHEAD_RATIO = 0.95  # disabled/enabled wall time; 0.95 == 5% overhead

SIGMA_S = 1.2e-12
H_MINUS1 = 3.1e-22


def _best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _workload(batch: int, n: int, calls: int, seed: int):
    """Serving-shaped traffic: many small kernel calls, instrumented path."""
    backend = NumpyBackend()
    sigma = np.full(batch, SIGMA_S)
    h_minus1 = np.full(batch, H_MINUS1)
    results = []
    for call in range(calls):
        results.append(
            backend.synthesize(
                n, spawn_generators(seed + call, batch), sigma, h_minus1, "spectral"
            )
        )
    return results


def verify_equivalence(batch: int, n: int, calls: int, seed: int) -> None:
    """Assert enabled == killed synthesis output, bitwise, pre-timing."""
    assert metrics_enabled()
    enabled = _workload(batch, n, calls, seed)
    configure_metrics(enabled=False)
    try:
        disabled = _workload(batch, n, calls, seed)
    finally:
        configure_metrics(enabled=True)
    for left, right in zip(enabled, disabled):
        if not (
            np.array_equal(left[0], right[0])
            and np.array_equal(left[1], right[1])
        ):
            raise AssertionError(
                f"instrumented synthesis differs from kill-switch run "
                f"(B={batch}, n={n})"
            )


def time_workload(batch: int, n: int, calls: int, repeats: int, seed: int):
    """Best-of wall time of the workload, metrics enabled vs killed."""

    def run() -> None:
        _workload(batch, n, calls, seed)

    reset_plan_cache()
    run()  # warm the plan cache + numpy so both arms time the same work
    enabled_seconds = _best_of(run, repeats)
    configure_metrics(enabled=False)
    try:
        disabled_seconds = _best_of(run, repeats)
    finally:
        configure_metrics(enabled=True)
    return enabled_seconds, disabled_seconds


def time_instruments(loops: int):
    """ns per Counter.inc / Histogram.observe, enabled and killed."""
    counter = Counter("bench_total", "")
    histogram = Histogram("bench_seconds", "")
    timings = {}
    for state in ("enabled", "disabled"):
        configure_metrics(enabled=(state == "enabled"))
        try:

            def incs() -> None:
                for _ in range(loops):
                    counter.inc()

            def observes() -> None:
                for _ in range(loops):
                    histogram.observe(0.001)

            timings[f"counter_inc_{state}_ns"] = (
                _best_of(incs, 3) / loops * 1e9
            )
            timings[f"histogram_observe_{state}_ns"] = (
                _best_of(observes, 3) / loops * 1e9
            )
        finally:
            configure_metrics(enabled=True)
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--batch", type=int, default=4, help="rows per backend call B"
    )
    parser.add_argument(
        "--n-periods", type=int, default=4096, help="periods per row"
    )
    parser.add_argument(
        "--calls", type=int, default=32, help="backend calls per repetition"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repetitions (best-of; raise on a noisy machine)",
    )
    parser.add_argument("--seed", type=int, default=20140324)
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the overhead target is missed",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the benchmark results to this JSON file",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.calls = min(args.calls, 8)
        args.repeats = min(args.repeats, 3)

    verify_equivalence(args.batch, args.n_periods, args.calls, args.seed)
    print(
        f"equivalence: enabled == kill-switch synthesis (bitwise) over "
        f"{args.calls} calls (B={args.batch}, n={args.n_periods})"
    )

    enabled_seconds, disabled_seconds = time_workload(
        args.batch, args.n_periods, args.calls, args.repeats, args.seed
    )
    overhead_ratio = disabled_seconds / enabled_seconds
    overhead_pct = (enabled_seconds / disabled_seconds - 1.0) * 100.0
    instruments = time_instruments(2_000 if args.quick else 20_000)
    cores = os.cpu_count() or 1

    print(
        f"\nworkload: {args.calls} calls x B={args.batch} x "
        f"n={args.n_periods} periods ({cores} cores available)"
    )
    print(f"metrics enabled : {enabled_seconds * 1e3:8.1f} ms")
    print(f"metrics killed  : {disabled_seconds * 1e3:8.1f} ms")
    print(
        f"overhead        : {overhead_pct:+.2f}% "
        f"(ratio {overhead_ratio:.3f}, target >= {TARGET_OVERHEAD_RATIO})"
    )
    print(
        f"counter.inc     : {instruments['counter_inc_enabled_ns']:6.0f} ns "
        f"enabled / {instruments['counter_inc_disabled_ns']:5.0f} ns killed"
    )
    print(
        f"hist.observe    : {instruments['histogram_observe_enabled_ns']:6.0f} ns "
        f"enabled / {instruments['histogram_observe_disabled_ns']:5.0f} ns killed"
    )

    if args.json:
        payload = {
            "benchmark": "observability",
            "mode": "quick" if args.quick else "full",
            "batch": args.batch,
            "n_periods": args.n_periods,
            "calls": args.calls,
            "cpu_cores": cores,
            "enabled_seconds": enabled_seconds,
            "disabled_seconds": disabled_seconds,
            "overhead_ratio": overhead_ratio,
            "overhead_pct": overhead_pct,
            "target_overhead_ratio": TARGET_OVERHEAD_RATIO,
            "equivalence": "bitwise",
            "quick": bool(args.quick),
            **instruments,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"results written to {args.json}")

    if args.check and overhead_ratio < TARGET_OVERHEAD_RATIO:
        print(
            f"FAIL: observability overhead ratio {overhead_ratio:.3f} below "
            f"{TARGET_OVERHEAD_RATIO}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
