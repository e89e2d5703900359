"""Benchmark: multithreaded synthesis backend vs the NumPy reference.

The draw-and-shape kernel of
:meth:`repro.engine.batch.BatchedJitterSynthesizer._components` (per-row
normal draws + batched pink-noise FFT) is the hot path of every campaign.
This benchmark measures it two ways:

* **kernel**: raw ``(B, n_periods)`` period synthesis — exactly the step a
  :class:`~repro.engine.backends.SynthesisBackend` owns, and what the
  headline target gates on;
* **campaign**: a full Fig. 7 ``sigma^2_N`` campaign (synthesis + vectorized
  estimate + Eq. 11 fit) — the end-to-end effect, reported for context.

Because every backend must be **bit-for-bit identical** to the
:class:`~repro.engine.backends.NumpyBackend` reference, the script asserts
exactly that before any timing run — across worker counts {1, N}, the
spectral and non-spectral flicker paths, zero-coefficient rows, and the bit
pipeline.

The headline target is a >= 2x kernel speedup at ``--workers 4`` for
B >= 256 ensembles.  The speedup is hardware-bound: ``--check`` enforces the
target only on hosts with >= 4 CPU cores, and the JSON artifact records
``mode``/``cpu_cores``/``check_eligible`` so the perf gate
(``scripts/check_bench.py`` + ``benchmarks/baselines/backends.json``) skips
small runners deterministically.

Run ``python benchmarks/bench_backends.py`` (add ``--quick`` for a smoke
run, ``--check`` to gate on the target, ``--json PATH`` for CI artifacts).
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

from repro.engine.backends import NumpyBackend, PhiloxBackend  # noqa: E402
from repro.engine.batch import BatchedOscillatorEnsemble  # noqa: E402
from repro.engine.bits import BatchedEROTRNG  # noqa: E402
from repro.engine.campaign import batched_sigma2_n_campaign  # noqa: E402
from repro.paper import PAPER_B_THERMAL_HZ, PAPER_F0_HZ  # noqa: E402
from repro.phase.psd import PhaseNoisePSD  # noqa: E402
from repro.trng.ero_trng import EROTRNGConfiguration  # noqa: E402

TARGET_SPEEDUP = 2.0
TARGET_WORKERS = 4
TARGET_BATCH = 256

B_FLICKER_HZ2 = 5.42


def _best_of(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _ensemble(
    batch: int, seed: int, backend, rng_contract=None
) -> BatchedOscillatorEnsemble:
    return BatchedOscillatorEnsemble.from_phase_noise(
        PAPER_F0_HZ,
        PAPER_B_THERMAL_HZ,
        B_FLICKER_HZ2,
        batch_size=batch,
        seed=seed,
        rng_contract=rng_contract,
        backend=backend,
    )


def verify_equivalence(workers: int, seed: int) -> None:
    """Assert threaded output == the NumPy reference, bitwise, pre-timing."""
    # Heterogeneous rows including every draw-skipping case.
    b_thermal = np.array([276.04, 276.04, 0.0, 0.0, 100.0, 400.0, 0.0, 276.04])
    b_flicker = np.array([5.42, 0.0, 5.42, 0.0, 1.0, 8.0, 2.0, 5.42])
    for method in ("spectral", "ar"):
        for max_workers in {1, workers}:
            reference = BatchedOscillatorEnsemble.from_phase_noise(
                PAPER_F0_HZ,
                b_thermal,
                b_flicker,
                seed=seed,
                flicker_method=method,
                backend=NumpyBackend(),
            )
            threaded = BatchedOscillatorEnsemble.from_phase_noise(
                PAPER_F0_HZ,
                b_thermal,
                b_flicker,
                seed=seed,
                flicker_method=method,
                backend=NumpyBackend(max_workers, threshold=0),
            )
            for n_periods in (1, 257, 1024):
                if not np.array_equal(
                    reference.periods(n_periods), threaded.periods(n_periods)
                ):
                    raise AssertionError(
                        f"threaded:{max_workers} differs from numpy "
                        f"(method={method}, n={n_periods})"
                    )
    configuration = EROTRNGConfiguration(
        f0_hz=PAPER_F0_HZ,
        oscillator_psd=PhaseNoisePSD(b_thermal_hz=276.04, b_flicker_hz2=5.42),
        divider=16,
        frequency_mismatch=1e-3,
    )
    reference_trng = BatchedEROTRNG(
        configuration, batch_size=4, seed=seed, backend=NumpyBackend()
    )
    threaded_trng = BatchedEROTRNG(
        configuration,
        batch_size=4,
        seed=seed,
        backend=NumpyBackend(workers, threshold=0),
    )
    reference_bits = reference_trng.generate_raw(256).bits
    threaded_bits = threaded_trng.generate_raw(256).bits
    if not np.array_equal(reference_bits, threaded_bits):
        raise AssertionError("bit pipeline differs between backends")

    # The philox backend selects *execution* only: on the default spawn
    # streams it must be bitwise identical to the NumPy reference, and on
    # philox-contract streams it must agree with NumPy executing the same
    # counter-based draws.
    for max_workers in {1, workers}:
        for rng_contract in (None, "philox"):
            reference = _ensemble(8, seed, NumpyBackend(), rng_contract)
            philox = _ensemble(
                8, seed, PhiloxBackend(max_workers), rng_contract
            )
            if not np.array_equal(
                reference.periods(1024), philox.periods(1024)
            ):
                raise AssertionError(
                    f"philox:{max_workers} differs from numpy "
                    f"(rng_contract={rng_contract or 'spawn'})"
                )


def run(batch: int, n_periods: int, workers: int, repeats: int, seed: int):
    numpy_backend = NumpyBackend()
    threaded_backend = NumpyBackend(workers, threshold=0)

    philox_backend = PhiloxBackend(workers)

    # Fresh ensembles per repetition keep both backends on cold RNG streams.
    def kernel(backend, rng_contract=None):
        def body() -> None:
            _ensemble(batch, seed, backend, rng_contract).periods(n_periods)

        return body

    def campaign(backend):
        def body() -> None:
            batched_sigma2_n_campaign(_ensemble(batch, seed, backend), n_periods)

        return body

    kernel_numpy = _best_of(kernel(numpy_backend), repeats)
    kernel_threaded = _best_of(kernel(threaded_backend), repeats)
    # The philox pair times the counter-based streams on both executors, so
    # the speedup isolates execution from stream derivation.
    kernel_numpy_philox = _best_of(kernel(numpy_backend, "philox"), repeats)
    kernel_philox = _best_of(kernel(philox_backend, "philox"), repeats)
    campaign_numpy = _best_of(campaign(numpy_backend), repeats)
    campaign_threaded = _best_of(campaign(threaded_backend), repeats)
    return (
        kernel_numpy,
        kernel_threaded,
        kernel_numpy_philox,
        kernel_philox,
        campaign_numpy,
        campaign_threaded,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--batch", type=int, default=TARGET_BATCH, help="instances B"
    )
    parser.add_argument(
        "--n-periods", type=int, default=65_536, help="periods per instance"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=TARGET_WORKERS,
        help="threaded-backend worker threads",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions (best-of; raise on a noisy machine)",
    )
    parser.add_argument("--seed", type=int, default=20140324)
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the speedup target is missed",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the benchmark results to this JSON file",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.batch = min(args.batch, 16)
        args.n_periods = min(args.n_periods, 8192)
        args.workers = min(args.workers, 2)
        args.repeats = 1

    verify_equivalence(args.workers, args.seed)
    print(
        f"equivalence: threaded == numpy and philox == numpy (bitwise) for "
        f"workers {{1, {args.workers}}}, spectral + ar flicker, "
        f"zero-coefficient rows, both stream contracts and the bit pipeline"
    )

    (
        kernel_numpy,
        kernel_threaded,
        kernel_numpy_philox,
        kernel_philox,
        campaign_numpy,
        campaign_threaded,
    ) = run(args.batch, args.n_periods, args.workers, args.repeats, args.seed)
    speedup = kernel_numpy / kernel_threaded
    philox_speedup = kernel_numpy_philox / kernel_philox
    campaign_speedup = campaign_numpy / campaign_threaded
    cores = os.cpu_count() or 1
    print(
        f"\nworkload: B={args.batch} instances x {args.n_periods} periods "
        f"({cores} cores available, {args.workers} worker threads)"
    )
    print(f"kernel   numpy   : {kernel_numpy * 1e3:8.1f} ms")
    print(f"kernel   threaded: {kernel_threaded * 1e3:8.1f} ms")
    print(
        f"kernel   speedup : {speedup:.2f}x "
        f"(target >= {TARGET_SPEEDUP}x at {TARGET_WORKERS} workers, "
        f"B >= {TARGET_BATCH})"
    )
    print(f"kernel   numpy/philox streams: {kernel_numpy_philox * 1e3:8.1f} ms")
    print(f"kernel   philox  : {kernel_philox * 1e3:8.1f} ms")
    print(
        f"kernel   philox speedup : {philox_speedup:.2f}x "
        f"(counter-based streams, target >= {TARGET_SPEEDUP}x)"
    )
    print(f"campaign numpy   : {campaign_numpy * 1e3:8.1f} ms")
    print(f"campaign threaded: {campaign_threaded * 1e3:8.1f} ms")
    print(f"campaign speedup : {campaign_speedup:.2f}x (informational)")

    # Speedup-threshold eligibility, decided once and recorded in the JSON
    # output so the perf gate skips small runners deterministically (the
    # same pattern as bench_distributed.py).
    skip_reasons = []
    if args.quick:
        skip_reasons.append("quick mode")
    if args.batch < TARGET_BATCH:
        skip_reasons.append(f"batch {args.batch} < {TARGET_BATCH}")
    if args.workers < TARGET_WORKERS:
        skip_reasons.append(f"workers {args.workers} < {TARGET_WORKERS}")
    if cores < TARGET_WORKERS:
        skip_reasons.append(f"only {cores} CPU cores (need {TARGET_WORKERS})")
    eligible = not skip_reasons

    if args.json:
        payload = {
            "benchmark": "backends",
            "mode": "quick" if args.quick else "full",
            "batch": args.batch,
            "n_periods": args.n_periods,
            "workers": args.workers,
            "cpu_cores": cores,
            "kernel_numpy_seconds": kernel_numpy,
            "kernel_threaded_seconds": kernel_threaded,
            "kernel_numpy_philox_seconds": kernel_numpy_philox,
            "kernel_philox_seconds": kernel_philox,
            "speedup": speedup,
            "philox_speedup": philox_speedup,
            "campaign_numpy_seconds": campaign_numpy,
            "campaign_threaded_seconds": campaign_threaded,
            "campaign_speedup": campaign_speedup,
            "target_speedup": TARGET_SPEEDUP,
            "check_eligible": eligible,
            "check_skip_reason": None if eligible else "; ".join(skip_reasons),
            "equivalence": "bitwise",
            "quick": bool(args.quick),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"results written to {args.json}")

    if args.check:
        if not eligible:
            print(
                "note: --check skipped on this configuration: "
                f"{'; '.join(skip_reasons)} (it requires a full run with "
                f"--batch >= {TARGET_BATCH}, --workers >= {TARGET_WORKERS} "
                f"and >= {TARGET_WORKERS} CPU cores)",
                file=sys.stderr,
            )
        elif speedup < TARGET_SPEEDUP:
            print(f"FAIL: speedup below {TARGET_SPEEDUP}x", file=sys.stderr)
            return 1
        elif philox_speedup < TARGET_SPEEDUP:
            print(
                f"FAIL: philox speedup below {TARGET_SPEEDUP}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
