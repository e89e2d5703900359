"""Run-to-run spread of the benchmark, one seed per run.

    python3 perfbench/steady.py --workload serve-d512 --runs 10 [--seconds 15]

Runs ``perfbench/run.py`` once per seed (1..runs) and prints, for every
end-to-end metric, the median and the quartile spread (third minus first
quartile, over the median) next to the metric's bound in BENCHMARK.json.
A benchmark is steady when every spread but ``setup_s``'s sits well below
its bound.  ``calib_ref_ms``, the fixed reference loop each run times
before the workload, is listed too: its spread is the machine's own drift.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench.ledger import quartile_spread  # noqa: E402
from perfbench.programs import ROOT  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            args.workload,
            "--seed",
            str(seed),
            "--seconds",
            f"{seconds:g}",
            "--trace",
            "0",
        ]
        output = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if output.returncode != 0:
            print(output.stdout[-2000:], output.stderr[-2000:], file=sys.stderr)
            return 1
        lines = output.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        env = next(line for line in lines if line.startswith("env "))
        row["calib_ref_ms"] = json.loads(env[len("env "):])["calib_ref_ms"]
        shown = " ".join(f"{name}={value:.5g}" for name, value in row.items())
        print(f"seed {seed}: {shown}", flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    bounds["calib_ref_ms"] = "-"
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        median = statistics.median(series)
        print(f"{name:<20} {median:>12.5g} {spread:>8.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
