"""Layer-ledger benchmark command.

    python3 perfbench/run.py --workload serve-d512 --seed 1 --seconds 15 --trace 0

Runs one workload against the program built from ``src/`` in this checkout,
prints the environment and every metric by name, unit and sample count,
then, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is split into an untraced and
a traced half and the metrics are the per-layer ones.  Exit status: 0 when
every correctness check passed, 1 when one failed (the result line says
``"correct": false``), 2 when the run could not complete (no result line).
"""

import argparse
import json
import math
import os
import sys
import traceback

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench import programs  # noqa: E402

ROOT = programs.ROOT


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _print_table(title, rows):
    print(f"# {title}")
    print(f"  {'metric':<28} {'value':>14}  {'unit':<16} {'n':>6}  note")
    for name, value, unit, n, note in rows:
        print(f"  {name:<28} {value:>14.6g}  {unit:<16} {n:>6}  {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    declared = _declared()
    names = [workload["name"] for workload in declared["workloads"]]
    if args.workload not in names:
        message = f"unknown workload {args.workload!r}; choose one of {names}"
        print(message, file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(programs.SRC, "repro")):
        message = f"no program to benchmark: {programs.SRC}/repro is missing"
        print(message, file=sys.stderr)
        return 2
    programs.pin_environment()
    from perfbench import workloads

    calib_ms = programs.calibrate()
    print("env " + json.dumps(programs.environment_record(calib_ms)))
    print(
        f"workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    run_workload = workloads.WORKLOADS[args.workload]
    outcome = run_workload(args.seed, args.seconds, bool(args.trace))

    for name, passed, detail in outcome.checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {name} ({detail})")
    _print_table(
        "end-to-end metrics" + (" of the traced half" if args.trace else ""),
        [(name, m.value, m.unit, m.n, m.note) for name, m in outcome.named.items()],
    )
    if args.trace:
        outcome.layers["calib.ref_ms"] = calib_ms
        layers = sorted(outcome.layers.items())
        _print_table(
            "per-layer metrics of the traced half (ms and counts are per op)",
            [(name, value, "", "", "") for name, value in layers],
        )
        wanted = declared["per_layer"]
        values = outcome.layers
    else:
        wanted = declared["end_to_end"]
        values = {name: metric.value for name, metric in outcome.end_to_end.items()}
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    bad = [name for name, value in metrics.items() if not math.isfinite(value["value"])]
    if bad:
        message = f"cannot report non-finite metrics {bad} (every operation failed?)"
        print(message, file=sys.stderr)
        return 2
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
