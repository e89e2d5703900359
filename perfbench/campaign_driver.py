"""The campaign-sharded program: ``run_campaign`` on a 2-process pool.

    python perfbench/campaign_driver.py [--trace SPANS.json]

Imports ``repro``, prints one ``{"ready": true}`` line, then answers one
JSON command per stdin line:

* ``{"op": "sigma2n", "seed": S}`` — the Fig. 7 campaign (B = 64,
  131,072 periods, paper f0 / b_th), 4 shards on 2 worker processes;
* ``{"op": "bits", "seed": S}`` — the bit campaign (B = 16, 2,048 bits,
  dividers 64 and 512), 4 shards on 2 worker processes;
* ``{"op": "rss"}`` — peak resident memory over this process and its workers;
* ``{"op": "exit"}``.

Each campaign reply carries its wall time and the statistics the harness
checks.  ``MultiprocessExecutor`` starts a fresh pool of 2 processes for
every campaign, as it does in ``python -m repro.campaigns``.  With
``--trace`` the layer wrappers are installed, shards run through
:class:`perfbench.tracing.TracingExecutor`, and the spans are written at
exit.
"""

import json
import os
import resource
import sys
import time

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

import numpy as np  # noqa: E402

from perfbench import tracing  # noqa: E402

WORKERS = 2
SHARDS = 4
SIGMA2N = {"batch_size": 64, "n_periods": 131_072}
BITS = {"batch_size": 16, "n_bits": 2_048, "dividers": (64, 512)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    spans_path = sys.argv[2] if sys.argv[1:2] == ["--trace"] else None
    tracer = tracing.install() if spans_path else None
    from repro.engine.distributed import (
        BitCampaignSpec,
        MultiprocessExecutor,
        Sigma2NCampaignSpec,
        run_campaign,
    )

    executor = MultiprocessExecutor(max_workers=WORKERS)
    if tracer is not None:
        executor = tracing.TracingExecutor(executor, tracer)

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "exit":
                break
            if op == "rss":
                reply({"peak_rss_mb": _peak_rss_mb()})
                continue
            if op == "sigma2n":
                spec = Sigma2NCampaignSpec(seed=command["seed"], **SIGMA2N)
            elif op == "bits":
                spec = BitCampaignSpec(seed=command["seed"], **BITS)
            else:
                raise ValueError(f"unknown op {op!r}")
            start = time.monotonic()
            try:
                result = run_campaign(spec, executor=executor, n_shards=SHARDS)
            except Exception as error:  # a failed campaign is counted, not fatal
                reply({"error": f"{type(error).__name__}: {error}"})
                continue
            end = time.monotonic()
            payload = {"start": start, "end": end, "workers": WORKERS}
            if op == "sigma2n":
                table = result.table()
                payload["b_thermal_hz_median"] = float(np.median(table["b_thermal_hz"]))
                payload["r_squared_median"] = float(np.median(table["r_squared"]))
                payload["work"] = spec.batch_size * spec.n_periods
            else:
                row = list(result.dividers).index(512)
                shannon = result.shannon_entropy[row]
                payload["shannon_d512_mean"] = float(np.mean(shannon))
                payload["work"] = spec.batch_size * spec.n_bits * len(spec.dividers)
            reply(payload)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
