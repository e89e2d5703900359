"""The three workloads: serve-d512, front-door-small, campaign-sharded.

Each workload function returns an :class:`Outcome`: the end-to-end metrics
under the names ``BENCHMARK.json`` lists (the same names on every workload,
see README.md for what each means where), the same numbers under the names
of the per-workload metric table, the correctness checks, and, for a traced
run, the per-layer metrics.  Correctness checks run outside the timed
region.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import clients, inputs, tracing
from .ledger import Outcomes
from .programs import OUT, Program

HOST = "127.0.0.1"
#: Spare program starts (each stopped at once) before and after the timed
#: phase of an untraced run.  ``setup_s`` is the median set-up time of these
#: and of the start that runs the workload; starting on both sides of the
#: timed phase keeps one slow stretch of the machine from setting it.
SPARE_SETUPS = (3, 3)
#: A campaign-sharded start includes a full σ²_N campaign (~4 s), so fewer.
CAMPAIGN_SPARE_SETUPS = (1, 1)

SERVE_BITS, SERVE_DIVIDER = 256, 512
#: |P(1) - 1/2| bound on all bits served at D = 512 (~10 sigma at 50 kbit).
SERVE_BIAS_BOUND = 0.02
HTTP_FIELDS = {"n_bits": 64, "divider": 16, "rng_contract": "philox"}
SESSION_DIVIDER, CHUNK_BITS = 16, 1024
#: Session chunks whose concatenation is compared with a one-shot read.
SESSION_CHECK_CHUNKS = 8
#: Sampled HTTP replies compared with the solo reference.
HTTP_CHECK_SAMPLES = 8
PAPER_B_THERMAL_HZ = 276.04
#: Relative tolerance on the median fitted b_th of each timed campaign.
B_THERMAL_TOLERANCE = 0.02
MIN_R_SQUARED = 0.99
MIN_SHANNON_D512 = 0.99


@dataclass
class Metric:
    value: float
    unit: str
    n: int = 1
    note: str = ""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Contract metrics (names of BENCHMARK.json).
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    #: The workload's own metric names, printed before the result line.
    named: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def _latency_metrics(
    outcome: Outcome, prefix: str, named: str, ledger: Outcomes
) -> None:
    """p50, mean, p90 and tail of one operation under both naming schemes.

    The result line carries the mean and the p90, not the median and the
    tail: on the reference machine latency alternates between a fast and a
    slow mode for seconds at a time, so the median jumps between the modes
    from run to run where the mean moves smoothly, and the tail of a 5 ms
    request (p99.5) is set by a few scheduling stalls per run (see README).
    """
    tail_value, label = ledger.tail_ms()
    stats = (
        ("p50", ledger.p50_ms(), ""),
        ("mean", ledger.mean_ms(), ""),
        ("p90", ledger.p90_ms(), ""),
        ("tail", tail_value, label),
    )
    for key, value, note in stats:
        metric = Metric(value, "ms", ledger.attempted, note)
        outcome.end_to_end[f"{prefix}_ms_{key}"] = metric
        outcome.named[f"{named}_ms_{key}"] = metric


def _common_metrics(outcome: Outcome, setups: List[float], rss_mb: float) -> None:
    outcome.end_to_end["setup_s"] = Metric(
        statistics.median(setups),
        "s",
        len(setups),
        f"median; starts {min(setups):.3f}-{max(setups):.3f} s",
    )
    outcome.end_to_end["peak_rss_mb"] = Metric(rss_mb, "MB")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    outcome.named["failed_frac"] = Metric(
        failed_frac, "failed/attempted", outcome.attempted
    )
    outcome.named["setup_s"] = outcome.end_to_end["setup_s"]
    outcome.named["peak_rss_mb"] = outcome.end_to_end["peak_rss_mb"]


def _bits(text: str) -> np.ndarray:
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return codes.astype(np.int8) - ord("0")


def _solo(**fields) -> np.ndarray:
    """Reference bits: the request served alone, in this process."""
    from repro.serving.requests import BitsRequest
    from repro.serving.scatter import run_bits_batch

    return run_bits_batch([BitsRequest(**fields)])[0].bits


def _spans_path(tag: str) -> str:
    return os.path.join(OUT, f"spans-{tag}-{os.getpid()}.json")


def _spare_setups(start: Callable[[], tuple], count: int) -> List[float]:
    """Start and stop the program ``count`` times; their set-up times."""
    setups = []
    for _ in range(count):
        started = start()
        started[0].stop()
        setups.append(started[-1])
    return setups


#: Layer metric -> (histogram of the service's registry, scale of its mean).
REGISTRY_LAYERS = {
    "serve.queue_wait_ms": ("serve_queue_wait_seconds", 1e3),
    "serve.coalesce_wait_ms": ("serving_coalesce_wait_seconds", 1e3),
    "serve.batch_size_mean": ("serve_batch_size", 1.0),
}


def _registry_layers(tcp_port: int) -> Dict[str, float]:
    """Serving metrics the service records in its own registry.

    Read through the server's ``metrics`` request after the timed phase;
    the server is fresh, so the histograms hold the timed requests only.
    """
    snapshot = clients.tcp_call(HOST, tcp_port, "metrics")["metrics"]
    layers = {}
    for layer, (name, scale) in REGISTRY_LAYERS.items():
        value = snapshot[name]["value"]
        count = value["count"]
        layers[layer] = scale * value["sum"] / count if count else 0.0
    return layers


# -- servers ------------------------------------------------------------------------


def start_server(http: bool, spans_path: Optional[str] = None):
    """``python -m repro.serve`` (default ServiceConfig) on ephemeral ports.

    Returns ``(program, tcp_port, http_port, setup_s)``; set-up runs from
    spawn until the first healthy response (a ``ping``, or ``GET /healthz``
    when the HTTP gateway runs).
    """
    flags = ["--host", HOST, "--port", "0"]
    if http:
        flags += ["--http", f"{HOST}:0"]
    if spans_path:
        argv = [sys.executable, "perfbench/traced_server.py", spans_path, *flags]
    else:
        argv = [sys.executable, "-m", "repro.serve", *flags]
    program = Program(argv)
    try:
        http_port = None
        if http:
            http_port = int(program.wait_for(r"http gateway on [\d.]+:(\d+)").group(1))
        tcp_port = int(program.wait_for(r"serving on [\d.]+:(\d+)").group(1))
        if http:
            clients.http_health(HOST, http_port)
        else:
            clients.tcp_call(HOST, tcp_port, "ping")
    except BaseException:
        program.stop()
        raise
    return program, tcp_port, http_port, time.monotonic() - program.started


# -- serve-d512 -------------------------------------------------------------------


def _serve_run(arrivals, spares=(0, 0), spans_path=None):
    start = functools.partial(start_server, False, spans_path)
    times = _spare_setups(start, spares[0])
    program, port, _, setup = start()
    times.append(setup)
    try:
        sent, late = clients.open_loop(HOST, port, arrivals, SERVE_BITS, SERVE_DIVIDER)
        rss = program.peak_rss_mb()
        registry = _registry_layers(port) if spans_path else {}
    finally:
        program.stop()
    times += _spare_setups(start, spares[1])
    return sent, late, rss, times, registry


def _backlogged(sent) -> int:
    """Arrivals due before every earlier arrival had its last reply.

    The schedule's gaps are meant to leave the server idle at each arrival;
    a backlogged arrival's latency includes queueing behind earlier work.
    An unanswered request keeps every later arrival backlogged.
    """
    due: Dict[int, float] = {}
    last_reply: Dict[int, float] = {}
    for record in sent:
        due[record.arrival] = record.due
        done = record.done if record.ok else float("inf")
        last_reply[record.arrival] = max(last_reply.get(record.arrival, done), done)
    busy_until, count = float("-inf"), 0
    for arrival in sorted(due):
        count += due[arrival] < busy_until
        busy_until = max(busy_until, last_reply[arrival])
    return count


def _serve_ledgers(sent) -> Tuple[Outcomes, Outcomes, float]:
    solo, burst = Outcomes(), Outcomes()
    members: Dict[int, list] = {}
    for record in sent:
        ledger = solo if record.kind == "solo" else burst
        if record.ok:
            ledger.ok(record.done - record.due)
        else:
            ledger.fail()
        if record.kind == "burst":
            members.setdefault(record.arrival, []).append(record)
    complete = [group for group in members.values() if all(r.ok for r in group)]
    wall = sum(max(r.done for r in group) - group[0].due for group in complete)
    bits = sum(len(group) * SERVE_BITS for group in complete)
    return solo, burst, 1e6 * wall / bits if bits else float("inf")


def _check_serve(outcome: Outcome, sent) -> None:
    answered = [record for record in sent if record.ok]
    bursts = sorted({r.arrival for r in answered if r.kind == "burst"})[:2]
    sampled = [r for r in answered if r.kind == "solo"][:4]
    for arrival in bursts:
        group = [r for r in answered if r.arrival == arrival]
        sampled += [group[0], group[-1]]
    mismatched = [
        record.seed
        for record in sampled
        if not np.array_equal(
            _bits(record.response["result"]["bits"]),
            _solo(n_bits=SERVE_BITS, divider=SERVE_DIVIDER, seed=record.seed),
        )
    ]
    outcome.check(
        "served bits == solo run_bits_batch",
        sampled and not mismatched,
        f"{len(sampled)} sampled, mismatched seeds {mismatched}",
    )
    served = np.concatenate([_bits(r.response["result"]["bits"]) for r in answered])
    bias = float(np.mean(served)) - 0.5
    outcome.check(
        f"|bias| <= {SERVE_BIAS_BOUND}",
        abs(bias) <= SERVE_BIAS_BOUND,
        f"bias {bias:+.5f} over {served.size} bits",
    )


def serve_d512(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        arrivals = inputs.serve_schedule(seed, seconds / 2)
        plain = _serve_run(arrivals)[0]
        spans_path = _spans_path("serve")
        sent, late, rss, setups, registry = _serve_run(arrivals, spans_path=spans_path)
    else:
        arrivals = inputs.serve_schedule(seed, seconds)
        sent, late, rss, setups, _ = _serve_run(arrivals, SPARE_SETUPS)
    solo, burst, per_bit = _serve_ledgers(sent)
    outcome.attempted = solo.attempted + burst.attempted
    outcome.failed = solo.failed + burst.failed
    _latency_metrics(outcome, "request", "b1_latency", solo)
    _latency_metrics(outcome, "bulk", "b32_latency", burst)
    metric = Metric(per_bit, "us", burst.attempted * SERVE_BITS)
    outcome.end_to_end["us_per_bit"] = outcome.named["us_per_bit"] = metric
    outcome.named["client.late_ms_max"] = Metric(1e3 * late, "ms", len(arrivals))
    backlogged = _backlogged(sent)
    outcome.named["client.backlogged"] = Metric(
        backlogged, "arrivals", len(arrivals), "due while the server was busy"
    )
    if backlogged:
        print(
            f"flag: {backlogged} of {len(arrivals)} arrivals were due before the"
            " previous one was answered; their latency includes queueing",
            file=sys.stderr,
        )
    if trace:
        untraced = _serve_ledgers(plain)[0].mean_ms()
        answered = [r for r in sent if r.ok]
        windows = [{
            "kind": "request",
            "start": min(r.due for r in sent) - 0.01,
            "end": max(r.done for r in answered) + 0.01,
        }]
        ops = {"request": len(answered)}
        overhead = solo.mean_ms() / untraced - 1.0
        _trace_layers(outcome, spans_path, windows, ops, overhead)
        outcome.layers.update(registry)
        outcome.layers["client.late_ms_max"] = 1e3 * late
        outcome.layers["client.backlogged"] = backlogged
    else:
        _common_metrics(outcome, setups, rss)
    _check_serve(outcome, sent)
    return outcome


def _trace_layers(
    outcome: Outcome, spans_path: str, windows, ops, overhead: float
) -> None:
    groups, samples = tracing.load_spans(spans_path)
    os.remove(spans_path)
    outcome.layers.update(tracing.layer_metrics(groups, samples, windows, ops))
    outcome.layers["trace.overhead_frac"] = overhead


# -- front-door-small ---------------------------------------------------------------


#: Times each front-door phase runs per run (the phases alternate).
FRONT_DOOR_SLICES = 6


def _front_door_run(
    data: inputs.FrontDoorInputs,
    seconds: float,
    slices: int,
    spares=(0, 0),
    spans_path=None,
):
    start = functools.partial(start_server, True, spans_path)
    times = _spare_setups(start, spares[0])
    program, tcp_port, http_port, setup = start()
    times.append(setup)
    session = {"divider": SESSION_DIVIDER, "seed": data.session_seed}
    try:
        run = clients.front_door(
            HOST,
            http_port,
            data.http_seeds,
            HTTP_FIELDS,
            session,
            CHUNK_BITS,
            seconds,
            slices,
        )
        rss = program.peak_rss_mb()
        registry = _registry_layers(tcp_port) if spans_path else {}
    finally:
        program.stop()
    times += _spare_setups(start, spares[1])
    return run, rss, times, registry


def _ledger(exchanges) -> Outcomes:
    ledger = Outcomes()
    for exchange in exchanges:
        if exchange.ok:
            ledger.ok(exchange.latency_s)
        else:
            ledger.fail()
    return ledger


def _check_front_door(outcome: Outcome, http, session, data) -> None:
    answered = [exchange for exchange in http if exchange.ok]
    step = max(len(answered) // HTTP_CHECK_SAMPLES, 1)
    sampled = answered[::step][:HTTP_CHECK_SAMPLES]
    mismatched = [
        exchange.seed
        for exchange in sampled
        if not np.array_equal(
            _bits(exchange.reply["result"]["bits"]),
            _solo(seed=exchange.seed, **HTTP_FIELDS),
        )
    ]
    outcome.check(
        "HTTP bits == solo run_bits_batch",
        sampled and not mismatched,
        f"{len(sampled)} sampled, mismatched seeds {mismatched}",
    )
    chunks = session[:SESSION_CHECK_CHUNKS]
    offsets = [exchange.reply["result"]["offset"] for exchange in chunks if exchange.ok]
    joined = np.concatenate([_bits(e.reply["result"]["bits"]) for e in chunks if e.ok])
    one_shot = _solo(
        n_bits=joined.size, divider=SESSION_DIVIDER, seed=data.session_seed
    )
    outcome.check(
        "session chunks == one-shot read",
        len(chunks) == SESSION_CHECK_CHUNKS
        and offsets == [index * CHUNK_BITS for index in range(len(chunks))]
        and np.array_equal(joined, one_shot),
        f"first {len(chunks)} chunks, {joined.size} bits",
    )


def front_door_small(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    data = inputs.front_door_inputs(seed)
    if trace:
        half_slices = FRONT_DOOR_SLICES // 2
        plain = _front_door_run(data, seconds / 2, half_slices)[0]
        spans_path = _spans_path("front-door")
        run, rss, setups, registry = _front_door_run(
            data, seconds / 2, half_slices, spans_path=spans_path
        )
    else:
        run, rss, setups, _ = _front_door_run(
            data, seconds, FRONT_DOOR_SLICES, SPARE_SETUPS
        )
    http_ledger, session_ledger = _ledger(run.http), _ledger(run.session)
    outcome.attempted = http_ledger.attempted + session_ledger.attempted
    outcome.failed = http_ledger.failed + session_ledger.failed
    _latency_metrics(outcome, "request", "http_latency", http_ledger)
    _latency_metrics(outcome, "bulk", "ws_read", session_ledger)
    bits_read = CHUNK_BITS * len(session_ledger.latencies_s)
    session_s = sum(end - start for start, end in run.session_windows)
    per_bit = 1e6 * session_s / bits_read if bits_read else float("inf")
    metric = Metric(per_bit, "us", bits_read)
    outcome.end_to_end["us_per_bit"] = outcome.named["session_us_per_bit"] = metric
    if trace:
        windows = [
            {"kind": kind, "start": start, "end": end}
            for kind, intervals in (
                ("http", run.http_windows),
                ("session", run.session_windows),
            )
            for start, end in intervals
        ]
        ops = {
            "http": len(http_ledger.latencies_s),
            "session": len(session_ledger.latencies_s),
        }
        overhead = http_ledger.mean_ms() / _ledger(plain.http).mean_ms() - 1.0
        _trace_layers(outcome, spans_path, windows, ops, overhead)
        outcome.layers.update(registry)
    else:
        _common_metrics(outcome, setups, rss)
    _check_front_door(outcome, run.http, run.session, data)
    return outcome


# -- campaign-sharded ---------------------------------------------------------------


def start_driver(seed: int, spans_path: Optional[str] = None):
    """The campaign program, through its first full σ²_N campaign.

    Returns ``(program, first_reply, setup_s)``.  Set-up runs from spawn
    until that first campaign is answered: ``python -m repro.campaigns``
    runs one campaign per process, so whatever a first campaign costs beyond
    later ones is paid by every real run.  (``MultiprocessExecutor`` starts
    a new pool for every campaign; no pool outlives one.)
    """
    argv = [sys.executable, "perfbench/campaign_driver.py"]
    if spans_path:
        argv += ["--trace", spans_path]
    program = Program(argv, interactive=True)
    try:
        if not program.reply().get("ready"):
            raise RuntimeError(f"campaign driver did not start: {program.tail()}")
        first = program.ask({"op": "sigma2n", "seed": seed}, timeout=120)
        if "error" in first:
            raise RuntimeError(f"first campaign failed: {first['error']}")
    except BaseException:
        program.stop()
        raise
    return program, first, time.monotonic() - program.started


def _campaign_runs(
    data: inputs.CampaignInputs, seconds: float, spares=(0, 0), spans_path=None
):
    """Alternate σ²_N and bit campaigns until ``seconds`` have passed.

    The first σ²_N campaign of each driver belongs to its set-up (see
    :func:`start_driver`); the timed campaigns are the ones after it.  A
    pair starts only while the time left is at least a mean pair's duration,
    so a run ends near ``seconds``.  Returns the timed pairs, the peak RSS,
    every set-up time and every first campaign's reply.
    """
    start = functools.partial(start_driver, data.check_seed, spans_path)
    starts = [start() for _ in range(spares[0])]
    for started in starts:
        started[0].stop()
    program, first, setup = start()
    starts.append((program, first, setup))
    try:
        runs = []
        began = time.monotonic()
        for sigma2n_seed, bits_seed in data.run_seeds:
            elapsed = time.monotonic() - began
            if runs and elapsed + elapsed / len(runs) > seconds:
                break
            runs.append((
                program.ask({"op": "sigma2n", "seed": sigma2n_seed}, timeout=120),
                program.ask({"op": "bits", "seed": bits_seed}, timeout=120),
            ))
        rss = program.ask({"op": "rss"})["peak_rss_mb"]
    finally:
        program.stop()
    for _ in range(spares[1]):
        starts.append(start())
        starts[-1][0].stop()
    firsts = [reply for _, reply, _ in starts]
    return runs, rss, [setup for _, _, setup in starts], firsts


def _campaign_ledgers(runs):
    sigma2n, bits = Outcomes(), Outcomes()
    for pair in runs:
        for ledger, reply in zip((sigma2n, bits), pair):
            if "error" in reply:
                ledger.fail()
            else:
                ledger.ok(reply["end"] - reply["start"])
    return sigma2n, bits


def _check_campaign(
    outcome: Outcome, runs, firsts, data: inputs.CampaignInputs
) -> None:
    sigma2n = firsts + [pair[0] for pair in runs if "error" not in pair[0]]
    bits = [pair[1] for pair in runs if "error" not in pair[1]]
    worst_b = max(
        abs(r["b_thermal_hz_median"] / PAPER_B_THERMAL_HZ - 1.0) for r in sigma2n
    ) if sigma2n else float("inf")
    outcome.check(
        f"median b_th within {B_THERMAL_TOLERANCE:.0%} of {PAPER_B_THERMAL_HZ} Hz",
        worst_b <= B_THERMAL_TOLERANCE,
        f"worst relative error {worst_b:.4f} over {len(sigma2n)} campaigns",
    )
    worst_r2 = min((r["r_squared_median"] for r in sigma2n), default=0.0)
    outcome.check(
        f"median r^2 >= {MIN_R_SQUARED}",
        worst_r2 >= MIN_R_SQUARED,
        f"lowest {worst_r2:.5f}",
    )
    worst_h = min((r["shannon_d512_mean"] for r in bits), default=0.0)
    outcome.check(
        f"D=512 Shannon entropy >= {MIN_SHANNON_D512}",
        worst_h >= MIN_SHANNON_D512,
        f"lowest {worst_h:.6f} over {len(bits)} campaigns",
    )
    passed, detail = _shard_invariance(data)
    outcome.check("2 processes x 4 shards == serial x 1 (bitwise)", passed, detail)


def _shard_invariance(data: inputs.CampaignInputs) -> Tuple[bool, str]:
    """A reduced spec, sharded on the pool and run serially, must agree bitwise."""
    from repro.engine.distributed import (
        BitCampaignSpec,
        MultiprocessExecutor,
        SerialExecutor,
        Sigma2NCampaignSpec,
        run_campaign,
    )

    specs = (
        Sigma2NCampaignSpec(batch_size=8, n_periods=16_384, seed=data.check_seed),
        BitCampaignSpec(
            batch_size=4, n_bits=512, dividers=(64, 512), seed=data.check_seed
        ),
    )
    differing = []
    for spec in specs:
        sharded = run_campaign(spec, MultiprocessExecutor(max_workers=2), n_shards=4)
        serial = run_campaign(spec, SerialExecutor(), n_shards=1)
        left, right = sharded.table(), serial.table()
        if spec.kind == "sigma2n":
            left["sigma2_s2"], right["sigma2_s2"] = sharded.sigma2_s2, serial.sigma2_s2
        differing += [
            f"{spec.kind}.{name}"
            for name in right
            if not np.array_equal(np.asarray(left[name]), np.asarray(right[name]))
        ]
    if differing:
        return False, f"differing columns {differing}"
    return True, "reduced specs"


def campaign_sharded(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    data = inputs.campaign_inputs(seed)
    if trace:
        plain = _campaign_runs(data, seconds / 2)[0]
        spans_path = _spans_path("campaign")
        runs, rss, setups, firsts = _campaign_runs(
            data, seconds / 2, spans_path=spans_path
        )
    else:
        runs, rss, setups, firsts = _campaign_runs(
            data, seconds, CAMPAIGN_SPARE_SETUPS
        )
    sigma2n, bits = _campaign_ledgers(runs)
    outcome.attempted = sigma2n.attempted + bits.attempted
    outcome.failed = sigma2n.failed + bits.failed
    _latency_metrics(outcome, "request", "sigma2n_campaign", sigma2n)
    _latency_metrics(outcome, "bulk", "bit_campaign", bits)
    done = [pair for pair in runs if not any("error" in reply for reply in pair)]
    sigma2n_wall = sum(s["end"] - s["start"] for s, _ in done)
    bits_wall = sum(b["end"] - b["start"] for _, b in done)
    bits_work = sum(b["work"] for _, b in done)
    per_bit = 1e6 * bits_wall / bits_work if done else float("inf")
    metric = Metric(per_bit, "us", bits_work)
    outcome.end_to_end["us_per_bit"] = metric
    outcome.named["sigma2n_mperiods_per_s"] = Metric(
        sum(s["work"] for s, _ in done) / sigma2n_wall / 1e6 if done else 0.0,
        "Mperiods/s", len(done),
    )
    outcome.named["bitcampaign_kbit_per_s"] = Metric(
        bits_work / bits_wall / 1e3 if done else 0.0, "kbit/s", len(done)
    )
    first_ms = [1e3 * (reply["end"] - reply["start"]) for reply in firsts]
    outcome.named["sigma2n_first_campaign_ms"] = Metric(
        statistics.median(first_ms), "ms", len(first_ms), "median; part of setup_s"
    )
    if trace:
        windows = [
            {"kind": kind, "start": reply["start"], "end": reply["end"],
             "workers": reply["workers"]}
            for pair in done
            for kind, reply in zip(("sigma2n", "bits"), pair)
        ]
        ops = {"sigma2n": len(done), "bits": len(done)}
        overhead = sigma2n.mean_ms() / _campaign_ledgers(plain)[0].mean_ms() - 1.0
        _trace_layers(outcome, spans_path, windows, ops, overhead)
        outcome.layers.update(dict.fromkeys(REGISTRY_LAYERS, 0.0))  # no server
    else:
        _common_metrics(outcome, setups, rss)
    _check_campaign(outcome, runs, firsts, data)
    return outcome


WORKLOADS = {
    "serve-d512": serve_d512,
    "front-door-small": front_door_small,
    "campaign-sharded": campaign_sharded,
}
