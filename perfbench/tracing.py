"""Spans around the program's layer boundaries, recorded from outside.

No file of the program is changed: :func:`install` replaces public entry
points (module functions and class methods) *in the running process* with
wrappers that record a span and call the original.  Where a layer is only
reachable through an object handed in, a duck-typed proxy is used instead:
each row generator given to the synthesis backend is wrapped so its normal
draws are timed, and campaigns run through :class:`TracingExecutor`, whose
shard function returns its spans with the partial.

A span is ``(id, parent, trace, name, start, end, attrs)``.  Times come from
``time.monotonic`` (one system-wide clock, so spans of the server, the
campaign driver and its pool workers line up with the harness's windows).
Spans of one request or batch share ``trace``, the id of their root span.
Spans stay in memory and are written once, when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ledger import self_time

Span = Tuple[int, Optional[int], int, str, float, float, Optional[dict]]
Samples = Dict[str, List[Tuple[float, float]]]

#: The tracer of this process, set by :func:`install` (pool workers find it
#: here, because the shard function is pickled by reference).
_ACTIVE: Optional["Tracer"] = None

#: ``(module, class or None, attribute, span name)`` of each plain wrapper.
#: A function imported by name into another module is wrapped there too.
WRAPPED = (
    ("engine.rng", None, "derive_row_streams", "rng.derive"),
    ("engine.batch", None, "derive_row_streams", "rng.derive"),
    ("engine.rng", "PhiloxRowStream", "block_generator", "rng.derive"),
    ("engine.batch", "BatchedJitterSynthesizer", "periods", "synth.assemble"),
    ("engine.batch", "BatchedJitterSynthesizer", "jitter", "synth.assemble"),
    ("engine.batch", "BatchedJitterSynthesizer", "decompose", "synth.assemble"),
    ("engine.bits", "BatchedEROTRNG", "__init__", "bits.construct"),
    ("engine.bits", "BatchedDFlipFlopSampler", "sample", "bits.sample"),
    ("engine.distributed.worker", None, "batched_sigma2_n_sweep", "sigma_n.estimate"),
    (
        "engine.distributed.worker",
        None,
        "streaming_sigma2_n_estimator",
        "sigma_n.estimate",
    ),
    ("engine.distributed.merge", None, "_fit_sweep_arrays", "fit.eq11"),
    ("engine.campaign", None, "fit_sigma2_n_curves", "fit.eq11"),
    ("trng.entropy", None, "bit_bias", "entropy.eval"),
    ("trng.entropy", None, "shannon_entropy_per_bit", "entropy.eval"),
    ("trng.entropy", None, "min_entropy_per_bit", "entropy.eval"),
    ("trng.entropy", None, "markov_entropy_rate", "entropy.eval"),
    ("ais31.procedure_a", None, "procedure_a", "entropy.eval"),
    ("ais31.procedure_a", None, "rows_passed", "entropy.eval"),
    ("ais31.procedure_b", None, "procedure_b", "entropy.eval"),
    ("engine.distributed.runner", None, "merge_sigma2n_partials", "dist.merge"),
    ("engine.distributed.runner", None, "merge_bit_partials", "dist.merge"),
    ("serving.service", None, "execute_batch", "serve.execute"),
    ("serving.server", None, "parse_request_payload", "wire.decode"),
    ("serving.server", None, "build_request", "wire.decode"),
    ("serving.http.gateway", None, "build_request", "wire.decode"),
    ("serving.server", None, "result_to_payload", "wire.encode"),
    ("serving.http.gateway", None, "bits_to_string", "wire.encode"),
    ("serving.http.gateway", None, "render_response", "http.frame"),
    ("serving.http.gateway", None, "render_websocket_handshake", "http.frame"),
    ("serving.http.gateway", None, "encode_ws_frame", "http.frame"),
    ("serving.http.wire", None, "_unmask", "http.frame"),
    ("serving.http.sessions", "StreamSession", "read", "session.read"),
)


class Tracer:
    """In-memory span recorder with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Span groups recorded by other processes (one per pool-worker task).
        self.foreign: List[List[Span]] = []
        #: Timestamped samples, e.g. the pickled size of each shard partial.
        self.samples: Samples = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []
        self.foreign = []
        self.samples = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        measure: Optional[Callable[..., dict]] = None,
    ) -> Callable:
        """``function`` recording a nested span per call.

        ``measure(args, kwargs, result)`` may return counts to attach.
        Only for synchronous functions: the parent stack is per thread, and
        a coroutine would interleave with others on the event loop.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            trace = parent[1] if parent else span_id
            stack.append((span_id, trace))
            start = time.monotonic()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                attrs = measure(args, kwargs, result) if measure else None
                parent_id = parent[0] if parent else None
                self.spans.append((span_id, parent_id, trace, name, start, end, attrs))

        return traced

    def wrap_async(self, name: str, function: Callable) -> Callable:
        """A coroutine function recording a flat span (no parent, no children)."""

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            start = time.monotonic()
            try:
                return await function(*args, **kwargs)
            finally:
                span_id = next(self._ids)
                end = time.monotonic()
                self.spans.append((span_id, None, span_id, name, start, end, None))

        return traced

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append((time.monotonic(), float(value)))

    def dump(self, path: str) -> None:
        payload = {"groups": [self.spans] + self.foreign, "samples": self.samples}
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _DrawProxy:
    """A row generator whose ``standard_normal`` draws are timed and counted."""

    def __init__(self, inner, traced_draw) -> None:
        self._inner = inner
        self._traced_draw = traced_draw

    def standard_normal(self, *args, **kwargs):
        return self._traced_draw(self._inner, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TracedJson:
    """Stand-in for a serving module's ``json``: decode and encode are timed."""

    def __init__(self, tracer: Tracer) -> None:
        self.JSONDecodeError = json.JSONDecodeError
        self.loads = tracer.wrap("wire.decode", json.loads)
        self.dumps = tracer.wrap(
            "wire.encode", json.dumps, lambda a, k, r: {"bytes": len(r or "")}
        )


def _module(name: str):
    # import_module, not "import a.b as c": a package may export a function
    # under its submodule's name (repro.ais31 exports procedure_a).
    return importlib.import_module("repro." + name)


def install() -> Tracer:
    """Wrap every layer boundary of the program in this process (idempotent).

    Queue waits and batch sizes are not wrapped: the service records them in
    its own metrics registry, which the harness reads after the timed phase.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    tracer = _ACTIVE = Tracer()
    for module_name, class_name, attribute, span in WRAPPED:
        owner = _module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attribute, tracer.wrap(span, getattr(owner, attribute)))

    # synth: the backend's row generators are proxied so draws are timed.
    def draw(generator, *args, **kwargs):
        return generator.standard_normal(*args, **kwargs)

    traced_draw = tracer.wrap(
        "synth.draw", draw, lambda a, k, r: {"samples": int(getattr(r, "size", 1))}
    )
    backend = _module("engine.backends.numpy_backend").NumpyBackend
    synthesize = backend.synthesize

    def proxied_synthesize(self, n_periods, rngs, *args, **kwargs):
        proxies = [_DrawProxy(generator, traced_draw) for generator in rngs]
        return synthesize(self, n_periods, proxies, *args, **kwargs)

    backend.synthesize = tracer.wrap("synth.shape", proxied_synthesize)

    # wire: the serving modules' JSON; http: header and body parsing.
    traced_json = _TracedJson(tracer)
    for module_name in ("serving.server", "serving.http.gateway"):
        _module(module_name).json = traced_json
    http_wire = _module("serving.http.wire")
    for name in ("_read_headers", "_read_body"):
        traced = tracer.wrap_async("http.frame", getattr(http_wire, name))
        setattr(http_wire, name, traced)
    return tracer


def _traced_call(function, task):
    """Pool-worker side of :class:`TracingExecutor`: run, return the spans."""
    tracer = install()
    tracer.reset()
    partial = tracer.wrap("dist.shard", function)(task)
    size = len(pickle.dumps(partial, protocol=pickle.HIGHEST_PROTOCOL))
    return partial, tracer.spans, size


class TracingExecutor:
    """Duck-typed executor: the inner executor runs each shard traced.

    ``run_campaign`` calls ``executor.run(run_shard, tasks)``; this sends
    ``_traced_call`` instead, whose result carries the worker's spans and
    the pickled size of the partial, and hands ``run_campaign`` the partial
    alone.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def run(self, function, tasks):
        call = functools.partial(_traced_call, function)
        for position, (partial, spans, size) in self.inner.run(call, tasks):
            self.tracer.foreign.append(spans)
            self.tracer.sample("dist.partial_bytes", size)
            yield position, partial


# -- aggregation ---------------------------------------------------------------


#: Layer metrics that sum the *self* time of one span name [ms per op].
SELF_MS = {
    "rng.derive_ms": "rng.derive",
    "synth.draw_ms": "synth.draw",
    "synth.shape_ms": "synth.shape",
    "synth.assemble_ms": "synth.assemble",
    "bits.construct_ms": "bits.construct",
    "bits.sample_ms": "bits.sample",
    "sigma_n.estimate_ms": "sigma_n.estimate",
    "fit.eq11_ms": "fit.eq11",
    "entropy.eval_ms": "entropy.eval",
    "dist.merge_ms": "dist.merge",
    "wire.decode_ms": "wire.decode",
    "wire.encode_ms": "wire.encode",
    "http.frame_ms": "http.frame",
    "session.read_ms": "session.read",
}
#: Layer metrics that sum whole span durations [ms per op]: busy time.
TOTAL_MS = {"serve.execute_ms": "serve.execute", "dist.shard_ms": "dist.shard"}
#: Layer metrics that count spans [per op].
CALLS = {
    "rng.derive_calls": "rng.derive",
    "synth.calls": "synth.shape",
    "bits.construct_calls": "bits.construct",
    "dist.shards": "dist.shard",
    "serve.batches": "serve.execute",
}
#: Span names whose self time is synthesis (draws, shaping, assembly).
SYNTHESIS = ("synth.draw", "synth.shape", "synth.assemble")


def self_times(spans: Sequence[Span]) -> List[Tuple[Span, float]]:
    """Every span with its self time (children are spans of the same group)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    return [
        (span, self_time(span[4], span[5], children.get(span[0], ())))
        for span in spans
    ]


def _kind_at(windows: Sequence[dict], moment: float) -> Optional[str]:
    for window in windows:
        if window["start"] <= moment <= window["end"]:
            return window["kind"]
    return None


def _has_ancestor(span: Span, by_id: Dict[int, Span], name: str) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] == name:
            return True
        parent = by_id.get(parent[1])
    return False


def layer_metrics(
    groups: Sequence[Sequence[Span]],
    samples: Samples,
    windows: Sequence[dict],
    ops: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of a traced run, normalized per operation.

    ``windows`` are the harness's timed intervals, each ``{"kind", "start",
    "end"}`` (plus ``"workers"`` for campaign runs), and ``ops`` the
    operations completed per kind.  Spans and samples outside every window
    (set-up, checks) are ignored.  A time or count is summed per
    kind and divided by that kind's operations, then the kinds are added:
    on front-door-small one "op" is one HTTP request plus one session read,
    on campaign-sharded one σ²_N campaign plus one bit campaign, on
    serve-d512 one request.
    """
    kinds = sorted({window["kind"] for window in windows})
    raw: Dict[str, Dict[str, float]] = {kind: defaultdict(float) for kind in kinds}
    synthesis_in_execute = 0.0
    for spans in groups:
        by_id = {span[0]: span for span in spans}
        for span, own in self_times(spans):
            kind = _kind_at(windows, span[4])
            if kind is None:
                continue
            sums = raw[kind]
            name = span[3]
            sums["self:" + name] += own
            sums["total:" + name] += span[5] - span[4]
            sums["calls:" + name] += 1
            for key, value in (span[6] or {}).items():
                sums[f"{key}:{name}"] += value
            parent = by_id.get(span[1])
            if name == "synth.assemble" and parent and parent[3] == "bits.sample":
                sums["bits.blocks"] += 1
            if name in SYNTHESIS and _has_ancestor(span, by_id, "serve.execute"):
                synthesis_in_execute += own
    for window in windows:
        if "workers" in window:
            capacity = window["workers"] * (window["end"] - window["start"])
            raw[window["kind"]]["capacity:dist"] += capacity
    for name, values in samples.items():
        for moment, value in values:
            kind = _kind_at(windows, moment)
            if kind is not None:
                raw[kind]["sample:" + name] += value

    def per_op(key: str, scale: float = 1.0) -> float:
        return sum(scale * raw[k].get(key, 0.0) / max(ops[k], 1) for k in kinds)

    metrics = {key: per_op("self:" + name, 1e3) for key, name in SELF_MS.items()}
    metrics.update({key: per_op("total:" + n, 1e3) for key, n in TOTAL_MS.items()})
    metrics.update({key: per_op("calls:" + n) for key, n in CALLS.items()})
    metrics["synth.samples"] = per_op("samples:synth.draw")
    metrics["bits.blocks"] = per_op("bits.blocks")
    metrics["wire.bytes"] = per_op("bytes:wire.encode")
    metrics["dist.partial_bytes"] = per_op("sample:dist.partial_bytes")
    metrics["dist.idle_ms"] = per_op("capacity:dist", 1e3) - metrics["dist.shard_ms"]
    execute = sum(raw[kind].get("total:serve.execute", 0.0) for kind in kinds)
    share = synthesis_in_execute / execute if execute else 0.0
    metrics["serve.synthesis_share"] = share
    return metrics


def load_spans(path: str) -> Tuple[List[List[Span]], Samples]:
    """Read a :meth:`Tracer.dump` file back as ``(groups, samples)``."""
    with open(path) as handle:
        payload = json.load(handle)
    groups = [[tuple(span) for span in group] for group in payload["groups"]]
    samples = {
        name: [tuple(item) for item in values]
        for name, values in payload["samples"].items()
    }
    return groups, samples
