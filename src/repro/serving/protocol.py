"""Versioned JSON wire envelopes of the TRNG serving layer.

One envelope schema is shared by **every** edge — the JSON-lines TCP and
stdio servers, the fabric worker links, and the HTTP/WebSocket gateway
(:mod:`repro.serving.http`, where the same object travels as a request
body instead of a line)::

    -> {"v": 1, "id": 1, "kind": "bits", "n_bits": 64, "divider": 512,
        "seed": 7}
    <- {"v": 1, "id": 1, "ok": true, "result": {"kind": "bits",
        "bits": "0110...", "n_bits": 64, "divider": 512, "seed": 7}}

    -> {"id": 2, "kind": "sigma2n", "n_periods": 16384, "seed": 11}
    <- {"v": 1, "id": 2, "ok": true, "result": {"kind": "sigma2n",
        "n_values": [...], "sigma2_s2": [...], "b_thermal_hz": ..., ...}}

    -> {"id": 3, "kind": "stats"}        # service counters
    -> {"id": 4, "kind": "ping"}         # liveness
    -> {"id": 5, "kind": "metrics"}      # registry snapshot (JSON)
    -> {"id": 6, "kind": "metrics", "format": "prometheus"}

``v`` is the protocol version (:data:`PROTOCOL_VERSION`); a request without
one is treated as version 1 (every pre-versioning client), and an unknown
version is rejected with a structured error (``code:
"unsupported_version"``) without touching the rest of the payload.  ``id``
is echoed verbatim so clients may pipeline requests on one connection; it
is optional (``null`` when omitted).  Errors come back as ``{"v": 1,
"id": ..., "ok": false, "error": "...", "code": "..."}`` — a malformed
line never kills the connection, and ``code`` is a stable
machine-matchable token (the HTTP gateway maps it onto status codes).
Bits travel as a compact ``"0"``/``"1"`` string.
"""

from __future__ import annotations

import base64
import io
import json
from typing import Dict, Optional, Tuple

import numpy as np

from .requests import BitsRequest, BitsResult, Request, Sigma2NRequest, Sigma2NResult

#: Version of the wire envelope this build speaks.  Bump only on an
#: incompatible envelope change; additive fields do not need a bump.
PROTOCOL_VERSION = 1

#: Stable error codes carried in the ``code`` field of error envelopes.
ERROR_CODES = (
    "bad_request",
    "unsupported_version",
    "worker_only",
    "overloaded",
    "deadline_exceeded",
    "stopped",
    "not_found",
    "session_expired",
    "internal",
)

#: Wire fields accepted per request kind (everything else is rejected).
#: ``priority`` and ``deadline_ms`` are scheduling fields: they steer the
#: coalescer, never the result, and are accepted on every public kind.
_REQUEST_FIELDS = {
    "bits": (
        "n_bits",
        "divider",
        "seed",
        "f0_hz",
        "b_thermal_hz",
        "b_flicker_hz2",
        "frequency_mismatch",
        "rng_contract",
        "priority",
        "deadline_ms",
    ),
    "sigma2n": (
        "n_periods",
        "seed",
        "f0_hz",
        "b_thermal_hz",
        "b_flicker_hz2",
        "n_sweep",
        "overlapping",
        "min_realizations",
        "rng_contract",
        "priority",
        "deadline_ms",
    ),
    # Fabric (worker-only) kind: a campaign shard assignment from a
    # coordinator.  The public serving front door rejects it — only
    # ``python -m repro.worker`` executes it.  ``trace`` is the optional
    # span-propagation envelope ({"trace_id", "parent_span_id"}, see
    # :mod:`repro.obs.trace`): workers parent their execution spans under it
    # and ship the recorded spans back in the reply's ``spans`` field,
    # producing one merged cross-host tree.
    "shard": ("spec", "index", "start", "stop", "trace"),
    # Observability scrape: a JSON metrics snapshot by default, Prometheus
    # text exposition with {"format": "prometheus"}.
    "metrics": ("format",),
}

_REQUEST_CLASSES = {"bits": BitsRequest, "sigma2n": Sigma2NRequest}

#: Kinds only a fabric worker executes; the serving server refuses them.
WORKER_ONLY_KINDS = ("shard", "shutdown")

#: Kinds that carry no fields at all.
_BARE_KINDS = ("stats", "ping", "shutdown")


class ProtocolError(ValueError):
    """A syntactically or semantically invalid protocol message.

    Carries the offending message's ``id`` when it could be extracted, so
    error responses still reach the right pipelined request, and a stable
    ``code`` token (one of :data:`ERROR_CODES`) that the HTTP gateway maps
    onto status codes.
    """

    def __init__(
        self, message: str, request_id=None, code: str = "bad_request"
    ) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.code = code


def bits_to_string(bits: np.ndarray) -> str:
    """Compact ``"0"``/``"1"`` wire form of a 1-D bit array.

    Vectorized (serialization runs on the event-loop thread, so a large
    request must not stall every other connection's coalescing window).
    """
    levels = (np.asarray(bits).ravel() != 0).astype(np.uint8)
    return (levels + ord("0")).tobytes().decode("ascii")


def string_to_bits(text: str) -> np.ndarray:
    """Decode :func:`bits_to_string` output back to an ``int8`` array."""
    if not set(text) <= {"0", "1"}:
        raise ProtocolError("bit strings may only contain '0' and '1'")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(
        np.int8
    ) - ord("0")


def parse_request_line(line: str) -> Tuple[Optional[object], str, Dict]:
    """Split one wire line into ``(id, kind, fields)``.

    ``kind`` is one of ``"bits"``, ``"sigma2n"``, ``"stats"``, ``"ping"``.
    Raises :class:`ProtocolError` on anything malformed.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error}") from None
    return parse_request_payload(payload)


def parse_request_payload(payload) -> Tuple[Optional[object], str, Dict]:
    """Split one decoded request envelope into ``(id, kind, fields)``.

    The dict form of :func:`parse_request_line` — the HTTP gateway calls
    this directly with a parsed request body, so TCP lines and HTTP bodies
    go through the identical envelope validation (version check included).
    The input dict is not mutated.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("each request envelope must be a JSON object")
    payload = dict(payload)
    request_id = payload.pop("id", None)
    version = payload.pop("v", PROTOCOL_VERSION)
    if version is not True and version is not False and isinstance(version, int):
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version} "
                f"(this server speaks version {PROTOCOL_VERSION})",
                request_id=request_id,
                code="unsupported_version",
            )
    else:
        raise ProtocolError(
            f"protocol version must be an integer, got {version!r}",
            request_id=request_id,
            code="unsupported_version",
        )
    kind = payload.pop("kind", None)
    if kind in _BARE_KINDS:
        if payload:
            raise ProtocolError(
                f"unexpected fields for {kind!r}: {sorted(payload)}",
                request_id=request_id,
            )
        return request_id, kind, {}
    if kind not in _REQUEST_FIELDS:
        raise ProtocolError(
            f"unknown request kind {kind!r} "
            f"(expected one of: bits, sigma2n, stats, metrics, ping)",
            request_id=request_id,
        )
    unknown = sorted(set(payload) - set(_REQUEST_FIELDS[kind]))
    if unknown:
        raise ProtocolError(
            f"unknown fields for {kind!r}: {unknown}", request_id=request_id
        )
    return request_id, kind, payload


def build_request(kind: str, fields: Dict, default_seed=None) -> Request:
    """Construct the typed request; invalid values become protocol errors.

    ``default_seed`` (a callable returning an int) supplies the seed of
    requests that arrive without one — the server wires its ``--seed``
    stream in here so unseeded traffic is still reproducible.
    """
    fields = dict(fields)
    if fields.get("seed") is None and default_seed is not None:
        fields["seed"] = default_seed()
    try:
        if fields.get("n_sweep") is not None:
            fields["n_sweep"] = tuple(fields["n_sweep"])
        return _REQUEST_CLASSES[kind](**fields)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid {kind} request: {error}") from None


def result_to_payload(result) -> Dict:
    """Plain-JSON form of a served result."""
    if isinstance(result, BitsResult):
        return {
            "kind": "bits",
            "bits": bits_to_string(result.bits),
            "n_bits": result.n_bits,
            "divider": result.divider,
            "seed": result.seed,
        }
    if isinstance(result, Sigma2NResult):
        return {
            "kind": "sigma2n",
            "n_values": np.asarray(result.n_values).tolist(),
            "sigma2_s2": np.asarray(result.sigma2_s2).tolist(),
            "realization_counts": np.asarray(result.realization_counts).tolist(),
            "f0_hz": result.f0_hz,
            "b_thermal_hz": result.b_thermal_hz,
            "b_flicker_hz2": result.b_flicker_hz2,
            "r_squared": result.r_squared,
            "thermal_jitter_std_s": result.thermal_jitter_std_s,
            "seed": result.seed,
        }
    raise TypeError(f"cannot serialize result of type {type(result)!r}")


def encode_partial(partial: Dict[str, np.ndarray]) -> str:
    """Base64-``.npz`` wire form of a shard partial (lossless, compact).

    The ``.npz`` container is the same format the checkpoint layer persists,
    so everything a shard can produce — including streaming-estimator state —
    round-trips bit-for-bit through the fabric protocol.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **partial)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_partial(text: str) -> Dict[str, np.ndarray]:
    """Decode :func:`encode_partial` output back into a partial payload."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as error:
        raise ProtocolError(f"invalid partial encoding: {error}") from None
    with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
        return {name: archive[name].copy() for name in archive.files}


def response_envelope(request_id, result_payload: Dict) -> Dict:
    """Success response envelope (shared by every edge)."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result_payload,
    }


def error_envelope(request_id, message: str, code: str = "bad_request") -> Dict:
    """Error response envelope with a stable machine-matchable ``code``."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": message,
        "code": code,
    }


def response_line(request_id, result_payload: Dict) -> str:
    """Success response wire line (newline-terminated)."""
    return json.dumps(response_envelope(request_id, result_payload)) + "\n"


def error_line(request_id, message: str, code: str = "bad_request") -> str:
    """Error response wire line (newline-terminated)."""
    return json.dumps(error_envelope(request_id, message, code)) + "\n"
