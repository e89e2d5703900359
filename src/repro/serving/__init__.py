"""Async serving layer: many small client requests, full engine batches.

The serving subsystem fronts the batched engine (:mod:`repro.engine`) with
an asyncio request pipeline::

    clients -> RequestQueue -> Coalescer -> [one batched engine call]
                                        -> Scatterer -> per-request futures

Many concurrent callers each asking for a few bits (or one sigma^2_N sweep)
are **coalesced** into single ``BatchedEROTRNG.generate_exact`` /
``batched_sigma2_n_campaign`` calls, so the ``(B, n)`` vectorized kernels
run at full batch width even under small-request traffic.  Every request
carries its own seed and derives its engine RNG stream from it alone, so a
request's result is bit-for-bit identical whether it was served solo or
coalesced — the serving-layer form of the engine's shard-invariance
contract.

Run a server with ``python -m repro.serve`` (see :mod:`repro.serve`).
"""

from .coalescer import DEFAULT_CLASS_WAIT_FACTORS, Coalescer
from .config import ServiceConfig
from .http import (
    HTTPGateway,
    SessionManager,
    StreamSession,
    run_http_self_test,
)
from .protocol import ERROR_CODES, PROTOCOL_VERSION, ProtocolError
from .queue import (
    DeadlineExceeded,
    PendingRequest,
    RequestQueue,
    ServiceOverloaded,
    ServiceStopped,
)
from .requests import (
    PRIORITIES,
    BitsRequest,
    BitsResult,
    Sigma2NRequest,
    Sigma2NResult,
)
from .scatter import Scatterer, execute_batch
from .server import TRNGServer, run_self_test, serve_stdio
from .service import ServiceStats, TRNGService

__all__ = [
    "BitsRequest",
    "BitsResult",
    "Coalescer",
    "DEFAULT_CLASS_WAIT_FACTORS",
    "DeadlineExceeded",
    "ERROR_CODES",
    "HTTPGateway",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "PendingRequest",
    "ProtocolError",
    "RequestQueue",
    "Scatterer",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceStats",
    "ServiceStopped",
    "SessionManager",
    "Sigma2NRequest",
    "Sigma2NResult",
    "StreamSession",
    "TRNGServer",
    "TRNGService",
    "execute_batch",
    "run_http_self_test",
    "run_self_test",
    "serve_stdio",
]
