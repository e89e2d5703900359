"""Multi-host fabric: coordinator + worker fleets over the serving protocol.

The :class:`~repro.engine.distributed.fabric.coordinator.FabricCoordinator`
drives remote ``python -m repro.worker`` processes as a campaign executor
(shard assignment, heartbeats, retry/reassignment on worker death).  Shards
ride the serving layer's JSON-lines protocol and the engine's seed-closure
discipline, so fabric results are bit-for-bit identical to single-host runs.
"""

from __future__ import annotations

from .connection import (
    WorkerLink,
    WorkerUnavailable,
    connect_workers,
    parse_endpoint,
    spawn_worker,
)
from .coordinator import FabricCoordinator, FabricError
from .telemetry import FabricTelemetry, ShardEvent
from .worker_loop import WorkerServer

__all__ = [
    "FabricCoordinator",
    "FabricError",
    "FabricTelemetry",
    "ShardEvent",
    "WorkerLink",
    "WorkerServer",
    "WorkerUnavailable",
    "connect_workers",
    "parse_endpoint",
    "spawn_worker",
]
