"""Workload inputs, generated from the workload seed alone.

Every request seed, arrival time and campaign seed a run uses comes from
here, so the same ``--seed`` replays the same inputs and the program under
test sees nothing but them.  Each workload draws from its own
``SeedSequence([seed, tag])`` stream, so workloads never share inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Requests in one serve-d512 burst, written at once on one connection.
BURST_SIZE = 32
#: Gap after a solo arrival [s]: at least twice the slowest solo request seen
#: on the reference machine (~40-70 ms, 75 ms traced).
SOLO_GAP_S = (0.16, 0.20)
#: Gap after a burst [s]: at least twice the slowest 32-request batch seen on
#: the reference machine (~0.75 s typical, 1.39 s at p90 in slow periods).
BURST_GAP_S = (2.80, 3.20)
#: Share of the schedule's span given to bursts (the rest to solo arrivals).
BURST_TIME_SHARE = 0.6
#: HTTP request seeds generated for front-door-small (more than a run uses).
HTTP_SEEDS = 100_000
#: (σ²_N, bit) campaign seed pairs generated for campaign-sharded.
CAMPAIGN_RUNS = 256

_TAGS = {"serve-d512": 1, "front-door-small": 2, "campaign-sharded": 3}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _TAGS[workload]]))


def _request_seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(value) for value in rng.integers(0, 2**62, size=count)]


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival: a solo request or a burst, due at ``offset_s``."""

    offset_s: float
    kind: str  # "solo" | "burst"
    seeds: Tuple[int, ...]


def serve_schedule(seed: int, seconds: float) -> List[Arrival]:
    """The serve-d512 open-loop schedule spanning about ``seconds``.

    ``BURST_TIME_SHARE`` of the span goes to bursts, the rest to solo
    arrivals; the seed picks
    their order, the gaps and every request seed.  Gaps are long enough for
    the server to be idle when each arrival lands, so latency is service
    time with no backlog.  At least one arrival of each kind is scheduled.
    """
    rng = _rng(seed, "serve-d512")
    n_bursts = max(1, round(BURST_TIME_SHARE * seconds / np.mean(BURST_GAP_S)))
    n_solos = max(1, round((1.0 - BURST_TIME_SHARE) * seconds / np.mean(SOLO_GAP_S)))
    kinds = ["burst"] * n_bursts + ["solo"] * n_solos
    order = rng.permutation(len(kinds))
    arrivals = []
    offset = 0.0
    for index in order:
        kind = kinds[index]
        size = BURST_SIZE if kind == "burst" else 1
        arrivals.append(Arrival(offset, kind, tuple(_request_seeds(rng, size))))
        low, high = BURST_GAP_S if kind == "burst" else SOLO_GAP_S
        offset += float(rng.uniform(low, high))
    return arrivals


@dataclass(frozen=True)
class FrontDoorInputs:
    """Seeds of the front-door-small phases: HTTP one-shots and one session."""

    http_seeds: Tuple[int, ...]
    session_seed: int


def front_door_inputs(seed: int) -> FrontDoorInputs:
    """HTTP request seeds (used in order by the closed loop) and the session seed."""
    rng = _rng(seed, "front-door-small")
    session_seed = _request_seeds(rng, 1)[0]
    return FrontDoorInputs(tuple(_request_seeds(rng, HTTP_SEEDS)), session_seed)


@dataclass(frozen=True)
class CampaignInputs:
    """Seeds of the campaign-sharded runs and of its bitwise shard check."""

    run_seeds: Tuple[Tuple[int, int], ...]  # (sigma2n seed, bit-campaign seed)
    check_seed: int


def campaign_inputs(seed: int) -> CampaignInputs:
    rng = _rng(seed, "campaign-sharded")
    check_seed = _request_seeds(rng, 1)[0]
    seeds = _request_seeds(rng, 2 * CAMPAIGN_RUNS)
    return CampaignInputs(tuple(zip(seeds[0::2], seeds[1::2])), check_seed)
