"""Typed serving requests: what one client asks the batched engine for.

A request is the serving-layer analogue of a campaign spec
(:mod:`repro.engine.distributed.spec`): a frozen dataclass of plain numbers
with **seed closure** — a ``seed`` of ``None`` pins fresh ``SeedSequence``
entropy at construction, so one request instance always describes one
reproducible computation.

Determinism contract
--------------------
Each request derives its engine RNG stream from its *own* seed alone
(:meth:`BitsRequest.generator` is ``spawn_generators(seed, 1)[0]``), never
from its position in a batch.  Because batched engine row ``i`` is
bit-for-bit the scalar instance built from the same per-row generator (the
engine's seeding discipline, proven by ``tests/engine``), a request's result
is **identical whether it is served solo or coalesced** with any other
requests, in any order, under any ``max_batch``.

Coalescing compatibility
------------------------
:meth:`group_key` names the parameters that select *shared* computation —
the single ``BatchedEROTRNG`` configuration for bit requests, the shared
``N`` sweep and record length for sigma^2_N requests.  Requests with equal
group keys can ride in one batched engine call; per-row parameters (a bit
request's ``n_bits``, a sigma^2_N request's noise coefficients) may differ
within a group because the engine handles them row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..engine.batch import spawn_generators
from ..engine.distributed.spec import DEFAULT_B_FLICKER_HZ2, fresh_entropy
from ..engine.rng import resolve_rng_contract
from ..paper import PAPER_B_THERMAL_HZ, PAPER_F0_HZ

GroupKey = Tuple

#: Scheduling classes, most urgent first.  ``interactive`` requests shrink
#: the coalescing window they ride in, ``batch`` requests stretch it (see
#: :class:`repro.serving.coalescer.Coalescer`); the class never changes the
#: served result, only when its engine call is dispatched.
PRIORITIES = ("interactive", "normal", "batch")


def _check_scheduling(request) -> None:
    """Validate the scheduling fields shared by every request kind.

    ``priority`` and ``deadline_ms`` steer *when* a request is dispatched,
    never *what* it computes, so they are deliberately excluded from
    :meth:`group_key` — requests of different classes still coalesce.
    """
    if request.priority not in PRIORITIES:
        raise ValueError(
            f"priority must be one of {PRIORITIES}, got {request.priority!r}"
        )
    if request.deadline_ms is not None:
        deadline = float(request.deadline_ms)
        if not deadline > 0.0:
            raise ValueError(
                f"deadline_ms must be > 0 (or None), got {request.deadline_ms!r}"
            )
        object.__setattr__(request, "deadline_ms", deadline)


def _pin_seed(request) -> None:
    if request.seed is None:
        object.__setattr__(request, "seed", fresh_entropy())
    else:
        object.__setattr__(request, "seed", int(request.seed))
    # Pin the stream contract alongside the seed: a request answered later
    # must derive the same draws it would have at submission time.
    object.__setattr__(
        request, "rng_contract", resolve_rng_contract(request.rng_contract)
    )


def _as_count(request, name: str) -> None:
    """Normalize an integer field, rejecting non-integral values loudly."""
    value = getattr(request, name)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(request, name, int(value))


@dataclass(frozen=True)
class BitsRequest:
    """One client's ask for ``n_bits`` raw TRNG bits from an eRO-TRNG.

    ``divider`` and the design parameters (``f0_hz``, per-oscillator noise
    coefficients, ``frequency_mismatch``) select the shared batched TRNG
    configuration, so they are part of the coalescing group key; ``n_bits``
    is per-row (a coalesced batch generates the group maximum and each row
    is sliced to its own length — a prefix of a streaming bit record does
    not depend on how far past it the record was generated).
    """

    n_bits: int
    divider: int = 512
    seed: Optional[int] = None
    f0_hz: float = PAPER_F0_HZ
    # Per-oscillator coefficients: half of the default pair values, that is
    # half the paper's b_th and half of DEFAULT_B_FLICKER_HZ2 (not the
    # paper's b_fl; see there).
    b_thermal_hz: float = PAPER_B_THERMAL_HZ / 2.0
    b_flicker_hz2: float = DEFAULT_B_FLICKER_HZ2 / 2.0
    frequency_mismatch: float = 1e-3
    #: RNG stream contract (``"spawn"`` | ``"philox"``; ``None`` resolves
    #: and pins the process default at construction).  Changes the served
    #: bits, so it is part of the group key.
    rng_contract: Optional[str] = None
    #: Scheduling class (see :data:`PRIORITIES`); never part of the group key.
    priority: str = "normal"
    #: Latency budget [ms] from submission; expired requests fail fast with
    #: :class:`~repro.serving.queue.DeadlineExceeded` instead of running.
    deadline_ms: Optional[float] = None
    kind: str = field(default="bits", init=False)

    def __post_init__(self) -> None:
        _as_count(self, "n_bits")
        _as_count(self, "divider")
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits!r}")
        if self.divider < 1:
            raise ValueError(f"divider must be >= 1, got {self.divider!r}")
        _check_scheduling(self)
        _pin_seed(self)
        self.configuration()  # validate f0/mismatch eagerly

    def group_key(self) -> GroupKey:
        """Parameters that must match for two requests to share an engine call."""
        return (
            self.kind,
            self.divider,
            float(self.f0_hz),
            float(self.b_thermal_hz),
            float(self.b_flicker_hz2),
            float(self.frequency_mismatch),
            self.rng_contract,
        )

    def generator(self) -> np.random.Generator:
        """This request's engine RNG stream, derived from its seed alone."""
        return spawn_generators(self.seed, 1, rng_contract=self.rng_contract)[0]

    def configuration(self, divider: Optional[int] = None):
        """The :class:`~repro.trng.ero_trng.EROTRNGConfiguration` to serve."""
        from ..phase.psd import PhaseNoisePSD
        from ..trng.ero_trng import EROTRNGConfiguration

        return EROTRNGConfiguration(
            f0_hz=float(self.f0_hz),
            oscillator_psd=PhaseNoisePSD(
                b_thermal_hz=float(self.b_thermal_hz),
                b_flicker_hz2=float(self.b_flicker_hz2),
            ),
            divider=int(self.divider if divider is None else divider),
            frequency_mismatch=float(self.frequency_mismatch),
        )


@dataclass(frozen=True)
class Sigma2NRequest:
    """One client's ask for a sigma^2_N curve (+ Eq. 11 fit) of one oscillator.

    The record length and sweep parameters shape the shared batched campaign
    (one ``N`` sweep per engine call), so they form the group key; the noise
    coefficients are per-row — a coalesced batch may mix technology corners.
    """

    n_periods: int
    seed: Optional[int] = None
    f0_hz: float = PAPER_F0_HZ
    # Relative (oscillator-pair) coefficients, as in Sigma2NCampaignSpec.
    b_thermal_hz: float = PAPER_B_THERMAL_HZ
    b_flicker_hz2: float = DEFAULT_B_FLICKER_HZ2
    n_sweep: Optional[Tuple[int, ...]] = None
    overlapping: bool = True
    min_realizations: int = 8
    #: RNG stream contract (``"spawn"`` | ``"philox"``; ``None`` resolves
    #: and pins the process default at construction).  Changes the served
    #: curve, so it is part of the group key.
    rng_contract: Optional[str] = None
    #: Scheduling class (see :data:`PRIORITIES`); never part of the group key.
    priority: str = "normal"
    #: Latency budget [ms] from submission; expired requests fail fast with
    #: :class:`~repro.serving.queue.DeadlineExceeded` instead of running.
    deadline_ms: Optional[float] = None
    kind: str = field(default="sigma2n", init=False)

    def __post_init__(self) -> None:
        _as_count(self, "n_periods")
        _as_count(self, "min_realizations")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods!r}")
        if self.min_realizations < 1:
            raise ValueError("min_realizations must be >= 1")
        _check_scheduling(self)
        _pin_seed(self)
        if self.n_sweep is not None:
            sweep = tuple(int(n) for n in self.n_sweep)
            if not sweep or min(sweep) < 1:
                raise ValueError("n_sweep must contain integers >= 1")
            object.__setattr__(self, "n_sweep", sweep)

    def group_key(self) -> GroupKey:
        """Parameters that must match for two requests to share an engine call."""
        return (
            self.kind,
            self.n_periods,
            self.n_sweep,
            self.overlapping,
            self.min_realizations,
            self.rng_contract,
        )

    def generator(self) -> np.random.Generator:
        """This request's engine RNG stream, derived from its seed alone."""
        return spawn_generators(self.seed, 1, rng_contract=self.rng_contract)[0]


Request = BitsRequest | Sigma2NRequest


@dataclass(frozen=True)
class BitsResult:
    """Served bits of one :class:`BitsRequest` (``bits`` is 1-D ``int8``)."""

    bits: np.ndarray
    seed: int
    divider: int

    @property
    def n_bits(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class Sigma2NResult:
    """Served curve and fit of one :class:`Sigma2NRequest`."""

    n_values: np.ndarray
    sigma2_s2: np.ndarray
    realization_counts: np.ndarray
    f0_hz: float
    b_thermal_hz: float
    b_flicker_hz2: float
    r_squared: float
    thermal_jitter_std_s: float
    seed: int
