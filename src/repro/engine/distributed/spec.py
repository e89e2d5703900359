"""Serializable campaign specifications: everything a worker needs to run.

A *spec* is the declarative form of one batched campaign: plain numbers and
tuples only, so it pickles across process boundaries and round-trips through
the JSON checkpoint manifest.  The crucial property is **seed closure**: the
spec pins the root seed at construction time (drawing fresh
``SeedSequence`` entropy when none is given), and every shard re-derives its
per-row RNG streams by slicing the root spawn tree
(:func:`repro.engine.batch.spawn_generators`).  Row ``i`` therefore consumes
the same stream whether the campaign runs unsharded, in 7 shards, or across
4 processes — which is what makes sharded output bit-for-bit identical to
the unsharded batched path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ...paper import PAPER_B_THERMAL_HZ, PAPER_F0_HZ
from ..backends import validate_backend_spec
from ..batch import BatchedOscillatorEnsemble, spawn_generators
from ..rng import resolve_rng_contract

ParamLike = Union[float, Tuple[float, ...]]

#: Flicker coefficient of the README/benchmark reference design [Hz^2]
#: (the relative, i.e. oscillator-pair, value; halve it per oscillator).
DEFAULT_B_FLICKER_HZ2 = 5.42


def fresh_entropy() -> int:
    """Root entropy for specs/requests constructed without an explicit seed.

    Pinning fresh ``SeedSequence`` entropy at construction time is what makes
    one spec (or one serving request) describe one reproducible computation:
    the recorded seed replays it exactly, sharded or coalesced.
    """
    return int(np.random.SeedSequence().entropy)


def _as_param(value, batch_size: int, name: str) -> ParamLike:
    """Normalize a spec parameter to a float or a length-``B`` float tuple."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        return float(array)
    if array.ndim == 1 and array.size == int(batch_size):
        return tuple(float(item) for item in array)
    raise ValueError(
        f"{name} must be a scalar or a length-{batch_size} sequence, "
        f"got shape {array.shape}"
    )


def _slice_param(value: ParamLike, start: int, stop: int):
    """Row range of a normalized parameter (scalars broadcast unchanged)."""
    if isinstance(value, tuple):
        return np.array(value[start:stop])
    return value


def _normalized_rows(spec, start: Optional[int], stop: Optional[int]):
    start = 0 if start is None else int(start)
    stop = spec.batch_size if stop is None else int(stop)
    if not 0 <= start < stop <= spec.batch_size:
        raise ValueError(
            f"rows must satisfy 0 <= start < stop <= {spec.batch_size}, "
            f"got [{start}, {stop})"
        )
    return start, stop


@dataclass(frozen=True)
class Sigma2NCampaignSpec:
    """Declarative form of one :func:`batched_sigma2_n_campaign` run.

    ``f0_hz`` / ``b_thermal_hz`` / ``b_flicker_hz2`` may be scalars (shared)
    or length-``batch_size`` sequences (a heterogeneous corner sweep).  A
    ``seed`` of ``None`` pins fresh root entropy at construction, so one spec
    instance always describes one reproducible campaign.

    ``backend`` is a synthesis-backend *spec string* (``"numpy"`` |
    ``"threaded[:N]"`` | ``"auto[:N]"``; ``None`` defers to the worker's
    default, its share of the host's cores), stored as a string so every
    shard re-creates the backend host-side.  Backends are bit-for-bit
    equivalent, so the field selects execution speed only — results, shard
    invariance and ``--verify`` are unaffected.

    ``rng_contract`` pins the *stream* contract (``"spawn"`` | ``"philox"``;
    see :mod:`repro.engine.rng`), resolved once at construction from the
    explicit value, the backend spec (``philox[:N]`` implies ``"philox"``)
    or the process environment.  Unlike the backend, the contract **does**
    change the drawn numbers, so shards re-derive streams under the pinned
    value regardless of their own environment, and merges refuse partials
    whose contracts disagree.
    """

    batch_size: int
    n_periods: int
    f0_hz: ParamLike = PAPER_F0_HZ
    b_thermal_hz: ParamLike = PAPER_B_THERMAL_HZ
    b_flicker_hz2: ParamLike = DEFAULT_B_FLICKER_HZ2
    seed: Optional[int] = None
    n_sweep: Optional[Tuple[int, ...]] = None
    overlapping: bool = True
    min_realizations: int = 8
    chunk_periods: Optional[int] = None
    fit: bool = True
    weighted: bool = True
    exact: bool = False
    flicker_method: str = "spectral"
    backend: Optional[str] = None
    rng_contract: Optional[str] = None
    kind: str = field(default="sigma2n", init=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods!r}")
        if self.chunk_periods is not None:
            if self.chunk_periods < 1:
                raise ValueError("chunk_periods must be >= 1")
            if self.exact:
                raise ValueError(
                    "exact=True is incompatible with chunk_periods (the "
                    "streaming estimator uses the fused reduction)"
                )
        for name in ("f0_hz", "b_thermal_hz", "b_flicker_hz2"):
            object.__setattr__(
                self, name, _as_param(getattr(self, name), self.batch_size, name)
            )
        if self.seed is None:
            object.__setattr__(self, "seed", fresh_entropy())
        else:
            object.__setattr__(self, "seed", int(self.seed))
        if self.n_sweep is not None:
            sweep = tuple(int(n) for n in self.n_sweep)
            if not sweep or min(sweep) < 1:
                raise ValueError("n_sweep must contain integers >= 1")
            object.__setattr__(self, "n_sweep", sweep)
        object.__setattr__(self, "backend", validate_backend_spec(self.backend))
        object.__setattr__(
            self,
            "rng_contract",
            resolve_rng_contract(self.rng_contract, backend_spec=self.backend),
        )

    def row_generators(
        self, start: Optional[int] = None, stop: Optional[int] = None
    ) -> List[np.random.Generator]:
        """Per-row RNG streams ``start..stop-1``, sliced from the root tree."""
        start, stop = _normalized_rows(self, start, stop)
        return spawn_generators(
            self.seed, self.batch_size, rng_contract=self.rng_contract
        )[start:stop]

    def ensemble(
        self, start: Optional[int] = None, stop: Optional[int] = None
    ) -> BatchedOscillatorEnsemble:
        """The (sliced) oscillator ensemble this spec describes.

        Row ``i`` of ``ensemble(start, stop)`` owns the same spawned stream
        as row ``start + i`` of ``ensemble()`` — the shard-invariance root.
        """
        start, stop = _normalized_rows(self, start, stop)
        return BatchedOscillatorEnsemble.from_phase_noise(
            _slice_param(self.f0_hz, start, stop),
            _slice_param(self.b_thermal_hz, start, stop),
            _slice_param(self.b_flicker_hz2, start, stop),
            batch_size=stop - start,
            rngs=self.row_generators(start, stop),
            flicker_method=self.flicker_method,
            backend=self.backend,
            name=f"spec[{start}:{stop}]",
        )


@dataclass(frozen=True)
class BitCampaignSpec:
    """Declarative form of one :func:`batched_bit_campaign` run.

    ``backend`` is a synthesis-backend spec string (see
    :class:`Sigma2NCampaignSpec`): a pure execution-speed selection that
    shards re-create host-side; the generated bits are backend-independent.
    ``rng_contract`` pins the stream contract exactly as there — that one
    *does* change the bits, so it is part of the campaign's identity.
    """

    batch_size: int
    n_bits: int
    dividers: Tuple[int, ...]
    f0_hz: float = PAPER_F0_HZ
    # Per-oscillator coefficients: half of the paper's relative (pair) values.
    b_thermal_hz: float = PAPER_B_THERMAL_HZ / 2.0
    b_flicker_hz2: float = DEFAULT_B_FLICKER_HZ2 / 2.0
    frequency_mismatch: float = 1e-3
    seed: Optional[int] = None
    run_procedure_a: bool = False
    include_t0: bool = False
    run_procedure_b: bool = False
    min_entropy_block_size: int = 8
    backend: Optional[str] = None
    rng_contract: Optional[str] = None
    kind: str = field(default="bits", init=False)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits!r}")
        dividers = tuple(int(d) for d in self.dividers)
        if not dividers or min(dividers) < 1:
            raise ValueError("dividers must contain integers >= 1")
        object.__setattr__(self, "dividers", dividers)
        if self.seed is None:
            object.__setattr__(self, "seed", fresh_entropy())
        else:
            object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "backend", validate_backend_spec(self.backend))
        object.__setattr__(
            self,
            "rng_contract",
            resolve_rng_contract(self.rng_contract, backend_spec=self.backend),
        )
        self.configuration()  # validate f0/mismatch eagerly

    def configuration(self, divider: Optional[int] = None):
        """The eRO-TRNG configuration (``divider`` defaults to the first)."""
        from ...trng.ero_trng import EROTRNGConfiguration
        from ...phase.psd import PhaseNoisePSD

        return EROTRNGConfiguration(
            f0_hz=float(self.f0_hz),
            oscillator_psd=PhaseNoisePSD(
                b_thermal_hz=float(self.b_thermal_hz),
                b_flicker_hz2=float(self.b_flicker_hz2),
            ),
            divider=int(self.dividers[0] if divider is None else divider),
            frequency_mismatch=float(self.frequency_mismatch),
        )


CampaignSpec = Union[Sigma2NCampaignSpec, BitCampaignSpec]

_SPEC_KINDS = {"sigma2n": Sigma2NCampaignSpec, "bits": BitCampaignSpec}


def spec_to_json(spec: CampaignSpec) -> Dict:
    """Plain-JSON form of a spec (tuples become lists; round-trips exactly)."""
    payload = asdict(spec)
    return payload


def spec_from_json(payload: Dict) -> CampaignSpec:
    """Rebuild a spec from :func:`spec_to_json` output.

    Manifests written before the stream-contract field existed carry no
    ``rng_contract`` key; they were all spawn-tree campaigns, so the field
    defaults to ``"spawn"`` here (NOT to the process environment — an old
    checkpoint must keep meaning what it meant when written).
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown campaign spec kind: {kind!r}")
    data.setdefault("rng_contract", "spawn")
    for name in ("f0_hz", "b_thermal_hz", "b_flicker_hz2"):
        if isinstance(data.get(name), list):
            data[name] = tuple(data[name])
    for name in ("n_sweep", "dividers"):
        if isinstance(data.get(name), list):
            data[name] = tuple(data[name])
    return _SPEC_KINDS[kind](**data)
