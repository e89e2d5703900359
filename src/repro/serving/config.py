"""One frozen configuration object for the whole serving stack.

:class:`ServiceConfig` consolidates the knobs that used to travel as ~10
loose keyword arguments through :class:`~repro.serving.service.TRNGService`,
``python -m repro.serve`` and :func:`~repro.serving.server.run_self_test`:
batching/window limits, queue bound and overflow policy, synthesis backend,
per-priority coalescing windows and the reproducibility seed.
``python -m repro.serve`` builds exactly one ``ServiceConfig`` from its
flags (:meth:`ServiceConfig.from_args`) and every constructor downstream
takes the config object.

The config is a frozen dataclass of plain values (strings, numbers,
tuples), so it is hashable, comparable, and trivially serializable — the
same design as the campaign specs in :mod:`repro.engine.distributed.spec`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from .queue import OVERFLOW_POLICIES
from .requests import PRIORITIES


def _parse_class_wait(text: str) -> Tuple[Tuple[str, float], ...]:
    """Parse ``"interactive=0.5,batch=20"`` into sorted (class, ms) pairs."""
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in PRIORITIES:
            raise ValueError(
                f"unknown priority class {name!r} in class-wait spec "
                f"(expected one of {PRIORITIES})"
            )
        try:
            wait = float(value)
        except ValueError:
            raise ValueError(
                f"invalid wait for class {name!r}: {value!r} (expected ms)"
            ) from None
        pairs.append((name, wait))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of one serving stack, in one frozen value object.

    Attributes
    ----------
    max_batch:
        Most requests one engine call may serve; ``1`` disables coalescing.
    max_wait_ms:
        Base coalescing window of a ``normal``-priority batch leader.  It
        is a cap: a batch dispatches earlier once it is full, or once half
        its window passes with no compatible arrival.
    max_pending:
        Bound of the request queue — the backpressure knob.
    overflow:
        Full-queue policy: ``"reject"`` (load shedding) or ``"wait"``
        (suspend submitters).
    backend:
        Synthesis backend spec string (``"numpy"`` | ``"threaded[:N]"`` |
        ``"auto[:N]"``) or ``None`` for the ``REPRO_BACKEND`` default, else
        ``"auto"``: every core the process may use for calls of at least
        :data:`~repro.engine.backends.AUTO_THRESHOLD` row-samples (a
        coalesced burst threads, a ``B = 1`` solo does not).  Backends are
        bit-for-bit equivalent; the choice selects speed only.
    class_wait_ms:
        Absolute per-priority window overrides as sorted ``(class, ms)``
        pairs (see :class:`~repro.serving.coalescer.Coalescer`); classes not
        named scale ``max_wait_ms`` by the default factors.
    seed:
        Root seed assigned (in arrival order) to unseeded requests; ``None``
        pins fresh entropy per request instead.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_pending: int = 1024
    overflow: str = "reject"
    backend: Optional[str] = None
    class_wait_ms: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_batch", int(self.max_batch))
        object.__setattr__(self, "max_wait_ms", float(self.max_wait_ms))
        object.__setattr__(self, "max_pending", int(self.max_pending))
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.max_wait_ms < 0.0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms!r}"
            )
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending!r}"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {self.overflow!r}"
            )
        if isinstance(self.class_wait_ms, str):
            object.__setattr__(
                self, "class_wait_ms", _parse_class_wait(self.class_wait_ms)
            )
        elif isinstance(self.class_wait_ms, Mapping):
            object.__setattr__(
                self,
                "class_wait_ms",
                tuple(
                    sorted(
                        (str(k), float(v))
                        for k, v in self.class_wait_ms.items()
                    )
                ),
            )
        else:
            object.__setattr__(
                self,
                "class_wait_ms",
                tuple(sorted((str(k), float(v)) for k, v in self.class_wait_ms)),
            )
        for name, wait in self.class_wait_ms:
            if name not in PRIORITIES:
                raise ValueError(
                    f"unknown priority class {name!r} in class_wait_ms "
                    f"(expected a subset of {PRIORITIES})"
                )
            if wait < 0.0:
                raise ValueError(
                    f"class_wait_ms[{name!r}] must be >= 0, got {wait!r}"
                )
        if self.backend is not None and isinstance(self.backend, str):
            from ..engine.backends import validate_backend_spec

            validate_backend_spec(self.backend)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))

    @property
    def class_waits(self) -> Dict[str, float]:
        """``class_wait_ms`` as a plain dict (the coalescer's input form)."""
        return dict(self.class_wait_ms)

    def replace(self, **changes) -> "ServiceConfig":
        """A copy with the named fields changed (frozen-dataclass update)."""
        return replace(self, **changes)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServiceConfig":
        """Build the config from CLI flags (``python -m repro.serve`` et al).

        Reads only the attributes present on ``args``, so argument parsers
        that expose a subset of the knobs still work.
        """
        values = {}
        for spec in fields(cls):
            if hasattr(args, spec.name) and getattr(args, spec.name) is not None:
                values[spec.name] = getattr(args, spec.name)
        return cls(**values)
