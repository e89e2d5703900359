"""Statistics helpers: the tail rule, self time, failure accounting.

Everything here is pure Python on plain numbers so the rules can be tested
without starting a server or a campaign.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: The tail is the highest percentile with at least this many samples beyond it.
SAMPLES_BEYOND_TAIL = 10


def tail_index(n_samples: int) -> Optional[int]:
    """Index into the ascending samples of the tail value, ``None`` if none.

    Sample ``k`` of ``n`` sorted samples has ``n - 1 - k`` samples beyond it,
    so the highest rank with ten beyond it is ``n - 11``.
    """
    index = n_samples - SAMPLES_BEYOND_TAIL - 1
    return index if index >= 0 else None


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """``(value, label)`` of the tail of ``values``.

    The label names the percentile, e.g. ``"p85.7"`` for 70 samples.  With
    fewer than eleven samples no percentile has ten samples beyond it; the
    maximum is returned then, labelled ``"max"`` so a reader sees that the
    sample does not support a percentile.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    index = tail_index(len(ordered))
    if index is None:
        return ordered[-1], "max"
    return ordered[index], f"p{100.0 * (index + 1) / len(ordered):.1f}"


def union_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Overlapping children (parallel work, or asynchronous children) count
    once: the union of their intervals is subtracted, never their sum.
    """
    return (end - start) - union_length(children, start, end)


class Outcomes:
    """Latencies and failures of one kind of operation.

    A refused or errored operation counts as attempted and failed, and as
    missing every latency limit: it enters the percentiles as an infinite
    latency, so failures can only make the reported numbers worse.
    """

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.failed = 0

    def ok(self, seconds: float) -> None:
        self.latencies_s.append(float(seconds))

    def fail(self) -> None:
        self.failed += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def samples_ms(self) -> List[float]:
        """Every attempt in ms; failed attempts are ``inf``."""
        return [1e3 * value for value in self.latencies_s] + [math.inf] * self.failed

    def p50_ms(self) -> float:
        return statistics.median(self.samples_ms())

    def mean_ms(self) -> float:
        """Mean over completed attempts (failures show in the percentiles)."""
        if not self.latencies_s:
            return math.inf
        return 1e3 * statistics.fmean(self.latencies_s)

    def p90_ms(self) -> float:
        """The 90th percentile (interpolated) over every attempt."""
        samples = self.samples_ms()
        if len(samples) == 1:
            return samples[0]
        return statistics.quantiles(samples, n=10, method="inclusive")[-1]

    def tail_ms(self) -> Tuple[float, str]:
        return tail(self.samples_ms())


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
