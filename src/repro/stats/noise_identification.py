"""Identification of the dominant noise type from variance-vs-accumulation slopes.

The whole argument of the paper rests on reading the *slope* of an
accumulated-variance curve: thermal (white FM) noise makes ``sigma^2_N`` grow
like ``N``, flicker FM like ``N^2`` (and, equivalently, the Allan variance
falls like ``1/tau`` or stays flat).  This module turns that reading into a
reusable diagnostic:

* :func:`local_log_slope` — numerical slope of a curve in log-log coordinates;
* :func:`identify_noise_regions` — split an accumulation sweep into
  white-FM-dominated, transition and flicker-FM-dominated regions;
* :func:`identify_noise_from_allan` — the classical AVAR-slope table
  (white PM/FM, flicker FM, random-walk FM);
* :class:`NoiseRegimeReport` — a summary designers use to choose the region
  over which Eq. 6 (independence) may be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: Canonical sigma^2_N log-log slopes of the two noise types of the paper.
WHITE_FM_SIGMA2N_SLOPE = 1.0
FLICKER_FM_SIGMA2N_SLOPE = 2.0

#: Canonical Allan-variance log-log slopes (sigma_y^2 vs tau).
ALLAN_SLOPES = {
    "white PM": -2.0,
    "flicker PM": -2.0,
    "white FM": -1.0,
    "flicker FM": 0.0,
    "random walk FM": 1.0,
}


def local_log_slope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Centred finite-difference slope of ``log(y)`` versus ``log(x)``.

    Returns one slope per input point (end points use one-sided differences).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x.size < 2:
        raise ValueError("need at least two points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log-log slopes require strictly positive data")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("x must be strictly increasing")
    log_x = np.log(x)
    log_y = np.log(y)
    return np.gradient(log_y, log_x)


@dataclass(frozen=True)
class NoiseRegimeReport:
    """Classification of an accumulated-variance sweep into noise regimes."""

    n_values: np.ndarray
    slopes: np.ndarray
    white_fm_mask: np.ndarray
    flicker_fm_mask: np.ndarray
    transition_mask: np.ndarray
    crossover_estimate: Optional[float]

    @property
    def white_fm_range(self) -> Optional[Tuple[int, int]]:
        """(min N, max N) of the white-FM-dominated region, or None."""
        return _mask_range(self.n_values, self.white_fm_mask)

    @property
    def flicker_fm_range(self) -> Optional[Tuple[int, int]]:
        """(min N, max N) of the flicker-FM-dominated region, or None."""
        return _mask_range(self.n_values, self.flicker_fm_mask)

    @property
    def dominant_regime(self) -> str:
        """Name of the regime covering the larger part of the sweep."""
        white = int(np.count_nonzero(self.white_fm_mask))
        flicker = int(np.count_nonzero(self.flicker_fm_mask))
        if white == 0 and flicker == 0:
            return "transition"
        return "white FM" if white >= flicker else "flicker FM"

    def summary(self) -> str:
        """Human-readable description of the detected regimes."""
        lines = [f"dominant regime: {self.dominant_regime}"]
        if self.white_fm_range is not None:
            low, high = self.white_fm_range
            lines.append(f"white FM (independent jitter) region: N in [{low}, {high}]")
        if self.flicker_fm_range is not None:
            low, high = self.flicker_fm_range
            lines.append(f"flicker FM (dependent jitter) region: N in [{low}, {high}]")
        if self.crossover_estimate is not None:
            lines.append(f"slope-based crossover estimate: N ~ {self.crossover_estimate:.0f}")
        return "\n".join(lines)


def identify_noise_regions(
    n_values: Sequence[int] | np.ndarray,
    sigma2_values: Sequence[float] | np.ndarray,
    slope_tolerance: float = 0.3,
) -> NoiseRegimeReport:
    """Classify each point of a ``sigma^2_N`` sweep by its local log-log slope.

    Points with slope within ``slope_tolerance`` of 1 are labelled white-FM
    (thermal, independent-jitter) dominated; within the tolerance of 2,
    flicker-FM dominated; anything else is transition.  The crossover estimate
    is the ``N`` where the local slope crosses 1.5.
    """
    if not 0.0 < slope_tolerance < 0.5:
        raise ValueError("slope tolerance must be in (0, 0.5)")
    n = np.asarray(n_values, dtype=float)
    sigma2 = np.asarray(sigma2_values, dtype=float)
    slopes = local_log_slope(n, sigma2)
    white_mask = np.abs(slopes - WHITE_FM_SIGMA2N_SLOPE) <= slope_tolerance
    flicker_mask = np.abs(slopes - FLICKER_FM_SIGMA2N_SLOPE) <= slope_tolerance
    transition_mask = ~(white_mask | flicker_mask)

    crossover = None
    mid_slope = 1.5
    crossing = np.nonzero(
        (slopes[:-1] < mid_slope) & (slopes[1:] >= mid_slope)
    )[0]
    if crossing.size > 0:
        index = int(crossing[0])
        # Log-linear interpolation of the crossing abscissa.
        s0, s1 = slopes[index], slopes[index + 1]
        fraction = (mid_slope - s0) / (s1 - s0) if s1 != s0 else 0.5
        log_n = np.log(n[index]) + fraction * (np.log(n[index + 1]) - np.log(n[index]))
        crossover = float(np.exp(log_n))

    return NoiseRegimeReport(
        n_values=n.astype(int),
        slopes=slopes,
        white_fm_mask=white_mask,
        flicker_fm_mask=flicker_mask,
        transition_mask=transition_mask,
        crossover_estimate=crossover,
    )


def identify_noise_from_allan(
    tau_s: Sequence[float] | np.ndarray,
    allan_variance_values: Sequence[float] | np.ndarray,
) -> str:
    """Classify the dominant noise type from the slope of an Allan-variance curve.

    Fits a single log-log slope over the provided points and returns the name
    of the closest canonical noise type (see :data:`ALLAN_SLOPES`).  White PM
    and flicker PM share the -2 slope and are reported as ``"white PM"``.
    """
    tau = np.asarray(tau_s, dtype=float)
    avar = np.asarray(allan_variance_values, dtype=float)
    if tau.size != avar.size:
        raise ValueError("tau and Allan-variance arrays must have the same length")
    if tau.size < 2:
        raise ValueError("need at least two points")
    if np.any(tau <= 0.0) or np.any(avar <= 0.0):
        raise ValueError("tau and Allan variance must be strictly positive")
    slope = float(np.polyfit(np.log(tau), np.log(avar), 1)[0])
    best_name = "white FM"
    best_distance = np.inf
    for name, canonical in ALLAN_SLOPES.items():
        distance = abs(slope - canonical)
        if distance < best_distance:
            best_name = name
            best_distance = distance
    if best_name == "flicker PM":
        best_name = "white PM"
    return best_name


def _mask_range(
    n_values: np.ndarray, mask: np.ndarray
) -> Optional[Tuple[int, int]]:
    if not np.any(mask):
        return None
    selected = n_values[mask]
    return int(selected.min()), int(selected.max())
