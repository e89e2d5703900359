"""Allan (two-sample) variance and related frequency-stability statistics.

Section III-B of the paper recalls Allan's observation that, in presence of
1/f-type noises, the classical variance of the jitter does not converge and
that a two-sample variance must be used instead.  The paper's own statistic
``s_N`` (Eq. 4) is exactly a non-normalised two-sample difference, and the
appendix links its variance to the Allan variance through

    sigma^2_N = (2 / f0^2) * sigma_y^2(N / f0)          (approximation Eq. 5).

This module implements the standard (non-overlapping and overlapping) Allan
variance estimators on fractional-frequency or period data, plus the
theoretical values for white-FM and flicker-FM noise used by the tests,
``tests/paper/test_allan_link.py`` among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


def fractional_frequency_from_periods(
    periods_s: np.ndarray, nominal_period_s: Optional[float] = None
) -> np.ndarray:
    """Convert a period sequence to fractional frequency deviations ``y_i``.

    ``y_i = (f_i - f0)/f0 = T0/T_i - 1``; for the small jitters relevant here
    this is numerically indistinguishable from ``-(T_i - T0)/T0``.
    """
    periods = np.asarray(periods_s, dtype=float)
    if periods.size == 0:
        return np.empty(0)
    if np.any(periods <= 0.0):
        raise ValueError("periods must be strictly positive")
    nominal = float(np.mean(periods)) if nominal_period_s is None else nominal_period_s
    if nominal <= 0.0:
        raise ValueError("nominal period must be > 0")
    return nominal / periods - 1.0


def allan_variance(
    fractional_frequency: np.ndarray,
    averaging_factor: int = 1,
    overlapping: bool = True,
) -> float:
    """Allan variance ``sigma_y^2(tau)`` at ``tau = m * tau0`` from ``y`` samples.

    Parameters
    ----------
    fractional_frequency:
        Equally spaced fractional-frequency samples ``y_i`` (one per period
        for oscillator data, so ``tau0 = 1/f0``).
    averaging_factor:
        ``m``, the number of samples averaged per cluster.
    overlapping:
        Use the overlapping estimator (lower estimator variance) when True.

    Returns
    -------
    float
        The estimated Allan variance (dimensionless, since ``y`` is).
    """
    y = np.asarray(fractional_frequency, dtype=float)
    m = int(averaging_factor)
    if m < 1:
        raise ValueError(f"averaging factor must be >= 1, got {averaging_factor!r}")
    if y.size < 2 * m + (0 if overlapping else 0):
        raise ValueError(
            f"need at least {2 * m} samples for averaging factor {m}, got {y.size}"
        )
    if overlapping:
        # Cluster means via cumulative sums, then all overlapping differences.
        cumulative = np.concatenate(([0.0], np.cumsum(y)))
        cluster_means = (cumulative[m:] - cumulative[:-m]) / m
        differences = cluster_means[m:] - cluster_means[:-m]
    else:
        n_clusters = y.size // m
        clusters = y[: n_clusters * m].reshape(n_clusters, m).mean(axis=1)
        differences = np.diff(clusters)
    if differences.size == 0:
        raise ValueError("not enough data to form a single two-sample difference")
    return float(0.5 * np.mean(differences**2))


def allan_deviation(
    fractional_frequency: np.ndarray,
    averaging_factor: int = 1,
    overlapping: bool = True,
) -> float:
    """Allan deviation ``sigma_y(tau)`` — the square root of the Allan variance."""
    return float(
        np.sqrt(allan_variance(fractional_frequency, averaging_factor, overlapping))
    )


@dataclass(frozen=True)
class AllanVariancePoint:
    """One point of an Allan-variance curve."""

    averaging_factor: int
    tau_s: float
    allan_variance: float


def allan_variance_curve(
    fractional_frequency: np.ndarray,
    tau0_s: float,
    averaging_factors: Optional[Sequence[int]] = None,
    overlapping: bool = True,
) -> List[AllanVariancePoint]:
    """Allan variance over a sweep of averaging factors.

    When ``averaging_factors`` is omitted an octave-spaced sweep covering the
    usable range (up to a quarter of the record length) is used.
    """
    y = np.asarray(fractional_frequency, dtype=float)
    if tau0_s <= 0.0:
        raise ValueError("tau0 must be > 0")
    if averaging_factors is None:
        max_m = max(y.size // 4, 1)
        averaging_factors = octave_spaced_factors(max_m)
    points = []
    for m in averaging_factors:
        if 2 * m > y.size:
            continue
        points.append(
            AllanVariancePoint(
                averaging_factor=int(m),
                tau_s=m * tau0_s,
                allan_variance=allan_variance(y, m, overlapping=overlapping),
            )
        )
    return points


def octave_spaced_factors(max_factor: int) -> List[int]:
    """Powers of two from 1 up to ``max_factor`` inclusive."""
    if max_factor < 1:
        raise ValueError("max_factor must be >= 1")
    factors = []
    m = 1
    while m <= max_factor:
        factors.append(m)
        m *= 2
    return factors


# -- theoretical values -------------------------------------------------------


def allan_variance_white_fm(h0: float, tau_s: float) -> float:
    """Theoretical Allan variance of white frequency noise ``S_y(f) = h0``.

    ``sigma_y^2(tau) = h0 / (2 tau)``.
    """
    if h0 < 0.0:
        raise ValueError("h0 must be >= 0")
    if tau_s <= 0.0:
        raise ValueError("tau must be > 0")
    return h0 / (2.0 * tau_s)


def allan_variance_flicker_fm(h_minus1: float) -> float:
    """Theoretical Allan variance of flicker frequency noise ``S_y(f) = h_{-1}/f``.

    ``sigma_y^2(tau) = 2 ln(2) h_{-1}`` — independent of ``tau``, which is the
    spectral signature exploited by the paper: the flicker contribution to the
    accumulated jitter variance grows as ``N^2`` instead of ``N``.
    """
    if h_minus1 < 0.0:
        raise ValueError("h_{-1} must be >= 0")
    return 2.0 * np.log(2.0) * h_minus1


def sigma2_n_from_allan_variance(allan_variance_value: float, f0_hz: float) -> float:
    """The paper's approximation (Sec. III-B): ``sigma^2_N = 2 sigma_y^2 / f0^2``.

    Note: the exact relation used elsewhere in the library is
    ``Var(s_N) = 2 (N/f0)^2 sigma_y^2(N/f0)``; Eq. 5's approximation absorbs
    the ``N^2`` factor into the definition of the jitter accumulation.  This
    helper implements the formula exactly as printed so callers can compare
    it with the exact relation.
    """
    if f0_hz <= 0.0:
        raise ValueError("f0 must be > 0")
    if allan_variance_value < 0.0:
        raise ValueError("Allan variance must be >= 0")
    return 2.0 * allan_variance_value / f0_hz**2
