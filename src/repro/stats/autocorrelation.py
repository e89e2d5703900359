"""Autocorrelation estimation and portmanteau (Ljung-Box) independence tests.

The paper's central claim is about *dependence between jitter realizations*.
Besides the accumulated-variance argument (Bienayme / ``sigma^2_N``), the most
direct statistical check is the sample autocorrelation function of the jitter
series and a portmanteau test of joint nullity of its first lags.  These tools
are used by ``repro.core.independence`` and by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation ``rho(0..max_lag)`` of a 1-D series.

    The biased estimator (normalisation by ``n`` rather than ``n - lag``) is
    the standard choice for portmanteau tests; ``rho(0)`` is always 1.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if max_lag >= n:
        raise ValueError(f"max_lag ({max_lag}) must be < series length ({n})")
    centred = x - x.mean()
    variance = np.dot(centred, centred) / n
    if variance == 0.0:
        raise ValueError("series has zero variance; autocorrelation undefined")
    result = np.empty(max_lag + 1)
    result[0] = 1.0
    for lag in range(1, max_lag + 1):
        result[lag] = np.dot(centred[:-lag], centred[lag:]) / n / variance
    return result


@dataclass(frozen=True)
class LjungBoxResult:
    """Outcome of a Ljung-Box portmanteau test."""

    statistic: float
    p_value: float
    lags: int

    def independent_at(self, significance: float = 0.01) -> bool:
        """True when the null hypothesis "no autocorrelation" is *not* rejected."""
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must be in (0, 1)")
        return self.p_value >= significance


def ljung_box_test(series: np.ndarray, lags: int = 20) -> LjungBoxResult:
    """Ljung-Box test of the null hypothesis "the first ``lags`` autocorrelations are 0".

    A small p-value is evidence that the series is serially dependent — which
    is exactly what the paper predicts for ring-oscillator jitter once flicker
    noise is non-negligible.
    """
    from scipy import stats

    x = np.asarray(series, dtype=float)
    n = x.size
    if lags < 1:
        raise ValueError("lags must be >= 1")
    if n <= lags + 1:
        raise ValueError("series too short for the requested number of lags")
    rho = autocorrelation(x, lags)[1:]
    denominators = n - np.arange(1, lags + 1)
    statistic = float(n * (n + 2) * np.sum(rho**2 / denominators))
    p_value = float(stats.chi2.sf(statistic, df=lags))
    return LjungBoxResult(statistic=statistic, p_value=p_value, lags=lags)


def lag_scatter(series: np.ndarray, lag: int = 1) -> np.ndarray:
    """Pairs ``(x_i, x_{i+lag})`` as an ``(n-lag, 2)`` array, for lag plots."""
    x = np.asarray(series, dtype=float)
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if x.size <= lag:
        raise ValueError("series too short for the requested lag")
    return np.column_stack([x[:-lag], x[lag:]])


def first_lag_correlation_test(
    series: np.ndarray, significance: float = 0.01
) -> LjungBoxResult:
    """Test of the single lag-1 autocorrelation (normal approximation).

    Returns a :class:`LjungBoxResult` for interface uniformity; the statistic
    is ``sqrt(n) * rho(1)`` which is asymptotically standard normal under
    independence.
    """
    from scipy import stats

    x = np.asarray(series, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three samples")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    rho1 = autocorrelation(x, 1)[1]
    statistic = float(np.sqrt(x.size) * rho1)
    p_value = float(2.0 * stats.norm.sf(abs(statistic)))
    return LjungBoxResult(statistic=statistic, p_value=p_value, lags=1)
