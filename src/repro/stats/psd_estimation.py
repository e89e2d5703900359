"""Power-spectral-density estimation (periodogram / Welch) and fitting helpers.

The Wiener-Khintchine argument of the paper's appendix works with one-sided
PSDs.  This module provides one-sided PSD estimators for sampled noise
records and a small log-log power-law fitter used to check that synthesized
flicker noise really has a ``1/f`` spectrum and that the synthesized phase
noise follows ``b_fl/f^3 + b_th/f^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class PSDEstimate:
    """A one-sided PSD estimate: frequencies [Hz] and PSD values [x^2/Hz]."""

    frequencies_hz: np.ndarray
    psd: np.ndarray

    def __post_init__(self) -> None:
        if self.frequencies_hz.shape != self.psd.shape:
            raise ValueError("frequencies and PSD arrays must have the same shape")

    def restrict(self, f_min_hz: float, f_max_hz: float) -> "PSDEstimate":
        """Restrict the estimate to the band ``[f_min, f_max]``."""
        if f_min_hz >= f_max_hz:
            raise ValueError("f_min must be < f_max")
        mask = (self.frequencies_hz >= f_min_hz) & (self.frequencies_hz <= f_max_hz)
        return PSDEstimate(self.frequencies_hz[mask], self.psd[mask])

    def band_power(self) -> float:
        """Integral of the PSD over the estimated band (trapezoidal rule)."""
        if self.frequencies_hz.size < 2:
            return 0.0
        return float(np.trapezoid(self.psd, self.frequencies_hz))


def periodogram_psd(
    samples: np.ndarray, sampling_rate_hz: float, detrend: str = "constant"
) -> PSDEstimate:
    """One-sided periodogram PSD estimate of a sampled record."""
    from scipy import signal

    _validate_psd_inputs(samples, sampling_rate_hz)
    frequencies, psd = signal.periodogram(
        np.asarray(samples, dtype=float), fs=sampling_rate_hz, detrend=detrend
    )
    return _strip_dc(frequencies, psd)


def welch_psd(
    samples: np.ndarray,
    sampling_rate_hz: float,
    segment_length: Optional[int] = None,
    detrend: str = "constant",
) -> PSDEstimate:
    """One-sided Welch PSD estimate (averaged modified periodograms)."""
    from scipy import signal

    _validate_psd_inputs(samples, sampling_rate_hz)
    samples = np.asarray(samples, dtype=float)
    if segment_length is None:
        segment_length = max(min(samples.size // 8, 4096), 16)
    frequencies, psd = signal.welch(
        samples, fs=sampling_rate_hz, nperseg=min(segment_length, samples.size),
        detrend=detrend,
    )
    return _strip_dc(frequencies, psd)


def fit_power_law(
    estimate: PSDEstimate,
) -> Tuple[float, float]:
    """Fit ``PSD(f) = amplitude * f**exponent`` in log-log space.

    Returns
    -------
    (amplitude, exponent)
        ``amplitude`` is the PSD extrapolated to 1 Hz; ``exponent`` is the
        spectral slope (about ``-1`` for flicker noise, ``0`` for white noise).
    """
    positive = (estimate.frequencies_hz > 0) & (estimate.psd > 0)
    if np.count_nonzero(positive) < 2:
        raise ValueError("need at least two positive PSD points to fit a power law")
    log_f = np.log(estimate.frequencies_hz[positive])
    log_psd = np.log(estimate.psd[positive])
    slope, intercept = np.polyfit(log_f, log_psd, 1)
    return float(np.exp(intercept)), float(slope)


def _strip_dc(frequencies: np.ndarray, psd: np.ndarray) -> PSDEstimate:
    mask = frequencies > 0
    return PSDEstimate(frequencies_hz=frequencies[mask], psd=psd[mask])


def _validate_psd_inputs(samples: np.ndarray, sampling_rate_hz: float) -> None:
    if sampling_rate_hz <= 0.0:
        raise ValueError("sampling rate must be > 0")
    if np.asarray(samples).size < 2:
        raise ValueError("need at least two samples to estimate a PSD")
