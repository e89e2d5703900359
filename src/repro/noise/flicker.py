"""Flicker (1/f) noise of a MOS transistor and 1/f time-series generators.

Section III-A of the paper gives the flicker-noise drain-current PSD as

    S_ids,fl(f) = alpha * k * T * I_D^2 / (W * L^2 * f)

where ``alpha`` is a technology constant, ``I_D`` the nominal drain current,
``W`` the transistor width (the paper calls it the section) and ``L`` the
channel length.  Flicker noise is *autocorrelated*; it is the physical origin
of the ``b_fl/f^3`` term of the phase-noise PSD and therefore of the mutual
dependence of jitter realizations demonstrated by the paper.

Besides the PSD, this module provides three independent generators of 1/f
noise sample paths (spectral synthesis, a cascade of first-order AR sections,
and Hosking's fractional-differencing recursion).  Having several generators
lets the test-suite cross-validate them against each other and against the
target PSD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..constants import BOLTZMANN_K, DEFAULT_TEMPERATURE_K
from ..scalars import scalar_like

#: The 1/f generator methods :func:`generate_pink_noise` implements.  Callers
#: that accept a ``flicker_method`` parameter validate against this tuple
#: eagerly instead of failing deep inside the first synthesis call.
FLICKER_METHODS = ("spectral", "ar", "hosking")


def flicker_current_psd(
    frequency_hz: np.ndarray | float,
    drain_current_a: float,
    width_m: float,
    length_m: float,
    alpha: float,
    temperature_k: float = DEFAULT_TEMPERATURE_K,
) -> np.ndarray | float:
    """One-sided flicker drain-current PSD [A^2/Hz] (paper Sec. III-A).

    ``S(f) = alpha * k * T * I_D^2 / (W * L^2 * f)``.

    Parameters
    ----------
    frequency_hz:
        Fourier frequency (scalar or array) [Hz]; must be > 0.
    drain_current_a:
        Nominal drain-source current ``I_D`` [A].
    width_m, length_m:
        Transistor width ``W`` and channel length ``L`` [m].
    alpha:
        Dimensionless technology constant tied to the silicon crystallography.
    temperature_k:
        Absolute temperature [K].
    """
    if drain_current_a < 0.0:
        raise ValueError(f"drain current must be >= 0, got {drain_current_a!r}")
    if width_m <= 0.0 or length_m <= 0.0:
        raise ValueError(
            f"W and L must be > 0, got W={width_m!r}, L={length_m!r}"
        )
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be > 0 K, got {temperature_k!r}")
    frequency = np.asarray(frequency_hz, dtype=float)
    if np.any(frequency <= 0.0):
        raise ValueError("flicker PSD is only defined for f > 0")
    coefficient = (
        alpha
        * BOLTZMANN_K
        * temperature_k
        * drain_current_a**2
        / (width_m * length_m**2)
    )
    return scalar_like(coefficient / frequency, frequency_hz)


def flicker_corner_frequency(
    flicker_coefficient_a2: float, thermal_psd_a2_per_hz: float
) -> float:
    """Frequency at which the flicker PSD equals the thermal PSD [Hz].

    ``flicker_coefficient_a2`` is the numerator of the 1/f law (i.e. the PSD
    multiplied by ``f``).  The corner is ``coefficient / thermal_psd``; it is
    the standard figure of merit for how "flicker-dominated" a device is.
    """
    if flicker_coefficient_a2 < 0.0:
        raise ValueError("flicker coefficient must be >= 0")
    if thermal_psd_a2_per_hz <= 0.0:
        raise ValueError("thermal PSD must be > 0")
    return flicker_coefficient_a2 / thermal_psd_a2_per_hz


@dataclass(frozen=True)
class FlickerNoiseSource:
    """1/f drain-current noise source characterised by ``S(f) = coefficient/f``.

    ``coefficient_a2`` has units A^2 (it is an A^2/Hz PSD multiplied by a
    frequency).
    """

    coefficient_a2: float

    def __post_init__(self) -> None:
        if self.coefficient_a2 < 0.0:
            raise ValueError(
                f"coefficient must be >= 0, got {self.coefficient_a2!r}"
            )

    @classmethod
    def from_device(
        cls,
        drain_current_a: float,
        width_m: float,
        length_m: float,
        alpha: float,
        temperature_k: float = DEFAULT_TEMPERATURE_K,
    ) -> "FlickerNoiseSource":
        """Build the source from device parameters (paper Sec. III-A)."""
        coefficient = flicker_current_psd(
            1.0, drain_current_a, width_m, length_m, alpha, temperature_k
        )
        return cls(float(coefficient))

    def psd(self, frequency_hz: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``S(f) = coefficient / f`` [A^2/Hz]."""
        frequency = np.asarray(frequency_hz, dtype=float)
        if np.any(frequency <= 0.0):
            raise ValueError("flicker PSD is only defined for f > 0")
        return scalar_like(self.coefficient_a2 / frequency, frequency_hz)

    def sample(
        self,
        n_samples: int,
        sampling_rate_hz: float,
        rng: Optional[np.random.Generator] = None,
        method: str = "spectral",
    ) -> np.ndarray:
        """Draw a 1/f-noise current sample path [A] with this source's PSD.

        ``sampling_rate_hz`` must be > 0 but does **not** scale the
        amplitude: a discrete sequence with unit-coefficient 1/f PSD in
        cycles/sample, re-interpreted at rate ``fs``, has one-sided PSD
        ``(1/(f/fs))/fs = 1/f`` in real frequency — the ``fs`` factors
        cancel because a 1/f spectrum is scale free.  Only
        ``sqrt(coefficient_a2)`` scales the amplitude.
        """
        if sampling_rate_hz <= 0.0:
            raise ValueError(
                f"sampling rate must be > 0 Hz, got {sampling_rate_hz!r}"
            )
        pink = generate_pink_noise(n_samples, rng=rng, method=method)
        return np.sqrt(self.coefficient_a2) * pink


def generate_pink_noise(
    n_samples: int,
    rng: Optional[np.random.Generator] = None,
    method: str = "spectral",
) -> np.ndarray:
    """Generate a 1/f ("pink") noise sequence with one-sided PSD ``1/f``.

    The returned sequence, interpreted as samples taken at 1 Hz, has a
    one-sided PSD approximately equal to ``1/f`` over the resolvable band
    ``[1/n_samples, 0.5]`` (in cycles/sample).  Because a 1/f spectrum is
    scale-free, the same sequence is valid at any sampling rate.

    Parameters
    ----------
    n_samples:
        Number of samples to produce.
    rng:
        Optional :class:`numpy.random.Generator` for reproducibility.
    method:
        ``"spectral"`` (FFT shaping), ``"ar"`` (cascade of first-order
        low-pass sections, Corsini-Saletti style) or ``"hosking"``
        (fractional differencing with d = 0.5).
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples!r}")
    if n_samples == 0:
        return np.empty(0)
    rng = np.random.default_rng() if rng is None else rng
    if method == "spectral":
        return _pink_spectral(n_samples, rng)
    if method == "ar":
        return _pink_ar_cascade(n_samples, rng)
    if method == "hosking":
        return _pink_hosking(n_samples, rng)
    raise ValueError(
        f"unknown pink-noise method {method!r}: choose one of "
        f"{', '.join(FLICKER_METHODS)}"
    )


def _spectral_fft_length(n_samples: int) -> int:
    """FFT buffer length of the spectral method (oversized 2x to decorrelate
    the circular wrap-around)."""
    return int(2 ** np.ceil(np.log2(max(n_samples * 2, 16))))


def spectral_scaling_table(n_fft: int) -> np.ndarray:
    """The ``1/sqrt(f)`` rFFT amplitude-shaping table of the spectral method.

    Depends only on ``n_fft`` (hence only on ``n_samples``), which makes it a
    natural member of a precomputed :class:`~repro.engine.backends.plan.\
SynthesisPlan`; :func:`_pink_spectral_shape` recomputes it inline when no
    table is supplied, so the cached and uncached paths share this single
    definition.
    """
    freqs = np.fft.rfftfreq(n_fft, d=1.0)
    scaling = np.ones_like(freqs)
    nonzero = freqs > 0
    scaling[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    scaling[0] = 0.0  # remove the DC component: 1/f noise has no defined mean.
    return scaling


def _pink_spectral_shape(
    white: np.ndarray,
    n_samples: int,
    scaling: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    workspace=None,
) -> np.ndarray:
    """Shape white noise (last axis = time, length ``n_fft``) to a 1/f PSD.

    ``scaling``, when given, must be ``spectral_scaling_table(n_fft)`` for the
    matching FFT length (precomputed by the synthesis-plan cache); ``None``
    computes it inline.  Both paths multiply the identical table, so the
    results are bit-for-bit equal.  ``out``, when given, receives the
    ``(..., n_samples)`` result (and is returned).  ``workspace``, when
    given, is the synthesis kernel's
    :class:`~repro.engine.backends.kernel.Workspace` and ``white`` is
    consumed: the spectrum goes to the workspace's ``"spectrum"`` buffer and
    the inverse FFT overwrites ``white``, whose values are dead once
    transformed.  Neither changes a value; without a workspace ``white`` is
    left intact and both FFT outputs are fresh arrays.
    """
    n_fft = white.shape[-1]
    spectrum = shaped = None
    if workspace is not None:
        rows = white.shape[:-1]
        spectrum = workspace.empty("spectrum", rows + (n_fft // 2 + 1,), complex)
        shaped = white
    spectrum = np.fft.rfft(white, axis=-1, out=spectrum)
    if scaling is None:
        scaling = spectral_scaling_table(n_fft)
    elif scaling.shape != (n_fft // 2 + 1,):
        raise ValueError(
            f"scaling table has shape {scaling.shape}, expected "
            f"{(n_fft // 2 + 1,)} for n_fft={n_fft}"
        )
    spectrum *= scaling
    shaped = np.fft.irfft(spectrum, n=n_fft, axis=-1, out=shaped)
    # White noise of unit variance has one-sided PSD 2/fs = 2 (fs = 1), so the
    # shaped sequence has PSD 2/f; divide the amplitude by sqrt(2) to obtain
    # a one-sided PSD of exactly 1/f.
    return np.divide(shaped[..., :n_samples], np.sqrt(2.0), out=out)


def _pink_spectral(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """FFT spectral-synthesis pink noise (exact 1/f shaping of white noise)."""
    n_fft = _spectral_fft_length(n_samples)
    white = rng.normal(0.0, 1.0, size=n_fft)
    return _pink_spectral_shape(white, n_samples)


@dataclass(frozen=True)
class ArCascadeTables:
    """RNG-independent setup of the AR-cascade 1/f generator for one ``n``.

    ``corners`` are the log-spaced Lorentzian corner frequencies,
    ``poles = exp(-2*pi*corner)`` the matching one-pole coefficients,
    ``weights = sqrt(corner)`` the per-section output weights, and
    ``target_variance = ln(f_high/f_low)`` the empirical normalisation
    target.  All four depend only on ``n_samples`` (and the section density),
    never on the random stream, so they can be computed once per group key
    and shared across every row and session synthesising that length.
    """

    corners: np.ndarray
    poles: np.ndarray
    weights: np.ndarray
    target_variance: float


def ar_cascade_tables(
    n_samples: int, sections_per_decade: float = 1.5
) -> ArCascadeTables:
    """Build the corner/pole/weight tables used by :func:`_pink_ar_cascade`."""
    f_high = 0.5
    f_low = max(1.0 / (4.0 * n_samples), 1e-12)
    n_decades = np.log10(f_high / f_low)
    n_sections = max(int(np.ceil(n_decades * sections_per_decade)), 3)
    corners = np.logspace(np.log10(f_low), np.log10(f_high), n_sections)
    return ArCascadeTables(
        corners=corners,
        poles=np.exp(-2.0 * np.pi * corners),
        weights=np.sqrt(corners),
        target_variance=float(np.log(f_high / f_low)),
    )


def _pink_ar_cascade(
    n_samples: int,
    rng: np.random.Generator,
    sections_per_decade: float = 1.5,
    tables: Optional[ArCascadeTables] = None,
) -> np.ndarray:
    """Pink noise as a sum of first-order AR (Lorentzian) processes.

    A 1/f spectrum over ``[f_low, f_high]`` can be approximated by summing
    Lorentzians whose corner frequencies are log-uniformly spaced; this is the
    classical Corsini-Saletti / Voss construction and also mirrors the
    physical McWhorter picture of flicker noise as a superposition of
    carrier-trapping processes with a wide distribution of time constants.

    ``tables``, when given, must be ``ar_cascade_tables(n_samples,
    sections_per_decade)`` (precomputed by the synthesis-plan cache); ``None``
    computes the identical tables inline, so both paths are bit-for-bit equal.
    """
    if tables is None:
        tables = ar_cascade_tables(n_samples, sections_per_decade)
    output = np.zeros(n_samples)
    for section_index in range(len(tables.corners)):
        pole = tables.poles[section_index]
        drive = rng.normal(0.0, 1.0, size=n_samples)
        section = np.empty(n_samples)
        state = drive[0] / np.sqrt(max(1.0 - pole**2, 1e-12))
        for index in range(n_samples):
            state = pole * state + drive[index]
            section[index] = state
        # Each Lorentzian contributes PSD ~ 1/(1 + (f/corner)^2); weight so the
        # log-spaced sum approximates 1/f.
        output += section * tables.weights[section_index]
    # Normalise empirically to a unit-coefficient 1/f PSD using the variance
    # relation var = integral of PSD = ln(f_high/f_low) for PSD 1/f.
    current_variance = np.var(output)
    if current_variance > 0.0:
        output *= np.sqrt(tables.target_variance / current_variance)
    return output


def _pink_hosking(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Pink noise via Hosking's ARFIMA(0, d, 0) recursion with d = 0.5.

    Fractionally differenced white noise with d = 0.5 has a spectral density
    proportional to ``|2 sin(pi f)|^(-2d) ~ 1/f`` at low frequency.  The
    recursion is O(n^2) and is therefore reserved for modest lengths (the
    test-suite) rather than bulk generation.
    """
    d = 0.4999  # exactly 0.5 is the non-stationary boundary
    white = rng.normal(0.0, 1.0, size=n_samples)
    output = np.empty(n_samples)
    phi = np.empty(n_samples)
    variance = 1.0
    output[0] = white[0]
    for t in range(1, n_samples):
        phi[t - 1] = d / t
        # Durbin update phi_{t,j} = phi_{t-1,j} - phi_{t,t} * phi_{t-1,t-1-j}
        # on a copy of the previous-order coefficients: updating phi in place
        # while reading phi[t-2-j] consumed already-overwritten values for
        # j > (t-2)/2, corrupting the predictor for every order above 2.
        previous = phi[: t - 1].copy()
        phi[: t - 1] = previous - phi[t - 1] * previous[::-1]
        variance *= 1.0 - phi[t - 1] ** 2
        mean = np.dot(phi[:t], output[t - 1 :: -1][:t])
        output[t] = mean + np.sqrt(max(variance, 0.0)) * white[t]
    # Empirical scaling to a roughly unit-coefficient 1/f PSD.
    scale = np.sqrt(np.log(max(n_samples, 2)) / 2.0)
    std = np.std(output)
    if std > 0.0:
        output = output / std * scale
    return output
