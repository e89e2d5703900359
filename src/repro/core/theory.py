"""Theoretical values of ``sigma^2_N``: the Eq. 9 integral and the Eq. 11 closed form.

Equation 9 (derived in the paper's appendix from the Wiener-Khintchine
theorem, assuming ``phi`` is ergodic and wide-sense stationary):

    sigma^2_N = (8 / (pi^2 f0^2)) * integral_0^inf S_phi(f) sin^4(pi f N / f0) df

With the two-coefficient PSD of Eq. 10 the integral evaluates in closed form
(Eq. 11):

    sigma^2_N = (2 b_th / f0^3) N  +  (8 ln2 b_fl / f0^4) N^2.

Both are implemented here; the numerical integral serves as an independent
check of the closed form (``tests/paper/test_theory_consistency.py``) and
supports arbitrary user-supplied phase PSDs beyond the two-coefficient model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ..phase.psd import PhaseNoisePSD
from ..scalars import scalar_like

ArrayLike = Union[float, Sequence[float], np.ndarray]


def sigma2_n_thermal(b_thermal_hz: float, f0_hz: float, n: ArrayLike) -> ArrayLike:
    """Thermal contribution ``sigma^2_N,th = 2 b_th N / f0^3`` (Eq. 11) [s^2]."""
    _validate(b_thermal_hz, f0_hz)
    n_array = _as_n_array(n)
    result = 2.0 * b_thermal_hz * n_array / f0_hz**3
    return _match_shape(result, n)


def sigma2_n_flicker(b_flicker_hz2: float, f0_hz: float, n: ArrayLike) -> ArrayLike:
    """Flicker contribution ``sigma^2_N,fl = 8 ln2 b_fl N^2 / f0^4`` (Eq. 11) [s^2]."""
    _validate(b_flicker_hz2, f0_hz)
    n_array = _as_n_array(n)
    result = 8.0 * np.log(2.0) * b_flicker_hz2 * n_array**2 / f0_hz**4
    return _match_shape(result, n)


def sigma2_n_closed_form(psd: PhaseNoisePSD, f0_hz: float, n: ArrayLike) -> ArrayLike:
    """Total ``sigma^2_N`` of Eq. 11 for a two-coefficient phase PSD [s^2]."""
    n_array = _as_n_array(n)
    result = np.asarray(
        sigma2_n_thermal(psd.b_thermal_hz, f0_hz, n_array)
    ) + np.asarray(sigma2_n_flicker(psd.b_flicker_hz2, f0_hz, n_array))
    return _match_shape(result, n)


def sigma2_n_integral(
    phase_psd: Union[PhaseNoisePSD, Callable[[np.ndarray], np.ndarray]],
    f0_hz: float,
    n: int,
    relative_tolerance: float = 1e-8,
) -> float:
    """Numerically evaluate the Wiener-Khintchine integral of Eq. 9 [s^2].

    The integrand ``S_phi(f) sin^4(pi f N / f0)`` behaves as ``f`` (flicker) or
    ``f^2`` (thermal) near 0 thanks to the ``sin^4`` factor and decays as
    ``1/f^2`` at infinity while oscillating.  The integral is split at
    ``f_split = k * f0 / N`` into a finite oscillatory part (adaptive
    quadrature per half-oscillation) and an analytic tail in which ``sin^4``
    is replaced by its mean value 3/8 (the replacement error decays as the
    tail itself and is far below ``relative_tolerance`` for the default
    split).

    Parameters
    ----------
    phase_psd:
        Either a :class:`PhaseNoisePSD` or any callable ``S_phi(f)`` accepting
        a positive frequency array [rad^2/Hz].
    f0_hz:
        Oscillator nominal frequency [Hz].
    n:
        Accumulation length ``N`` (>= 1).
    relative_tolerance:
        Requested relative accuracy of the quadrature pieces.
    """
    from scipy import integrate

    if f0_hz <= 0.0:
        raise ValueError("f0 must be > 0")
    if n < 1:
        raise ValueError("N must be >= 1")
    psd_callable: Callable[[np.ndarray], np.ndarray]
    if isinstance(phase_psd, PhaseNoisePSD):
        psd_callable = phase_psd
    else:
        psd_callable = phase_psd

    oscillation_period = f0_hz / n  # sin^4(pi f N / f0) has period f0/N in f
    n_oscillations = 200
    f_split = n_oscillations * oscillation_period

    def integrand(frequency: float) -> float:
        return float(
            np.asarray(psd_callable(np.asarray(frequency)))
            * np.sin(np.pi * frequency * n / f0_hz) ** 4
        )

    # Finite part: integrate oscillation by oscillation and sum (the integrand
    # is smooth inside each period of the sin^4 factor).
    finite_part = 0.0
    edges = np.linspace(0.0, f_split, n_oscillations + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        value, _error = integrate.quad(
            integrand,
            left,
            right,
            epsabs=0.0,
            epsrel=relative_tolerance,
            limit=200,
        )
        finite_part += value

    # Tail: replace sin^4 by its average 3/8 and integrate the PSD analytically
    # when possible, numerically otherwise.
    if isinstance(phase_psd, PhaseNoisePSD):
        tail_psd_integral = (
            phase_psd.b_thermal_hz / f_split
            + phase_psd.b_flicker_hz2 / (2.0 * f_split**2)
        )
    else:
        # Truncate the tail of a user-supplied PSD at a frequency high enough
        # for any physically reasonable phase-noise spectrum (which must decay
        # at least as 1/f^2 for the oscillator power to be finite).
        tail_cutoff = f_split * 1e6
        tail_psd_integral, _error = integrate.quad(
            lambda f: float(np.asarray(psd_callable(np.asarray(f)))),
            f_split,
            tail_cutoff,
            epsabs=0.0,
            epsrel=relative_tolerance,
            limit=500,
        )
    tail_part = 0.375 * tail_psd_integral

    prefactor = 8.0 / (np.pi**2 * f0_hz**2)
    return float(prefactor * (finite_part + tail_part))


@dataclass(frozen=True)
class Sigma2NDecomposition:
    """Thermal/flicker decomposition of the theoretical ``sigma^2_N`` at one ``N``."""

    n_accumulations: int
    thermal_s2: float
    flicker_s2: float

    @property
    def total_s2(self) -> float:
        """Total ``sigma^2_N`` [s^2]."""
        return self.thermal_s2 + self.flicker_s2

    @property
    def thermal_fraction(self) -> float:
        """The ratio ``r_N`` = thermal / total (1.0 when there is no noise at all)."""
        total = self.total_s2
        if total == 0.0:
            return 1.0
        return self.thermal_s2 / total


def decompose_sigma2_n(
    psd: PhaseNoisePSD, f0_hz: float, n: int
) -> Sigma2NDecomposition:
    """Closed-form thermal/flicker decomposition of ``sigma^2_N`` at one ``N``."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return Sigma2NDecomposition(
        n_accumulations=int(n),
        thermal_s2=float(sigma2_n_thermal(psd.b_thermal_hz, f0_hz, n)),
        flicker_s2=float(sigma2_n_flicker(psd.b_flicker_hz2, f0_hz, n)),
    )


def crossover_accumulation_length(psd: PhaseNoisePSD, f0_hz: float) -> float:
    """``N`` at which the flicker term of Eq. 11 overtakes the thermal term.

    Setting the two terms equal gives ``N_x = b_th f0 / (4 ln2 b_fl)`` — the
    same constant ``K`` that parameterises the ratio ``r_N = K/(K+N)``.
    Returns ``inf`` when there is no flicker noise.
    """
    if f0_hz <= 0.0:
        raise ValueError("f0 must be > 0")
    if psd.b_flicker_hz2 == 0.0:
        return float("inf")
    return psd.b_thermal_hz * f0_hz / (4.0 * np.log(2.0) * psd.b_flicker_hz2)


def _as_n_array(n: ArrayLike) -> np.ndarray:
    n_array = np.asarray(n, dtype=float)
    if np.any(n_array < 1):
        raise ValueError("all accumulation lengths N must be >= 1")
    return n_array


def _match_shape(result: np.ndarray, original: ArrayLike) -> ArrayLike:
    return scalar_like(result, original)


def _validate(coefficient: float, f0_hz: float) -> None:
    if coefficient < 0.0:
        raise ValueError("phase-noise coefficient must be >= 0")
    if f0_hz <= 0.0:
        raise ValueError("f0 must be > 0")
