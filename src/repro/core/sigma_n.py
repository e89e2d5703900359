"""The accumulated-difference statistic ``s_N`` and its variance ``sigma^2_N``.

Equation 4 of the paper defines, for a jitter process ``J = (J(t_i))_i``,

    s_N(t_i) = sum_{j=0}^{2N-1} a_j * J(t_{i+j}),   a_j = -1 for j < N else +1,

i.e. the duration of the *second* block of ``N`` periods minus the duration of
the *first* block.  Its variance ``sigma^2_N``:

* equals ``2 N sigma^2`` when the ``2N`` jitter realizations are mutually
  independent (Bienayme, Eq. 6) — *linear* in ``N``;
* equals ``(2 b_th/f0^3) N + (8 ln2 b_fl/f0^4) N^2`` for the thermal+flicker
  phase-noise model (Eq. 11) — the quadratic term signals dependence.

This module computes ``s_N`` realizations and estimates ``sigma^2_N`` from
jitter series, period series or counter captures, over sweeps of ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


def accumulation_weights(n_accumulations: int) -> np.ndarray:
    """The weight vector ``(a_j)_{j=0..2N-1}`` of Eq. 4 (first ``N`` are -1)."""
    if n_accumulations < 1:
        raise ValueError(f"N must be >= 1, got {n_accumulations!r}")
    weights = np.ones(2 * n_accumulations)
    weights[:n_accumulations] = -1.0
    return weights


def s_n_realizations(
    jitter_s: np.ndarray, n_accumulations: int, overlapping: bool = True
) -> np.ndarray:
    """All realizations of ``s_N`` obtainable from a jitter record (Eq. 4) [s].

    Parameters
    ----------
    jitter_s:
        Period-jitter series ``J(t_i) = T(t_i) - 1/f0`` [s].  Passing raw
        periods also works: the constant ``1/f0`` offset cancels in ``s_N``
        because the weights sum to zero.  A 2-D ``(B, n)`` array is treated as
        ``B`` independent records (one per batched instance); time is always
        the last axis.
    n_accumulations:
        ``N``, the number of periods in each of the two blocks.
    overlapping:
        When True (default), every starting index ``i`` is used, which yields
        ``record_length - 2N + 1`` (correlated but unbiased) realizations per
        record; when False only disjoint windows (starting at multiples of
        ``2N``) are used.
    """
    jitter = np.asarray(jitter_s, dtype=float)
    n = int(n_accumulations)
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n_accumulations!r}")
    if jitter.ndim not in (1, 2):
        raise ValueError("jitter series must be one- or two-dimensional")
    if jitter.shape[-1] < 2 * n:
        raise ValueError(
            f"need at least 2N = {2 * n} jitter samples, got {jitter.shape[-1]}"
        )
    zero = np.zeros(jitter.shape[:-1] + (1,))
    cumulative = np.concatenate([zero, np.cumsum(jitter, axis=-1)], axis=-1)
    # block sums: sum_{k=i}^{i+N-1} J = cumulative[i+N] - cumulative[i]
    second_block = cumulative[..., 2 * n :] - cumulative[..., n : -n]
    first_block = cumulative[..., n : -n] - cumulative[..., : -2 * n]
    values = second_block - first_block
    if overlapping:
        return values
    return values[..., :: 2 * n]


def sigma2_n_estimate(
    jitter_s: np.ndarray, n_accumulations: int, overlapping: bool = True
) -> "float | np.ndarray":
    """Estimate ``sigma^2_N = Var(s_N)`` from a jitter record [s^2].

    ``s_N`` is a double difference, so its true mean is exactly zero for any
    stationary jitter process *and* for any constant frequency offset between
    the record and the assumed ``f0`` (a linear trend cancels in a second
    difference).  The estimator therefore uses the mean of squares rather than
    the variance about the sample mean: for large ``N`` the overlapping
    realizations are strongly correlated and subtracting their (noisy) sample
    mean would bias the variance low.

    A 2-D ``(B, n)`` input yields a ``(B,)`` array of per-instance estimates;
    a 1-D input yields a float, as before.
    """
    values = s_n_realizations(jitter_s, n_accumulations, overlapping=overlapping)
    if values.shape[-1] < 2:
        raise ValueError("need at least two s_N realizations to estimate a variance")
    result = np.mean(values**2, axis=-1)
    if values.ndim == 1:
        return float(result)
    return result


@dataclass(frozen=True)
class AccumulatedVariancePoint:
    """One point of the ``sigma^2_N`` vs ``N`` curve (one Fig. 7 abscissa)."""

    n_accumulations: int
    sigma2_n_s2: float
    n_realizations: int

    @property
    def normalized(self) -> float:
        """``sigma^2_N`` expressed in periods-squared requires ``f0``; see curve."""
        return self.sigma2_n_s2


@dataclass(frozen=True)
class AccumulatedVarianceCurve:
    """The full ``sigma^2_N`` vs ``N`` curve, i.e. the data behind Fig. 7."""

    points: List[AccumulatedVariancePoint]
    f0_hz: float

    def __post_init__(self) -> None:
        if self.f0_hz <= 0.0:
            raise ValueError("f0 must be > 0")
        if not self.points:
            raise ValueError("a curve needs at least one point")

    @property
    def n_values(self) -> np.ndarray:
        """Array of accumulation lengths ``N``."""
        return np.array([point.n_accumulations for point in self.points])

    @property
    def sigma2_values_s2(self) -> np.ndarray:
        """Array of ``sigma^2_N`` values [s^2]."""
        return np.array([point.sigma2_n_s2 for point in self.points])

    @property
    def normalized_sigma2_values(self) -> np.ndarray:
        """``f0^2 * sigma^2_N`` — the dimensionless ordinate plotted in Fig. 7."""
        return self.sigma2_values_s2 * self.f0_hz**2

    @property
    def realization_counts(self) -> np.ndarray:
        """Number of ``s_N`` realizations behind each point (for weighting)."""
        return np.array([point.n_realizations for point in self.points])


def default_n_sweep(max_n: int, points_per_decade: int = 8) -> List[int]:
    """Log-spaced sweep of accumulation lengths ``N`` from 1 to ``max_n``."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    if max_n == 1:
        return [1]
    n_points = max(int(np.ceil(np.log10(max_n) * points_per_decade)), 2)
    values = np.unique(
        np.round(np.logspace(0.0, np.log10(max_n), n_points)).astype(int)
    )
    return [int(value) for value in values if value >= 1]


def accumulated_variance_curve(
    jitter_s: np.ndarray,
    f0_hz: float,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
) -> AccumulatedVarianceCurve:
    """Estimate ``sigma^2_N`` over a sweep of ``N`` from one jitter record.

    Parameters
    ----------
    jitter_s:
        Period-jitter (or period) series [s].
    f0_hz:
        Nominal oscillator frequency, used for the Fig. 7 normalisation.
    n_sweep:
        Accumulation lengths to evaluate; defaults to a log-spaced sweep up to
        a quarter of the record length.
    overlapping:
        Use overlapping ``s_N`` windows (more realizations per point).
    min_realizations:
        Points that would be estimated from fewer realizations are skipped.
    """
    jitter = np.asarray(jitter_s, dtype=float)
    if f0_hz <= 0.0:
        raise ValueError("f0 must be > 0")
    if n_sweep is None:
        # Cap the sweep so each point keeps a healthy number of *effectively
        # independent* realizations (non-overlapping windows): record/(2N).
        n_sweep = default_n_sweep(max(jitter.size // (2 * min_realizations), 1))
    points = []
    for n in n_sweep:
        n = int(n)
        if 2 * n > jitter.size:
            continue
        values = s_n_realizations(jitter, n, overlapping=overlapping)
        effective_realizations = jitter.size // (2 * n) if overlapping else values.size
        if values.size < 2 or effective_realizations < min_realizations:
            continue
        points.append(
            AccumulatedVariancePoint(
                n_accumulations=n,
                sigma2_n_s2=float(np.mean(values**2)),
                n_realizations=int(values.size),
            )
        )
    if not points:
        raise ValueError("record too short to estimate any sigma^2_N point")
    return AccumulatedVarianceCurve(points=points, f0_hz=f0_hz)


def accumulated_variance_curves(
    jitter_s: np.ndarray,
    f0_hz,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
) -> List[AccumulatedVarianceCurve]:
    """Batched :func:`accumulated_variance_curve`: one curve per record row.

    This is the estimator behind the batched simulation engine
    (:mod:`repro.engine`): each row's cumulative sum is computed once and
    shared by every ``N`` of the sweep, while the scalar function recomputes
    it for every ``N``.  Row ``i`` of the result is numerically identical
    (bit-for-bit) to ``accumulated_variance_curve(jitter_s[i], ...)``: the
    per-``N`` block differences and the mean-of-squares reduction are
    performed with the same operation order as the scalar path.

    Parameters
    ----------
    jitter_s:
        ``(B, n)`` array of per-instance jitter (or period) records [s].  A
        1-D record is treated as ``B = 1``.
    f0_hz:
        Nominal frequency, a scalar (shared) or a length-``B`` array [Hz].
    n_sweep, overlapping, min_realizations:
        As in :func:`accumulated_variance_curve`.  Because every row has the
        same record length, the realization-count skip rule selects the same
        sweep points for every row; all returned curves share their
        ``n_values``.
    """
    n_list, sigma2, counts, f0 = batched_sigma2_n_sweep(
        jitter_s,
        f0_hz,
        n_sweep=n_sweep,
        overlapping=overlapping,
        min_realizations=min_realizations,
    )
    return assemble_variance_curves(n_list, sigma2, counts, f0)


def sum_of_squares(values: np.ndarray) -> float:
    """``sum(values**2)`` of one 1-D row, reduced by itself.

    A row of a ``(B, m)`` einsum is summed in a different order from the same
    row alone once ``m`` outgrows numpy's iterator buffer, so every sweep
    reduces row by row: a row's result then cannot depend on its companions.
    """
    return np.einsum("i,i->", values, values)


def batched_sigma2_n_sweep(
    jitter_s: np.ndarray,
    f0_hz,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
    exact: bool = True,
):
    """Array-form batched sweep: the computational core of the curve builders.

    Returns ``(n_values, sigma2, counts, f0)`` where ``n_values`` is the list
    of retained accumulation lengths (length ``P``), ``sigma2`` the
    ``(B, P)`` per-instance estimates [s^2], ``counts`` the ``(P,)`` array of
    realization counts and ``f0`` the ``(B,)`` frequencies [Hz].  The batched
    engine keeps campaign results in this form (no per-point objects on the
    hot path); :func:`assemble_variance_curves` materializes curve objects.

    Each row is reduced on its own: its cumulative sum goes into one reused
    ``(n + 1,)`` buffer, shared by the whole sweep, and its block differences
    into one reused ``(n,)`` buffer, so the working set is ``O(n)`` whatever
    ``B`` is.  With ``exact=True`` each row is bit-for-bit identical to the
    scalar :func:`accumulated_variance_curve`; ``exact=False`` regroups the
    block differences and reduces them with :func:`sum_of_squares`, which is
    faster and agrees with the exact path to a relative ``~ sqrt(n) * eps``
    (far below 1e-12 for any in-memory record).  A fast-path row equals its
    ``B = 1`` value bit for bit, so neither path depends on the batch, its
    companions or the shard plan.
    """
    jitter = np.asarray(jitter_s, dtype=float)
    if jitter.ndim == 1:
        jitter = jitter[None, :]
    if jitter.ndim != 2:
        raise ValueError("jitter records must form a (B, n) array")
    batch, size = jitter.shape
    f0 = np.asarray(f0_hz, dtype=float)
    if f0.ndim == 0:
        f0 = np.full(batch, float(f0))
    if f0.shape != (batch,):
        raise ValueError(f"f0_hz must be a scalar or shape ({batch},) array")
    if np.any(f0 <= 0.0):
        raise ValueError("f0 must be > 0")
    if n_sweep is None:
        n_sweep = default_n_sweep(max(size // (2 * min_realizations), 1))
    n_list: List[int] = []
    count_list: List[int] = []
    for n in n_sweep:
        n = int(n)
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n!r}")
        if 2 * n > size:
            continue
        n_values = size - 2 * n + 1
        if not overlapping:
            n_values = -(-n_values // (2 * n))
        effective = size // (2 * n) if overlapping else n_values
        if n_values < 2 or effective < min_realizations:
            continue
        n_list.append(n)
        count_list.append(n_values)
    if not n_list:
        raise ValueError("record too short to estimate any sigma^2_N point")
    sigma2 = np.empty((batch, len(n_list)))
    cumulative = np.zeros(size + 1)
    s_n_buffer, first_buffer = np.empty((2, size))
    # Views into the reused buffers, built once for every row: c0, c1 and c2
    # hold the cumulative sums at each kept window's start, middle and end.
    views = []
    for n, m in zip(n_list, count_list):
        step = 1 if overlapping else 2 * n
        c0 = cumulative[: size - 2 * n + 1 : step]
        c1 = cumulative[n : size - n + 1 : step]
        c2 = cumulative[2 * n :: step]
        views.append((c0, c1, c2, s_n_buffer[:m], first_buffer[:m]))
    for row in range(batch):
        np.cumsum(jitter[row], out=cumulative[1:])
        for column, (c0, c1, c2, s_n, first_block) in enumerate(views):
            np.subtract(c2, c1, out=s_n)
            if exact:
                np.subtract(c1, c0, out=first_block)
                np.subtract(s_n, first_block, out=s_n)
                sigma2[row, column] = np.mean(np.square(s_n, out=s_n))
            else:
                np.subtract(s_n, c1, out=s_n)
                np.add(s_n, c0, out=s_n)
                sigma2[row, column] = sum_of_squares(s_n) / s_n.size
    return n_list, sigma2, np.array(count_list), f0


def assemble_variance_curves(
    n_list: Sequence[int],
    sigma2: np.ndarray,
    counts: np.ndarray,
    f0: np.ndarray,
) -> List[AccumulatedVarianceCurve]:
    """Materialize per-row curve objects from array-form sweep results."""
    curves = []
    for row in range(sigma2.shape[0]):
        points = [
            AccumulatedVariancePoint(
                n_accumulations=int(n),
                sigma2_n_s2=float(sigma2[row, column]),
                n_realizations=int(counts[column]),
            )
            for column, n in enumerate(n_list)
        ]
        curves.append(AccumulatedVarianceCurve(points=points, f0_hz=float(f0[row])))
    return curves


def bienayme_prediction(per_period_variance_s2: float, n_accumulations: int) -> float:
    """``sigma^2_N`` predicted by Bienayme's formula under independence (Eq. 6).

    ``sigma^2_N = 2 N sigma^2`` where ``sigma^2`` is the common variance of the
    (assumed independent, stationary) jitter realizations.
    """
    if per_period_variance_s2 < 0.0:
        raise ValueError("variance must be >= 0")
    if n_accumulations < 1:
        raise ValueError("N must be >= 1")
    return 2.0 * n_accumulations * per_period_variance_s2
