"""Batched campaigns: every instance of an ensemble estimated in one pass.

A *campaign* is the paper's central experiment: synthesize a jitter record,
estimate the accumulated variance ``sigma^2_N`` over a sweep of ``N`` and fit
the Eq. 11 model to recover ``b_th``/``b_fl``.  This module runs that
experiment for a whole :class:`repro.engine.batch.BatchedOscillatorEnsemble`
at once — B technology corners, dividers or noise mixes per call — and fits
every instance's curve with one vectorized weighted least-squares pass.

Campaign results are held in array form (``(B, P)`` sigma^2 estimates, one
fitted-coefficient array per column of the results table); the scalar
:class:`~repro.core.sigma_n.AccumulatedVarianceCurve` /
:class:`~repro.core.fitting.Sigma2NFitResult` objects are materialized lazily,
so the hot path never builds per-point Python objects.

The scalar workflow (``RingOscillator`` + ``accumulated_variance_curve`` +
``fit_sigma2_n_curve`` per instance) remains the reference; for a shared seed,
row ``i`` of a campaign consumes the same RNG stream and reproduces it
bit-for-bit with ``exact=True``, or within a relative ``~ sqrt(n) * eps``
(far below 1e-12) with the default fused reduction (see ``tests/engine``).

Bit-level campaigns (:func:`batched_bit_campaign`) run the pipeline one step
further: per-ensemble raw-bit generation at a grid of divider values, with
vectorized bias/entropy estimates and batched AIS31 evaluation — the paper's
entropy-vs-accumulation design-guidance table, produced in one vectorized
pass per divider instead of a ``dividers x instances`` Python loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.fitting import Sigma2NFitResult, fit_sigma2_n_curve
from ..core.sigma_n import (
    AccumulatedVarianceCurve,
    assemble_variance_curves,
    batched_sigma2_n_sweep,
)
from .backends import BackendLike, resolve_backend
from .batch import BatchedOscillatorEnsemble, SeedLike
from .bits import BatchedEROTRNG
from .streaming import streaming_accumulated_variance_curves

_TABLE_COLUMNS = (
    "instance",
    "f0_hz",
    "b_thermal_hz",
    "b_flicker_hz2",
    "thermal_jitter_std_s",
    "thermal_jitter_ratio",
    "r_squared",
    "n_points",
)


def _fit_sweep_arrays(
    n_values: np.ndarray,
    sigma2: np.ndarray,
    counts: np.ndarray,
    f0: np.ndarray,
    weighted: bool = True,
) -> Dict[str, np.ndarray]:
    """Vectorized Eq. 11 fit of ``B`` curves sharing one ``N`` sweep.

    Mirrors :func:`repro.core.fitting.fit_sigma2_n_curve` (weights, active-set
    non-negative refits, weighted r^2) with the 2x2 normal equations solved in
    closed form for every row at once.  Results match the scalar fit of each
    row's curve to machine precision (closed form vs LU solve).
    """
    n = np.asarray(n_values, dtype=float)[None, :]  # (1, P)
    sigma2 = np.asarray(sigma2, dtype=float)  # (B, P)
    if np.any(sigma2 < 0.0):
        raise ValueError("sigma^2_N values must be >= 0")
    if n.shape[1] < 2:
        raise ValueError("need at least two points to fit the two-parameter model")
    if weighted:
        realizations = np.maximum(np.asarray(counts, dtype=float), 1.0)[None, :]
        effective = np.maximum(realizations / (2.0 * n), 1.0)
        positive = sigma2 > 0.0
        if not np.all(np.any(positive, axis=1)):
            raise ValueError(
                "cannot weight a curve whose sigma^2_N values are all zero"
            )
        row_min = np.min(np.where(positive, sigma2, np.inf), axis=1, keepdims=True)
        safe_sigma2 = np.where(positive, sigma2, row_min)
        weights = effective / safe_sigma2**2
    else:
        weights = np.ones_like(sigma2)

    # Weighted normal equations of sigma2 = A n + B n^2, in closed form.
    n2 = n * n
    wn = weights * n
    wn2 = weights * n2
    s11 = np.sum(wn * n, axis=1)
    s12 = np.sum(wn2 * n, axis=1)
    s22 = np.sum(wn2 * n2, axis=1)
    t1 = np.sum(wn * sigma2, axis=1)
    t2 = np.sum(wn2 * sigma2, axis=1)
    det = s11 * s22 - s12**2
    with np.errstate(divide="ignore", invalid="ignore"):
        linear = (s22 * t1 - s12 * t2) / det
        quadratic = (s11 * t2 - s12 * t1) / det
        # Single-term constrained refits (active-set NNLS, as in the scalar fit).
        linear_only = np.maximum(t1 / s11, 0.0)
        quadratic_only = np.maximum(t2 / s22, 0.0)
    unconstrained = (
        np.isfinite(linear)
        & np.isfinite(quadratic)
        & (linear >= 0.0)
        & (quadratic >= 0.0)
    )
    residual_linear = np.sum(
        weights * (sigma2 - linear_only[:, None] * n) ** 2, axis=1
    )
    residual_quadratic = np.sum(
        weights * (sigma2 - quadratic_only[:, None] * n**2) ** 2, axis=1
    )
    prefer_linear = residual_linear <= residual_quadratic
    linear = np.where(
        unconstrained, linear, np.where(prefer_linear, linear_only, 0.0)
    )
    quadratic = np.where(
        unconstrained, quadratic, np.where(prefer_linear, 0.0, quadratic_only)
    )

    prediction = linear[:, None] * n + quadratic[:, None] * n**2
    mean = np.sum(weights * sigma2, axis=1) / np.sum(weights, axis=1)
    total = np.sum(weights * (sigma2 - mean[:, None]) ** 2, axis=1)
    residual = np.sum(weights * (sigma2 - prediction) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_squared = np.where(total == 0.0, 1.0, 1.0 - residual / total)

    b_thermal = np.maximum(linear, 0.0) * f0**3 / 2.0
    b_flicker = np.maximum(quadratic, 0.0) * f0**4 / (8.0 * np.log(2.0))
    thermal_std = np.sqrt(b_thermal / f0**3)
    return {
        "b_thermal_hz": b_thermal,
        "b_flicker_hz2": b_flicker,
        "linear_coefficient": linear,
        "quadratic_coefficient": quadratic,
        "r_squared": r_squared,
        "thermal_jitter_std_s": thermal_std,
        "thermal_jitter_ratio": thermal_std * f0,
    }


def fit_sigma2_n_curves(
    curves: Sequence[AccumulatedVarianceCurve], weighted: bool = True
) -> List[Sigma2NFitResult]:
    """Fit Eq. 11 to many curves in one vectorized pass.

    Curves sharing their ``N`` sweep (as all batched campaign outputs do) are
    fitted together; heterogeneous sweeps fall back to per-curve
    :func:`repro.core.fitting.fit_sigma2_n_curve` calls.  Either way, each
    result matches the scalar fit of the same curve to machine precision.
    """
    curves = list(curves)
    if not curves:
        return []
    n_values = curves[0].n_values
    counts = curves[0].realization_counts
    # The vectorized path broadcasts one weight row, so both the N sweep and
    # the realization counts (record lengths) must match across curves.
    shared_sweep = all(
        np.array_equal(curve.n_values, n_values)
        and np.array_equal(curve.realization_counts, counts)
        for curve in curves[1:]
    )
    if not shared_sweep or n_values.size < 2:
        return [fit_sigma2_n_curve(curve, weighted=weighted) for curve in curves]
    sigma2 = np.stack([curve.sigma2_values_s2 for curve in curves])
    f0 = np.array([curve.f0_hz for curve in curves])
    try:
        fitted = _fit_sweep_arrays(
            n_values, sigma2, counts, f0, weighted=weighted
        )
    except ValueError:
        # Degenerate inputs (e.g. an all-zero row): mirror the scalar errors.
        return [fit_sigma2_n_curve(curve, weighted=weighted) for curve in curves]
    return _assemble_fit_results(n_values.size, f0, fitted)


def _assemble_fit_results(
    n_points: int, f0: np.ndarray, fitted: Dict[str, np.ndarray]
) -> List[Sigma2NFitResult]:
    return [
        Sigma2NFitResult(
            f0_hz=float(f0[row]),
            b_thermal_hz=float(fitted["b_thermal_hz"][row]),
            b_flicker_hz2=float(fitted["b_flicker_hz2"][row]),
            linear_coefficient=float(fitted["linear_coefficient"][row]),
            quadratic_coefficient=float(fitted["quadratic_coefficient"][row]),
            r_squared=float(fitted["r_squared"][row]),
            n_points=int(n_points),
        )
        for row in range(f0.size)
    ]


class BatchedCampaignResult:
    """Per-instance curves and fits of one batched sigma^2_N campaign.

    The estimates live in arrays (``n_values`` ``(P,)``, ``sigma2_s2``
    ``(B, P)``, ``realization_counts`` ``(P,)``, per-column fit arrays);
    :attr:`curves` and :attr:`fits` materialize the scalar result objects on
    first access.
    """

    def __init__(
        self,
        n_values: np.ndarray,
        sigma2_s2: np.ndarray,
        realization_counts: np.ndarray,
        f0_hz: np.ndarray,
        fitted: Optional[Dict[str, np.ndarray]],
    ) -> None:
        self.n_values = np.asarray(n_values)
        self.sigma2_s2 = np.asarray(sigma2_s2)
        self.realization_counts = np.asarray(realization_counts)
        self.f0_hz = np.asarray(f0_hz)
        self._fitted = fitted
        self._curves: Optional[List[AccumulatedVarianceCurve]] = None
        self._fits: Optional[List[Sigma2NFitResult]] = None

    @property
    def batch_size(self) -> int:
        """Number of instances in the campaign."""
        return int(self.sigma2_s2.shape[0])

    def __len__(self) -> int:
        return self.batch_size

    @property
    def curves(self) -> List[AccumulatedVarianceCurve]:
        """Per-instance curve objects (materialized lazily)."""
        if self._curves is None:
            self._curves = assemble_variance_curves(
                [int(n) for n in self.n_values],
                self.sigma2_s2,
                self.realization_counts,
                self.f0_hz,
            )
        return self._curves

    @property
    def fits(self) -> List[Sigma2NFitResult]:
        """Per-instance fit objects (materialized lazily; needs ``fit=True``)."""
        if self._fits is None:
            if self._fitted is None:
                raise ValueError(
                    "campaign was run with fit=False; no fits available"
                )
            self._fits = _assemble_fit_results(
                int(self.n_values.size), self.f0_hz, self._fitted
            )
        return self._fits

    def table(self) -> Dict[str, np.ndarray]:
        """Results table: one column array per fitted quantity."""
        if self._fitted is None:
            raise ValueError("campaign was run with fit=False; no table available")
        table = {
            "instance": np.arange(self.batch_size),
            "f0_hz": self.f0_hz,
            "n_points": np.full(self.batch_size, int(self.n_values.size)),
        }
        for column in (
            "b_thermal_hz",
            "b_flicker_hz2",
            "thermal_jitter_std_s",
            "thermal_jitter_ratio",
            "r_squared",
        ):
            table[column] = self._fitted[column]
        return table

    def format_table(self, max_rows: int = 16) -> str:
        """Human-readable results table (for logs and benchmarks).

        Truncation is always explicit: when more than ``max_rows`` rows exist,
        the table ends with a ``... (+N more rows)`` footer accounting for
        every hidden row.
        """
        table = self.table()
        lines = [" | ".join(f"{name:>20}" for name in _TABLE_COLUMNS)]
        n_rows = self.batch_size
        shown = min(n_rows, max(int(max_rows), 0))
        for row in range(shown):
            cells = []
            for name in _TABLE_COLUMNS:
                value = table[name][row]
                if name in ("instance", "n_points"):
                    cells.append(f"{int(value):>20d}")
                else:
                    cells.append(f"{value:>20.6g}")
            lines.append(" | ".join(cells))
        if shown < n_rows:
            lines.append(f"... (+{n_rows - shown} more rows)")
        return "\n".join(lines)


def _campaign_from_records(
    records: np.ndarray,
    f0_hz,
    n_sweep,
    overlapping: bool,
    min_realizations: int,
    fit: bool,
    weighted: bool,
    exact: bool,
) -> BatchedCampaignResult:
    n_list, sigma2, counts, f0 = batched_sigma2_n_sweep(
        records,
        f0_hz,
        n_sweep=n_sweep,
        overlapping=overlapping,
        min_realizations=min_realizations,
        exact=exact,
    )
    n_values = np.array(n_list)
    fitted = (
        _fit_sweep_arrays(n_values, sigma2, counts, f0, weighted=weighted)
        if fit
        else None
    )
    return BatchedCampaignResult(n_values, sigma2, counts, f0, fitted)


def _campaign_from_curves(
    curves: List[AccumulatedVarianceCurve], fit: bool, weighted: bool
) -> BatchedCampaignResult:
    n_values = curves[0].n_values
    sigma2 = np.stack([curve.sigma2_values_s2 for curve in curves])
    counts = curves[0].realization_counts
    f0 = np.array([curve.f0_hz for curve in curves])
    fitted = (
        _fit_sweep_arrays(n_values, sigma2, counts, f0, weighted=weighted)
        if fit
        else None
    )
    result = BatchedCampaignResult(n_values, sigma2, counts, f0, fitted)
    result._curves = curves
    return result


def batched_sigma2_n_campaign(
    ensemble: BatchedOscillatorEnsemble,
    n_periods: int,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
    chunk_periods: Optional[int] = None,
    fit: bool = True,
    weighted: bool = True,
    exact: bool = False,
    backend: Optional[BackendLike] = None,
) -> BatchedCampaignResult:
    """Run the Fig. 7 experiment for every instance of an ensemble at once.

    Synthesizes ``(B, n_periods)`` jitter records, estimates every instance's
    ``sigma^2_N`` curve with the shared-cumulative-sum vectorized estimator
    and (optionally) fits Eq. 11 to all curves in one pass.

    Parameters
    ----------
    ensemble:
        The oscillators to simulate.
    n_periods:
        Record length per instance.
    chunk_periods:
        When given, the record is synthesized and consumed in chunks of this
        length (O(chunk) memory — see :mod:`repro.engine.streaming`), which is
        how arbitrarily long campaigns are run.
    n_sweep, overlapping, min_realizations, weighted:
        As in the scalar workflow.
    fit:
        Fit Eq. 11 per instance (vectorized); disable to get curves only.
    exact:
        ``True`` reproduces the scalar estimator bit-for-bit; the default
        (``False``) uses the fused reduction, which agrees with the scalar
        path to a relative ``~ sqrt(n_periods) * eps`` (orders of magnitude
        below the 1e-12 equivalence budget).
    backend:
        When given, re-bind the ensemble's synthesis backend for this
        campaign only — the ensemble's previous backend is restored on
        return (see :mod:`repro.engine.backends`).  Backend choice never
        changes the campaign output.
    """
    restore = None
    if backend is not None:
        restore = ensemble.backend
        ensemble.use_backend(backend)
    try:
        if chunk_periods is not None:
            if exact:
                raise ValueError(
                    "exact=True is incompatible with chunk_periods: the "
                    "streaming estimator uses the fused reduction and chunked "
                    "synthesis"
                )
            curves = streaming_accumulated_variance_curves(
                ensemble,
                n_periods,
                chunk_periods,
                n_sweep=n_sweep,
                overlapping=overlapping,
                min_realizations=min_realizations,
            )
            return _campaign_from_curves(curves, fit, weighted)
        records = ensemble.jitter(n_periods)
        return _campaign_from_records(
            records,
            ensemble.f0_hz,
            n_sweep,
            overlapping,
            min_realizations,
            fit,
            weighted,
            exact,
        )
    finally:
        if restore is not None:
            ensemble.use_backend(restore)


class _RelativeJitterSource:
    """Streaming adapter producing the relative period record of two ensembles."""

    def __init__(
        self,
        ensemble_1: BatchedOscillatorEnsemble,
        ensemble_2: BatchedOscillatorEnsemble,
    ) -> None:
        self.ensemble_1 = ensemble_1
        self.ensemble_2 = ensemble_2

    @property
    def batch_size(self) -> int:
        return self.ensemble_1.batch_size

    @property
    def f0_hz(self) -> np.ndarray:
        return self.ensemble_1.f0_hz

    def jitter(self, n_periods: int) -> np.ndarray:
        periods_1 = self.ensemble_1.periods(n_periods)
        periods_2 = self.ensemble_2.periods(n_periods)
        return periods_1 - periods_2 + self.ensemble_1.nominal_period_s[:, None]


def batched_relative_jitter_campaign(
    ensemble_1: BatchedOscillatorEnsemble,
    ensemble_2: BatchedOscillatorEnsemble,
    n_periods: int,
    n_sweep: Optional[Sequence[int]] = None,
    overlapping: bool = True,
    min_realizations: int = 8,
    chunk_periods: Optional[int] = None,
    fit: bool = True,
    weighted: bool = True,
    exact: bool = False,
    backend: Optional[BackendLike] = None,
) -> BatchedCampaignResult:
    """Batched differential (eRO-TRNG pair) campaign: B oscillator pairs.

    Pair ``i`` is ``(ensemble_1[i], ensemble_2[i])``; its relative period
    record ``T1 - T2 + 1/f0`` is bit-for-bit the one the scalar
    :func:`repro.measurement.capture.relative_jitter_campaign` sees when the
    ensembles share the scalar oscillators' RNG streams, and the estimated
    curves match that function bit-for-bit with ``exact=True`` (within
    ``~ sqrt(n) * eps`` under the default fused reduction).
    """
    if ensemble_1.batch_size != ensemble_2.batch_size:
        raise ValueError(
            f"ensembles disagree on batch size: "
            f"{ensemble_1.batch_size} vs {ensemble_2.batch_size}"
        )
    restore = None
    if backend is not None:
        # Resolve once so both ensembles share one backend instance; the
        # previous backends are restored on return (campaign-scoped rebind).
        restore = (ensemble_1.backend, ensemble_2.backend)
        backend = resolve_backend(backend)
        ensemble_1.use_backend(backend)
        ensemble_2.use_backend(backend)
    source = _RelativeJitterSource(ensemble_1, ensemble_2)
    try:
        if chunk_periods is not None:
            if exact:
                raise ValueError(
                    "exact=True is incompatible with chunk_periods: the "
                    "streaming estimator uses the fused reduction and chunked "
                    "synthesis"
                )
            curves = streaming_accumulated_variance_curves(
                source,
                n_periods,
                chunk_periods,
                n_sweep=n_sweep,
                overlapping=overlapping,
                min_realizations=min_realizations,
            )
            return _campaign_from_curves(curves, fit, weighted)
        return _campaign_from_records(
            source.jitter(n_periods),
            source.f0_hz,
            n_sweep,
            overlapping,
            min_realizations,
            fit,
            weighted,
            exact,
        )
    finally:
        if restore is not None:
            ensemble_1.use_backend(restore[0])
            ensemble_2.use_backend(restore[1])


_BIT_TABLE_COLUMNS = (
    "divider",
    "instance",
    "bias",
    "shannon_entropy",
    "min_entropy",
    "markov_entropy",
    "procedure_a_passed",
    "procedure_b_passed",
)


class BitCampaignResult:
    """Per-divider, per-instance results of one batched bit campaign.

    All estimate attributes are ``(D, B)`` arrays (divider x instance):
    ``bias`` (``P(1) - 1/2`` of the raw bits), ``shannon_entropy`` /
    ``min_entropy`` / ``markov_entropy`` (per-bit estimates from
    :mod:`repro.trng.entropy`), and — when the campaign ran them —
    ``procedure_a_passed`` / ``procedure_b_passed`` boolean verdict arrays
    (``None`` otherwise).  This is the paper's entropy-vs-accumulation
    design-guidance table in array form.
    """

    def __init__(
        self,
        dividers: np.ndarray,
        bias: np.ndarray,
        shannon_entropy: np.ndarray,
        min_entropy: np.ndarray,
        markov_entropy: np.ndarray,
        procedure_a_passed: Optional[np.ndarray],
        procedure_b_passed: Optional[np.ndarray],
        n_bits: int,
    ) -> None:
        self.dividers = np.asarray(dividers)
        self.bias = np.asarray(bias)
        self.shannon_entropy = np.asarray(shannon_entropy)
        self.min_entropy = np.asarray(min_entropy)
        self.markov_entropy = np.asarray(markov_entropy)
        self.procedure_a_passed = procedure_a_passed
        self.procedure_b_passed = procedure_b_passed
        self.n_bits = int(n_bits)

    @property
    def n_dividers(self) -> int:
        """Number of divider grid points ``D``."""
        return int(self.bias.shape[0])

    @property
    def batch_size(self) -> int:
        """Number of TRNG instances ``B`` per divider."""
        return int(self.bias.shape[1])

    def entropy_vs_divider(self) -> Dict[str, np.ndarray]:
        """Ensemble means per divider: the paper's design-guidance curve."""
        summary = {
            "divider": self.dividers,
            "bias": np.mean(self.bias, axis=1),
            "shannon_entropy": np.mean(self.shannon_entropy, axis=1),
            "min_entropy": np.mean(self.min_entropy, axis=1),
            "markov_entropy": np.mean(self.markov_entropy, axis=1),
        }
        if self.procedure_a_passed is not None:
            summary["procedure_a_pass_rate"] = np.mean(
                self.procedure_a_passed, axis=1
            )
        if self.procedure_b_passed is not None:
            summary["procedure_b_pass_rate"] = np.mean(
                self.procedure_b_passed, axis=1
            )
        return summary

    def table(self) -> Dict[str, np.ndarray]:
        """Flat results table: one column array per quantity, row-major."""
        n_dividers, batch = self.bias.shape
        table = {
            "divider": np.repeat(self.dividers, batch),
            "instance": np.tile(np.arange(batch), n_dividers),
            "bias": self.bias.ravel(),
            "shannon_entropy": self.shannon_entropy.ravel(),
            "min_entropy": self.min_entropy.ravel(),
            "markov_entropy": self.markov_entropy.ravel(),
        }
        if self.procedure_a_passed is not None:
            table["procedure_a_passed"] = self.procedure_a_passed.ravel()
        if self.procedure_b_passed is not None:
            table["procedure_b_passed"] = self.procedure_b_passed.ravel()
        return table

    def format_table(self, max_rows: int = 24) -> str:
        """Human-readable results table (for logs and benchmarks).

        Truncation is always explicit: when more than ``max_rows`` rows exist,
        the table ends with a ``... (+N more rows)`` footer accounting for
        every hidden row.
        """
        table = self.table()
        columns = [name for name in _BIT_TABLE_COLUMNS if name in table]
        lines = [" | ".join(f"{name:>18}" for name in columns)]
        n_rows = self.n_dividers * self.batch_size
        shown = min(n_rows, max(int(max_rows), 0))
        for row in range(shown):
            cells = []
            for name in columns:
                value = table[name][row]
                if name in ("divider", "instance"):
                    cells.append(f"{int(value):>18d}")
                elif name.startswith("procedure"):
                    cells.append(f"{'pass' if value else 'FAIL':>18}")
                else:
                    cells.append(f"{value:>18.6g}")
            lines.append(" | ".join(cells))
        if shown < n_rows:
            lines.append(f"... (+{n_rows - shown} more rows)")
        return "\n".join(lines)


def batched_bit_campaign(
    configuration,
    dividers: Sequence[int],
    batch_size: int,
    n_bits: int,
    seed: SeedLike = None,
    run_procedure_a: bool = False,
    include_t0: bool = False,
    run_procedure_b: bool = False,
    min_entropy_block_size: int = 8,
    instance_range: Optional[tuple] = None,
    backend: Optional[BackendLike] = None,
    rng_contract: Optional[str] = None,
) -> BitCampaignResult:
    """Entropy-vs-divider sweep over a whole eRO-TRNG ensemble at once.

    For every divider ``D`` in the grid, a fresh
    :class:`~repro.engine.bits.BatchedEROTRNG` ensemble (same
    ``configuration``, same ``seed`` — a *paired* design: every divider sees
    identically seeded noise) generates ``n_bits`` raw bits per instance in
    one batched pass, and the bias/entropy estimates and (optionally) the
    AIS31 Procedure A/B batteries are evaluated vectorized across the
    ensemble.  This replaces the ``dividers x instances`` Python loop of the
    scalar workflow with one vectorized pass per divider.

    Parameters
    ----------
    configuration:
        An :class:`repro.trng.ero_trng.EROTRNGConfiguration`; its ``divider``
        field is replaced by each grid value in turn.
    dividers:
        Accumulation lengths ``D`` to sweep (the paper's design axis).
    batch_size:
        TRNG instances per divider.
    n_bits:
        Raw bits per instance per divider.  Procedure A needs >= 20 000,
        Procedure B >= 100 000 bits.
    seed:
        Engine seed; per-instance streams are spawned from it (one per
        instance, one sub-stream per ring).
    run_procedure_a, include_t0, run_procedure_b:
        Evaluate the AIS31 batteries per instance (batched, no row loop).
    min_entropy_block_size:
        Block size of the min-entropy (``H_min``) estimate.
    instance_range:
        Optional ``(start, stop)`` row range: run only instances
        ``start..stop-1`` of the ``batch_size``-wide ensemble, re-deriving
        their RNG streams by slicing the full spawn tree of ``seed``.  The
        result rows are bit-for-bit rows ``start..stop-1`` of the full
        campaign — the hook :mod:`repro.engine.distributed` shards on.
        Requires a *stateless* seed (an int or ``SeedSequence``): only those
        re-derive the same spawn tree on every call, which is what makes
        shard rows belong to one coherent campaign.
    backend:
        Synthesis backend for the per-divider TRNG ensembles (instance, spec
        string or ``None`` for the ``REPRO_BACKEND``/``auto`` default).
        Backend choice never changes the campaign output.
    rng_contract:
        Stream contract the per-instance streams derive under (``"spawn"``
        | ``"philox"`` | ``None`` for the process default; see
        :mod:`repro.engine.rng`).  Shard calls must pass the campaign's
        pinned contract so every shard derives the same streams.
    """
    from ..ais31.procedure_a import procedure_a, rows_passed
    from ..ais31.procedure_b import procedure_b
    from ..trng.entropy import (
        bit_bias,
        markov_entropy_rate,
        min_entropy_per_bit,
        shannon_entropy_per_bit,
    )
    from .batch import spawn_generators

    # Resolve once (including the backend=None REPRO_BACKEND default) so
    # every divider's ensemble pair shares one backend — one thread pool,
    # not 2 x dividers of them.
    backend = resolve_backend(backend)
    divider_grid = np.asarray([int(d) for d in dividers])
    if divider_grid.size == 0:
        raise ValueError("need at least one divider")
    if np.any(divider_grid < 1):
        raise ValueError("dividers must be >= 1")
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if instance_range is None:
        start, stop = 0, int(batch_size)
    else:
        if not isinstance(seed, (int, np.integer, np.random.SeedSequence)):
            raise ValueError(
                "instance_range requires a stateless seed (int or "
                "SeedSequence): None or a Generator cannot re-derive the "
                "same spawn tree across shard calls"
            )
        start, stop = (int(edge) for edge in instance_range)
        if not 0 <= start < stop <= int(batch_size):
            raise ValueError(
                f"instance_range must satisfy 0 <= start < stop <= "
                f"{batch_size}, got {instance_range!r}"
            )
    rows = stop - start
    shape = (divider_grid.size, rows)
    bias = np.empty(shape)
    shannon = np.empty(shape)
    min_entropy = np.empty(shape)
    markov = np.empty(shape)
    passed_a = np.empty(shape, dtype=bool) if run_procedure_a else None
    passed_b = np.empty(shape, dtype=bool) if run_procedure_b else None
    for index, divider in enumerate(divider_grid):
        # Every divider re-derives the same per-instance parent streams from
        # the root seed (a paired design); a row range takes its slice of the
        # full spawn tree, so shard rows match the unsharded run bit-for-bit.
        parents = spawn_generators(seed, int(batch_size), rng_contract=rng_contract)[
            start:stop
        ]
        trng = BatchedEROTRNG(
            replace(configuration, divider=int(divider)),
            batch_size=rows,
            rngs=parents,
            backend=backend,
        )
        bits = trng.generate_raw(n_bits).bits
        bias[index] = bit_bias(bits)
        shannon[index] = shannon_entropy_per_bit(bits)
        min_entropy[index] = min_entropy_per_bit(
            bits, block_size=min_entropy_block_size
        )
        markov[index] = markov_entropy_rate(bits)
        if run_procedure_a:
            passed_a[index] = rows_passed(procedure_a(bits, include_t0=include_t0))
        if run_procedure_b:
            passed_b[index] = rows_passed(procedure_b(bits))
    return BitCampaignResult(
        dividers=divider_grid,
        bias=bias,
        shannon_entropy=shannon,
        min_entropy=min_entropy,
        markov_entropy=markov,
        procedure_a_passed=passed_a,
        procedure_b_passed=passed_b,
        n_bits=n_bits,
    )
