"""Likelihood-ratio statistics and confidence sets for the near-unit
block and for scalar quasi-cointegrating coefficients.

The LR for a hypothesised dynamics block compares the restricted profile
fit against the unrestricted maximum of the fixed-weight loglikelihood,
which is attained exactly at the OLS fit.  Conditional confidence intervals
for a single subspace coefficient invert the chi-square(1) LR test: at
q = 1 from the partialled moments at the dynamics block, built once per
interval (exactly, as a quadratic inequality, when r = 1), otherwise by
bracketed bisection.  The Bonferroni set unions those intervals over a
confidence set for the dynamics block.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import gammaincinv

from .exceptions import DomainError, NumericalError, QcvarError, TableCoverageError
from .likelihood import (
    Design,
    FitResult,
    LambdaGrid,
    _as_design,
    _known_vector_lr,
    ols_fit,
    profile_a,
    profile_lambda,
)
from .limitdist import QuantileTable, c_star, lookup
from .spectral import split

__all__ = [
    "LrStatistic",
    "ConfidenceSet",
    "chi2_quantile",
    "lr_lambda",
    "lr_coefficient",
    "localisation",
    "ci_lambda",
    "ci_coefficient_given_lambda",
    "bonferroni_level",
    "bonferroni_ci",
]

logger = logging.getLogger("qcvar.inference")

#: LR values this far below zero indicate an optimizer inconsistency.
LR_SLACK = 1e-8

#: Points of the scan that detects a multimodal coefficient profile.
SCAN_POINTS = 21


def chi2_quantile(level: float) -> float:
    """Chi-square(1) quantile, as ``scipy.stats.chi2.ppf`` computes it, minus a slow import."""
    return float(2.0 * gammaincinv(0.5, level))


def _clamp_lr(value: float, context: str) -> float:
    if value < -LR_SLACK:
        raise NumericalError(
            f"{context}: LR = {value:.3e} is negative beyond slack; the "
            "restricted optimum exceeds its reference maximum"
        )
    if value < 0.0:
        logger.info("%s: clamping LR %.3e to 0", context, value)
        return 0.0
    return value


@dataclass(frozen=True)
class LrStatistic:
    """A likelihood-ratio statistic and the restricted fit behind it.

    ``fit_restricted`` is the profile fit under the null: at the
    hypothesised block for :func:`lr_lambda`, with the coefficient also
    frozen for :func:`lr_coefficient`.
    """

    value: float
    fit_restricted: FitResult


@dataclass(frozen=True)
class ConfidenceSet:
    """A confidence set, reported as disjoint intervals or grid nodes.

    For the dynamics block, ``accepted`` holds the accepted grid nodes
    as (lam, lr, critical value) tuples.  ``intervals`` is a minimal
    union of disjoint [lo, hi] pairs (for a scalar dynamics grid, the
    runs of accepted nodes) and ``hull`` their envelope.  A Bonferroni set also
    keeps the conditional pieces it unites in ``conditional``, as
    (lam, lo, hi) tuples.  ``diagnostics`` records grid resolution,
    failed fits and fallback events.
    """

    level: float
    intervals: tuple = ()
    accepted: tuple = ()
    diagnostics: tuple = ()
    conditional: tuple = ()

    @property
    def hull(self) -> Optional[tuple]:
        """(lowest lo, highest hi) of ``intervals``, or None when empty."""
        return (self.intervals[0][0], self.intervals[-1][1]) if self.intervals else None

    def contains(self, value: float) -> bool:
        return any(lo - 1e-12 <= value <= hi + 1e-12 for lo, hi in self.intervals)


def lr_lambda(
    lambda0: np.ndarray,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
) -> LrStatistic:
    """LR statistic for the hypothesis that the near-unit block equals lambda0.

    ``2 * [max loglik - profile loglik at lambda0]``, where the maximum
    is the exact unrestricted (OLS) one.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = np.atleast_2d(np.asarray(lambda0, dtype=float))
    restricted = profile_a(lambda0, data, k, det, design=dz)
    ref_fit = ols_fit(data, k, det, design=dz)
    value = _clamp_lr(2.0 * (ref_fit.loglik - restricted.loglik), "lr_lambda")
    return LrStatistic(value=value, fit_restricted=restricted)


def lr_coefficient(
    a0: float,
    i: int,
    j: int,
    lambda0: np.ndarray,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
    fit_at_lambda0: Optional[FitResult] = None,
) -> LrStatistic:
    """LR statistic for the coefficient hypothesis a[i, j] = a0, given lambda0.

    Both maximisations impose the dynamics block; the restricted side
    additionally freezes the (i, j) entry of the subspace matrix.
    ``fit_at_lambda0`` may carry a precomputed unrestricted-side fit.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = np.atleast_2d(np.asarray(lambda0, dtype=float))
    fit_u = fit_at_lambda0 if fit_at_lambda0 is not None else profile_a(
        lambda0, data, k, det, design=dz
    )
    fit_r = profile_a(
        lambda0, data, k, det,
        design=dz, fixed_entry=(i, j, float(a0)), init=fit_u.a_hat,
    )
    value = _clamp_lr(2.0 * (fit_u.loglik - fit_r.loglik), "lr_coefficient")
    return LrStatistic(value=value, fit_restricted=fit_r)


def localisation(n: int, lam0: np.ndarray, fit: FitResult, design: Design) -> np.ndarray:
    """Feasible localisation argument n(lam0 - I), similarity-transformed.

    This is the point at which the block LR statistic at ``lam0`` looks
    up its critical value.  For a scalar block (q = 1 included) the
    transform is the identity, since ``c_star(c I, delta) = c I``.
    Otherwise the plug-in scale is ``l_near' sigma l_near`` computed
    from ``fit``, the restricted fit at ``lam0``.
    """
    q = lam0.shape[0]
    c_raw = n * (lam0 - np.eye(q))
    if np.array_equal(lam0, lam0[0, 0] * np.eye(q)):
        return c_raw
    sp = split(fit.coeffs, q, warn_ill_conditioned=False)
    delta = sp.l_near.T @ design.sigma_ols @ sp.l_near
    return c_star(c_raw, 0.5 * (delta + delta.T))


def ci_lambda(
    alpha1: float,
    data: np.ndarray,
    k: int,
    det: str,
    lambda_space: LambdaGrid,
    table: QuantileTable,
    *,
    design: Optional[Design] = None,
) -> ConfidenceSet:
    """Level 1 - alpha1 confidence set for the near-unit dynamics block.

    Scans the grid and accepts the nodes whose LR statistic is at most
    the tabulated quantile at :func:`localisation` of the node.

    Raises
    ------
    TableCoverageError
        Listing the localisation values missing from the table.
    """
    dz = _as_design(data, k, det, design)
    n = dz.n
    level = 1.0 - alpha1
    ref_loglik = ols_fit(data, k, det, design=dz).loglik
    accepted = []
    diagnostics = []
    missing = []
    for lam in lambda_space.points():
        try:
            fit = profile_a(lam, data, k, det, design=dz)
        except QcvarError as exc:
            diagnostics.append(f"grid point {lam.tolist()} failed: {exc}")
            continue
        value = _clamp_lr(2.0 * (ref_loglik - fit.loglik), "ci_lambda")
        c_query = localisation(n, lam, fit, dz)
        try:
            crit = lookup(table, c_query, level)
        except TableCoverageError:
            missing.append(c_query)
            continue
        if value <= crit:
            accepted.append((lam, value, crit))
    if missing:
        listed = ", ".join(np.array2string(m, precision=4) for m in missing[:8])
        raise TableCoverageError(
            f"{len(missing)} grid points have no table coverage; missing "
            f"localisation values include {listed}"
        )
    intervals = ()
    if lambda_space.family == "scalar":
        # nodes further apart than one grid step start a new run
        lams = [float(lam[0, 0]) for lam, _, _ in accepted]
        intervals = _merge_intervals([(v, v) for v in lams], 1.5 * lambda_space.resolved_eig_step)
    return ConfidenceSet(
        level=level,
        intervals=intervals,
        accepted=tuple(accepted),
        diagnostics=tuple(diagnostics),
    )


def ci_coefficient_given_lambda(
    alpha2: float,
    i: int,
    j: int,
    lambda0: np.ndarray,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
) -> ConfidenceSet:
    """Conditional confidence interval for a[i, j] given the dynamics block.

    Inverts the chi-square(1) LR test.  At q = 1 the LR depends on the
    data only through the partialled moments at ``lambda0``, built once
    per call (:func:`~qcvar.likelihood._known_vector_lr`).  With r = 1 the
    accepted set solves a quadratic inequality in the coefficient exactly
    (:func:`_quadratic_set`): an interval, two rays, a half-line or the
    whole line, with the unbounded shapes noted in diagnostics.  Otherwise,
    over that moment curve when q = 1 and over :func:`lr_coefficient`
    probes when q >= 2, the test is inverted by geometric bracket
    expansion from the conditional optimum followed by bisection (endpoint
    tolerance 1e-6).  A scan across the bracketed range detects multimodal
    profiles, which are reported as unions of intervals; a flat profile
    yields an unbounded side, reported in diagnostics.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = np.atleast_2d(np.asarray(lambda0, dtype=float))
    q = lambda0.shape[0]
    r = dz.p - q
    if not (0 <= i < r and 0 <= j < q):
        raise DomainError(f"coefficient a[{i}, {j}] needs 0 <= i < {r} and 0 <= j < {q}")
    level = 1.0 - alpha2
    threshold = chi2_quantile(level)

    if q == 1:
        A, S11, center, lr = _known_vector_lr(float(lambda0[0, 0]), i, dz)
        if r == 1:
            intervals = _quadratic_set(A, S11, threshold / dz.n_eff)
            unbounded = ("accepted set is unbounded",) if not np.isfinite(intervals).all() else ()
            return ConfidenceSet(level=level, intervals=intervals, diagnostics=unbounded)

        def g(a0: float) -> float:
            return lr(a0) - threshold
    else:
        fit_u = profile_a(lambda0, data, k, det, design=dz)
        center = float(fit_u.a_hat[i, j])

        def g(a0: float) -> float:
            lr = lr_coefficient(a0, i, j, lambda0, data, k, det, design=dz, fit_at_lambda0=fit_u)
            return lr.value - threshold

    # curvature-based initial half-width: LR ~ curv * (a - center)^2
    h = 1e-4 * (1.0 + abs(center))
    curv = (g(center + h) + threshold + g(center - h) + threshold) / (2.0 * h * h)
    se = 1.0 / np.sqrt(curv) if curv > 0 else 1.0 + abs(center)
    half = 2.0 * se

    diagnostics = []
    bounds = {}
    for side, sign in (("lower", -1.0), ("upper", +1.0)):
        width = half
        found = None
        for _ in range(60):
            cand = center + sign * width
            if g(cand) > 0.0:
                found = cand
                break
            width *= 2.0
        if found is None:
            diagnostics.append(f"{side} endpoint unbounded after 60 expansions")
            bounds[side] = sign * np.inf
        else:
            inner = center + sign * (width / 2.0 if width > half else 0.0)
            if g(inner) > 0.0:
                inner = center
            lo, hi = (found, inner) if sign < 0 else (inner, found)
            bounds[side] = float(brentq(g, lo, hi, xtol=1e-6))

    lo, hi = bounds["lower"], bounds["upper"]
    if not np.isfinite(lo) or not np.isfinite(hi):
        return ConfidenceSet(level=level, intervals=((lo, hi),), diagnostics=tuple(diagnostics))

    # scan for multimodality across the bracketed range
    grid = np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), SCAN_POINTS)
    values = np.array([g(v) for v in grid])
    # runs of accepted scan points: index pairs one apart join
    runs = _merge_intervals([(idx, idx) for idx in np.flatnonzero(values <= 0.0).tolist()], 1)

    if len(runs) <= 1:
        intervals = ((lo, hi),)
    else:
        diagnostics.append(f"profile test accepted {len(runs)} separate runs; reporting a union")
        intervals = []
        for s_idx, e_idx in runs:
            left = grid[s_idx] if s_idx == 0 else brentq(g, grid[s_idx - 1], grid[s_idx], xtol=1e-6)
            right = (
                grid[e_idx] if e_idx == len(grid) - 1 else brentq(g, grid[e_idx], grid[e_idx + 1], xtol=1e-6)
            )
            intervals.append((float(left), float(right)))
        intervals = tuple(intervals)

    return ConfidenceSet(level=level, intervals=tuple(intervals), diagnostics=tuple(diagnostics))


def _quadratic_set(A: np.ndarray, S11: np.ndarray, slack: float) -> tuple:
    """The a0 with ``mu1 - b'Ab / b'S11b <= slack`` for ``b = (1, -a0)``, exactly.

    ``mu1`` is the top eigenvalue of the 2 x 2 pair (A, S11), so the set is
    ``b'Mb = m00 - 2 m01 a0 + m11 a0^2 >= 0`` with ``M = A - (mu1 - slack) S11``,
    which has a positive direction whenever ``slack > 0``.  The roots come
    from the numerically stable formula.  The set is the whole line when M
    is semidefinite, a half-line when m11 vanishes to the rounding of its
    subtraction, and otherwise an interval (m11 < 0) or two rays (m11 > 0).
    """
    tau = eigh(A, S11, eigvals_only=True)[-1] - slack
    M = A - tau * S11
    m00, m01, m11 = M[0, 0], 0.5 * (M[0, 1] + M[1, 0]), M[1, 1]
    disc = m01 * m01 - m00 * m11
    if disc <= 0.0:
        return ((-np.inf, np.inf),)
    if abs(m11) <= 8.0 * np.finfo(float).eps * (abs(A[1, 1]) + abs(tau) * S11[1, 1]):
        root = float(m00 / (2.0 * m01))
        return ((-np.inf, root),) if m01 > 0 else ((root, np.inf),)
    s = m01 + np.copysign(np.sqrt(disc), m01)
    lo, hi = sorted((float(s / m11), float(m00 / s)))
    return ((lo, hi),) if m11 < 0 else ((-np.inf, lo), (hi, np.inf))


def _merge_intervals(intervals: Sequence[tuple], gap: float) -> tuple:
    """Union of [lo, hi] pairs, joining pieces at most ``gap`` apart."""
    items = sorted(intervals)
    merged = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def bonferroni_level(alpha1: float, alpha2: float) -> float:
    """Overall level 1 - alpha1 - alpha2 of a Bonferroni set.

    Raises :class:`DomainError` unless alpha1 + alpha2 lies in (0, 1).
    """
    if not 0.0 < alpha1 + alpha2 < 1.0:
        raise DomainError("alpha1 + alpha2 must lie in (0, 1)")
    return 1.0 - alpha1 - alpha2


def bonferroni_ci(
    alpha1: float,
    alpha2: float,
    i: int,
    j: int,
    data: np.ndarray,
    k: int,
    det: str,
    lambda_space: LambdaGrid,
    table: QuantileTable,
    *,
    design: Optional[Design] = None,
) -> ConfidenceSet:
    """Bonferroni confidence set for a[i, j] at level 1 - alpha1 - alpha2.

    Unions the conditional coefficient intervals over every dynamics
    block accepted by :func:`ci_lambda` and keeps the pieces in
    ``conditional``.  If the block confidence set is empty at the grid
    resolution, the conditional interval at the grid argmax is returned
    with a prominent warning (a documented fallback; an empty set would
    be uninformative).
    """
    level = bonferroni_level(alpha1, alpha2)
    dz = _as_design(data, k, det, design)
    block_set = ci_lambda(alpha1, data, k, det, lambda_space, table, design=dz)
    diagnostics = list(block_set.diagnostics)
    if block_set.accepted:
        lams = [lam for lam, _, _ in block_set.accepted]
    else:
        warnings.warn(
            "the dynamics-block confidence set is empty at this grid resolution; "
            "falling back to the conditional interval at the grid argmax",
            UserWarning,
            stacklevel=2,
        )
        diagnostics.append("empty block confidence set; argmax fallback used")
        prof = profile_lambda(lambda_space, data, k, det, design=dz)
        lams = [prof.best_lam]

    conditional = []
    for lam in lams:
        cset = ci_coefficient_given_lambda(
            alpha2, i, j, lam, data, k, det, design=dz
        )
        diagnostics.extend(cset.diagnostics)
        conditional.extend((lam, lo, hi) for lo, hi in cset.intervals)
    intervals = _merge_intervals([(lo, hi) for _, lo, hi in conditional], 1e-12)
    return ConfidenceSet(
        level=level,
        intervals=intervals,
        accepted=block_set.accepted,
        diagnostics=tuple(diagnostics),
        conditional=tuple(conditional),
    )
