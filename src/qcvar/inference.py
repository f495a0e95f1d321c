"""Likelihood-ratio statistics and confidence sets for the near-unit
block and for scalar quasi-cointegrating coefficients.

The LR for a hypothesised dynamics block compares the restricted profile
fit against the unrestricted maximum of the fixed-weight loglikelihood,
which is attained exactly at the OLS fit.  At a scalar block it, and the
LR for a single subspace coefficient, are eigenvalue sums in the partialled
moments, with no fit.  Conditional intervals invert the latter's test:
as a quadratic inequality when q = 1 or r = p - q = 1, and otherwise by a
scan of the projective line through the coefficient, with a root search at
each change of verdict.  The Bonferroni set unions those intervals over a
confidence set for the dynamics block.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import DomainError, NumericalError, QcvarError, TableCoverageError
from .likelihood import (
    Design,
    FitResult,
    LambdaGrid,
    _as_block,
    _as_design,
    _block_lr,
    _eigh_pair,
    _fixed_entry_a,
    _is_scalar,
    _known_vector_moments,
    _normalise,
    _search_blocks,
    profile_a,
    profile_lambda,
)
from .limitdist import QuantileTable, _check_table, c_star, lookup
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

#: Uniform nodes on [-pi/2, pi/2] of the scan of the projective line through a coefficient with
#: q, r >= 2 or at a non-scalar block; both ends are the point at infinity, probed outward from
#: the interior nodes, and a change of verdict between neighbouring nodes brackets a boundary.
SCAN_POINTS = 21


def chi2_quantile(level: float) -> float:
    """Chi-square(1) quantile, as ``scipy.stats.chi2.ppf`` computes it, from ``scipy.special``."""
    from scipy.special import gammaincinv
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
    """A likelihood-ratio statistic and, at a non-scalar block, the fit behind it.

    ``fit_restricted`` is the profile fit under the null: at the
    hypothesised block for :func:`lr_lambda`, with the coefficient also
    frozen for :func:`lr_coefficient`.  It is None at a scalar block.
    """

    value: float
    fit_restricted: Optional[FitResult]


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
    is the exact unrestricted (OLS) one; at a scalar block n_eff times the
    sum of the q smallest eigenvalues of :func:`_known_vector_moments`
    (:func:`_block_lr`, which :func:`profile_lambda` ranks its grid by).
    """
    dz = _as_design(data, k, det, design)
    value, fit = _block_lr(lambda0, dz)
    return LrStatistic(_clamp_lr(value, "lr_lambda"), fit)


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
) -> LrStatistic:
    """LR statistic for the coefficient hypothesis a[i, j] = a0, given lambda0.

    Both maximisations impose the dynamics block; the restricted side additionally freezes the
    (i, j) entry of the subspace matrix.  At a scalar block the value is n_eff times the moment LR
    of :func:`_fixed_entry_a`, exact where a fit far out loses the loglik to rounding.  Otherwise
    it compares the design's shared free fit at lambda0 (:func:`_block_lr`, searched at most once
    per design) with a fixed-entry :func:`profile_a` search started from its a.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = _as_block(lambda0, dz)
    if _is_scalar(lambda0):
        A, S11 = _known_vector_moments(float(lambda0[0, 0]), dz)
        value = dz.n_eff * _fixed_entry_a(A, S11, i, j, float(a0), dz.p - len(lambda0))[1]
        return LrStatistic(_clamp_lr(value, "lr_coefficient"), None)
    fit_u = _block_lr(lambda0, dz)[1]
    fit_r = profile_a(lambda0, data, k, det, design=dz, fixed_entry=(i, j, float(a0)),
                      init=fit_u.a_hat)
    value = 2.0 * (fit_u.loglik - fit_r.loglik)
    return LrStatistic(value=_clamp_lr(value, "lr_coefficient"), fit_restricted=fit_r)


def localisation(lam0: np.ndarray, design: Design) -> np.ndarray:
    """Feasible localisation argument n(lam0 - I), similarity-transformed, n = ``design.n``.

    This is the point at which the block LR statistic at ``lam0`` looks up its critical value.
    For a scalar block (q = 1 included) the transform is the identity, since ``c_star(c I,
    delta) = c I``.  Otherwise the plug-in scale ``l_near' sigma l_near`` comes from the
    design's shared free fit at ``lam0`` (:func:`_block_lr`), searched at most once per design.
    """
    lam0 = _as_block(lam0, design)
    q = lam0.shape[0]
    c_raw = design.n * (lam0 - np.eye(q))
    if _is_scalar(lam0):
        return c_raw
    sp = split(_block_lr(lam0, design)[1].coeffs, q, warn_ill_conditioned=False)
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

    Searches the grid's non-scalar blocks in one batch (:func:`_search_blocks`), then accepts the
    nodes whose :func:`lr_lambda` is at most the tabulated quantile at their :func:`localisation`.

    Raises
    ------
    TableCoverageError
        If the table was simulated at another q or det, or listing the localisation values
        missing from the table.
    """
    _check_table(table, lambda_space.q, det)
    dz = _as_design(data, k, det, design)
    level = 1.0 - alpha1
    accepted = []
    diagnostics = []
    missing = []
    points = lambda_space.points()
    if lambda_space.q > 1:  # a 1 x 1 block is scalar
        _search_blocks(points, dz)
    for lam in points:
        try:
            stat = lr_lambda(lam, data, k, det, design=dz)
        except QcvarError as exc:
            diagnostics.append(f"grid point {lam.tolist()} failed: {exc}")
            continue
        c_query = localisation(lam, dz)
        try:
            crit = lookup(table, c_query, level)
        except TableCoverageError:
            missing.append(c_query)
            continue
        if stat.value <= crit:
            accepted.append((lam, stat.value, crit))
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
    """Conditional confidence set for a[i, j] given the dynamics block, inverting the
    chi-square(1) LR test.

    At a scalar block the partialled moments at ``lambda0`` are built once per design.  With
    min(q, r) = 1 the set solves a quadratic inequality in the coefficient exactly
    (:func:`_quadratic_set`): an interval, two rays, a half-line or the whole line.  Otherwise
    the LR, at a scalar block the moment form of :func:`lr_coefficient` with no fit per node, is
    evaluated at ``a0 = center + se tan(theta)`` (the conditional optimum, of the moments or of
    :func:`_block_lr`'s shared fit, and its curvature scale) for the ``SCAN_POINTS`` - 2 interior
    of ``SCAN_POINTS`` uniform theta on [-pi/2, pi/2].  The ends are the point at infinity,
    where no entry can be fixed, so while the outermost node on a side is accepted, or at a
    scalar block the LR 1e12 se out on that side, a probe doubles its distance to the center,
    until that distance passes 1e12 se.  At a scalar block an interior node where the LR peaks
    towards the threshold adds the LR's extremum between its neighbours as a node.  Each change
    of verdict between neighbouring nodes is refined by brentq in the coefficient (tolerance
    1e-12 at a scalar block, 1e-6 on the search's LR).  ``diagnostics`` notes an unbounded set,
    on the scan naming the outermost probe accepted on each unbounded side, and a set of more
    pieces than an interval or two rays.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = _as_block(lambda0, dz)
    q = lambda0.shape[0]
    r = dz.p - q
    if not (0 <= i < r and 0 <= j < q):
        raise DomainError(f"coefficient a[{i}, {j}] needs 0 <= i < {r} and 0 <= j < {q}")
    level = 1.0 - alpha2
    threshold = chi2_quantile(level)

    scalar = _is_scalar(lambda0)
    if scalar:
        A, S11 = _known_vector_moments(float(lambda0[0, 0]), dz)
        if min(q, r) == 1:
            rows = S11[[i, -1]] if q == 1 else np.eye(dz.p)[[r + j, i]] * [[1.0], [-1.0]]
            intervals = _quadratic_set(A if q == 1 else -A, S11, rows, threshold / dz.n_eff)
            unbounded = ("accepted set is unbounded",) if not np.isfinite(intervals).all() else ()
            return ConfidenceSet(level=level, intervals=intervals, diagnostics=unbounded)
        center = float(_normalise(_eigh_pair(A, S11)[1][:, q:])[i, j])

        def g(a0: float) -> float:
            return dz.n_eff * _fixed_entry_a(A, S11, i, j, a0, r)[1] - threshold
    else:
        center = float(_block_lr(lambda0, dz)[1].a_hat[i, j])

        def g(a0: float) -> float:
            return lr_coefficient(a0, i, j, lambda0, data, k, det, design=dz).value - threshold

    from scipy.optimize import brentq, minimize_scalar
    # curvature scale: LR ~ ((a0 - center) / se)^2 near the optimum
    h = 1e-4 * (1.0 + abs(center))
    curv = (g(center + h) + threshold + g(center - h) + threshold) / (2.0 * h * h)
    se = 1.0 / np.sqrt(curv) if curv > 0 else 1.0 + abs(center)

    # +-pi/2 is the point at infinity: while the outermost node on a side, or at a scalar block the
    # verdict 1e12 se out, is accepted, probes at twice its distance to the center follow
    nodes = list(center + se * np.tan(np.linspace(-np.pi / 2, np.pi / 2, SCAN_POINTS)[1:-1]))
    values = [g(a0) for a0 in nodes]
    # at a scalar block an interior node where g peaks towards zero may hide a stretch of the other
    # verdict between its neighbours: the extremum of g there joins the nodes.  The search's LR
    # elsewhere carries rounding of about 3e-9 and costs up to 80 ms, so it keeps its nodes.
    for m in range(len(nodes) - 2, 0, -1) if scalar else ():
        s = 1.0 if values[m] <= 0.0 else -1.0
        if s * values[m] > max(s * values[m - 1], s * values[m + 1]):
            peak = minimize_scalar(lambda a0: -s * g(a0), bounds=(nodes[m - 1], nodes[m + 1]),
                                   method="bounded")
            at = m + int(peak.x > nodes[m])
            nodes.insert(at, peak.x)
            values.insert(at, -s * peak.fun)
    accepted = [bool(v <= 0.0) for v in values]
    for end, sign in ((0, -1.0), (-1, 1.0)):
        far = scalar and g(center + sign * 1e12 * se) <= 0.0
        while (accepted[end] or far) and 0.0 < abs(nodes[end] - center) < 1e12 * se:
            at = len(nodes) if end else 0
            nodes.insert(at, center + 2.0 * (nodes[end] - center))
            accepted.insert(at, bool(g(nodes[at]) <= 0.0))
    cuts = [brentq(g, nodes[m], nodes[m + 1], xtol=1e-12 if scalar else 1e-6)
            for m in range(len(nodes) - 1) if accepted[m] != accepted[m + 1]]
    bounds = [-np.inf] * accepted[0] + cuts + [np.inf] * accepted[-1]
    intervals = tuple((float(lo), float(hi)) for lo, hi in zip(bounds[::2], bounds[1::2]))
    diagnostics = [f"{side} side accepted at the outermost probe a0 = {nodes[end]:.6g}; reported "
                   "unbounded" for side, end in (("lower", 0), ("upper", -1)) if accepted[end]]
    if len(cuts) > 2:
        diagnostics.append(f"profile test accepted {len(intervals)} separate pieces; "
                           "reporting a union")
    return ConfidenceSet(level=level, intervals=intervals, diagnostics=tuple(diagnostics))


def _quadratic_set(A: np.ndarray, S11: np.ndarray, rows: np.ndarray, slack: float) -> tuple:
    """The a0 with ``LR / n_eff <= slack`` when the restricted bases are those orthogonal to
    ``c = rows'(1, -a0)``: exactly those with ``(1, -a0) M (1, -a0)' >= 0`` for a 2 x 2 form M.

    LR / n_eff is the smallest eigenvalue of (A, S11) compressed to c's complement less the
    pair's smallest, mu_min: at q = 1, where column i of beta is ``b = e_i - a0 e_p``, c = S11 b
    and ``rows = S11[[i, -1]]``; at r = 1, where beta is orthogonal to ``a0 e_0 + e_(1+j)``, the
    caller passes -A (the largest quotient of (A, S11) is minus the smallest of (-A, S11)) and
    ``rows = [e_(1+j); -e_0]``.  By interlacing that is at most ``tau = mu_min + slack`` exactly
    where ``c'(A - tau S11)^-1 c >= 0`` (the whole line once tau reaches the next eigenvalue).
    At p = 2 M is ``A - (mu_max - slack) S11`` in b itself and ``rows`` goes unused: the general
    form's M carries eigenvector rounding, which turns an exact half-line root 0 into 1e-17.
    M has a positive direction whenever ``slack > 0``.  The set is the whole line when M is
    semidefinite, a half-line when m11 vanishes to the rounding of its summands, and otherwise
    an interval (m11 < 0) or two rays (m11 > 0), from the numerically stable root formula.
    """
    if len(A) == 2:
        tau = _eigh_pair(A, S11, eigvals_only=True)[-1] - slack
        M, m11_scale = A - tau * S11, abs(A[1, 1]) + abs(tau) * S11[1, 1]
    else:
        mu, V = _eigh_pair(A, S11)
        if mu[0] + slack >= mu[1]:
            return ((-np.inf, np.inf),)
        X = rows @ V  # c'V = X'(1, -a0)
        w = 1.0 / (mu - mu[0] - slack)
        M, m11_scale = (X * w) @ X.T, X[1] ** 2 @ np.abs(w)
    m00, m01, m11 = M[0, 0], 0.5 * (M[0, 1] + M[1, 0]), M[1, 1]
    disc = m01 * m01 - m00 * m11
    if disc <= 0.0:
        return ((-np.inf, np.inf),)
    if abs(m11) <= 8.0 * np.finfo(float).eps * m11_scale:
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
