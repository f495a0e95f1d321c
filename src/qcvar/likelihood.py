"""Concentrated Gaussian (quasi-)likelihood machinery.

All fits condition on the first k observations and share one
convention: the quadratic form of the concentrated loglikelihood is
weighted by the *unrestricted* OLS variance estimator, which is held
fixed inside every restricted maximisation.  Restricted fits impose the
linear constraint ``Phi @ col{[a; I] lam0^(k-i)} = [a; I] lam0^k`` and
have a closed form.  For a scalar block ``lam0 * I_q`` the profile over
the subspace coefficients ``a`` and every LR are eigenproblems in the
partialled moments, at every ``lam0``: the argmax is the top r eigenvectors
of :func:`_known_vector_moments`, or with an entry of ``a`` fixed Johansen's
restricted basis, by the switching algorithm (exact in one sweep when q or
r = p - q is 1).  For non-scalar blocks one damped Newton loop over a stack
of blocks minimises the Wald form of the restricted loglik in ``a``, with its
analytic gradient and Hessian, and one stacked closed-form fit reports every
block (:func:`_restricted_fits`; :func:`restricted_fit` is a batch of one).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.linalg.lapack import dpotrs

from .exceptions import (
    ConditionWarning,
    DomainError,
    NormalizationError,
    NumericalError,
    QcvarError,
    SingularDesignError,
)
from .spectral import VarCoefficients, constraint_matrices, roots, split

__all__ = [
    "DET_CASES",
    "Design",
    "FitResult",
    "LambdaGrid",
    "ProfileLambdaResult",
    "make_design",
    "ols_fit",
    "concentrated_loglik",
    "restricted_fit",
    "profile_a",
    "rrr_fit",
    "profile_lambda",
]

DET_CASES = ("trend", "const", "none")

#: Sweeps of :func:`_restricted_basis` from one start before it gives up (one took 1900).
_MAX_SWEEPS = 10_000


def _check_det(det: str) -> None:
    if det not in DET_CASES:
        raise DomainError(f"det must be one of {DET_CASES}, got {det!r}")


def _check_entry(i: int, j: int, a0: float, r: int, q: int) -> None:
    if not (0 <= i < r and 0 <= j < q and np.isfinite(a0)):
        raise DomainError(f"fixed entry a[{i}, {j}] = {a0} needs 0 <= i < {r}, 0 <= j < {q} "
                          "and a finite value")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a (possibly restricted) VAR fit.

    ``sigma`` is the residual second-moment matrix of this fit divided by the effective sample
    size; ``loglik`` is the concentrated value, always weighted by the unrestricted OLS variance
    estimator of the same design.  ``det_coeffs`` holds the intercept/trend coefficients in the
    original (unscaled) time parametrisation, one column per deterministic term.
    ``evaluations`` counts the Wald-form evaluations that included this block in a :func:`_search`
    batch, which passes the count to :func:`_restricted_fits`; it is None on every closed-form path.

    ``status`` is ``converged``, ``max-iter`` (a search that stopped first) or
    ``constraint-infeasible``: the fit missed the constraint by over 1e-8 relative
    (``constraint_residual``), so in effect dropped it, and ``loglik`` is no profile value; on a
    random walk, :func:`restricted_fit` at ``a = [[1e200], [0.1]]`` gives an infinite residual and
    OLS's loglik to rounding.  It is a status, not an error, because the non-scalar coefficient
    scan probes fixed entries out to 1e12 se, where raising would need a design of its own.
    """

    coeffs: VarCoefficients
    sigma: np.ndarray
    det_coeffs: Optional[np.ndarray]
    loglik: float
    status: str
    det: str
    n_eff: int
    constraint_residual: Optional[float] = None
    a_hat: Optional[np.ndarray] = None
    evaluations: Optional[int] = None


class Design:
    """Cached regression arrays for one (data, k, det) triple.

    The deterministic trend column is centred and scaled to keep the moment matrix well conditioned
    (``cond``, its condition number; from 1e12 a pseudo-inverse fits); :meth:`unscale_det` maps
    fitted coefficients back to the raw ``m + d t`` parametrisation.
    """

    def __init__(self, data: np.ndarray, k: int, det: str):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.ndim != 2:
            raise DomainError("data must be an n-by-p array")
        n, p = data.shape
        if not np.isfinite(data).all():
            i, j = np.argwhere(~np.isfinite(data))[0]
            raise DomainError(f"data must be finite; row {i}, column {j} is {data[i, j]}")
        if k < 1:
            raise DomainError("lag order k must be positive")
        _check_det(det)
        n_det = {"trend": 2, "const": 1, "none": 0}[det]
        d = n_det + k * p
        n_eff = n - k
        if n_eff < d + 1:
            raise SingularDesignError(
                f"only {n_eff} usable observations for {d} regressors per equation"
            )

        t = np.arange(k + 1, n + 1, dtype=float)
        t_center = t.mean()
        t_scale = float(n)
        W = np.empty((n_eff, d))
        if n_det:
            W[:, 0] = 1.0
        if det == "trend":
            W[:, 1] = (t - t_center) / t_scale
        for i in range(1, k + 1):
            W[:, n_det + (i - 1) * p: n_det + i * p] = data[k - i: n - i]
        Y = data[k:]

        self.k, self.det, self.p = k, det, p
        self.n, self.n_eff, self.n_det, self.d = n, n_eff, n_det, d
        self.t_center, self.t_scale = t_center, t_scale
        self.W, self.Y = W, Y
        self.WtW = W.T @ W
        self.WtY = W.T @ Y
        self.YtY = Y.T @ Y
        self._moments = {}  # memo by float(lambda0), block bytes or ("split", q): see _block_lr
        self.cond = cond = float(np.linalg.cond(self.WtW))
        if np.isfinite(cond) and cond < 1e12:
            self.Q = np.linalg.inv(self.WtW)
            coef = self.Q @ self.WtY  # d x p
        else:
            # rank-deficient design: minimum-norm least squares still
            # interpolates (e.g. exactly deterministic data)
            warnings.warn(
                f"regressor moment matrix is ill conditioned ({cond:.3e}); "
                "using a pseudo-inverse fit",
                ConditionWarning,
                stacklevel=3,
            )
            self.Q = np.linalg.pinv(self.WtW, rcond=1e-13)
            coef, *_ = np.linalg.lstsq(W, Y, rcond=None)
        self.theta_ols = coef.T  # p x d
        resid = Y - W @ coef
        sigma = (resid.T @ resid) / n_eff
        self.sigma_ols = 0.5 * (sigma + sigma.T)
        sign, logdet = np.linalg.slogdet(self.sigma_ols)
        if sign <= 0:
            # perfect fit (or degenerate residuals): concentrated value diverges
            self.logdet_sigma_ols = -np.inf
            self.loglik_ols = np.inf
            self._sigma_ols_cho = None
        else:
            self.logdet_sigma_ols = logdet
            self.loglik_ols = -0.5 * n_eff * logdet - 0.5 * n_eff * p
            self._sigma_ols_cho = cho_factor(self.sigma_ols)[0]  # upper

    def ssr(self, theta: np.ndarray) -> np.ndarray:
        """Residual second-moment matrix of the coefficient matrix theta, or of each of a stack."""
        cross = theta @ self.WtY
        out = self.YtY - cross - cross.swapaxes(-1, -2) + theta @ self.WtW @ theta.swapaxes(-1, -2)
        return 0.5 * (out + out.swapaxes(-1, -2))

    def solve_weight(self, x: np.ndarray) -> np.ndarray:
        """``Sigma_ols^-1 x`` for the p-row matrix x or each of a stack, side by side in one LAPACK
        ``dpotrs`` (as ``cho_solve``): a non-finite column stays so; the others keep their bits."""
        if self._sigma_ols_cho is None:
            raise SingularDesignError("the OLS residual covariance is singular; the fixed-weight "
                                      "loglikelihood is undefined")
        wide = x.swapaxes(0, -2)
        out, info = dpotrs(self._sigma_ols_cho, wide.reshape(self.p, -1))
        if info:
            raise NumericalError(f"LAPACK dpotrs failed with info = {info}")
        return out.reshape(wide.shape).swapaxes(0, -2)

    def loglik_fixed_weight(self, ssr: np.ndarray):
        """Concentrated loglik of each residual moment matrix of ssr under the OLS weight."""
        quad = np.trace(self.solve_weight(ssr), axis1=-2, axis2=-1)
        return -0.5 * self.n_eff * self.logdet_sigma_ols - 0.5 * quad

    def unscale_det(self, det_block: np.ndarray) -> Optional[np.ndarray]:
        """Map fitted deterministic coefficients (or a stack of them) to the raw m + d t form."""
        if self.n_det == 0:
            return None
        out = det_block.copy()
        if self.det == "trend":
            out[..., 1] /= self.t_scale
            out[..., 0] -= out[..., 1] * self.t_center
        return out

    def split_theta(self, theta: np.ndarray) -> tuple[Optional[np.ndarray], np.ndarray]:
        return (theta[..., : self.n_det] if self.n_det else None), theta[..., self.n_det:]


def make_design(data: np.ndarray, k: int, det: str) -> Design:
    """Build (or reuse) the regression design for repeated fits."""
    return Design(data, k, det)


def _as_block(lam0, dz: Design) -> np.ndarray:
    """``lam0`` as a float q x q array, 1 <= q <= p; an empty or non-finite one is a DomainError."""
    lam0 = np.atleast_2d(np.asarray(lam0, dtype=float))
    if lam0.shape != (len(lam0),) * 2 or not lam0.size or not np.isfinite(lam0).all():
        raise DomainError(f"the dynamics block must be a finite square matrix, got {lam0.tolist()}")
    if len(lam0) > dz.p:
        raise DomainError(f"q = {len(lam0)} exceeds series dimension {dz.p}")
    return lam0


def _is_scalar(lam: np.ndarray) -> bool:
    """Whether the q x q block ``lam`` is ``lam[0, 0] * I_q``, where the closed forms hold."""
    return bool(np.array_equal(lam, lam[0, 0] * np.eye(len(lam))))


def _as_design(data, k, det, design: Optional[Design]) -> Design:
    if design is not None:
        if design.k != k or design.det != det:
            raise DomainError("supplied design does not match (k, det)")
        return design
    return Design(data, k, det)


def ols_fit(data: np.ndarray, k: int, det: str, *, design: Optional[Design] = None) -> FitResult:
    """Unrestricted equation-by-equation least squares fit.

    ``sigma`` is the residual moment matrix divided by the effective
    sample size (the variance weight used by every restricted fit).
    """
    dz = _as_design(data, k, det, design)
    det_block, phi_block = dz.split_theta(dz.theta_ols)
    return FitResult(
        coeffs=VarCoefficients.from_stacked(phi_block, k),
        sigma=dz.sigma_ols,
        det_coeffs=dz.unscale_det(det_block) if det_block is not None else None,
        loglik=dz.loglik_ols,
        status="converged",
        det=det,
        n_eff=dz.n_eff,
    )


def concentrated_loglik(
    coeffs: VarCoefficients,
    sigma: np.ndarray,
    data: np.ndarray,
    det: str,
) -> float:
    """Evaluate the concentrated loglikelihood at given lag coefficients.

    The deterministic terms are minimised out by an inner least squares
    (their optimum does not depend on the weight), and the quadratic
    form is weighted by ``sigma``.
    """
    _check_det(det)
    sigma = np.asarray(sigma, dtype=float)
    try:
        cho = cho_factor(sigma)
    except np.linalg.LinAlgError as exc:
        raise DomainError("sigma must be positive definite") from exc
    dz = Design(data, coeffs.k, det)
    u = dz.Y - dz.W[:, dz.n_det:] @ coeffs.stacked.T
    if dz.n_det:
        D = dz.W[:, : dz.n_det]
        coef, *_ = np.linalg.lstsq(D, u, rcond=None)
        u = u - D @ coef
    quad = np.trace(cho_solve(cho, u.T @ u))
    sign, logdet = np.linalg.slogdet(sigma)
    return -0.5 * dz.n_eff * logdet - 0.5 * quad


def restricted_fit(
    a: np.ndarray,
    lam0: np.ndarray,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
) -> FitResult:
    """Closed-form fit under the near-unit subspace constraint.

    Maximises the concentrated loglikelihood (OLS variance weight) over
    all coefficients subject to ``Phi @ M(a, lam0) = N(a, lam0)``, a
    linear restriction handled by restricted generalised least squares.
    Because the restriction acts on the regressor side and the weight on
    the equation side, the weight cancels from the estimator (it still
    scales the reported loglikelihood).  It is :func:`_restricted_fits`
    as a batch of one, whose error is raised.
    """
    dz = _as_design(data, k, det, design)
    lam0 = _as_block(lam0, dz)
    q = lam0.shape[0]
    a = np.asarray(a, dtype=float).reshape(dz.p - q, q)
    fit = _restricted_fits(a[None], lam0[None], dz, ["converged"], [None])[0]
    if isinstance(fit, QcvarError):
        raise fit
    return fit


@np.errstate(over="ignore", invalid="ignore")
def _restricted_fits(a: np.ndarray, lams: np.ndarray, dz: Design, status: list,
                     evaluations: list) -> list:
    """:func:`restricted_fit` at each block of the (G, r, q) and (G, q, q) stacks a and lams, or the
    block's QcvarError, reported with ``evaluations[g]`` and, where the constraint holds,
    ``status[g]``.  A singular K'QK (NaN by :func:`_per_block`) or non-finite products flow,
    unwarned, to the report: the block's SingularDesignError, NumericalError or an infinite
    constraint residual; a singular OLS weight is raised.  Each product runs within a block, so no
    block's bits depend on the others."""
    G, q = lams.shape[:2]
    _, M, N = constraint_matrices(a, lams, dz.k)
    K = np.concatenate([np.zeros((G, dz.n_det, q)), M], axis=1)
    QK = dz.Q @ K
    correction = _per_block(np.linalg.solve, K.swapaxes(1, 2) @ QK,
                            QK.swapaxes(1, 2))  # (K'QK)^-1 K'Q
    theta = dz.theta_ols - (dz.theta_ols @ K - N) @ correction  # Johansen (1995, ch. 7)
    det_block, phi_block = dz.split_theta(theta)
    ssr = dz.ssr(theta)
    resid, phis = (phi_block @ M - N).reshape(G, 1, -1), phi_block.reshape(G, 1, -1)
    resid_norm = np.sqrt(resid @ resid.swapaxes(1, 2)).ravel()  # Frobenius norms, as np.linalg.norm
    feasible = resid_norm <= 1e-8 * (1.0 + np.sqrt(phis @ phis.swapaxes(1, 2)).ravel())
    loglik = dz.loglik_fixed_weight(ssr)
    singular, broken = ~np.isfinite(correction).all((1, 2)), ~np.isfinite(loglik)
    sigma = ssr / dz.n_eff
    det_coeffs = [None] * G if det_block is None else dz.unscale_det(det_block)
    out = []
    for g in range(G):
        if singular[g]:
            out.append(SingularDesignError("restricted design is singular at this (a, lam0)"))
        elif broken[g]:
            out.append(NumericalError(f"non-finite residual moments at lam0 = {lams[g].tolist()}"))
        else:
            out.append(FitResult(coeffs=VarCoefficients.from_stacked(phi_block[g], dz.k),
                                 sigma=sigma[g], det_coeffs=det_coeffs[g], loglik=loglik[g],
                                 det=dz.det, n_eff=dz.n_eff,
                                 status=status[g] if feasible[g] else "constraint-infeasible",
                                 constraint_residual=float(resid_norm[g]), a_hat=a[g],
                                 evaluations=evaluations[g]))
    return out


def _wald_form(lams: np.ndarray, dz: Design):
    """The search objective ``f(a) = 2 (loglik_ols - restricted_fit(a).loglik)`` at each block of
    the (G, q, q) stack ``lams``, with its analytic gradient and Hessian.

    The constraint ``Phi M = N`` is linear in Phi, so under the fixed OLS weight Sigma ``f`` is the
    Wald form ``tr(Sigma^-1 g K g')`` exactly, with ``g = Phi_hat M - N`` and ``K = G^-1``,
    ``G = M'HM`` (H the lag block of ``dz.Q``).  M and N are affine in a; with their constant
    derivatives ``M_e, N_e`` in an entry a_e, built once per block, ``g_e = Phi_hat M_e - N_e``,
    ``G_e = M_e'HM + M'HM_e``, ``G_ef = M_e'HM_f + M_f'HM_e`` and ``X = K g'Sigma^-1 g K``, the
    gradient is ``2 tr(Sigma^-1 g_e K g') - tr(G_e X)`` and the Hessian ``2 tr(Sigma^-1 g_e K g_f')
    - 2 tr(Sigma^-1 g_e K G_f K g') - 2 tr(Sigma^-1 g_f K G_e K g') + 2 tr(G_f K G_e X)
    - tr(G_ef X)``.  ``evaluate(a, idx)`` returns them at the (m, r, q) stack a of the blocks idx,
    shaped (m,), as a and (m, r, q, r, q); NaN where G does not invert.  Each product runs within
    a block, so no block's bits depend on the blocks that share its call.
    """
    G, q = lams.shape[:2]
    r = dz.p - q
    phi = dz.theta_ols[:, dz.n_det:]
    H = dz.Q[dz.n_det:, dz.n_det:]
    S = dz.solve_weight(np.eye(dz.p))
    units = np.broadcast_to(np.eye(r * q).reshape(r * q, r, q), (G, r * q, r, q))
    _, M0, N0 = constraint_matrices(np.zeros((G, 1, r, q)), lams[:, None], dz.k)
    _, M1, N1 = constraint_matrices(units, lams[:, None], dz.k)
    Ms = M1 - M0  # M_e, e over the entries of a, row-major
    gs = phi @ Ms - (N1 - N0)
    gsT = gs.swapaxes(2, 3)
    Sgs = S @ gs
    MsT = Ms.swapaxes(2, 3)
    HMs = H @ Ms

    def tr(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """tr(A_e B_f) per block: stacks (m, E, x, y) and (m, F, y, x) give (m, E, F)."""
        m, E, x, y = A.shape
        return A.reshape(m, E, x * y) @ B.swapaxes(2, 3).reshape(m, -1, x * y).swapaxes(1, 2)

    def evaluate(a: np.ndarray, idx) -> tuple:
        _, M, N = constraint_matrices(a, lams[idx], dz.k)
        g = phi @ M - N
        HM = H @ M
        K = _per_block(np.linalg.inv, M.swapaxes(1, 2) @ HM)[:, None]
        P = S @ g @ K[:, 0]
        Pt = P.swapaxes(1, 2)[:, None]
        X = K @ g.swapaxes(1, 2)[:, None] @ P[:, None]
        Gs = HM.swapaxes(1, 2)[:, None] @ Ms[idx] + MsT[idx] @ HM[:, None]  # G_e
        half = (tr(gsT[idx], Sgs[idx] @ K) + tr(Gs @ X, Gs @ K)  # the Hessian is half + half'
                - tr(MsT[idx], HMs[idx] @ X) - 2.0 * tr(Pt @ gs[idx] @ K, Gs))
        f = tr(Pt, g[:, None])[:, 0, 0]
        grad = 2.0 * tr(Pt, gs[idx])[:, 0] - tr(Gs, X)[..., 0]
        hess = half + half.swapaxes(1, 2)
        return f, grad.reshape(a.shape), hess.reshape(len(a), r, q, r, q)

    return evaluate


def _per_block(solve, *stacks: np.ndarray) -> np.ndarray:
    """``solve`` (np.linalg's inv, cholesky or solve) per block of the stacks; NaN if it fails."""
    try:
        return solve(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.full_like(stacks[-1], np.nan)
        return np.concatenate([_per_block(solve, *(s[None] for s in b)) for b in zip(*stacks)])


def profile_a(
    lam0: np.ndarray,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    init: Optional[np.ndarray] = None,
    fixed_entry: Optional[tuple[int, int, float]] = None,
    design: Optional[Design] = None,
) -> FitResult:
    """Profile the concentrated loglikelihood over the subspace matrix a.

    With ``fixed_entry=(i, j, a0)`` the (i, j) coordinate is frozen at ``a0``, the restricted side
    of the coefficient LR test.  For a scalar block ``lam0 * I_q`` the profile is
    :func:`restricted_fit` at the ``a`` of an eigenproblem that shares its argmax: the top r
    eigenvectors of :func:`_known_vector_moments`, and with a fixed entry at p >= 3 the switching
    algorithm of :func:`_restricted_basis` (one sweep at min(q, r) = 1); at p = 2 the fixed entry
    is all of a.  ``init`` is then unused.  For a non-scalar block it is the damped Newton loop of
    :func:`_search` as a batch of one, from ``init`` (default: the OLS split's a), and the block's
    error is raised; an ``init`` of another size than r x q is a :class:`DomainError`.
    """
    dz = _as_design(data, k, det, design)
    lam0 = _as_block(lam0, dz)
    q = lam0.shape[0]
    r = dz.p - q

    if fixed_entry is not None:
        i, j, a0 = fixed_entry
        _check_entry(i, j, a0, r, q)

    if r == 0:
        return restricted_fit(np.zeros((r, q)), lam0, data, k, det, design=dz)

    if _is_scalar(lam0):
        if fixed_entry is not None and dz.p == 2:
            a_hat = np.full((1, 1), a0)
        else:
            A, S11 = _known_vector_moments(lam0[0, 0], dz)
            a_hat = (_normalise(_eigh_pair(A, S11)[1][:, q:]) if fixed_entry is None
                     else _fixed_entry_a(A, S11, i, j, a0, r)[0])
        return restricted_fit(a_hat, lam0, data, k, det, design=dz)

    if init is not None and np.size(init) != r * q:
        raise DomainError(f"init must be the ({r}, {q}) matrix a, got shape {np.shape(init)}")
    fit = _search(lam0[None], dz, init, fixed_entry)[0]
    if isinstance(fit, QcvarError):
        raise fit
    return fit


def _search(lams: np.ndarray, dz: Design, start=None, fixed_entry=None) -> list:
    """Per block of the (G, q, q) stack ``lams``, the closed-form fit at the a minimising its
    :func:`_wald_form` with ``fixed_entry=(i, j, a0)`` frozen, from ``start`` (default: the OLS
    split's a, kept per design and q), by one damped Newton loop (Nocedal & Wright 2006, ch. 3)
    that evaluates each block in it once a round.  A step is ``-H^-1 g``, H shifted by the first
    ``mu = 1e-8 max|H| 10^m`` at which it factors, halved until ``f(x + t s) <= f(x) - 1e-4 t
    g'H^-1 g`` (Armijo).  A block leaves ``converged`` once the unshifted ``g'H^-1 g`` is at most
    ``64 eps max(1, |f|)``, the objective's rounding, and ``max-iter`` after 100 steps or when no
    backtracked step lowers f, unless the fit is infeasible.  A non-finite f, gradient or Hessian
    (a singular G too), or any other failure in the loop, is the block's NumericalError instead.
    At q = p a is empty, and the fit is the profile.  One :func:`_restricted_fits` reports them.
    """
    G, q = lams.shape[:2]
    r = dz.p - q
    if r == 0:
        return _restricted_fits(np.zeros((G, 0, q)), lams, dz, ["converged"] * G, [None] * G)
    if start is None:  # the OLS split's a, built once per (design, q)
        start = dz._moments.get(("split", q))
    if start is None:
        try:
            start = split(ols_fit(None, dz.k, dz.det, design=dz).coeffs, q,
                          warn_ill_conditioned=False).a
        except QcvarError:
            start = np.zeros((r, q))
        dz._moments["split", q] = start
    base = np.empty((G, r * q))  # a, flattened row-major
    base[:] = np.ravel(start)
    free = slice(None)  # the free entries of a
    if fixed_entry is not None:
        i, j, a0 = fixed_entry
        base[:, i * q + j] = a0
        free = np.delete(np.arange(r * q), i * q + j)
    eye = np.eye(base[0, free].size)
    rounding = 64 * np.finfo(float).eps  # of the objective, relative to max(1, |f|)
    where = f"search at lam0 = {{}}, fixed entry {fixed_entry}"
    out = [None] * G
    status = np.full(G, "max-iter", dtype=object)
    evaluations = np.zeros(G, int)
    rounds = 0
    # per block in the loop: its index, its trial a, its accepted point x (the free entries of a)
    # and f there, and the step from x, with its decrement g'H^-1 g, its length t and the count of
    # steps
    idx = np.arange(G)
    a = base.copy()
    x = base[:, free].copy()
    f = np.full(G, np.inf)
    step = np.zeros_like(x)
    decrement = np.zeros(G)
    t = np.ones(G)
    steps = np.zeros(G, int)
    trial = x
    try:
        evaluate = _wald_form(lams, dz)
        while idx.size:
            a[:, free] = trial
            rounds += 1
            f_t, grad, hess = evaluate(a.reshape(-1, r, q), idx)
            grad = grad.reshape(len(a), -1)[:, free]
            hess = hess.reshape(len(a), r * q, -1)[:, free][:, :, free]
            ok = np.isfinite(f_t) & np.isfinite(grad).all(1) & np.isfinite(hess).all((1, 2))
            for m in np.flatnonzero(~ok):  # the block leaves with its error
                g = idx[m]
                out[g] = NumericalError(where.format(lams[g].tolist()) + ": the Wald form is not "
                                        f"finite at a = {a[m].reshape(r, q).tolist()}")
            better = ok & (f_t <= f - 1e-4 * t * decrement)  # at the start, any finite f
            new = better & (steps < 100)
            # the same selections as basic slices in the common round, where every block steps
            accept = slice(None) if better.all() else better
            sel = slice(None) if new.all() else new
            t[~better] /= 2.0  # Armijo backtracking
            x[accept] = trial[accept]
            f[accept] = f_t[accept]
            hess = hess[sel]
            mu = np.zeros((len(hess), 1, 1))
            L = _per_block(np.linalg.cholesky, hess + mu * eye)
            while (shift := ~np.isfinite(L).all((1, 2))).any():  # the Levenberg shift
                first = 1e-8 * np.abs(hess[shift]).max((1, 2), keepdims=True)
                first = np.maximum(first, np.finfo(float).tiny)
                mu[shift] = np.where(mu[shift] > 0.0, 10.0 * mu[shift], first)
                L[shift] = _per_block(np.linalg.cholesky, hess[shift] + mu[shift] * eye)
            half = np.linalg.solve(L, grad[sel][..., None])  # L^-1 g
            step[sel] = -np.linalg.solve(L.swapaxes(1, 2), half)[..., 0]
            decrement[sel] = (half.swapaxes(1, 2) @ half).ravel()
            t[sel] = 1.0
            steps[sel] += 1
            # the Newton step's predicted gain, decrement / 2, is below the objective's rounding
            converged = new & (decrement <= rounding * np.maximum(1.0, np.abs(f)))
            converged[sel] &= mu.ravel() == 0.0
            trial = x + t[:, None] * step
            # a block also leaves after its 100th step, or when no backtracked step moves x
            stay = ok & ~converged & (new | ~better) & (trial != x).any(axis=1)
            if not stay.all():
                status[idx[converged]] = "converged"
                evaluations[idx[~stay]] = rounds
                a[:, free] = x
                base[idx[~stay]] = a[~stay]
                idx, a, x, f, step, decrement, t, steps, trial = (
                    v[stay] for v in (idx, a, x, f, step, decrement, t, steps, trial))
    except Exception as exc:
        for g in (g for g in idx if out[g] is None):
            out[g] = exc if isinstance(exc, QcvarError) else NumericalError(
                where.format(lams[g].tolist()) + f" failed: {exc!r}")
    todo = [g for g in range(G) if out[g] is None]
    if todo:
        fits = _restricted_fits(base[todo].reshape(-1, r, q), lams[todo], dz,
                                status[todo].tolist(), evaluations[todo].tolist())
        for g, fit in zip(todo, fits):
            out[g] = fit
    return out


def _partialled_moments(lambda0: float, dz: Design):
    """Column maps ``t0, t1, T2`` of ``dz.W`` giving the quasi-differences ``Z0 = Y - W t0``, the
    lag-k levels ``Z1 = W t1`` and the free regressors ``Z2 = W T2`` (deterministic terms and
    lagged quasi-differences); the coefficients ``C0, C1`` of Z0 and Z1 on Z2; S00, S01, S11
    given Z2.  ``Z0 = Z1 Pi' + Z2 G'`` reparametrises the levels VAR for every lambda0, with
    ``Pi = sum_i Phi_i lambda0^(k-i) - lambda0^k I``."""
    p, n_det = dz.p, dz.n_det
    eye = np.eye(dz.d)
    lags = [eye[:, n_det + i * p: n_det + (i + 1) * p] for i in range(dz.k)]  # y_{t-1}, ..., y_{t-k}
    t0, t1 = lambda0 * lags[0], lags[-1]
    T2 = np.hstack([eye[:, :n_det]] + [lags[i] - lambda0 * lags[i + 1] for i in range(dz.k - 1)])
    Z0 = dz.Y - dz.W @ t0
    Z1 = dz.W @ t1
    Z2 = dz.W @ T2
    C0, *_ = np.linalg.lstsq(Z2, Z0, rcond=None)
    C1, *_ = np.linalg.lstsq(Z2, Z1, rcond=None)
    R0 = Z0 - Z2 @ C0
    R1 = Z1 - Z2 @ C1

    S00 = R0.T @ R0 / dz.n_eff
    S11 = R1.T @ R1 / dz.n_eff
    S01 = R0.T @ R1 / dz.n_eff
    return t0, t1, T2, C0, C1, S00, S01, S11


def _canonical_basis(S00: np.ndarray, S01: np.ndarray, S11: np.ndarray, rank: int) -> np.ndarray:
    """The ``rank`` leading canonical-correlation directions of the levels."""
    try:
        target = S01.T @ cho_solve(cho_factor(S00), S01)
    except np.linalg.LinAlgError as exc:  # S00 singular: a quasi-difference fitted exactly
        raise NumericalError(f"canonical correlation eigenproblem failed: {exc}") from exc
    return _eigh_pair(0.5 * (target + target.T), S11)[1][:, ::-1][:, :rank]  # descending order


def _normalise(beta: np.ndarray) -> np.ndarray:
    """The ``a`` of the p x r basis ``beta`` rescaled to ``[I_r; -a']``."""
    r = beta.shape[1]
    try:
        return -np.linalg.solve(beta[:r].T, beta[r:].T)
    except np.linalg.LinAlgError as exc:
        raise NormalizationError(
            "leading block of the estimated quasi-cointegrating basis is "
            "singular; consider reordering the series"
        ) from exc


def _eigh_pair(A: np.ndarray, B: np.ndarray, eigvals_only: bool = False):
    """:func:`scipy.linalg.eigh` of the symmetric-definite pair (A, B), ascending; a failure is a
    :class:`NumericalError`."""
    try:
        return eigh(A, B, eigvals_only=eigvals_only)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"canonical correlation eigenproblem failed: {exc}") from exc


def _known_vector_moments(lambda0: float, dz: Design) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(A, S11)`` of a scalar block's profile and LRs, from one set of moments.

    With ``A = S10 Sigma^-1 S01`` (``Sigma`` the OLS weight), the fixed-weight loglik at a basis
    ``beta`` is a constant plus ``(n_eff/2) tr[(beta'S11 beta)^-1 beta'A beta]``.  Its maximum over
    rank-r bases is the sum of the top r eigenvalues of (A, S11), at r = p (OLS) of all; under
    ``a[i, j] = a0`` it is at :func:`_restricted_basis`.  An LR is n_eff times a difference.  The
    pair is kept in ``dz._moments``, read-only, so the statistics of one design build it once."""
    lambda0 = float(lambda0)
    if lambda0 not in dz._moments:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pair is raised below
            *_, S01, S11 = _partialled_moments(lambda0, dz)
            A = S01.T @ dz.solve_weight(S01)
        if not (np.isfinite(A).all() and np.isfinite(S11).all()):
            raise NumericalError(f"the partialled moments at lambda0 = {lambda0} are not finite")
        A, S11 = dz._moments[lambda0] = 0.5 * (A + A.T), S11
        A.flags.writeable = S11.flags.writeable = False
    return dz._moments[lambda0]


def _restricted_basis(A: np.ndarray, S11: np.ndarray, i: int, j: int, a0: float, r: int):
    """The best p x r basis beta of (A, S11) given ``a[i, j] = a0`` at a scalar block, and its
    criterion ``tr[(beta'S11 beta)^-1 beta'A beta]``, by the switching algorithm.

    The entry holds exactly when beta = (H phi, psi), ``H = [b, e_(r+l) for l != j]`` and
    ``b = e_i - a0 e_(r+j)`` scaled to unit largest entry (Johansen 1995, ch. 7).  Given psi,
    S11-orthonormal, with P the S11-projection off it, phi is the top eigenvector of
    ``((PH)'A(PH), (PH)'S11(PH))``: the answer at r = 1, where psi is empty.  Given x = H phi,
    with E the columns of I_p but x's largest entry and ``P = I - x x'S11 / x'S11x``, psi is PE
    times the top r - 1 eigenvectors of ``(PE'A PE, PE'S11 PE)``: the answer at q = 1, where x is
    b.  Otherwise the steps alternate, each sweep also trying 4, 16 and 64 times its change in
    phi (Doornik 2018), until the criterion gains no more than its rounding.  That is a
    stationary point, not certainly the global maximum, so it runs from two starts, psi empty
    and the top r - 1 eigenvectors of (A, S11), and keeps the better; ``_MAX_SWEEPS`` sweeps
    short of convergence are a :class:`NumericalError`."""
    eye, q = np.eye(len(A)), len(A) - r
    b = (eye[i] - a0 * eye[r + j]) / max(1.0, abs(a0))
    H = np.column_stack([b, np.delete(eye[:, r:], j, axis=1)])

    def psi_step(x: np.ndarray) -> tuple:
        s1x = S11 @ x
        E = np.delete(eye, np.argmax(np.abs(x)), axis=1)  # x's largest entry: a sound complement
        PE = E - np.outer(x, s1x @ E) / (x @ s1x)
        mu, V = _eigh_pair(PE.T @ A @ PE, PE.T @ S11 @ PE)
        return (PE @ V)[:, q:], x @ A @ x / (x @ s1x) + mu[q:].sum()

    def switching(psi: np.ndarray) -> tuple:
        phi, last = None, -np.inf
        for _ in range(_MAX_SWEEPS):
            PH = H - psi @ (psi.T @ S11 @ H)
            mu, V = _eigh_pair(PH.T @ A @ PH, PH.T @ S11 @ PH)
            if r == 1:
                return H @ V[:, -1:], mu[-1]
            new = V[:, -1]
            new = new / np.copysign(np.linalg.norm(new), 1.0 if phi is None else new @ phi)
            trials = [new] if phi is None else [phi + t * (new - phi) for t in (1, 4, 16, 64)]
            psi, crit, phi = max((psi_step(H @ f) + (f / np.linalg.norm(f),) for f in trials),
                                 key=lambda step: step[1])
            if q == 1 or crit - last <= 4 * np.finfo(float).eps * abs(crit):
                return np.column_stack([H @ phi, psi]), crit
            last = crit
        raise NumericalError(f"the switching algorithm at a[{i}, {j}] = {a0} did not converge "
                             f"in {_MAX_SWEEPS} sweeps")

    starts = [eye[:, :0]] + [_eigh_pair(A, S11)[1][:, q + 1:]] * (min(q, r) > 1)
    return max(map(switching, starts), key=lambda fit: fit[1])


def _fixed_entry_a(A: np.ndarray, S11: np.ndarray, i: int, j: int, a0: float, r: int):
    """The ``a`` of :func:`_restricted_basis` with ``a[i, j] = a0`` exactly, and the coefficient
    LR there over n_eff: the sum of the top r eigenvalues of (A, S11) less the criterion."""
    _check_entry(i, j, a0, r, len(A) - r)
    beta, crit = _restricted_basis(A, S11, i, j, a0, r)
    a_hat = _normalise(beta)
    a_hat[i, j] = a0
    return a_hat, _eigh_pair(A, S11, eigvals_only=True)[len(A) - r:].sum() - crit


def _block_lr(lam0, dz: Design):
    """``2 (loglik_ols - profile loglik)`` at lam0, unclamped, and the fit behind it; at a scalar
    block n_eff times the sum of the q smallest eigenvalues of :func:`_known_vector_moments`
    (Johansen 1995, ch. 6), and no fit.  A non-scalar block is searched once per design, by
    :func:`_search_blocks`, and every statistic at lam0 shares the fit, or raises its error."""
    lam0 = _as_block(lam0, dz)
    if _is_scalar(lam0):
        A, S11 = _known_vector_moments(float(lam0[0, 0]), dz)
        return dz.n_eff * _eigh_pair(A, S11, eigvals_only=True)[: len(lam0)].sum(), None
    key = lam0.tobytes()
    if key not in dz._moments:
        _search_blocks([lam0], dz)
    fit = dz._moments[key]
    if isinstance(fit, QcvarError):
        raise fit
    return 2.0 * (dz.loglik_ols - fit.loglik), fit


def _search_blocks(lams: list, dz: Design) -> None:
    """Search, in one :func:`_search` per q, each non-scalar block of ``lams`` that ``dz._moments``
    lacks, and keep there its fit (read-only) or its error; a block that :func:`_as_block`
    rejects is left to the statistic that reads it."""
    todo = {}
    for lam in lams:
        try:
            lam = _as_block(lam, dz)
        except DomainError:
            continue
        key = lam.tobytes()
        if key not in dz._moments and not _is_scalar(lam):
            todo.setdefault(len(lam), {})[key] = lam
    for blocks in todo.values():
        fits = _search(np.array(list(blocks.values())), dz)
        for key, fit in zip(blocks, fits):
            if isinstance(fit, FitResult):
                fit.a_hat.flags.writeable = False
            dz._moments[key] = fit


def rrr_fit(
    lambda0: float,
    q: int,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
) -> FitResult:
    """Rank-restricted fit for the scalar block ``lam0 * I_q``.

    Quasi-differences the data at ``lambda0`` and solves the canonical
    correlation eigenproblem between the quasi-differences and the lag-k
    levels (free regressors partialled out), which maximises the
    likelihood under a rank p-q restriction on the level coefficient
    ``Pi = sum_i Phi_i lambda0^(k-i) - lambda0^k I``; this holds at every
    ``lambda0``, zero included.  The recovered coefficients are mapped back
    to the levels VAR and evaluated under the common OLS variance weight,
    so the result is directly comparable with :func:`profile_a` at the
    same block.
    """
    dz = _as_design(data, k, det, design)
    lambda0 = float(lambda0)
    p, n_eff = dz.p, dz.n_eff
    if not 0 <= q <= p:
        raise DomainError(f"q must lie in [0, {p}], got {q}")
    r = p - q
    t0, t1, T2, C0, C1, S00, S01, S11 = _partialled_moments(lambda0, dz)

    try:
        if r == 0:
            pi_hat = np.zeros((p, p))
            beta_hat = np.zeros((p, 0))
        elif r == p:
            pi_hat = np.linalg.solve(S11, S01.T).T
            beta_hat = np.eye(p)
        else:
            beta_hat = _canonical_basis(S00, S01, S11, r)
            alpha_hat = S01 @ beta_hat @ np.linalg.inv(beta_hat.T @ S11 @ beta_hat)
            pi_hat = alpha_hat @ beta_hat.T
    except np.linalg.LinAlgError as exc:  # the lag-k levels are collinear given Z2
        raise NumericalError(f"rank-{r} regression at lambda0 = {lambda0} failed: {exc}") from exc

    # Y = W t0 + Z1 Pi' + Z2 (C0 - C1 Pi') in the coefficients of W
    theta = (t0 + t1 @ pi_hat.T + T2 @ (C0 - C1 @ pi_hat.T)).T
    det_block, phi_block = dz.split_theta(theta)
    ssr = dz.ssr(theta)
    coeffs = VarCoefficients.from_stacked(phi_block, k)
    if not np.isfinite(loglik := dz.loglik_fixed_weight(ssr)):
        raise NumericalError(f"non-finite residual moments at lambda0 = {lambda0}")

    lam0 = lambda0 * np.eye(q)
    a_hat = _normalise(beta_hat) if q > 0 else None

    resid_norm = None
    if q > 0:
        _, M, N = constraint_matrices(a_hat, lam0, k)
        resid_norm = float(np.linalg.norm(coeffs.stacked @ M - N))
    return FitResult(
        coeffs=coeffs,
        sigma=ssr / n_eff,
        det_coeffs=dz.unscale_det(det_block) if det_block is not None else None,
        loglik=loglik,
        status="converged",
        det=det,
        n_eff=n_eff,
        constraint_residual=resid_norm,
        a_hat=a_hat,
    )


@dataclass(frozen=True)
class LambdaGrid:
    """Deterministic grid over the near-unit dynamics search space.

    :meth:`points` lists the q-by-q candidate blocks.  For the scalar
    family they are ``lam * I_q`` with lam uniform on [rho, 1] at the
    given eigenvalue step (default 0.005).  For the symmetric family with
    q = 2 they are ``R(theta) diag(e1, e2) R(theta)'``, R a plane rotation,
    over the tensor product of ordered eigenvalue pairs e1 >= e2 on [rho, 1]
    (step ``eig_step``, default 0.01) and angles theta on [0, pi/2) (step
    ``angle_step``).  That grid covers half of the symmetric family: every
    block on it has an off-diagonal ``(e1 - e2) sin(theta) cos(theta) >= 0``,
    so a block with a negative one enters only as an explicit candidate.
    Explicit candidate matrices may be supplied instead via ``candidates``.
    A q below 1, a rho above 1 or not finite, or a step that is not positive
    (or an angle step that is not finite) raises :class:`DomainError`.
    """

    family: str = "scalar"
    q: int = 1
    rho: float = 0.9
    eig_step: Optional[float] = None
    angle_step: float = float(np.pi / 16)
    candidates: Optional[tuple] = None

    def __post_init__(self):
        if self.q < 1 or not -math.inf < self.rho <= 1.0:
            raise DomainError(f"a dynamics grid needs q >= 1 and a finite rho <= 1, got q = "
                              f"{self.q}, rho = {self.rho}")
        if not (self.eig_step is None or self.eig_step > 0) or not 0 < self.angle_step < math.inf:
            raise DomainError(f"each grid step must be positive and the angle step finite, got "
                              f"{self.eig_step} and {self.angle_step}")

    @property
    def resolved_eig_step(self) -> float:
        if self.eig_step is not None:
            return self.eig_step
        return 0.005 if self.family == "scalar" else 0.01

    def points(self) -> list[np.ndarray]:
        step = self.resolved_eig_step
        if self.candidates is not None:
            return [np.atleast_2d(np.asarray(c, dtype=float)) for c in self.candidates]
        n_eig = int(round((1.0 - self.rho) / step)) + 1  # the eigenvalue ladder on [rho, 1]
        eigs = np.array([1.0]) if self.rho >= 1.0 else np.linspace(self.rho, 1.0, max(n_eig, 2))
        if self.family == "scalar":
            return [float(lam) * np.eye(self.q) for lam in eigs]
        if self.family == "symmetric" and self.q == 2:
            n_ang = max(int(round((np.pi / 2) / self.angle_step)), 1)
            angles = np.arange(n_ang) * self.angle_step
            out = []
            for i, e1 in enumerate(eigs):
                for e2 in eigs[: i + 1]:
                    for ang in angles:
                        if e1 == e2 and ang > 0:
                            continue  # rotation is redundant for equal eigenvalues
                        c, s = math.cos(ang), math.sin(ang)
                        Q = np.array([[c, -s], [s, c]])
                        out.append(Q @ np.diag([e1, e2]) @ Q.T)
            return out
        raise DomainError(
            f"no automatic grid for family {self.family!r} with q = {self.q}; "
            "supply explicit candidates"
        )


@dataclass(frozen=True)
class ProfileLambdaResult:
    """Grid profile over the near-unit dynamics space.

    ``trace`` holds a (lam, loglik, status) tuple for each grid block whose
    LR evaluated and ``failures`` a (lam, message) tuple for each that failed.
    """

    best_lam: np.ndarray
    best_fit: FitResult
    trace: tuple
    failures: tuple

    @property
    def loglik(self) -> float:
        return self.best_fit.loglik


def profile_lambda(
    lambda_space: LambdaGrid,
    data: np.ndarray,
    k: int,
    det: str,
    *,
    design: Optional[Design] = None,
    refine: bool = False,
) -> ProfileLambdaResult:
    """Maximise the profile loglikelihood over a grid of dynamics blocks.

    Ranks the grid blocks by the LR of :func:`_block_lr`, which does not depend on the grid's
    order; ``trace`` holds ``(lam, loglik_ols - lr / 2, status)`` for each block that evaluates
    and ``failures`` each that raises.  ``refine=True`` (scalar family) polishes the best node
    between its neighbours: at q = 1 to the real root (imaginary part exactly 0) of the OLS VAR
    there nearest it, the larger at equal distance, where the LR is 0 (S01, so by Frisch-Waugh the
    OLS ``sum_i Phi_i lam^(k-i) - lam^k I``, is singular; Johansen 1995, ch. 6), else (q >= 2 or
    no such root) by a bounded search.  A failing block ends either at the grid's best node.  The
    best block is reported with its :func:`profile_a` fit, whose error is raised.
    """
    dz = _as_design(data, k, det, design)
    pts = lambda_space.points()
    if not pts:
        raise DomainError("lambda grid is empty")
    if lambda_space.q > 1:  # a 1 x 1 block is scalar
        _search_blocks(pts, dz)
    failures, nodes = [], []

    def block_lr(lam: np.ndarray):
        try:
            return _block_lr(lam, dz)
        except QcvarError as exc:
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            raise

    for lam in pts:
        try:
            lr, fit = block_lr(lam)
        except QcvarError:
            continue
        nodes.append((lr, lam, fit))
    if not nodes:
        raise NumericalError(f"every grid point failed ({len(failures)} points); the first "
                             f"failed with {failures[0][1]}")
    best_lr, best_lam, best_fit = min(nodes, key=lambda node: node[0])

    if refine and lambda_space.candidates is None and lambda_space.family == "scalar":
        step, eye, node = lambda_space.resolved_eig_step, np.eye(lambda_space.q), best_lam[0, 0]
        lo, hi = max(lambda_space.rho, node - step), min(1.0, node + step)
        real = [] if lambda_space.q > 1 else [z.real for z in roots(ols_fit(
            None, k, det, design=dz).coeffs).roots if z.imag == 0 and lo <= z.real <= hi]
        try:
            if real:  # the LR is 0 there: the nearest root, the larger on a tie
                lam = min(real, key=lambda z: (abs(z - node), -z))
            else:
                from scipy.optimize import minimize_scalar
                lam = minimize_scalar(lambda lam: block_lr(lam * eye)[0], bounds=(lo, hi),
                                      method="bounded", options={"xatol": 1e-8}).x
            if block_lr(lam * eye)[0] < best_lr:
                best_lam = float(lam) * eye
        except QcvarError:
            pass  # recorded above; the grid's best node stands

    return ProfileLambdaResult(
        best_lam=best_lam,
        best_fit=best_fit or profile_a(best_lam, data, k, det, design=dz),
        trace=tuple((lam, dz.loglik_ols - 0.5 * lr, "converged" if fit is None else fit.status)
                    for lr, lam, fit in nodes),
        failures=tuple(failures),
    )
