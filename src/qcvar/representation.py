"""Impulse responses, the quasi-cointegrating basis, state decomposition,
and first-order perturbation Jacobians of the subspace functionals.

Everything here is a pure function of a :class:`~qcvar.spectral.SpectralSplit`
(or of raw coefficients), so results are deterministic and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_sylvester

from .exceptions import DomainError, RootSeparationError
from .spectral import SpectralSplit, VarCoefficients

__all__ = [
    "ImpulseResponse",
    "QcsBasis",
    "StateDecomposition",
    "PerturbationJacobians",
    "irf",
    "qcs_basis",
    "decay_profile",
    "state_decompose",
    "apply_b",
    "b_matrix",
    "jacobians",
    "adjustment_alpha",
]


def _vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation (consistent with Kronecker identities)."""
    return np.asarray(m).flatten(order="F")


@dataclass(frozen=True)
class ImpulseResponse:
    """Response of y at the given horizon to a one-period reduced-form shock.

    ``value = near_part + stable_part``, the two summands being the
    contributions of the near-unit and stable blocks.  At horizon 0 the
    response is the identity by convention, attributed entirely to
    ``stable_part``.
    """

    horizon: int
    value: np.ndarray
    near_part: np.ndarray
    stable_part: np.ndarray


def irf(split_: SpectralSplit, s: int) -> ImpulseResponse:
    """Impulse response at horizon ``s >= 0``.

    For s >= 1 the response is ``R lam^(k-1+s) L^T`` with the near/stable
    decomposition applied blockwise; at s = 0 it is the identity.
    """
    if s < 0:
        raise DomainError(f"horizon must be nonnegative, got {s}")
    p = split_.p
    if s == 0:
        eye = np.eye(p)
        return ImpulseResponse(0, eye, np.zeros((p, p)), eye.copy())
    power = split_.k - 1 + s
    near = split_.r_near @ np.linalg.matrix_power(split_.lam_near, power) @ split_.l_near.T
    stable = split_.r_stable @ np.linalg.matrix_power(split_.lam_stable, power) @ split_.l_stable.T
    return ImpulseResponse(s, near + stable, near, stable)


@dataclass(frozen=True)
class QcsBasis:
    """Basis of the quasi-cointegrating space, normalised as [I_r, -A].

    The columns of ``beta`` (p-by-r) annihilate the near-unit right
    basis: ``beta.T @ r_near = 0``.
    """

    beta: np.ndarray


def qcs_basis(split_: SpectralSplit) -> QcsBasis:
    """Normalised basis of the orthocomplement of the near-unit subspace."""
    r, q = split_.r, split_.q
    beta = np.vstack([np.eye(r), -split_.a.T])
    assert beta.shape == (split_.p, r)
    return QcsBasis(beta=beta)


def decay_profile(split_: SpectralSplit, b: np.ndarray, s_max: int) -> np.ndarray:
    """Norms ``||b^T IRF_s||`` for horizons s = 1..s_max.

    Directions inside the quasi-cointegrating space decay strictly
    faster (relative to rho^s) than any direction outside it.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != split_.p or not np.any(b):
        raise DomainError("b must be a nonzero p-vector")
    lam = split_.lam
    R = np.hstack([split_.r_near, split_.r_stable])
    L = np.hstack([split_.l_near, split_.l_stable])
    v = R.T @ b  # b^T R lam^m L^T  ==  (L lam^T^m R^T b)^T
    v = np.linalg.matrix_power(lam.T, split_.k) @ v
    out = np.empty(s_max)
    for s in range(1, s_max + 1):
        out[s - 1] = np.linalg.norm(L @ v)
        v = lam.T @ v
    return out


@dataclass(frozen=True)
class StateDecomposition:
    """Near-unit / stable state paths underlying an observed sample path.

    With ``split_`` the split the states were read with, the paths satisfy
    ``x_t = r_near lam_near^k z_near[t-1] + r_stable lam_stable^k z_stable[t-1]
    + eps_t`` (with zero states before the sample) up to ``residual``.
    """

    z_near: np.ndarray
    z_stable: np.ndarray
    residual: np.ndarray


def state_decompose(split_: SpectralSplit, x: np.ndarray, eps: np.ndarray) -> StateDecomposition:
    """Decompose a zero-initialised sample path into latent AR states.

    The states are read off the stacked path via the left bases,
    ``z_near[t] = big_l_near.T @ (x_t, ..., x_{t-k+1})``, and follow
    first-order autoregressions driven by ``l_near.T @ eps_t`` (and the
    stable analogue).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    if x.shape != eps.shape:
        raise DomainError(f"x path {x.shape} and eps path {eps.shape} differ in shape")
    n, p = x.shape
    if p != split_.p:
        raise DomainError(f"path dimension {p} does not match split dimension {split_.p}")
    k, q = split_.k, split_.q

    stacked = np.zeros((n, k * p))
    for i in range(k):
        stacked[i:, i * p:(i + 1) * p] = x[: n - i]
    z_near = stacked @ split_.big_l_near
    z_stable = stacked @ split_.big_l_stable

    phi_near = split_.r_near @ np.linalg.matrix_power(split_.lam_near, k)
    phi_stable = split_.r_stable @ np.linalg.matrix_power(split_.lam_stable, k)

    z_near_lag = np.vstack([np.zeros((1, q)), z_near[:-1]])
    z_stable_lag = np.vstack([np.zeros((1, k * p - q)), z_stable[:-1]])
    residual = x - z_near_lag @ phi_near.T - z_stable_lag @ phi_stable.T - eps
    return StateDecomposition(z_near=z_near, z_stable=z_stable, residual=residual)


def _check_block_eig_separation(split_: SpectralSplit) -> None:
    if split_.q == 0 or split_.lam_stable.shape[0] == 0:
        return
    near = np.linalg.eigvals(split_.lam_near)
    stable = np.linalg.eigvals(split_.lam_stable)
    dist = np.abs(near[:, None] - stable[None, :])
    if dist.min() <= 1e-10 * max(1.0, np.abs(near).max()):
        raise RootSeparationError(
            "near-unit and stable eigenvalue sets collide; the perturbation "
            "kernel is singular"
        )


def apply_b(split_: SpectralSplit, m: np.ndarray) -> np.ndarray:
    """Apply the perturbation kernel to a p-by-q direction matrix.

    Returns the p-by-q matrix whose vectorisation equals ``B @ vec(m)``;
    computed by a Sylvester solve per direction instead of forming the
    pq-by-pq kernel inverse.
    """
    _check_block_eig_separation(split_)
    m = np.asarray(m, dtype=float)
    if m.shape != (split_.p, split_.q):
        raise DomainError(f"direction matrix must be {(split_.p, split_.q)}, got {m.shape}")
    # X lam_near - lam_stable X = l_stable^T m
    X = solve_sylvester(-split_.lam_stable, split_.lam_near, split_.l_stable.T @ m)
    return split_.r_stable @ X


def b_matrix(split_: SpectralSplit) -> np.ndarray:
    """The pq-by-pq perturbation kernel as an explicit matrix.

    Column c is ``vec(apply_b(E_c))`` for the c-th column-major unit
    direction E_c.
    """
    p, q = split_.p, split_.q
    out = np.empty((p * q, p * q))
    for c in range(p * q):
        e = np.zeros((p, q))
        e[c % p, c // p] = 1.0
        out[:, c] = _vec(apply_b(split_, e))
    return out


@dataclass(frozen=True)
class PerturbationJacobians:
    """First differentials of the subspace functionals A and lam_near.

    ``vec(dA) = j_a @ vec(dPhi @ big_r_near)`` and likewise for
    ``j_lam``; both are built on the pq-by-pq kernel :func:`b_matrix`.
    """

    j_a: np.ndarray
    j_lam: np.ndarray


def jacobians(split_: SpectralSplit) -> PerturbationJacobians:
    """Jacobians of A and of the near-unit dynamics block.

    Requires the near-unit and stable eigenvalue sets to be disjoint;
    raises :class:`RootSeparationError` otherwise.
    """
    q, r = split_.q, split_.r
    B = b_matrix(split_)
    beta = qcs_basis(split_).beta
    iq = np.eye(q)
    j_a = np.kron(iq, beta.T) @ B
    g_t = np.hstack([np.zeros((q, r)), iq])  # selector of the trailing q rows
    commutator = np.kron(split_.lam_near.T, iq) - np.kron(iq, split_.lam_near)
    j_lam = commutator @ np.kron(iq, g_t) @ B + np.kron(iq, split_.l_near.T)
    return PerturbationJacobians(j_a=j_a, j_lam=j_lam)


def adjustment_alpha(coeffs: VarCoefficients, qcs: QcsBasis) -> np.ndarray:
    """Loading matrix ``(I - sum_i Phi_i) beta (beta^T beta)^{-1}``.

    Spans the orthocomplement of the near-unit left basis; a natural
    choice of adjustment loadings for the quasi-cointegrating relations.
    """
    beta = qcs.beta
    phi_at_one = np.eye(coeffs.p) - sum(coeffs.phi)
    return phi_at_one @ beta @ np.linalg.inv(beta.T @ beta)
