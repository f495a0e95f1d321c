"""Companion form, characteristic roots, and invariant-subspace splitting.

The central object is :class:`SpectralSplit`: a decomposition of the
companion matrix of a VAR(k) into the block associated with the q
largest characteristic roots (the "near-unit" block, normalised so the
right basis is [A; I_q]) and the complementary "stable" block.  All
downstream analysis (quasi-cointegrating space, impulse-response decay,
likelihood restrictions) is phrased in terms of this split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import schur, solve_sylvester

from .exceptions import (
    BoundaryWarning,
    ClassificationError,
    ConditionWarning,
    DomainError,
    NormalizationError,
    NumericalError,
    RootSeparationError,
)

__all__ = [
    "VarCoefficients",
    "RootSet",
    "RegionSpec",
    "Classification",
    "SpectralSplit",
    "companion",
    "roots",
    "classify",
    "split",
    "reconstruct",
    "constraint_matrices",
    "half_life_to_radius",
    "radius_to_half_life",
]

#: Relative modulus gap below which the q / q+1 root separation is
#: treated as numerically ill conditioned.
SEPARATION_TOL = 1e-8

#: Distance to a region boundary below which a classification warning
#: is attached.
BOUNDARY_TOL = 1e-10

#: Condition number of the eigenvector matrix of the near-unit block
#: above which a diagonalisability warning is emitted.
DIAGONALISABILITY_COND = 1e6


@dataclass(frozen=True)
class VarCoefficients:
    """Stacked lag matrices of a VAR(k) in p variables.

    Parameters
    ----------
    p : int
        Series dimension.
    k : int
        Lag order.
    phi : tuple of ndarray
        The k lag matrices, each p-by-p.
    """

    p: int
    k: int
    phi: tuple

    def __post_init__(self):
        if self.p < 1 or self.k < 1:
            raise DomainError("p and k must be positive integers")
        mats = tuple(np.asarray(m, dtype=float) for m in self.phi)
        if len(mats) != self.k:
            raise DomainError(f"expected {self.k} lag matrices, got {len(mats)}")
        for m in mats:
            if m.shape != (self.p, self.p):
                raise DomainError(f"lag matrix has shape {m.shape}, expected {(self.p, self.p)}")
            if not np.all(np.isfinite(m)):
                raise DomainError("lag matrices must be finite-valued")
        object.__setattr__(self, "phi", mats)

    @classmethod
    def from_matrices(cls, phi: Sequence[np.ndarray]) -> "VarCoefficients":
        """Build from a sequence of square lag matrices."""
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in phi]
        return cls(p=mats[0].shape[0], k=len(mats), phi=tuple(mats))

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, k: int) -> "VarCoefficients":
        """Build from the p-by-kp horizontally stacked coefficient matrix."""
        stacked = np.atleast_2d(np.asarray(stacked, dtype=float))
        p = stacked.shape[0]
        if stacked.shape[1] != k * p:
            raise DomainError(f"stacked matrix has {stacked.shape[1]} columns, expected {k * p}")
        return cls(p=p, k=k, phi=tuple(stacked[:, i * p:(i + 1) * p] for i in range(k)))

    @property
    def stacked(self) -> np.ndarray:
        """The p-by-kp matrix [Phi_1 ... Phi_k]."""
        return np.hstack(self.phi)


@dataclass(frozen=True)
class RootSet:
    """Characteristic roots sorted by descending modulus.

    Ties are broken by descending real part, then by placing the root
    with nonnegative imaginary part first, so that selection of the q
    largest roots is deterministic.
    """

    roots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))

    def __len__(self):
        return len(self.roots)


def _sort_roots(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return values[order]


@dataclass(frozen=True)
class RegionSpec:
    """Radius rho defining the near-unit and stable root regions.

    The near-unit region is {z : |z| <= 1 and |1 - z| <= 1 - rho}, a
    lens-shaped neighbourhood of +1 inside the unit circle; the stable
    region is the open ball {z : |z| < rho}.  They are disjoint for
    every rho in (0, 1].
    """

    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")

    def in_near_unit(self, z: complex) -> bool:
        return abs(z) <= 1.0 + BOUNDARY_TOL and abs(1.0 - z) <= (1.0 - self.rho) + BOUNDARY_TOL

    def in_stable(self, z: complex) -> bool:
        return abs(z) < self.rho

    def near_boundary(self, z: complex) -> bool:
        return (
            abs(abs(z) - 1.0) <= BOUNDARY_TOL
            or abs(abs(1.0 - z) - (1.0 - self.rho)) <= BOUNDARY_TOL
            or abs(abs(z) - self.rho) <= BOUNDARY_TOL
        )


@dataclass(frozen=True)
class Classification:
    """Per-root region labels and the implied near-unit count q."""

    q: int
    labels: tuple


@dataclass(frozen=True)
class SpectralSplit:
    """Invariant-subspace decomposition of a VAR companion matrix.

    Attributes
    ----------
    p, k, q : int
        Series dimension, lag order and the number of near-unit roots.
    a : ndarray
        (p-q)-by-q coefficients of the normalised near-unit basis
        ``r_near = [a; I_q]``; the rows of ``[I_r, -a]`` span the
        quasi-cointegrating space.
    lam_near, lam_stable : ndarray
        q-by-q and (kp-q)-by-(kp-q) dynamics blocks whose eigenvalues
        are the near-unit and stable characteristic roots.
    r_near, r_stable : ndarray
        p-by-q and p-by-(kp-q) right bases.
    l_near, l_stable : ndarray
        p-by-q and p-by-(kp-q) left bases.
    big_r, big_l : ndarray
        kp-by-kp stacked right/left bases of the companion matrix,
        satisfying ``big_l.T @ big_r = I`` and
        ``F = big_r @ diag(lam_near, lam_stable) @ big_l.T``.
    """

    p: int
    k: int
    q: int
    a: np.ndarray
    lam_near: np.ndarray
    r_near: np.ndarray
    r_stable: np.ndarray
    lam_stable: np.ndarray
    l_near: np.ndarray
    l_stable: np.ndarray
    big_r: np.ndarray
    big_l: np.ndarray

    @property
    def r(self) -> int:
        return self.p - self.q

    @property
    def lam(self) -> np.ndarray:
        """Block-diagonal kp-by-kp dynamics matrix."""
        kp = self.k * self.p
        out = np.zeros((kp, kp))
        out[: self.q, : self.q] = self.lam_near
        out[self.q:, self.q:] = self.lam_stable
        return out

    @property
    def big_r_near(self) -> np.ndarray:
        """kp-by-q stacked near-unit right basis (columns of big_r)."""
        return self.big_r[:, : self.q]

    @property
    def big_l_near(self) -> np.ndarray:
        return self.big_l[:, : self.q]

    @property
    def big_l_stable(self) -> np.ndarray:
        return self.big_l[:, self.q:]


def companion(coeffs: VarCoefficients) -> np.ndarray:
    """Companion-form matrix of a VAR(k).

    The top block row is [Phi_1 ... Phi_k]; identity blocks sit on the
    first subdiagonal; all other blocks are zero.
    """
    p, k = coeffs.p, coeffs.k
    out = np.zeros((k * p, k * p))
    out[:p, :] = coeffs.stacked
    if k > 1:
        idx = np.arange((k - 1) * p)
        out[p + idx, idx] = 1.0
    return out


def roots(coeffs: VarCoefficients) -> RootSet:
    """Characteristic roots of the VAR, via companion eigenvalues.

    These are the kp solutions (with multiplicity) of
    ``det(I lam^k - sum_i Phi_i lam^(k-i)) = 0``.
    """
    try:
        values = np.linalg.eigvals(companion(coeffs))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return RootSet(_sort_roots(values))


def classify(rootset: RootSet, region: RegionSpec) -> Classification:
    """Assign each root to the near-unit or stable region.

    Raises
    ------
    ClassificationError
        If any root lies in neither region.

    Warns
    -----
    BoundaryWarning
        For roots within ``BOUNDARY_TOL`` of a region boundary.
    """
    labels = []
    boundary = []
    strays = []
    for i, z in enumerate(rootset.roots):
        if region.in_near_unit(z):
            labels.append("near-unit")
        elif region.in_stable(z):
            labels.append("stable")
        else:
            labels.append("none")
            strays.append((i, z))
        if region.near_boundary(z):
            boundary.append(i)
    if strays:
        detail = ", ".join(
            f"root {i}: {z:.6g} (|z|={abs(z):.6g}, |1-z|={abs(1 - z):.6g})" for i, z in strays
        )
        raise ClassificationError(
            f"roots outside both regions at rho={region.rho}: {detail}"
        )
    for i in boundary:
        warnings.warn(
            f"root {rootset.roots[i]:.12g} lies on a region boundary within {BOUNDARY_TOL}",
            BoundaryWarning,
            stacklevel=2,
        )
    q = sum(1 for lab in labels if lab == "near-unit")
    return Classification(q=q, labels=tuple(labels))


def _check_separation(moduli: np.ndarray, q: int, sorted_roots: np.ndarray) -> None:
    gap = (moduli[q - 1] - moduli[q]) / max(1.0, moduli[q - 1])
    if gap <= SEPARATION_TOL:
        hint = ""
        if abs(sorted_roots[q - 1] - np.conj(sorted_roots[q])) <= 1e-12 and sorted_roots[q - 1].imag != 0:
            hint = " (a complex-conjugate pair straddles positions q and q+1)"
        raise RootSeparationError(
            f"relative modulus gap {gap:.3e} between roots {q} and {q + 1} "
            f"is below {SEPARATION_TOL:.0e}{hint}"
        )


def split(coeffs: VarCoefficients, q: int, *, warn_ill_conditioned: bool = True) -> SpectralSplit:
    """Split the companion matrix at the q largest-modulus roots.

    An ordered real Schur decomposition places the q largest roots in
    the leading block; the two diagonal blocks are then decoupled by a
    Sylvester solve, and the near-unit right basis is renormalised so
    that its trailing q-by-q block is the identity (pinning the [A; I]
    representation).

    Raises
    ------
    RootSeparationError
        If the modulus gap between roots q and q+1 is below tolerance
        (e.g. a conjugate pair straddles the cut).
    NormalizationError
        If the trailing block of the near-unit basis is singular, in
        which case reordering the series usually helps.
    """
    p, k = coeffs.p, coeffs.k
    kp = k * p
    if not 0 <= q <= p:
        raise DomainError(f"q must lie in [0, {p}], got {q}")
    F = companion(coeffs)

    if q == 0:
        T, Z = schur(F, output="real")
        empty_pq = np.zeros((p, 0))
        return SpectralSplit(
            p=p, k=k, q=0,
            a=np.zeros((p, 0)),
            lam_near=np.zeros((0, 0)),
            r_near=empty_pq,
            r_stable=Z[-p:, :].copy(),
            lam_stable=T,
            l_near=empty_pq,
            l_stable=Z[:p, :].copy(),
            big_r=Z,
            big_l=Z.copy(),
        )

    sorted_roots = _sort_roots(np.linalg.eigvals(F))
    moduli = np.abs(sorted_roots)
    if q < kp:
        _check_separation(moduli, q, sorted_roots)
        thr = 0.5 * (moduli[q - 1] + moduli[q])
        T, Z, sdim = schur(F, output="real", sort=lambda re, im: np.hypot(re, im) > thr)
        if sdim != q:
            raise RootSeparationError(
                f"Schur reordering selected {sdim} eigenvalues, expected {q}; "
                "the near-unit root set is not closed under conjugation at this q"
            )
    else:
        T, Z = schur(F, output="real")

    T11, T12, T22 = T[:q, :q], T[:q, q:], T[q:, q:]
    Z1, Z2 = Z[:, :q], Z[:, q:]

    if q < kp:
        # decouple: big_r = Z @ [[I, X], [0, I]] block-diagonalises T
        X = solve_sylvester(T11, -T22, -T12)
        big_r_stable = Z1 @ X + Z2
    else:
        big_r_stable = np.zeros((kp, 0))

    S = Z1[-q:, :]
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > 1e12:
        raise NormalizationError(
            "trailing q-by-q block of the near-unit basis is singular "
            f"(condition number {cond:.3e}); consider reordering the series"
        )
    V = np.linalg.solve(S.T, Z1.T).T
    V[-q:, :] = np.eye(q)
    lam_near = S @ np.linalg.solve(S.T, T11.T).T  # S T11 S^{-1}

    big_r = np.hstack([V, big_r_stable])
    try:
        big_l = np.linalg.inv(big_r).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stacked right basis is singular: {exc}") from exc

    R = big_r[-p:, :]
    r_near, r_stable = R[:, :q], R[:, q:]
    a = r_near[: p - q, :].copy()

    if warn_ill_conditioned and q >= 2:
        eigvals, eigvecs = np.linalg.eig(lam_near)
        vc = np.linalg.cond(eigvecs)
        if vc > DIAGONALISABILITY_COND:
            warnings.warn(
                f"near-unit block is close to defective (eigenvector condition {vc:.3e})",
                ConditionWarning,
                stacklevel=2,
            )

    return SpectralSplit(
        p=p, k=k, q=q,
        a=a,
        lam_near=lam_near,
        r_near=r_near,
        r_stable=r_stable,
        lam_stable=T22,
        l_near=big_l[:p, :q],
        l_stable=big_l[:p, q:],
        big_r=big_r,
        big_l=big_l,
    )


def reconstruct(split_: SpectralSplit) -> np.ndarray:
    """Rebuild the companion matrix as ``big_r @ lam @ big_l.T``.

    Serves as the round-trip oracle against :func:`companion`.
    """
    return split_.big_r @ split_.lam @ split_.big_l.T


def constraint_matrices(a: np.ndarray, lam: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (r_near, M, N) of the linear constraint ``Phi @ M = N``.

    ``r_near = [a; I_q]``, ``M = col{r_near @ lam^(k-i)}`` for i = 1..k
    (kp-by-q) and ``N = r_near @ lam^k``: the stacked lag coefficients
    satisfy it exactly when [a; I_q] spans a right invariant subspace of
    the companion matrix with dynamics ``lam``.  A stack of a, shaped
    (..., r, q), takes a stack of lam, shaped (..., q, q), that broadcasts
    against it, and gives the stacks of the three.
    """
    q = lam.shape[-1]
    a = np.asarray(a, dtype=float)
    a = a.reshape(a.shape[:-2] + (-1, q))
    r = a.shape[-2]
    r_near = np.empty(a.shape[:-2] + (r + q, q))
    r_near[..., :r, :] = a
    r_near[..., r:, :] = np.eye(q)
    blocks = []
    power = np.eye(q)
    for _ in range(k):
        blocks.append(r_near @ power)
        power = power @ lam
    M = np.concatenate(blocks[::-1], axis=-2)
    N = r_near @ power  # power == lam^k after the loop
    return r_near, M, N


def half_life_to_radius(h: float) -> float:
    """Radius rho implied by a minimum shock half-life of h periods."""
    if not h > 0:
        raise DomainError(f"half-life must be positive, got {h}")
    return 2.0 ** (-1.0 / h)


def radius_to_half_life(rho: float) -> float:
    """Half-life in periods implied by radius rho; infinite at rho = 1."""
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    if rho == 1.0:
        return math.inf
    return -math.log(2.0) / math.log(rho)
