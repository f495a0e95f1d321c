"""Data-generating processes for Monte Carlo work.

``build_var`` constructs VAR coefficients whose q largest roots have a
prescribed normalised right basis [a; I_q] and dynamics block, by a
least-norm correction of a stable base draw onto the defining linear
constraint.  ``local_sequence`` produces drifting sequences with the
near-unit block I + C/n, and ``simulate`` generates seeded sample paths
by one banded unit-lower-triangular solve of (I - Phi(L)) x = eps with a
zero presample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .exceptions import ConstructionError, DomainError, NumericalError
from .spectral import VarCoefficients, companion, constraint_matrices, roots

__all__ = [
    "DgpSpec",
    "NearUnitBase",
    "LocalSequence",
    "build_var",
    "local_sequence",
    "simulate",
]

#: Required modulus gap between the constructed stable roots and the
#: smallest near-unit eigenvalue.
ROOT_GAP = 1e-3

#: Stable base draws tried before construction gives up.
MAX_TRIES = 50


@dataclass(frozen=True)
class DgpSpec:
    """Full specification of a simulated VAR path.

    ``sigma`` must be finite, symmetric and positive definite; ``mu`` and
    ``delta`` are the intercept and trend of the observed series.
    """

    coeffs: VarCoefficients
    sigma: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    n: int

    def __post_init__(self):
        p = self.coeffs.p
        sigma = np.asarray(self.sigma, dtype=float)
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        delta = np.asarray(self.delta, dtype=float).reshape(-1)
        if sigma.shape != (p, p):
            raise DomainError(f"sigma must be {p}x{p}, got {sigma.shape}")
        if not np.isfinite(sigma).all():
            raise DomainError("sigma must be finite")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise DomainError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise DomainError("sigma must be positive definite") from exc
        if mu.shape != (p,) or delta.shape != (p,):
            raise DomainError("mu and delta must be p-vectors")
        if not (np.isfinite(mu).all() and np.isfinite(delta).all()):
            raise DomainError("mu and delta must be finite")
        if self.n < 1:
            raise DomainError("sample size must be positive")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def simple(cls, coeffs: VarCoefficients, n: int) -> "DgpSpec":
        """Spec with zero deterministics and identity noise."""
        p = coeffs.p
        return cls(coeffs=coeffs, sigma=np.eye(p), mu=np.zeros(p), delta=np.zeros(p), n=n)


@dataclass(frozen=True)
class NearUnitBase:
    """Fixed ingredients of a local-to-unity sequence.

    ``stationary`` is held constant along the sequence: either a pair
    ``(r_stable, lam_stable)`` for the exact k = 1 similarity
    construction, or an integer seed from which a stable base is drawn.
    """

    a: np.ndarray
    k: int
    stationary: Union[tuple, int]

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_2d(np.asarray(self.a, dtype=float)))


@dataclass(frozen=True)
class LocalSequence:
    """A realised element of a drifting near-unit sequence."""

    c: np.ndarray
    n: int
    realized: VarCoefficients


def _match_roots(found: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair each target eigenvalue with its nearest distinct root.

    Returns (matched roots, remaining roots), using an optimal
    assignment so conjugate pairs cannot be double-counted.
    """
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(found[None, :] - target[:, None])
    rows, cols = linear_sum_assignment(cost)
    matched = found[cols[np.argsort(rows)]]
    rest = np.delete(found, cols)
    return matched, rest


def _draw_stable_base(rng: np.random.Generator, p: int, k: int, radius: float) -> np.ndarray:
    """Random p-by-kp coefficients with companion spectral radius ``radius``.

    Scaling lag i by c^i rescales every characteristic root by c, so an
    arbitrary draw can be brought to the exact target radius.
    """
    for _ in range(20):
        blocks = [rng.normal(scale=1.0 / np.sqrt(k * p), size=(p, p)) for _ in range(k)]
        coeffs = VarCoefficients.from_matrices(blocks)
        top = np.abs(np.linalg.eigvals(companion(coeffs))).max()
        if top > 1e-8:
            c = radius / top
            return np.hstack([blocks[i] * c ** (i + 1) for i in range(k)])
    raise ConstructionError("could not draw a nondegenerate stable base")


def build_var(
    a: np.ndarray,
    lam_near: np.ndarray,
    k: int,
    *,
    stationary: Optional[tuple] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    max_modulus: float = 1.0,
) -> VarCoefficients:
    """Construct VAR(k) coefficients with prescribed near-unit block.

    The returned coefficients are the least-norm correction of a drawn
    stable base onto the linear constraint ``Phi @ col{[a; I] lam^(k-i)}
    = [a; I] lam^k``, which forces the characteristic polynomial to have
    roots at the eigenvalues of ``lam_near`` with [a; I_q] as the
    normalised right basis; or, given ``stationary``, the exact k = 1
    similarity ``[r_near, r_stable] diag(lam_near, lam_stable)
    [r_near, r_stable]^{-1}``.

    Parameters
    ----------
    a : ndarray
        (p-q)-by-q target subspace coefficients.
    lam_near : ndarray
        q-by-q near-unit dynamics; eigenvalue moduli must not exceed
        ``max_modulus``.
    k : int
        Lag order.
    stationary : optional
        A ``(r_stable, lam_stable)`` pair for the exact similarity
        construction (k = 1 only).  When omitted, a stable base is drawn
        from ``rng``/``seed`` and redrawn (up to ``MAX_TRIES`` times)
        until the remaining roots clear the ``ROOT_GAP`` modulus margin
        below the smallest near-unit eigenvalue.

    Raises
    ------
    DomainError
        When ``stationary`` is given but is not a pair.
    ConstructionError
        When the retry budget is exhausted or ``lam_stable`` violates
        the root gap.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    lam_near = np.atleast_2d(np.asarray(lam_near, dtype=float))
    q = lam_near.shape[0]
    if lam_near.shape != (q, q):
        raise DomainError("lam_near must be square")
    if a.shape[1] != q:
        raise DomainError(f"a must have {q} columns, got {a.shape[1]}")
    r = a.shape[0]
    p = r + q
    near_eigs = np.linalg.eigvals(lam_near)
    near_mods = np.abs(near_eigs)
    if near_mods.max() > max_modulus + 1e-12:
        raise DomainError(
            f"near-unit eigenvalue modulus {near_mods.max():.6g} exceeds {max_modulus}"
        )
    floor = near_mods.min() - ROOT_GAP
    if floor <= 0:
        raise DomainError("near-unit eigenvalues leave no room for stable roots below them")

    r_near, M, N = constraint_matrices(a, lam_near, k)

    if stationary is not None:
        if not isinstance(stationary, tuple):
            raise DomainError("stationary must be an (r_stable, lam_stable) pair")
        if k != 1:
            raise DomainError("the (r_stable, lam_stable) construction requires k = 1")
        r_stable = np.atleast_2d(np.asarray(stationary[0], dtype=float)).reshape(p, p - q)
        lam_stable = np.atleast_2d(np.asarray(stationary[1], dtype=float))
        stable_mods = np.abs(np.linalg.eigvals(lam_stable))
        if stable_mods.size and stable_mods.max() >= floor:
            raise ConstructionError(
                f"stable eigenvalue modulus {stable_mods.max():.6g} violates the "
                f"gap below {floor:.6g}"
            )
        basis = np.hstack([r_near, r_stable])
        lam = np.zeros((p, p))
        lam[:q, :q] = lam_near
        lam[q:, q:] = lam_stable
        try:
            phi1 = basis @ lam @ np.linalg.inv(basis)
        except np.linalg.LinAlgError as exc:
            raise ConstructionError("similarity basis [r_near, r_stable] is singular") from exc
        return VarCoefficients.from_matrices([phi1])

    rng = rng if rng is not None else np.random.default_rng(seed)
    gram_solve = np.linalg.solve(M.T @ M, M.T)  # (M^T M)^{-1} M^T

    target_radius = min(0.6 * floor, 0.5)
    for _ in range(MAX_TRIES):
        base = _draw_stable_base(rng, p, k, target_radius)
        phi = base + (N - base @ M) @ gram_solve
        coeffs = VarCoefficients.from_stacked(phi, k)
        all_roots = roots(coeffs).roots
        matched, rest = _match_roots(all_roots, near_eigs)
        if np.abs(matched - near_eigs).max() > 1e-8 * max(1.0, near_mods.max()):
            offending = all_roots
            continue
        if rest.size == 0 or np.abs(rest).max() < floor:
            return coeffs
        offending = rest
    raise ConstructionError(
        f"could not place the remaining roots below modulus {floor:.6g} after {MAX_TRIES} "
        f"tries; offending roots {np.array2string(np.asarray(offending), precision=4)}"
    )


def local_sequence(c: np.ndarray, n: int, base: NearUnitBase) -> LocalSequence:
    """Element of the drifting sequence with near-unit block I + C/n.

    The stationary ingredients of ``base`` are held fixed across n;
    explosive drifts (eigenvalue moduli of I + C/n beyond 1 + 1/n) are
    rejected.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    q = c.shape[0]
    if c.shape != (q, q):
        raise DomainError("C must be square")
    if n < 1:
        raise DomainError("n must be positive")
    lam = np.eye(q) + c / n
    mods = np.abs(np.linalg.eigvals(lam))
    if mods.max() > 1.0 + 1.0 / n + 1e-12:
        raise DomainError(
            f"I + C/n has eigenvalue modulus {mods.max():.6g} > 1 + 1/n (explosive drift)"
        )
    stationary = base.stationary
    if isinstance(stationary, (int, np.integer)):
        realized = build_var(
            base.a, lam, base.k, seed=int(stationary), max_modulus=1.0 + 1.0 / n
        )
    else:
        realized = build_var(
            base.a, lam, base.k, stationary=stationary, max_modulus=1.0 + 1.0 / n
        )
    return LocalSequence(c=c, n=n, realized=realized)


def simulate(
    spec: DgpSpec,
    seed: Union[int, np.random.SeedSequence],
    innovations: Union[str, Callable, None] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a path ``y_t = mu + delta t + x_t`` with zero-initialised x.

    Innovations are i.i.d. Gaussian(0, sigma) from the seeded generator;
    pass ``innovations="none"`` for the exact zero-noise path, or a
    callable ``f(rng, n, p) -> (n, p) array`` to substitute a custom
    i.i.d. sampler (it is scaled by the Cholesky factor of sigma).

    The recursion x_t = eps_t + sum_i Phi_i x_{t-i}, with x_t = 0 for
    t <= 0, is solved as one banded unit-lower-triangular system
    (I - Phi(L)) x = eps, stacked time-major, by LAPACK's ``dtbtrs``.

    Returns
    -------
    (y, eps) : pair of (n, p) arrays
        The observed path and the innovations that generated it.
        Deterministic given (spec, seed).

    Raises
    ------
    DomainError
        When a custom sampler returns the wrong shape or non-finite values.
    NumericalError
        When the path is not finite (explosive coefficients overflow).
    """
    coeffs, n, p, k = spec.coeffs, spec.n, spec.coeffs.p, spec.coeffs.k
    rng = np.random.default_rng(seed)
    if innovations == "none":
        eps = np.zeros((n, p))
    else:
        draw = rng.standard_normal((n, p)) if innovations is None else np.asarray(
            innovations(rng, n, p), dtype=float
        )
        if draw.shape != (n, p):
            raise DomainError(f"innovation sampler returned shape {draw.shape}, expected {(n, p)}")
        if not np.isfinite(draw).all():
            raise DomainError("innovation sampler returned non-finite values")
        eps = draw @ np.linalg.cholesky(spec.sigma).T

    # Stacked time-major, (I - Phi(L)) x = eps is unit lower-triangular with
    # lower bandwidth kp + p - 1, and every p-th column of its band is the same.
    pat = np.zeros(((k + 1) * p, p))
    i, j = np.indices((p, p))
    for lag, phi in enumerate(coeffs.phi, start=1):
        pat[lag * p + i - j, j] = -phi
    x, info = dtbtrs(np.tile(pat, n), eps.reshape(-1, 1), uplo="L", diag="U")
    if info != 0:
        raise NumericalError(f"banded triangular solve failed (LAPACK info {info})")
    y = spec.mu + spec.delta * np.arange(1, n + 1)[:, None] + x.reshape(n, p)
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        raise NumericalError(f"simulated path is not finite from t={bad.argmax() + 1} of {n}")
    return y, eps
