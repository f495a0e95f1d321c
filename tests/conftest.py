"""Shared helpers for the test suite: random well-separated instances."""

import numpy as np
import pytest

from qcvar.dgp import DgpSpec, build_var, simulate
from qcvar.likelihood import LambdaGrid
from qcvar.spectral import VarCoefficients


def make_instance(seed: int, p: int = 3, k: int = 2, q: int = 1,
                  lam_lo: float = 0.93, lam_hi: float = 1.0) -> VarCoefficients:
    """A random coefficient set with q roots near unity and the rest stable.

    The near-unit block is a random symmetric matrix with eigenvalues in
    [lam_lo, lam_hi]; the subspace coefficients are standard normal.
    """
    rng = np.random.default_rng(seed)
    r = p - q
    eigs = np.sort(rng.uniform(lam_lo, lam_hi, size=q))[::-1]
    if q == 1:
        lam = np.array([[eigs[0]]])
    else:
        h = rng.normal(size=(q, q))
        qmat, _ = np.linalg.qr(h)
        lam = qmat @ np.diag(eigs) @ qmat.T
    a = rng.normal(scale=1.0, size=(r, q))
    return build_var(a, lam, k, rng=rng)


def symmetric_data(seed: int) -> np.ndarray:
    """n=500 draws of a fixed p=3, k=1, q=2 system whose near-unit block is symmetric, with
    eigenvalues 0.995 and 0.96 (perfbench's ``symmetric_spec``, rebuilt here)."""
    rng = np.random.default_rng(11)
    qmat, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    lam = qmat @ np.diag([0.995, 0.96]) @ qmat.T
    coeffs = build_var(rng.normal(size=(1, 2)), lam, 1, rng=rng)
    return simulate(DgpSpec.simple(coeffs, 500), seed)[0]


#: the symmetric q=2 grid at step 0.1: 10 blocks, 8 of them non-scalar
SYMMETRIC_POINTS = LambdaGrid(family="symmetric", q=2, rho=0.9, eig_step=0.1).points()


def make_split_instance(seed: int, p: int = 3, k: int = 2, q: int = 1, **kw):
    from qcvar.spectral import split

    coeffs = make_instance(seed, p=p, k=k, q=q, **kw)
    return coeffs, split(coeffs, q)


def df_tstat_squared(rng: np.random.Generator, length: int, n_walks: int) -> np.ndarray:
    """Squared t-statistics of the no-constant unit-root regression on
    independent discrete random walks (the limit-law anchor oracle)."""
    out = np.empty(n_walks)
    chunk = max(1, int(2e7) // length)
    done = 0
    while done < n_walks:
        m = min(chunk, n_walks - done)
        steps = rng.standard_normal((m, length))
        x = np.cumsum(steps, axis=1)
        lag = x[:, :-1]
        diff = x[:, 1:] - lag
        sxx = np.einsum("mt,mt->m", lag, lag)
        sxy = np.einsum("mt,mt->m", lag, diff)
        slope = sxy / sxx
        resid = diff - slope[:, None] * lag
        s2 = np.einsum("mt,mt->m", resid, resid) / (length - 2)
        out[done: done + m] = slope ** 2 * sxx / s2
        done += m
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
