"""Likelihood estimation of the quasi-cointegrating space.

The subspace coefficients a and the near-unit dynamics block are
estimated by maximising the concentrated Gaussian likelihood under the
linear constraint that [a; I] spans an invariant subspace with the
hypothesised dynamics.  This demo fits a simulated system three ways -
unrestricted OLS, the constrained profile fit, and a reduced-rank
regression - and shows that the latter two agree.
"""

import numpy as np

from qcvar import (
    DgpSpec,
    LambdaGrid,
    NearUnitBase,
    local_sequence,
    ols_fit,
    profile_a,
    profile_lambda,
    restricted_fit,
    rrr_fit,
    simulate,
    split,
)

# ---------------------------------------------------------------------------
# Simulate n = 500 observations from a local-to-unity design: the largest
# root is 1 + C/n with C = -5, i.e. 0.99, and the true subspace loading
# is a = 1 (the two series share the persistent component one-for-one).
# ---------------------------------------------------------------------------
n, c_loc, a_true = 500, -5.0, 1.0
base = NearUnitBase(
    a=np.array([[a_true]]), k=1,
    stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
)
seq = local_sequence(np.array([[c_loc]]), n, base)
lam_true = 1.0 + c_loc / n
y, _ = simulate(DgpSpec.simple(seq.realized, n), seed=3)
print(f"true largest root {lam_true}, true a = {a_true}")

# ---------------------------------------------------------------------------
# Unrestricted OLS.  Its implied root and subspace estimates come from
# splitting the fitted coefficients.
# ---------------------------------------------------------------------------
ols = ols_fit(y, k=1, det="trend")
s_ols = split(ols.coeffs, 1)
print(f"\nOLS: loglik {ols.loglik:.3f}, root {s_ols.lam_near[0, 0]:.4f}, "
      f"a_hat {s_ols.a[0, 0]:.4f}")

# ---------------------------------------------------------------------------
# Restricted fit at a hypothesised (a, lambda) is closed form; so is the
# profile over a at a scalar lambda, which solves a reduced-rank eigenproblem.
# ---------------------------------------------------------------------------
lam0 = np.array([[lam_true]])
fixed = restricted_fit(np.array([[a_true]]), lam0, y, k=1, det="trend")
prof = profile_a(lam0, y, k=1, det="trend")
print(f"\nrestricted at truth: loglik {fixed.loglik:.3f} "
      f"(constraint residual {fixed.constraint_residual:.2e})")
print(f"profile over a     : loglik {prof.loglik:.3f}, a_hat {prof.a_hat[0, 0]:.4f}")
print("LR for a = a_true  :", 2.0 * (prof.loglik - fixed.loglik))

# ---------------------------------------------------------------------------
# That eigenproblem is reduced-rank regression of the quasi-differences on
# the lag-k levels, defined at every lambda, zero included: profile_a takes a
# from the same eigenvectors as rrr_fit, so the two logliks agree to rounding.
# A fixed entry of a restricts the cointegrating basis linearly, with a closed
# form (the switching algorithm) too; a Newton search over a remains for
# non-scalar blocks.
# ---------------------------------------------------------------------------
rrr = rrr_fit(lam_true, q=1, data=y, k=1, det="trend")
print(f"\nreduced-rank fit   : loglik {rrr.loglik:.6f}  (gap to profile: "
      f"{abs(rrr.loglik - prof.loglik):.2e})")

# ---------------------------------------------------------------------------
# Profiling over the dynamics block itself: rank a grid on [rho, 1] by the
# block LR (eigenvalues only, no fit), refine the best node continuously
# on the same LR, and fit once, at the block reported.
# ---------------------------------------------------------------------------
grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.005)
scan = profile_lambda(grid, y, k=1, det="trend", refine=True)
print(f"\nprofile over lambda: lam_hat {scan.best_lam[0, 0]:.4f}, "
      f"a_hat {scan.best_fit.a_hat[0, 0]:.4f}, loglik {scan.loglik:.3f}")
print("grid points evaluated:", len(scan.trace))
