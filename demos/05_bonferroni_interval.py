"""Bonferroni inference on a quasi-cointegrating coefficient.

The nuisance here is the proximity of the largest root to unity, which
cannot be consistently estimated.  The two-step construction first forms
a level 1-alpha1 confidence set for the near-unit dynamics block by
inverting the block LR test against simulated critical values, then
unions level 1-alpha2 conditional intervals for the coefficient across
the accepted blocks.  The overall level is 1 - alpha1 - alpha2, and the
construction is conservative by design.
"""

import os
import tempfile

import numpy as np

from qcvar import (
    DgpSpec,
    LambdaGrid,
    LimitDistConfig,
    NearUnitBase,
    bonferroni_ci,
    build_table,
    ci_coefficient_given_lambda,
    ci_lambda,
    local_sequence,
    simulate,
)

# ---------------------------------------------------------------------------
# Data: n = 400 from a local-to-unity design with root 0.99 and a = 1.
# ---------------------------------------------------------------------------
n, rho = 400, 0.9
base = NearUnitBase(
    a=np.array([[1.0]]), k=1,
    stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
)
seq = local_sequence(np.array([[-4.0]]), n, base)
y, _ = simulate(DgpSpec.simple(seq.realized, n), seed=5)

# ---------------------------------------------------------------------------
# Critical values for the block statistic over the localisations implied
# by the lambda grid: C = n (lambda - 1) ranges over [n(rho - 1), 0].
# ---------------------------------------------------------------------------
template = LimitDistConfig(
    q=1, c_star=np.zeros((1, 1)), det="trend",
    steps=1000, reps=20_000, seed=9, levels=(0.95, 0.975, 0.99),
)
path = os.path.join(tempfile.gettempdir(), "qcvar_demo_ci_table.tbl")
table = build_table(
    [np.array([[c]]) for c in np.arange(n * (rho - 1.0), 0.1, 2.5)], template, path,
)
print(f"critical-value table: {len(table.entries)} localisation nodes")

# ---------------------------------------------------------------------------
# Step 1: 97.5% confidence set for the dynamics block.
# ---------------------------------------------------------------------------
grid = LambdaGrid(family="scalar", q=1, rho=rho, eig_step=0.005)
block = ci_lambda(0.025, y, k=1, det="trend", lambda_space=grid, table=table)
lams = [float(lam[0, 0]) for lam, _, _ in block.accepted]
print(f"\naccepted dynamics blocks: {len(lams)} nodes, "
      f"lambda in [{min(lams):.3f}, {max(lams):.3f}] (truth 0.99)")

# ---------------------------------------------------------------------------
# Step 2: conditional 97.5% intervals for a, and their Bonferroni union.
# ---------------------------------------------------------------------------
mid = np.array([[lams[len(lams) // 2]]])
cond = ci_coefficient_given_lambda(0.025, 0, 0, mid, y, k=1, det="trend")
print(f"conditional interval at lambda = {mid[0, 0]:.3f}: "
      f"[{cond.intervals[0][0]:.4f}, {cond.intervals[0][1]:.4f}]")

bonf = bonferroni_ci(0.025, 0.025, 0, 0, y, k=1, det="trend",
                     lambda_space=grid, table=table)
print(f"\nBonferroni set at overall level {bonf.level:.3f}:")
for lo, hi in bonf.intervals:
    print(f"  [{lo:.4f}, {hi:.4f}]")
print("contains the true a = 1:", bonf.contains(1.0))
