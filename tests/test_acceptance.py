"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria share one 2000-replication experiment (module-scoped fixture);
everything is seeded and deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sps

from conftest import df_tstat_squared, make_instance
from qcvar.dgp import DgpSpec, NearUnitBase, build_var, local_sequence, simulate
from qcvar.inference import chi2_quantile, ci_coefficient_given_lambda
from qcvar.likelihood import make_design, ols_fit, profile_a, restricted_fit, rrr_fit
from qcvar.limitdist import (
    LimitDistConfig,
    build_table,
    lookup,
    quantiles_with_se,
    simulate_statistics,
)
from qcvar.representation import (
    decay_profile,
    irf,
    jacobians,
    qcs_basis,
    state_decompose,
)
from qcvar.spectral import (
    VarCoefficients,
    companion,
    half_life_to_radius,
    reconstruct,
    split,
)

CHI2_95 = 3.841459


@contextmanager
def criterion(num: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {description}", flush=True)
        raise
    print(
        f"[criterion {num:02d}] PASS - {description} ({time.time() - start:.1f}s)",
        flush=True,
    )


def _vec(m):
    return np.asarray(m).flatten(order="F")


def representative_instances(count: int):
    """Deterministic cycle over p in {2,3,4}, k in {1,2,3}, q in {1..p-1}."""
    out = []
    i = 0
    while len(out) < count:
        p = (2, 3, 4)[i % 3]
        k = (1, 2, 3)[(i // 3) % 3]
        q = 1 + i % (p - 1)
        out.append((make_instance(i, p=p, k=k, q=q), q))
        i += 1
    return out


# ---------------------------------------------------------------------------
# shared Monte Carlo experiment: p=2, k=1, q=1, C=-5, n=500, det=trend
# ---------------------------------------------------------------------------

N_OBS = 500
C_LOC = -5.0
A_TRUE = 1.0


def _mc_dgp():
    base = NearUnitBase(
        a=np.array([[A_TRUE]]), k=1,
        stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
    )
    ls = local_sequence(np.array([[C_LOC]]), N_OBS, base)
    return DgpSpec.simple(ls.realized, N_OBS), np.array([[1.0 + C_LOC / N_OBS]])


@pytest.fixture(scope="module")
def mc_experiment():
    """2000 replications of the LR statistics at the true null."""
    spec, lam_true = _mc_dgp()
    reps = 2000
    lr_block = np.empty(reps)
    lr_coef = np.empty(reps)
    for rep in range(reps):
        y, _ = simulate(spec, rep)
        dz = make_design(y, 1, "trend")
        ref = ols_fit(y, 1, "trend", design=dz).loglik
        fit_u = profile_a(lam_true, y, 1, "trend", design=dz)
        fit_r = profile_a(
            lam_true, y, 1, "trend", design=dz,
            fixed_entry=(0, 0, A_TRUE), init=fit_u.a_hat,
        )
        lr_block[rep] = 2.0 * (ref - fit_u.loglik)
        lr_coef[rep] = 2.0 * (fit_u.loglik - fit_r.loglik)
    return lr_block, lr_coef, lam_true


@pytest.fixture(scope="module")
def theorem_table(tmp_path_factory):
    """Limit-law quantiles at the experiment's localisation (full size)."""
    cfg = LimitDistConfig(
        q=1, c_star=np.array([[C_LOC]]), det="trend",
        steps=2000, reps=100_000, seed=0,
    )
    path = tmp_path_factory.mktemp("acceptance") / "theorem.tbl"
    return build_table([np.array([[C_LOC]])], cfg, str(path))


def test_criterion_01_representation_suite():
    with criterion(1, "representation round trips over 1000 random instances"):
        start = time.time()
        for coeffs, q in representative_instances(1000):
            s = split(coeffs, q)
            F = companion(coeffs)
            scale = max(1.0, np.linalg.norm(F))
            assert np.linalg.norm(reconstruct(s) - F) <= 1e-8 * scale
            # defining relation of the near-unit block
            resid = s.r_near @ np.linalg.matrix_power(s.lam_near, coeffs.k)
            for i, m in enumerate(coeffs.phi, start=1):
                resid = resid - m @ s.r_near @ np.linalg.matrix_power(s.lam_near, coeffs.k - i)
            assert np.linalg.norm(resid) <= 1e-8
            kp = coeffs.k * coeffs.p
            assert np.linalg.norm(s.big_l.T @ s.big_r - np.eye(kp)) <= 1e-8
            # impulse responses against the companion-power oracle
            power = np.eye(kp)
            for h in range(1, 101):
                power = power @ F
                block = power[: coeffs.p, : coeffs.p]
                assert np.abs(irf(s, h).value - block).max() <= 1e-8 * max(
                    1.0, np.abs(block).max()
                )
        assert time.time() - start < 30.0


def test_criterion_02_qcs_orthogonality_and_decay():
    with criterion(2, "QCS orthogonality and decay dominance"):
        for coeffs, q in representative_instances(300):
            s = split(coeffs, q)
            beta = qcs_basis(s).beta
            assert np.abs(beta.T @ s.r_near).max() <= 1e-10
        # decay: near-unit moduli >= 0.95, stable block well below
        for seed in range(40):
            coeffs = make_instance(seed, p=3, k=2, q=1, lam_lo=0.95)
            s = split(coeffs, 1)
            stable_top = np.abs(np.linalg.eigvals(s.lam_stable)).max()
            near_bottom = np.abs(np.linalg.eigvals(s.lam_near)).min()
            assert near_bottom - stable_top >= 0.2, "instance outside the gap premise"
            beta = qcs_basis(s).beta
            inside = beta[:, 0] / np.linalg.norm(beta[:, 0])
            outside = s.r_near[:, 0] / np.linalg.norm(s.r_near[:, 0])
            num = decay_profile(s, inside, 200)[-1]
            den = decay_profile(s, outside, 200)[-1]
            assert num / den < 1e-4


def test_criterion_03_perturbation_jacobians(rng):
    with criterion(3, "perturbation Jacobians vs finite differences and closed forms"):
        step = 1e-6
        count = 0
        i = 0
        while count < 100:
            p = (2, 3, 4)[i % 3]
            k = (1, 2)[(i // 3) % 2]
            q = 1 + i % (p - 1)
            i += 1
            coeffs = make_instance(1000 + i, p=p, k=k, q=q)
            s = split(coeffs, q)
            jac = jacobians(s)
            direction = rng.normal(size=coeffs.stacked.shape)
            direction /= np.linalg.norm(direction)

            def a_lam(scale):
                sp = split(
                    VarCoefficients.from_stacked(coeffs.stacked + scale * direction, k), q
                )
                return sp.a, sp.lam_near

            a_plus, lam_plus = a_lam(step)
            a_minus, lam_minus = a_lam(-step)
            da = _vec((a_plus - a_minus) / (2 * step))
            dlam = _vec((lam_plus - lam_minus) / (2 * step))
            rhs = _vec(direction @ s.big_r_near)
            assert np.abs(jac.j_a @ rhs - da).max() <= 1e-5
            assert np.abs(jac.j_lam @ rhs - dlam).max() <= 1e-5

            # invariance: perturbations along the stable left basis change nothing
            m = rng.normal(size=(p, k * p - q))
            delta = 1e-3 * m @ s.big_l_stable.T / max(1.0, np.linalg.norm(m))
            sp = split(VarCoefficients.from_stacked(coeffs.stacked + delta, k), q)
            assert np.abs(sp.a - s.a).max() <= 1e-8
            assert np.abs(sp.lam_near - s.lam_near).max() <= 1e-8
            count += 1

        # closed form at the identity dynamics block
        for seed in (3, 7, 11):
            coeffs = make_instance(seed, p=3, k=2, q=1, lam_lo=1.0, lam_hi=1.0)
            s = split(coeffs, 1)
            jac = jacobians(s)
            beta = qcs_basis(s).beta
            n_st = s.lam_stable.shape[0]
            stable_inv = np.linalg.inv(np.eye(n_st) - s.lam_stable)
            assert np.abs(
                jac.j_a - np.kron(np.eye(1), beta.T @ s.r_stable @ stable_inv @ s.l_stable.T)
            ).max() <= 1e-10
            assert np.abs(jac.j_lam - np.kron(np.eye(1), s.l_near.T)).max() <= 1e-10


def test_criterion_04_state_decomposition_identity():
    with criterion(4, "state decomposition identity on simulated paths"):
        coeffs = make_instance(77, p=3, k=2, q=1)
        s = split(coeffs, 1)
        spec = DgpSpec.simple(coeffs, 500)
        for seed in range(50):
            x, eps = simulate(spec, seed)
            dec = state_decompose(s, x, eps)
            assert np.abs(dec.residual).max() <= 1e-10 * (1.0 + np.abs(x).max())


def test_criterion_05_estimator_equivalences():
    with criterion(5, "reduced-rank regression vs profile fits"):
        lam_values = (0.95, 0.98, 1.0)
        for ds_idx in range(20):
            coeffs = build_var(
                np.array([[0.5], [1.2]]), np.array([[0.98]]), 2, seed=ds_idx
            )
            y, _ = simulate(DgpSpec.simple(coeffs, 500), 500 + ds_idx)
            dz = make_design(y, 2, "trend")
            ols = ols_fit(y, 2, "trend", design=dz)

            lam0 = lam_values[ds_idx % 3]
            rrr = rrr_fit(lam0, 1, y, 2, "trend", design=dz)
            prof = profile_a(lam0 * np.eye(1), y, 2, "trend", design=dz)
            assert abs(rrr.loglik - prof.loglik) <= 1e-6

            # non-binding constraint reproduces OLS
            s = split(ols.coeffs, 1)
            nb = restricted_fit(s.a, s.lam_near, y, 2, "trend", design=dz)
            assert np.abs(nb.coeffs.stacked - ols.coeffs.stacked).max() <= 1e-8
            assert abs(nb.loglik - ols.loglik) <= 1e-8

            # nesting chain under progressively tighter restrictions
            pinned = profile_a(
                lam0 * np.eye(1), y, 2, "trend", design=dz,
                fixed_entry=(0, 0, 0.3), init=prof.a_hat,
            )
            assert ols.loglik >= prof.loglik - 1e-8
            assert prof.loglik >= pinned.loglik - 1e-8


def test_criterion_06_chi_square_rejection_rate(mc_experiment):
    with criterion(6, "coefficient LR null rejection rate at the chi-square critical value"):
        _, lr_coef, _ = mc_experiment
        rate = float((lr_coef > CHI2_95).mean())
        assert 0.035 <= rate <= 0.065, f"rejection rate {rate:.4f}"


def test_criterion_07_block_lr_quantile_matches_table(mc_experiment, theorem_table):
    with criterion(7, "block LR 0.95 quantile matches the simulated limit table"):
        lr_block, _, _ = mc_experiment
        q95 = float(np.quantile(lr_block, 0.95))
        table_value = lookup(theorem_table, np.array([[C_LOC]]), 0.95)
        assert abs(q95 - table_value) <= 0.5, f"{q95:.3f} vs table {table_value:.3f}"
        # equivalently: the 95% block confidence set covers the truth
        coverage = float((lr_block[:1000] <= table_value).mean())
        assert coverage >= 0.93, f"block set coverage {coverage:.4f}"


def test_criterion_08_limit_anchor_vs_df_oracle():
    with criterion(8, "limit-law anchor vs squared Dickey-Fuller oracle"):
        cfg = LimitDistConfig(
            q=1, c_star=np.zeros((1, 1)), det="none",
            steps=10_000, reps=10_000, seed=1,
        )
        sim, _ = simulate_statistics(cfg)
        oracle = df_tstat_squared(np.random.default_rng(2), 10_000, 10_000)
        (q_sim,), (se_sim,) = quantiles_with_se(sim, [0.95])
        (q_or,), (se_or,) = quantiles_with_se(oracle, [0.95])
        assert abs(q_sim - q_or) <= 2.0 * np.hypot(se_sim, se_or)
        ks = sps.ks_2samp(sim, oracle)
        assert ks.pvalue >= 0.01, f"KS p-value {ks.pvalue:.4f}"


def test_criterion_09_conditional_interval_coverage(mc_experiment):
    with criterion(9, "conditional 95% interval coverage at the true block"):
        _, lr_coef, lam_true = mc_experiment
        # membership in the conditional set is the LR test at the truth
        coverage = float((lr_coef[:1000] <= chi2_quantile(0.95)).mean())
        assert 0.93 <= coverage <= 0.97, f"coverage {coverage:.4f}"

        # interval construction agrees with pointwise membership
        spec, _ = _mc_dgp()
        mismatches = 0
        for rep in range(30):
            y, _ = simulate(spec, rep)
            cset = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend")
            member = cset.contains(A_TRUE)
            lr_member = lr_coef[rep] <= chi2_quantile(0.95)
            if member != lr_member and abs(lr_coef[rep] - chi2_quantile(0.95)) > 1e-3:
                mismatches += 1
        assert mismatches == 0


def test_criterion_10_bonferroni_conservatism(tmp_path_factory):
    with criterion(10, "Bonferroni coverage and half-life anchors"):
        assert round(half_life_to_radius(8), 3) == 0.917
        assert round(half_life_to_radius(10), 3) == 0.933

        spec, _ = _mc_dgp()
        rho = 0.9
        template = LimitDistConfig(
            q=1, c_star=np.zeros((1, 1)), det="trend",
            steps=500, reps=20_000, seed=7, levels=(0.95, 0.975, 0.99),
        )
        path = tmp_path_factory.mktemp("acceptance") / "coverage.tbl"
        table = build_table(
            [np.array([[c]]) for c in np.arange(N_OBS * (rho - 1.0), 0.1, 2.5)],
            template, str(path),
        )
        lam_grid = np.linspace(rho, 1.0, 21)[::-1]  # truth sits near the top
        thr = chi2_quantile(0.975)
        covered = 0
        reps = 500
        for rep in range(reps):
            y, _ = simulate(spec, 10_000 + rep)
            dz = make_design(y, 1, "trend")
            ref = ols_fit(y, 1, "trend", design=dz).loglik
            hit = False
            for lam in lam_grid:
                lam0 = np.array([[lam]])
                fit = profile_a(lam0, y, 1, "trend", design=dz)
                if 2.0 * (ref - fit.loglik) > lookup(
                    table, np.array([[N_OBS * (lam - 1.0)]]), 0.975
                ):
                    continue
                fit_r = profile_a(
                    lam0, y, 1, "trend", design=dz,
                    fixed_entry=(0, 0, A_TRUE), init=fit.a_hat,
                )
                if 2.0 * (fit.loglik - fit_r.loglik) <= thr:
                    hit = True
                    break
            covered += hit
        coverage = covered / reps
        assert coverage >= 0.95 - 0.02, f"Bonferroni coverage {coverage:.4f}"
