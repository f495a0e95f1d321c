import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from conftest import make_instance, make_split_instance
from qcvar.dgp import DgpSpec, build_var, simulate
from qcvar.exceptions import DomainError
from qcvar.representation import (
    adjustment_alpha,
    apply_b,
    b_matrix,
    decay_profile,
    irf,
    jacobians,
    qcs_basis,
    state_decompose,
)
from qcvar.spectral import VarCoefficients, companion, split


def _vec(m):
    return np.asarray(m).flatten(order="F")


class TestIrf:
    def test_scalar_power(self):
        s = split(VarCoefficients.from_matrices([np.array([[0.9]])]), 1)
        assert irf(s, 3).value == pytest.approx(0.729)

    def test_one_step_equals_phi1(self):
        coeffs = make_instance(5, p=2, k=1, q=1)
        s = split(coeffs, 1)
        assert np.allclose(irf(s, 1).value, coeffs.phi[0], atol=1e-10)

    def test_horizon_zero_identity(self):
        coeffs = make_instance(5, p=2, k=1, q=1)
        resp = irf(split(coeffs, 1), 0)
        assert np.array_equal(resp.value, np.eye(2))
        assert np.array_equal(resp.near_part, np.zeros((2, 2)))
        assert np.allclose(resp.near_part + resp.stable_part, resp.value)

    def test_negative_horizon_rejected(self):
        coeffs = make_instance(5, p=2, k=1, q=1)
        with pytest.raises(DomainError):
            irf(split(coeffs, 1), -1)

    def test_companion_power_oracle(self):
        # the response at horizon s is the top-left p-by-p block of F^s
        for seed in (0, 1, 2):
            coeffs = make_instance(seed, p=2, k=2, q=1)
            s = split(coeffs, 1)
            F = companion(coeffs)
            power = np.eye(F.shape[0])
            for h in range(1, 51):
                power = power @ F
                resp = irf(s, h)
                assert np.allclose(resp.value, power[:2, :2], atol=1e-8)
                assert np.allclose(resp.near_part + resp.stable_part, resp.value,
                                   rtol=1e-10, atol=1e-12)


class TestQcsBasis:
    def test_zero_a(self):
        s = split(VarCoefficients.from_matrices([np.diag([0.5, 0.95])]), 1)
        assert np.allclose(qcs_basis(s).beta.T, [[1.0, 0.0]])

    def test_spread_between_two_series(self):
        coeffs = build_var(np.array([[1.0]]), np.array([[0.97]]), 1, seed=0)
        s = split(coeffs, 1)
        assert np.allclose(qcs_basis(s).beta.T, [[1.0, -1.0]], atol=1e-12)

    def test_r2_q1_annihilates_r_near(self):
        a = np.array([[0.5], [2.0]])
        coeffs = build_var(a, np.array([[0.96]]), 1, seed=1)
        s = split(coeffs, 1)
        beta = qcs_basis(s).beta
        assert np.allclose(beta.T, [[1.0, 0.0, -0.5], [0.0, 1.0, -2.0]], atol=1e-10)
        assert np.abs(beta.T @ s.r_near).max() <= 1e-10

    def test_orthogonality_random(self):
        for seed in range(8):
            _, s = make_split_instance(seed, p=4, k=2, q=2)
            assert np.abs(qcs_basis(s).beta.T @ s.r_near).max() <= 1e-10

    def test_full_rank(self):
        _, s = make_split_instance(3, p=4, k=1, q=2)
        assert np.linalg.matrix_rank(qcs_basis(s).beta) == 2


class TestDecayProfile:
    def test_diagonal_rates(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 0.95])])
        s = split(coeffs, 1)
        b = qcs_basis(s).beta[:, 0]  # (1, 0): loads only on the 0.5 root
        prof = decay_profile(s, b, 20)
        assert prof[19] == pytest.approx(0.5 ** 20, rel=1e-10)
        prof_near = decay_profile(s, s.r_near[:, 0], 20)
        assert prof_near[19] == pytest.approx(0.95 ** 20, rel=1e-10)

    def test_qcs_direction_decays_relatively(self):
        coeffs = make_instance(11, p=3, k=2, q=1, lam_lo=0.97)
        s = split(coeffs, 1)
        beta = qcs_basis(s).beta[:, 0]
        outside = s.r_near[:, 0]
        ratios = []
        for horizon in (50, 100, 200):
            num = decay_profile(s, beta, horizon)[-1]
            den = decay_profile(s, outside, horizon)[-1]
            ratios.append(num / den)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-6

    def test_zero_direction_rejected(self):
        _, s = make_split_instance(0)
        with pytest.raises(DomainError):
            decay_profile(s, np.zeros(3), 5)


class TestStateDecompose:
    def test_zero_noise_zero_states(self):
        coeffs = make_instance(2, p=2, k=1, q=1)
        s = split(coeffs, 1)
        x = np.zeros((20, 2))
        dec = state_decompose(s, x, x.copy())
        assert np.abs(dec.z_near).max() == 0.0
        assert np.abs(dec.z_stable).max() == 0.0
        assert np.abs(dec.residual).max() == 0.0

    def test_k1_recursion_identity(self):
        coeffs = make_instance(4, p=2, k=1, q=1)
        s = split(coeffs, 1)
        y, eps = simulate(DgpSpec.simple(coeffs, 100), 5)
        dec = state_decompose(s, y, eps)
        # z = big_l' x directly reproduces the one-lag recursion
        z = np.hstack([dec.z_near, dec.z_stable])
        lam = s.lam
        L = np.hstack([s.l_near, s.l_stable])
        for t in range(1, 100):
            assert np.allclose(z[t], lam @ z[t - 1] + L.T @ eps[t], atol=1e-10)

    def test_identity_residual_simulated(self):
        coeffs = make_instance(9, p=3, k=2, q=1)
        s = split(coeffs, 1)
        y, eps = simulate(DgpSpec.simple(coeffs, 500), 17)
        dec = state_decompose(s, y, eps)
        scale = 1.0 + np.abs(y).max()
        assert np.abs(dec.residual).max() <= 1e-10 * scale

    def test_shape_mismatch(self):
        _, s = make_split_instance(0)
        with pytest.raises(DomainError):
            state_decompose(s, np.zeros((10, 3)), np.zeros((9, 3)))


class TestBMatrix:
    def test_scalar_kernel(self):
        # q = 1 with scalar stable block: B = r_stable l_stable' / (lam_u - lam_s)
        coeffs = build_var(
            np.array([[0.7]]), np.array([[1.0]]), 1,
            stationary=(np.array([[1.0], [0.3]]), np.array([[0.5]])),
        )
        s = split(coeffs, 1)
        expected = s.r_stable @ s.l_stable.T / (1.0 - 0.5)
        assert np.allclose(b_matrix(s), expected, atol=1e-10)

    def test_unit_block_kron_identity(self):
        coeffs = make_instance(3, p=3, k=1, q=2, lam_lo=1.0, lam_hi=1.0)
        s = split(coeffs, 2)
        stable_inv = np.linalg.inv(np.eye(s.lam_stable.shape[0]) - s.lam_stable)
        expected = np.kron(np.eye(2), s.r_stable @ stable_inv @ s.l_stable.T)
        assert np.allclose(b_matrix(s), expected, atol=1e-10)

    def test_kronecker_inverse_oracle(self):
        # independent construction through the explicit pq x pq kernel
        for seed in (0, 5, 9):
            _, s = make_split_instance(seed, p=3, k=2, q=2, lam_lo=0.9)
            n_st = s.lam_stable.shape[0]
            kernel = np.kron(s.lam_near.T, np.eye(n_st)) - np.kron(np.eye(s.q), s.lam_stable)
            oracle = (
                np.kron(np.eye(s.q), s.r_stable)
                @ np.linalg.inv(kernel)
                @ np.kron(np.eye(s.q), s.l_stable.T)
            )
            assert np.allclose(b_matrix(s), oracle, atol=1e-8)

    def test_apply_matches_sylvester_solution(self, rng):
        _, s = make_split_instance(13, p=3, k=2, q=1)
        m = rng.normal(size=(3, 1))
        X = solve_sylvester(-s.lam_stable, s.lam_near, s.l_stable.T @ m)
        assert np.allclose(apply_b(s, m), s.r_stable @ X)
        assert np.allclose(b_matrix(s) @ _vec(m), _vec(apply_b(s, m)), atol=1e-10)


class TestJacobians:
    def test_unit_block_closed_form(self):
        # at lam_near = I the Jacobians collapse to Kronecker products
        coeffs = make_instance(8, p=3, k=2, q=1, lam_lo=1.0, lam_hi=1.0)
        s = split(coeffs, 1)
        jac = jacobians(s)
        beta = qcs_basis(s).beta
        n_st = s.lam_stable.shape[0]
        stable_inv = np.linalg.inv(np.eye(n_st) - s.lam_stable)
        j_a_expected = np.kron(np.eye(1), beta.T @ s.r_stable @ stable_inv @ s.l_stable.T)
        j_lam_expected = np.kron(np.eye(1), s.l_near.T)
        assert np.allclose(jac.j_a, j_a_expected, atol=1e-10)
        assert np.allclose(jac.j_lam, j_lam_expected, atol=1e-10)
        stacked = np.vstack([jac.j_a, jac.j_lam])
        assert np.linalg.matrix_rank(stacked) == stacked.shape[0]

    def test_finite_difference_oracle(self, rng):
        step = 1e-6
        worst = 0.0
        for seed in range(10):
            coeffs, s = make_split_instance(seed, p=3, k=2, q=1)
            jac = jacobians(s)
            direction = rng.normal(size=coeffs.stacked.shape)
            direction /= np.linalg.norm(direction)

            def a_lam_at(scale):
                stacked = coeffs.stacked + scale * direction
                sp = split(VarCoefficients.from_stacked(stacked, coeffs.k), s.q)
                return sp.a, sp.lam_near

            a_plus, lam_plus = a_lam_at(step)
            a_minus, lam_minus = a_lam_at(-step)
            da_fd = _vec((a_plus - a_minus) / (2 * step))
            dlam_fd = _vec((lam_plus - lam_minus) / (2 * step))
            rhs = _vec(direction @ s.big_r_near)
            worst = max(worst, np.abs(jac.j_a @ rhs - da_fd).max())
            worst = max(worst, np.abs(jac.j_lam @ rhs - dlam_fd).max())
        assert worst <= 1e-5

    def test_invariance_under_stable_column_perturbations(self, rng):
        # perturbations of the form M big_l_stable' leave (a, lam_near) unchanged
        for seed in (1, 4, 6):
            coeffs, s = make_split_instance(seed, p=3, k=2, q=1)
            m = rng.normal(size=(3, 5))
            delta = 1e-3 * m @ s.big_l_stable.T / max(1.0, np.linalg.norm(m))
            assert np.abs(delta @ s.big_r_near).max() <= 1e-12
            sp = split(VarCoefficients.from_stacked(coeffs.stacked + delta, 2), 1)
            assert np.abs(sp.a - s.a).max() <= 1e-8
            assert np.abs(sp.lam_near - s.lam_near).max() <= 1e-8


class TestAdjustmentAlpha:
    def test_diagonal(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 1.0])])
        s = split(coeffs, 1)
        alpha = adjustment_alpha(coeffs, qcs_basis(s))
        assert np.allclose(alpha, [[0.5], [0.0]], atol=1e-12)

    def test_span_matches_reduced_rank_factor(self):
        # exact-unit-root case: Phi(1) = -alpha0 beta0' with known factors
        alpha0 = np.array([[-0.3], [0.1]])
        beta0 = np.array([[1.0], [-1.0]])
        phi1 = np.eye(2) + alpha0 @ beta0.T
        coeffs = VarCoefficients.from_matrices([phi1])
        s = split(coeffs, 1)
        alpha = adjustment_alpha(coeffs, qcs_basis(s))
        # span comparison via projector difference
        proj = lambda v: v @ np.linalg.inv(v.T @ v) @ v.T
        assert np.abs(proj(alpha) - proj(alpha0)).max() <= 1e-10

    def test_span_invariant_to_basis_scaling(self, rng):
        coeffs, s = make_split_instance(2, p=3, k=1, q=1)
        beta = qcs_basis(s).beta
        m = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        from qcvar.representation import QcsBasis

        a1 = adjustment_alpha(coeffs, QcsBasis(beta))
        a2 = adjustment_alpha(coeffs, QcsBasis(beta @ m))
        proj = lambda v: v @ np.linalg.inv(v.T @ v) @ v.T
        assert np.abs(proj(a1) - proj(a2)).max() <= 1e-8
