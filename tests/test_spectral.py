import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from qcvar.exceptions import (
    BoundaryWarning,
    ClassificationError,
    DomainError,
    NormalizationError,
    RootSeparationError,
)
from qcvar.spectral import (
    RegionSpec,
    RootSet,
    VarCoefficients,
    classify,
    companion,
    constraint_matrices,
    half_life_to_radius,
    radius_to_half_life,
    reconstruct,
    roots,
    split,
)


class TestCompanion:
    def test_k1_collapses_to_single_lag(self):
        m = np.array([[0.3, 0.1], [0.0, 0.9]])
        coeffs = VarCoefficients.from_matrices([m])
        assert np.array_equal(companion(coeffs), m)

    def test_scalar_k2_layout(self):
        coeffs = VarCoefficients.from_matrices([np.array([[1.3]]), np.array([[-0.4]])])
        expected = np.array([[1.3, -0.4], [1.0, 0.0]])
        assert np.array_equal(companion(coeffs), expected)

    def test_block_placement_p2_k2(self, rng):
        blocks = [rng.normal(size=(2, 2)) for _ in range(2)]
        F = companion(VarCoefficients.from_matrices(blocks))
        assert np.array_equal(F[:2, :2], blocks[0])
        assert np.array_equal(F[:2, 2:], blocks[1])
        assert np.array_equal(F[2:, :2], np.eye(2))
        assert np.array_equal(F[2:, 2:], np.zeros((2, 2)))


class TestRoots:
    def test_scalar_ar1(self):
        rs = roots(VarCoefficients.from_matrices([np.array([[0.9]])]))
        assert np.allclose(rs.roots, [0.9])

    def test_quadratic_factorisation(self):
        # lam^2 - 1.3 lam + 0.4 = (lam - 0.8)(lam - 0.5), by the quadratic formula
        rs = roots(VarCoefficients.from_matrices([np.array([[1.3]]), np.array([[-0.4]])]))
        assert np.allclose(rs.roots, [0.8, 0.5], atol=1e-12)

    def test_diagonal(self):
        rs = roots(VarCoefficients.from_matrices([np.diag([0.95, 0.5])]))
        assert np.allclose(rs.roots, [0.95, 0.5])

    def test_sort_rule_conjugates_nonnegative_imag_first(self):
        # rotation-like matrix with eigenvalues 0.9 e^{+-i pi/4}
        th = np.pi / 4
        m = 0.9 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rs = roots(VarCoefficients.from_matrices([m]))
        assert rs.roots[0].imag > 0
        assert rs.roots[1].imag < 0
        assert np.isclose(abs(rs.roots[0]), 0.9)

    def test_length_and_conjugate_closure(self, rng):
        coeffs = VarCoefficients.from_matrices([rng.normal(size=(3, 3)) * 0.3 for _ in range(2)])
        rs = roots(coeffs)
        assert len(rs) == 6
        paired = np.sort_complex(rs.roots)
        assert np.allclose(np.sort_complex(np.conj(rs.roots)), paired, atol=1e-10)


class TestClassify:
    def test_simple_split(self):
        cls = classify(RootSet(np.array([0.95, 0.5])), RegionSpec(0.9))
        assert cls.q == 1
        assert cls.labels == ("near-unit", "stable")

    def test_exact_unit_root_always_near(self):
        for rho in (0.5, 0.9, 0.999, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryWarning)
                cls = classify(RootSet(np.array([1.0, 0.3 * rho])), RegionSpec(rho))
            assert cls.labels[0] == "near-unit"

    def test_complex_pair_outside_both_regions(self):
        z = 0.95 * np.exp(0.4j)
        with pytest.raises(ClassificationError):
            classify(RootSet(np.array([z, np.conj(z)])), RegionSpec(0.9))

    def test_boundary_warning(self):
        with pytest.warns(BoundaryWarning):
            classify(RootSet(np.array([1.0, 0.1])), RegionSpec(0.9))

    def test_bad_rho(self):
        with pytest.raises(DomainError):
            RegionSpec(0.0)
        with pytest.raises(DomainError):
            RegionSpec(1.2)


class TestSplit:
    def test_diagonal(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 0.95])])
        s = split(coeffs, 1)
        assert np.allclose(s.lam_near, [[0.95]])
        assert np.allclose(s.a, [[0.0]])
        assert np.allclose(s.r_near, [[0.0], [1.0]])

    def test_lower_triangular_derived(self):
        # eigenvector of 0.95 for [[0.95, 0], [0.45, 0.5]] is (1, 1)
        coeffs = VarCoefficients.from_matrices([np.array([[0.95, 0.0], [0.45, 0.5]])])
        s = split(coeffs, 1)
        assert np.allclose(s.lam_near, [[0.95]], atol=1e-12)
        assert np.allclose(s.r_near, [[1.0], [1.0]], atol=1e-12)
        assert np.allclose(s.a, [[1.0]], atol=1e-12)

    def test_q0_passthrough(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 0.95])])
        s = split(coeffs, 0)
        assert s.a.shape == (2, 0)
        assert s.lam_near.shape == (0, 0)
        F = companion(coeffs)
        assert np.allclose(reconstruct(s), F, atol=1e-12)

    def test_bottom_rows_exact_identity(self):
        coeffs = make_instance(3, p=3, k=2, q=2)
        s = split(coeffs, 2)
        assert np.array_equal(s.r_near[-2:, :], np.eye(2))

    def test_invariants_random_instances(self):
        for seed in range(12):
            p = 2 + seed % 3
            q = 1 + seed % min(2, p - 1)
            k = 1 + seed % 2
            coeffs = make_instance(seed, p=p, k=k, q=q)
            s = split(coeffs, q)
            F = companion(coeffs)
            scale = np.linalg.norm(F)
            assert np.linalg.norm(reconstruct(s) - F) <= 1e-8 * scale
            # defining relation of the near-unit block
            resid = s.r_near @ np.linalg.matrix_power(s.lam_near, k)
            for i, m in enumerate(coeffs.phi, start=1):
                resid = resid - m @ s.r_near @ np.linalg.matrix_power(s.lam_near, k - i)
            assert np.linalg.norm(resid) <= 1e-8
            assert np.linalg.norm(s.big_l.T @ s.big_r - np.eye(k * p)) <= 1e-8

    def test_spectrum_preserved(self):
        from scipy.optimize import linear_sum_assignment

        coeffs = make_instance(7, p=4, k=2, q=2)
        s = split(coeffs, 2)
        lam_eigs = np.concatenate(
            [np.linalg.eigvals(s.lam_near), np.linalg.eigvals(s.lam_stable)]
        )
        target = roots(coeffs).roots
        cost = np.abs(lam_eigs[None, :] - target[:, None])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-8

    def test_separation_error_conjugate_straddle(self):
        th = 0.5
        m = 0.95 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(RootSeparationError):
            split(VarCoefficients.from_matrices([m]), 1)

    def test_normalization_error_advises_reordering(self):
        # the near-unit eigenvector is the first axis, so the trailing block is 0
        coeffs = VarCoefficients.from_matrices([np.diag([0.95, 0.4])])
        with pytest.raises(NormalizationError, match="reordering"):
            split(coeffs, 1)

    def test_q_bounds(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 0.95])])
        with pytest.raises(DomainError):
            split(coeffs, 3)


class TestReconstruct:
    def test_round_trip_diag(self):
        coeffs = VarCoefficients.from_matrices([np.diag([0.5, 0.95])])
        s = split(coeffs, 1)
        assert np.abs(reconstruct(s) - companion(coeffs)).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_random_p3_k2(self, seed):
        coeffs = make_instance(seed, p=3, k=2, q=1)
        s = split(coeffs, 1)
        F = companion(coeffs)
        assert np.linalg.norm(F - reconstruct(s)) <= 1e-8 * np.linalg.norm(F)


class TestConstraintMatrices:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_stack_gives_the_stack_of_its_blocks(self, k):
        # a (4, 3, r, q) stack of a against a (4, 1, q, q) stack of lam, as the search builds them
        rng = np.random.default_rng(k)
        a, lam = rng.normal(size=(4, 3, 2, 2)), rng.normal(size=(4, 1, 2, 2))
        stacked = constraint_matrices(a, lam, k)
        assert [m.shape for m in stacked] == [(4, 3, 4, 2), (4, 3, 4 * k, 2), (4, 3, 4, 2)]
        for g in range(4):
            for e in range(3):
                for got, want in zip(stacked, constraint_matrices(a[g, e], lam[g, 0], k)):
                    np.testing.assert_array_equal(got[g, e], want)


class TestHalfLife:
    def test_reference_values(self):
        assert round(half_life_to_radius(8), 3) == 0.917
        assert round(half_life_to_radius(10), 3) == 0.933

    def test_rho_half_means_one_period(self):
        assert radius_to_half_life(0.5) == pytest.approx(1.0)

    def test_infinite_at_unity(self):
        assert radius_to_half_life(1.0) == math.inf

    @settings(max_examples=50, deadline=None)
    @given(h=st.floats(0.1, 500.0))
    def test_mutually_inverse(self, h):
        assert radius_to_half_life(half_life_to_radius(h)) == pytest.approx(h, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            half_life_to_radius(0.0)
        with pytest.raises(DomainError):
            radius_to_half_life(0.0)
