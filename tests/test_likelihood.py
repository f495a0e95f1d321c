import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.optimize import minimize, minimize_scalar

import qcvar.likelihood as likelihood
import qcvar.spectral as spectral
from conftest import SYMMETRIC_POINTS, make_instance, symmetric_data
from qcvar.dgp import DgpSpec, build_var, simulate
from qcvar.exceptions import (
    ConditionWarning,
    DomainError,
    NormalizationError,
    NumericalError,
    SingularDesignError,
)
from qcvar.inference import lr_coefficient, lr_lambda
from qcvar.likelihood import (
    DET_CASES,
    LambdaGrid,
    concentrated_loglik,
    make_design,
    ols_fit,
    profile_a,
    profile_lambda,
    restricted_fit,
    rrr_fit,
)
from qcvar.spectral import VarCoefficients, roots, split


def transient_path(coeffs, x0, n):
    """Noiseless trajectory from a nonzero start (exact interpolation data)."""
    p, k = coeffs.p, coeffs.k
    x = np.zeros((n + k, p))
    x[k - 1] = x0
    for t in range(k, n + k):
        x[t] = sum(coeffs.phi[i - 1] @ x[t - i] for i in range(1, k + 1))
    return x[k - 1:]


class TestOlsFit:
    def test_exact_interpolation_of_noiseless_var(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        data = transient_path(coeffs, np.array([1.0, -2.0]), 60)
        fit = ols_fit(data, 1, "none")
        assert np.abs(fit.coeffs.stacked - coeffs.stacked).max() <= 1e-10
        assert np.abs(fit.sigma).max() <= 1e-20

    def test_pure_trend_zero_residuals(self):
        t = np.arange(1, 41)
        data = np.column_stack([2.0 + 3.0 * t, 1.0 - 0.5 * t])
        with pytest.warns(ConditionWarning):
            fit = ols_fit(data, 1, "trend")
        assert np.abs(fit.sigma).max() <= 1e-18

    def test_consistency_shrinks_with_n(self):
        coeffs = VarCoefficients.from_matrices([np.array([[0.5, 0.1], [0.0, 0.3]])])
        errs = {}
        for n in (200, 2000):
            y, _ = simulate(DgpSpec.simple(coeffs, n), 123)
            fit = ols_fit(y, 1, "none")
            errs[n] = np.linalg.norm(fit.coeffs.stacked - coeffs.stacked)
        assert errs[2000] <= 0.1
        assert errs[2000] < errs[200]

    def test_design_keeps_its_condition_number(self):
        # the number that decides the pseudo-inverse fallback, from 1e12
        y, _ = simulate(DgpSpec.simple(make_instance(0, p=2, k=1, q=1), 200), 7)
        dz = make_design(y, 1, "trend")
        assert dz.cond == np.linalg.cond(dz.WtW) < 1e12
        t = np.arange(1.0, 41.0)
        with pytest.warns(ConditionWarning, match="ill conditioned"):
            dz = make_design(np.column_stack([2.0 + 3.0 * t, 1.0 - 0.5 * t]), 1, "trend")
        assert not dz.cond < 1e12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_is_a_domain_error_naming_its_cell(self, bad):
        # the first non-finite cell in row-major order is the one named
        y = np.cumsum(np.random.default_rng(8).standard_normal((60, 3)), axis=0)
        y[17, 2], y[40, 0] = bad, bad
        for build in (lambda: make_design(y, 1, "const"),
                      lambda: lr_lambda(0.97, y, 1, "const")):
            with pytest.raises(DomainError, match=f"data must be finite; row 17, column 2 is {bad}"):
                build()

    def test_too_few_observations(self):
        from qcvar.exceptions import SingularDesignError

        with pytest.raises(SingularDesignError):
            ols_fit(np.random.default_rng(0).normal(size=(6, 2)), 2, "trend")

    def test_det_coeffs_unscaled(self):
        rng = np.random.default_rng(5)
        t = np.arange(1, 301)
        data = np.column_stack([1.5 + 0.25 * t, -2.0 + 0.1 * t]) + rng.normal(
            scale=0.01, size=(300, 2)
        )
        fit = ols_fit(data, 1, "trend")
        # y_t ~ m + d t with phi ~ 0 absorbed; reconstruct fitted values
        resid_scale = np.abs(fit.sigma).max()
        assert resid_scale < 1e-3


class TestConcentratedLoglik:
    def test_perfect_fit_identity_sigma_is_zero(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        data = transient_path(coeffs, np.array([1.0, -2.0]), 40)
        val = concentrated_loglik(coeffs, np.eye(2), data, "none")
        assert val == pytest.approx(0.0, abs=1e-18)

    def test_sigma_scaling_at_perfect_fit(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        data = transient_path(coeffs, np.array([1.0, -2.0]), 40)
        c = 3.7
        n_eff = data.shape[0] - 1
        val = concentrated_loglik(coeffs, c * np.eye(2), data, "none")
        assert val == pytest.approx(-(n_eff / 2) * 2 * np.log(c), rel=1e-12)

    def test_dense_nested_least_squares_oracle(self):
        # oracle: explicit weighted normal equations for (m, d), no shortcuts
        coeffs = make_instance(3, p=2, k=2, q=1)
        y, _ = simulate(
            DgpSpec(
                coeffs=coeffs, sigma=np.array([[1.0, 0.3], [0.3, 2.0]]),
                mu=np.array([0.7, -0.2]), delta=np.array([0.01, 0.0]), n=150,
            ),
            21,
        )
        sigma = np.array([[1.4, -0.2], [-0.2, 0.8]])
        val = concentrated_loglik(coeffs, sigma, y, "trend")

        n, p, k = 150, 2, 2
        u = np.stack([
            y[t] - sum(coeffs.phi[i - 1] @ y[t - i] for i in range(1, k + 1))
            for t in range(k, n)
        ])
        t_idx = np.arange(k + 1, n + 1, dtype=float)
        D = np.column_stack([np.ones(n - k), t_idx])
        w_inv = np.linalg.inv(sigma)
        # stacked GLS normal equations for vec of the 2x2 deterministic block
        G = np.kron(D.T @ D, w_inv)
        rhs = (w_inv @ u.T @ D).flatten(order="F")
        sol = np.linalg.solve(G, rhs).reshape((p, 2), order="F")
        resid = u - D @ sol.T
        quad = np.einsum("ti,ij,tj->", resid, w_inv, resid)
        sign, logdet = np.linalg.slogdet(sigma)
        expected = -0.5 * (n - k) * logdet - 0.5 * quad
        assert val == pytest.approx(expected, abs=1e-6)

    def test_singular_sigma_rejected(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        data = transient_path(coeffs, np.array([1.0, -2.0]), 40)
        with pytest.raises(DomainError):
            concentrated_loglik(coeffs, np.zeros((2, 2)), data, "none")


class TestRestrictedFit:
    def test_non_binding_constraint_equals_ols(self):
        coeffs = make_instance(2, p=3, k=2, q=1)
        y, _ = simulate(DgpSpec.simple(coeffs, 300), 7)
        fit = ols_fit(y, 2, "trend")
        s = split(fit.coeffs, 1)
        rfit = restricted_fit(s.a, s.lam_near, y, 2, "trend")
        assert np.abs(rfit.coeffs.stacked - fit.coeffs.stacked).max() <= 1e-8
        assert rfit.loglik == pytest.approx(fit.loglik, abs=1e-8)
        assert rfit.status == "converged"

    def test_q_equals_p_fully_pinned(self):
        coeffs = make_instance(4, p=2, k=1, q=1)
        y, _ = simulate(DgpSpec.simple(coeffs, 200), 3)
        lam0 = np.diag([0.99, 0.97])
        rfit = restricted_fit(np.zeros((0, 2)), lam0, y, 1, "const")
        assert rfit.constraint_residual <= 1e-8
        # k = 1 with q = p pins the whole lag matrix at lam0
        assert np.abs(rfit.coeffs.phi[0] - lam0).max() <= 1e-10

    def test_restricted_never_beats_ols(self):
        rng = np.random.default_rng(8)
        coeffs = make_instance(5, p=2, k=1, q=1)
        y, _ = simulate(DgpSpec.simple(coeffs, 250), 11)
        design = make_design(y, 1, "trend")
        ols = ols_fit(y, 1, "trend", design=design)
        for _ in range(25):
            a = rng.normal(size=(1, 1))
            lam0 = np.array([[rng.uniform(0.9, 1.0)]])
            rfit = restricted_fit(a, lam0, y, 1, "trend", design=design)
            assert rfit.loglik <= ols.loglik + 1e-8

    def test_zero_noise_recovers_truth(self):
        a_true = np.array([[0.8]])
        lam_true = np.array([[0.97]])
        coeffs = build_var(a_true, lam_true, 1, seed=2)
        data = transient_path(coeffs, np.array([2.0, 1.0]), 80)
        rfit = restricted_fit(a_true, lam_true, data, 1, "none")
        assert np.abs(rfit.coeffs.stacked - coeffs.stacked).max() <= 1e-8
        assert np.abs(rfit.sigma).max() <= 1e-12


def _fit_bits(fit):
    """What a block's fit reports, as exact bytes and values."""
    if not isinstance(fit, likelihood.FitResult):
        return type(fit), str(fit)
    return (fit.loglik, fit.constraint_residual, fit.status, fit.a_hat.tobytes(),
            fit.evaluations, fit.coeffs.stacked.tobytes(), fit.sigma.tobytes(),
            fit.det_coeffs.tobytes())


class TestRestrictedFits:
    """The closed-form fit over a stack of blocks, which restricted_fit and the search share."""

    @pytest.mark.parametrize("det", ["trend", "const"])
    def test_a_stack_gives_the_batches_of_one_of_its_blocks(self, det):
        # every non-scalar block of the default grid at its searched a; at det const this input
        # has one constraint-infeasible block
        y = symmetric_data(300_012)
        dz = make_design(y, 1, det)
        grid = LambdaGrid(family="symmetric", q=2)
        points = grid.points()
        profile_lambda(grid, y, 1, det, design=dz)
        searched = [dz._moments[lam.tobytes()] for lam in points if not likelihood._is_scalar(lam)]
        lams = np.array([lam for lam in points if not likelihood._is_scalar(lam)])
        a = np.array([fit.a_hat for fit in searched])
        status = [fit.status for fit in searched]
        evaluations = [fit.evaluations for fit in searched]
        stacked = likelihood._restricted_fits(a, lams, dz, status, evaluations)
        assert [_fit_bits(fit) for fit in stacked] == [_fit_bits(fit) for fit in searched]
        assert status.count("constraint-infeasible") == (det == "const")
        for g in range(len(lams)):
            alone = likelihood._restricted_fits(a[g:g + 1], lams[g:g + 1], dz, status[g:g + 1],
                                                evaluations[g:g + 1])
            assert _fit_bits(alone[0]) == _fit_bits(stacked[g])
        for g in range(0, len(lams), 40):  # the public batch of one
            fit = restricted_fit(a[g], lams[g], y, 1, det, design=dz)
            assert (fit.loglik, fit.constraint_residual) == (stacked[g].loglik,
                                                             stacked[g].constraint_residual)
            assert fit.evaluations is None

    def test_a_singular_block_fails_alone(self):
        # with the inverse moment matrix zero at the level of the second series, K'QK = a^2 at
        # q = 1, k = 1: singular at a = 0 only
        y = np.cumsum(np.random.default_rng(3).standard_normal((150, 2)), axis=0)
        dz = make_design(y, 1, "const")
        dz.Q = np.diag([1.0, 1.0, 0.0])
        a = np.array([0.3, 0.0, -0.5]).reshape(3, 1, 1)
        lams = np.full((3, 1, 1), 0.97)
        fits = likelihood._restricted_fits(a, lams, dz, ["converged"] * 3, [None] * 3)
        assert isinstance(fits[1], SingularDesignError)
        for g in (0, 2):
            alone = likelihood._restricted_fits(a[g:g + 1], lams[g:g + 1], dz, ["converged"], [None])
            assert _fit_bits(fits[g]) == _fit_bits(alone[0])
        with pytest.raises(SingularDesignError, match="restricted design is singular"):
            restricted_fit(a[1], lams[1], y, 1, "const", design=dz)

    def test_a_block_with_non_finite_moments_fails_alone(self, monkeypatch):
        y = np.cumsum(np.random.default_rng(3).standard_normal((150, 2)), axis=0)
        dz = make_design(y, 1, "trend")
        a = np.array([0.3, 0.1, -0.5]).reshape(3, 1, 1)
        lams = np.full((3, 1, 1), 0.97)
        alone = [likelihood._restricted_fits(a[g:g + 1], lams[g:g + 1], dz, ["converged"],
                                             [None])[0] for g in range(3)]
        ssr = dz.ssr

        def poisoned(theta):  # the middle block's residual moments overflow
            out = ssr(theta)
            out[1] = np.inf
            return out

        monkeypatch.setattr(dz, "ssr", poisoned)
        fits = likelihood._restricted_fits(a, lams, dz, ["converged"] * 3, [None] * 3)
        assert isinstance(fits[1], NumericalError) and "non-finite" in str(fits[1])
        assert [_fit_bits(fits[g]) for g in (0, 2)] == [_fit_bits(alone[g]) for g in (0, 2)]


class TestSolveWeight:
    def test_a_non_finite_column_stays_non_finite_and_apart(self):
        rng = np.random.default_rng(4)
        dz = make_design(np.cumsum(rng.standard_normal((100, 3)), axis=0), 1, "trend")
        x = rng.standard_normal((5, 3, 3))  # a stack, as the stacked fit passes it
        clean = dz.solve_weight(x)
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = x.copy()
            poisoned[2, 1, 0] = bad
            out = dz.solve_weight(poisoned)
            assert not np.isfinite(out[2, :, 0]).all()
            keep = np.ones(out.shape, bool)
            keep[2, :, 0] = False
            np.testing.assert_array_equal(out[keep], clean[keep])

    def test_matches_cho_solve_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 4, 5):
            dz = make_design(np.cumsum(rng.standard_normal((120, p)), axis=0), 2, "const")
            cho = scipy.linalg.cho_factor(dz.sigma_ols)
            for cols in (1, p, 7 * p):
                x = rng.standard_normal((p, cols)) * 10.0 ** rng.uniform(-6, 6, size=(p, cols))
                np.testing.assert_array_equal(dz.solve_weight(x), scipy.linalg.cho_solve(cho, x))


class TestProfileA:
    def test_degenerate_dimensions_shortcut(self):
        coeffs = make_instance(4, p=2, k=1, q=1)
        y, _ = simulate(DgpSpec.simple(coeffs, 200), 3)
        lam0 = np.diag([0.99, 0.97])
        pfit = profile_a(lam0, y, 1, "const")
        rfit = restricted_fit(np.zeros((0, 2)), lam0, y, 1, "const")
        assert pfit.loglik == rfit.loglik

    def test_profile_dominates_truth(self):
        a_true = np.array([[0.5], [1.0]])
        lam_true = np.array([[0.98]])
        coeffs = build_var(a_true, lam_true, 1, seed=6)
        y, _ = simulate(DgpSpec.simple(coeffs, 2000), 19)
        pfit = profile_a(lam_true, y, 1, "trend")
        rfit = restricted_fit(a_true, lam_true, y, 1, "trend")
        assert pfit.loglik >= rfit.loglik - 1e-8
        # n-rate concentration: loose sanity bound, the inequality above is the assertion
        assert np.abs(pfit.a_hat - a_true).max() <= 0.05

    def test_fixed_entry_at_optimum_is_free_optimum(self):
        coeffs = build_var(np.array([[0.5], [1.0]]), np.array([[0.98]]), 1, seed=6)
        y, _ = simulate(DgpSpec.simple(coeffs, 500), 23)
        lam0 = np.array([[0.98]])
        free = profile_a(lam0, y, 1, "trend")
        pinned = profile_a(
            lam0, y, 1, "trend", fixed_entry=(1, 0, float(free.a_hat[1, 0]))
        )
        assert pinned.loglik == pytest.approx(free.loglik, abs=1e-8)

    def test_lambda0_zero_k2_free_dominates_pinned(self):
        # the free profile is the maximum, so no pinned fit lies above it
        y = TestRrrFit()._sim(3)
        lam0 = np.zeros((1, 1))
        free = profile_a(lam0, y, 2, "trend")
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 0, 0.3))
        assert free.loglik >= pinned.loglik - 1e-10
        lr = lr_coefficient(0.3, 0, 0, lam0, y, 2, "trend").value
        assert np.isfinite(lr) and lr < 1.0

    def test_fixed_entry_bounds(self):
        coeffs = build_var(np.array([[0.5]]), np.array([[0.98]]), 1, seed=6)
        y, _ = simulate(DgpSpec.simple(coeffs, 100), 2)
        with pytest.raises(DomainError):
            profile_a(np.array([[0.98]]), y, 1, "trend", fixed_entry=(2, 0, 0.0))
        with pytest.raises(DomainError):
            profile_a(np.array([[0.98]]), y, 1, "trend", fixed_entry=(0, 0, float("nan")))


def _count_calls(monkeypatch, name):
    """Wrap ``likelihood.<name>`` so that each call is counted; ``"_wald_form"`` builds the
    objective of a non-scalar search, so no closed-form path calls it."""
    calls = []
    original = getattr(likelihood, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(likelihood, name, counted)
    return calls


def _wrap_evaluator(monkeypatch, wrap):
    """Make ``likelihood._wald_form`` return ``wrap(evaluate)`` in place of its evaluator, which
    takes a stack of a and the indices of its blocks."""
    original = likelihood._wald_form
    monkeypatch.setattr(likelihood, "_wald_form", lambda lams, dz: wrap(original(lams, dz)))


def _single(lam0, dz):
    """The evaluator of :func:`likelihood._wald_form` at the one block lam0, unstacked:
    ``a -> (f, gradient, Hessian)``."""
    evaluate = likelihood._wald_form(lam0[None], dz)

    def at(a):
        f, grad, hess = evaluate(a[None], [0])
        return f[0], grad[0], hess[0]

    return at


def fail_block_lr_above(monkeypatch, lam_max):
    """Make ``likelihood._block_lr``, the node LR of ``profile_lambda``, raise a NumericalError at
    every block above ``lam_max``."""
    original = likelihood._block_lr

    def failing(lam0, *args, **kwargs):
        if lam0[0, 0] > lam_max:
            raise NumericalError(f"injected failure at lambda = {lam0[0, 0]:g}")
        return original(lam0, *args, **kwargs)

    monkeypatch.setattr(likelihood, "_block_lr", failing)


class TestProfileADispatch:
    """Which scalar and non-scalar blocks take the closed form."""

    def test_scalar_block_takes_closed_form(self, monkeypatch):
        # a is read from the eigenvectors of (A, S11); rrr_fit's S00 pencil shares them
        y = TestRrrFit()._sim(3)
        rrr = rrr_fit(0.97, 1, y, 2, "trend")
        searches = _count_calls(monkeypatch, "_wald_form")
        fits = _count_calls(monkeypatch, "restricted_fit")
        rank_fits = _count_calls(monkeypatch, "rrr_fit")
        fit = profile_a(np.array([[0.97]]), y, 2, "trend")
        assert len(fits) == 1 and not searches and not rank_fits
        assert fit.status == "converged" and fit.evaluations is None
        np.testing.assert_allclose(fit.a_hat, rrr.a_hat, rtol=1e-12)

    def test_lambda0_zero_k2_takes_closed_form(self, monkeypatch):
        y = TestRrrFit()._sim(3)
        lam0 = np.zeros((1, 1))
        searches = _count_calls(monkeypatch, "_wald_form")
        fits = _count_calls(monkeypatch, "restricted_fit")
        free = profile_a(lam0, y, 2, "trend")
        assert len(fits) == 1 and not searches
        np.testing.assert_allclose(free.a_hat, rrr_fit(0.0, 1, y, 2, "trend").a_hat, rtol=1e-12)
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 0, 0.3))
        assert len(fits) == 2 and not searches
        assert pinned.a_hat[0, 0] == 0.3 and pinned.status == "converged"

    def test_non_scalar_block_searches(self, monkeypatch):
        y = TestRrrFit()._sim(3)
        searches = _count_calls(monkeypatch, "_wald_form")
        fit = profile_a(np.array([[0.98, 0.01], [0.01, 0.95]]), y, 2, "trend")
        assert searches and np.isfinite(fit.loglik)

    def test_non_scalar_block_fits_once(self, monkeypatch):
        # the search runs on the Wald form; restricted_fit reports its result
        y = TestRrrFit()._sim(3)
        lam0 = np.array([[0.98, 0.01], [0.01, 0.95]])
        fits = _count_calls(monkeypatch, "_restricted_fits")
        fit = profile_a(lam0, y, 2, "trend")
        assert len(fits) == 1 and fit.status == "converged"
        np.testing.assert_array_equal(fits[0][0], fit.a_hat[None])

    def test_fixed_entry_at_q1_takes_closed_form(self, monkeypatch):
        y = TestRrrFit()._sim(3)
        lam0 = np.array([[0.97]])
        free = profile_a(lam0, y, 2, "trend")
        a0 = float(free.a_hat[0, 0]) + 0.1
        searches = _count_calls(monkeypatch, "_wald_form")
        fits = _count_calls(monkeypatch, "restricted_fit")
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 0, a0))
        assert len(fits) == 1 and not searches
        assert pinned.a_hat[0, 0] == a0 and pinned.status == "converged"
        assert pinned.loglik <= free.loglik + 1e-10

    def test_fixed_entry_at_r1_takes_closed_form(self, monkeypatch):
        y = TestRrrFit()._sim(3)
        lam0 = 0.97 * np.eye(2)
        free = profile_a(lam0, y, 2, "trend")
        a0 = float(free.a_hat[0, 1]) + 0.1
        searches = _count_calls(monkeypatch, "_wald_form")
        fits = _count_calls(monkeypatch, "restricted_fit")
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 1, a0))
        assert len(fits) == 1 and not searches
        assert pinned.a_hat[0, 1] == a0 and pinned.status == "converged"
        assert pinned.loglik <= free.loglik + 1e-10

    def test_fixed_entry_at_q2_r2_takes_closed_form(self, monkeypatch):
        # with q, r >= 2 the fixed entry pins one coordinate of a column of a, neither a whole
        # column of beta nor all of it; the switching algorithm still needs no search
        y = _oracle_data(4, 2, 2)
        lam0 = 0.97 * np.eye(2)
        free = profile_a(lam0, y, 2, "trend")
        a0 = float(free.a_hat[0, 1]) + 0.1
        searches = _count_calls(monkeypatch, "_wald_form")
        fits = _count_calls(monkeypatch, "restricted_fit")
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 1, a0))
        assert len(fits) == 1 and not searches and pinned.evaluations is None
        assert pinned.a_hat[0, 1] == a0 and pinned.status == "converged"
        assert pinned.loglik <= free.loglik + 1e-10

    def test_switching_sweep_cap_is_a_numerical_error(self, monkeypatch):
        y = _oracle_data(4, 2, 2)
        monkeypatch.setattr(likelihood, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match=r"switching algorithm at a\[0, 1\] = 0.5 did not "
                           "converge in 1 sweeps"):
            profile_a(0.97 * np.eye(2), y, 2, "trend", fixed_entry=(0, 1, 0.5))

    def test_fixed_entry_searches_below_free_optimum(self, monkeypatch):
        # at a non-scalar block the search remains
        y = _oracle_data(4, 2, 2)
        lam0 = _NON_SCALAR_BLOCKS[1]
        free = profile_a(lam0, y, 2, "trend")
        searches = _count_calls(monkeypatch, "_wald_form")
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 1, float(free.a_hat[0, 1]) + 0.1))
        assert searches
        assert pinned.loglik <= free.loglik + 1e-10

    def test_search_keeps_infeasible_status(self):
        # a fixed entry this large leaves the subspace constraint unmet to rounding
        y = _oracle_data(4, 2, 2)
        lam0 = _NON_SCALAR_BLOCKS[1]
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 1, 1e12))
        assert restricted_fit(pinned.a_hat, lam0, y, 2, "trend").status == "constraint-infeasible"
        assert pinned.status == "constraint-infeasible"

    def test_an_extreme_a_is_infeasible_at_the_ols_loglik(self):
        # the example of FitResult's status: the constraint is dropped, not imposed
        y = np.cumsum(np.random.default_rng(0).standard_normal((200, 3)), axis=0)
        dz = make_design(y, 1, "const")
        with np.errstate(over="ignore"):
            fit = restricted_fit(np.array([[1e200], [0.1]]), 0.97, y, 1, "const", design=dz)
        assert fit.status == "constraint-infeasible" and fit.constraint_residual == np.inf
        assert fit.loglik == pytest.approx(dz.loglik_ols, rel=1e-13)

    def test_overflow_is_a_status_or_an_error_not_a_warning(self):
        # numpy's overflow warnings stay inside the fit and the moment build
        y = np.cumsum(np.random.default_rng(0).standard_normal((200, 3)), axis=0)
        dz = make_design(y, 1, "const")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = restricted_fit(np.array([[1e200], [0.1]]), 0.97, y, 1, "const", design=dz)
            with pytest.raises(NumericalError, match=r"lambda0 = 1e\+300 are not finite"):
                lr_lambda(1e300, y, 1, "const", design=dz)
        assert fit.status == "constraint-infeasible"

    def test_search_failure_is_a_numerical_error(self, monkeypatch):
        # a failure inside the search that is not a QcvarError, e.g. at an extreme fixed entry
        def broken(evaluate):
            def at(a, idx):
                raise UnboundLocalError("cannot access local variable 'p'")
            return at

        _wrap_evaluator(monkeypatch, broken)
        y = _oracle_data(4, 2, 2)
        with pytest.raises(NumericalError, match=r"lam0 = \[\[0.985, 0.02\], \[-0.01, 0.96\]\], "
                           r"fixed entry \(0, 1, -5600000000000000.0\).*UnboundLocalError"):
            profile_a(_NON_SCALAR_BLOCKS[1], y, 2, "trend", fixed_entry=(0, 1, -5.6e15))

    def test_nan_init_is_a_numerical_error(self):
        y = _oracle_data(4, 2, 2)
        with pytest.raises(NumericalError, match=r"lam0 = \[\[0.985, 0.02\], \[-0.01, 0.96\]\]"):
            profile_a(_NON_SCALAR_BLOCKS[1], y, 2, "trend", init=np.full((2, 2), np.nan))

    def test_infinite_objective_is_a_numerical_error(self, monkeypatch):
        # not a silent max-iter: the search stops at the first non-finite value
        def infinite(evaluate):
            def at(a, idx):
                f, grad, hess = evaluate(a, idx)
                return np.full_like(f, np.inf), grad, hess
            return at

        _wrap_evaluator(monkeypatch, infinite)
        y = _oracle_data(4, 2, 2)
        with pytest.raises(NumericalError, match=r"fixed entry \(0, 1, 0.5\): the Wald form is not "
                           "finite"):
            profile_a(_NON_SCALAR_BLOCKS[1], y, 2, "trend", fixed_entry=(0, 1, 0.5))

    def test_init_of_the_wrong_size_is_a_domain_error(self):
        y = _oracle_data(4, 2, 2)
        with pytest.raises(DomainError, match=r"init must be the \(2, 2\) matrix a, got shape "
                           r"\(3,\)"):
            profile_a(_NON_SCALAR_BLOCKS[1], y, 2, "trend", init=np.zeros(3))


def _search_from(a_start, lam0, y, k, det, dz, frozen=None):
    """An independent simplex search over a, keeping the ``frozen`` (i, j)
    entry at its start value; returns its best loglik."""
    free = np.ones(a_start.shape, dtype=bool)
    if frozen is not None:
        free[frozen] = False

    def objective(x):
        a = a_start.copy()
        a[free] = x
        return -restricted_fit(a, lam0, y, k, det, design=dz).loglik

    res = minimize(objective, a_start[free], method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": 1000 * int(free.sum())})
    return -min(res.fun, objective(a_start[free]))


_ORACLE_SYSTEMS = [(p, k, q) for p in (2, 3, 4, 5) for k in (1, 2, 3) for q in (1, 2) if q < p]


def _oracle_data(p, k, q):
    coeffs = make_instance(10 * p + 3 * k + q, p=p, k=k, q=q)
    y, _ = simulate(DgpSpec.simple(coeffs, 200), 7 * p + k)
    return y


#: a symmetric block as the q=2 grid builds it, and a non-symmetric one
_NON_SCALAR_BLOCKS = (
    LambdaGrid(family="symmetric", q=2, rho=0.95, eig_step=0.04, angle_step=np.pi / 3).points()[2],
    np.array([[0.985, 0.02], [-0.01, 0.96]]),
)


class TestClosedFormOracle:
    """The closed-form profile, and the Newton search where none exists, against a
    simplex search they do not share."""

    def _check(self, lam0, y, k, det, dz=None, fixed_entry=None):
        q = lam0.shape[0]
        dz = dz if dz is not None else make_design(y, k, det)
        closed = profile_a(lam0, y, k, det, design=dz, fixed_entry=fixed_entry)
        frozen = None if fixed_entry is None else fixed_entry[:2]
        assert closed.loglik >= _search_from(closed.a_hat, lam0, y, k, det, dz, frozen) - 1e-9
        a_ols = split(ols_fit(y, k, det, design=dz).coeffs, q, warn_ill_conditioned=False).a
        if fixed_entry is not None:
            a_ols[frozen] = fixed_entry[2]
        assert _search_from(a_ols, lam0, y, k, det, dz, frozen) <= closed.loglik + 1e-10
        return closed

    @pytest.mark.parametrize("p,k,q", _ORACLE_SYSTEMS)
    def test_no_search_beats_closed_form(self, p, k, q):
        y = _oracle_data(p, k, q)
        for det in ("trend", "const", "none"):
            for lam in (0.9, 0.99, 1.0):
                self._check(lam * np.eye(q), y, k, det)

    @pytest.mark.parametrize("p,k", [(p, k) for p in (3, 4, 5) for k in (1, 2, 3)])
    def test_no_search_beats_known_vector(self, p, k):
        # q=1 with a[i, 0] fixed: the known-cointegrating-vector closed form
        y = _oracle_data(p, k, 1)
        for det in ("trend", "const", "none"):
            dz = make_design(y, k, det)
            for lam in (0.9, 0.99, 1.0):
                lam0 = lam * np.eye(1)
                a_hat = profile_a(lam0, y, k, det, design=dz).a_hat
                for i in range(p - 1):
                    for a0 in a_hat[i, 0] + np.array([-0.1, 0.1]):
                        closed = self._check(lam0, y, k, det, dz, (i, 0, float(a0)))
                        assert closed.a_hat[i, 0] == a0

    @pytest.mark.parametrize("a0", [-1e12, -1e9, 1e6, 1e9, 1e12])
    def test_known_vector_far_from_optimum(self, a0):
        # b = e_i - a0 e_p is then nearly e_p, so e_p cannot be in its complement
        y = _oracle_data(3, 2, 1)
        self._check(np.array([[0.99]]), y, 2, "trend", fixed_entry=(1, 0, a0))

    @pytest.mark.parametrize("p,k,q", [(p, k, q) for p, k, q in _ORACLE_SYSTEMS if k > 1])
    def test_no_search_beats_closed_form_at_zero(self, p, k, q):
        # lam0 = 0 restricts Phi_k alone, through the lag-k levels; one det case a system
        y = _oracle_data(p, k, q)
        det = DET_CASES[(p + k + q) % 3]
        dz = make_design(y, k, det)
        a_hat = self._check(np.zeros((q, q)), y, k, det, dz).a_hat
        if q == 1 and p > 2:
            self._check(np.zeros((1, 1)), y, k, det, dz, (0, 0, float(a_hat[0, 0]) + 0.1))

    @pytest.mark.parametrize("p,k", [(p, k) for p in (3, 4, 5) for k in (1, 2, 3)])
    def test_no_search_beats_newton_on_non_scalar_blocks(self, p, k):
        y = _oracle_data(p, k, 2)
        for det in DET_CASES:
            dz = make_design(y, k, det)
            for lam0 in _NON_SCALAR_BLOCKS:
                self._check(lam0, y, k, det, dz)

    @pytest.mark.parametrize("p,k", [(p, k) for p in (3, 4, 5) for k in (1, 2, 3)])
    def test_no_search_beats_newton_with_fixed_entry(self, p, k):
        # q=2 with one entry of a fixed, at a scalar and a non-scalar block; one det case a system
        y = _oracle_data(p, k, 2)
        det = DET_CASES[(p + k) % 3]
        dz = make_design(y, k, det)
        for lam0 in (0.99 * np.eye(2), _NON_SCALAR_BLOCKS[1]):
            a_hat = profile_a(lam0, y, k, det, design=dz).a_hat
            for i, j in {(0, 1), (p - 3, 0)}:
                closed = self._check(lam0, y, k, det, dz, (i, j, float(a_hat[i, j]) - 0.1))
                assert closed.a_hat[i, j] == float(a_hat[i, j]) - 0.1

    def test_local_optimum_of_the_search(self):
        # p=3, k=2 data on which a simplex search from the OLS split stalls
        # at lam0 = -0.3 (loglik -749.968 against the global -749.649)
        rng = np.random.default_rng(5)
        coeffs = build_var(rng.normal(size=(2, 1)), np.array([[0.99]]), 2, rng=rng)
        y, _ = simulate(DgpSpec.simple(coeffs, 500), 200_000)
        closed = self._check(np.array([[-0.3]]), y, 2, "trend")
        assert closed.loglik > -749.7


class TestWaldForm:
    """The search objective of a non-scalar profile against restricted_fit and finite
    differences."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_and_gradient(self, k):
        y = _oracle_data(4, k, 2)
        rng = np.random.default_rng(k)
        for det in DET_CASES:
            dz = make_design(y, k, det)
            for lam0 in _NON_SCALAR_BLOCKS + (0.97 * np.eye(2),):
                evaluate = _single(lam0, dz)
                for a in rng.normal(size=(3, 2, 2)):
                    f, grad, hess = evaluate(a)
                    fit = restricted_fit(a, lam0, y, k, det, design=dz)
                    assert dz.loglik_ols - f / 2 == pytest.approx(fit.loglik, rel=1e-10, abs=0)
                    h = 1e-6
                    steps = h * np.eye(a.size).reshape(a.size, *a.shape)
                    central = [(evaluate(a + e)[0] - evaluate(a - e)[0]) / (2 * h) for e in steps]
                    np.testing.assert_allclose(grad.ravel(), central, rtol=1e-6, atol=1e-9 * f)
                    # the Hessian against central differences of the analytic gradient
                    h = 1e-5
                    central = np.array([(evaluate(a + e)[1] - evaluate(a - e)[1]).ravel() / (2 * h)
                                        for e in h * np.eye(a.size).reshape(a.size, *a.shape)])
                    np.testing.assert_allclose(hess.reshape(a.size, a.size), central, rtol=1e-6)
                    # with a[i, j] fixed the search's Hessian is the sub-Hessian of the others
                    i, j = rng.integers(2, size=2)
                    free = np.ones(a.shape, dtype=bool)
                    free[i, j] = False
                    steps = h * np.eye(a.size)[free.ravel()].reshape(-1, *a.shape)
                    central = np.array([(evaluate(a + e)[1] - evaluate(a - e)[1])[free] / (2 * h)
                                        for e in steps])
                    np.testing.assert_allclose(hess[free][:, free], central, rtol=1e-6)

    def test_search_evaluates_no_point_twice(self, monkeypatch):
        # and FitResult.evaluations counts them
        points = []

        def recorded(evaluate):
            def at(a, idx):
                points.append(a.tobytes())
                return evaluate(a, idx)
            return at

        _wrap_evaluator(monkeypatch, recorded)
        y = _oracle_data(4, 2, 2)
        lam0 = _NON_SCALAR_BLOCKS[1]
        free = profile_a(lam0, y, 2, "trend")
        assert len(points) > 2 and len(set(points)) == len(points) == free.evaluations
        points.clear()
        pinned = profile_a(lam0, y, 2, "trend", fixed_entry=(0, 1, float(free.a_hat[0, 1]) + 0.1))
        assert len(points) > 2 and len(set(points)) == len(points) == pinned.evaluations


def _fd_search(lam0, y, k, det, dz, init, fixed_entry=None):
    """The non-scalar profile search with a central-difference Hessian of the analytic gradient,
    as :func:`profile_a` ran it before its Hessian was analytic: trust-exact from ``init``,
    stopped once the Newton decrement falls to the rounding of the objective."""
    r, q = init.shape
    mask, base = np.ones((r, q), dtype=bool), init.copy()
    if fixed_entry is not None:
        i, j, a0 = fixed_entry
        mask[i, j], base[i, j] = False, a0
    evaluate = _single(lam0, dz)

    def objective(x):
        a = base.copy()
        a[mask] = x
        f, grad = evaluate(a)[:2]
        return f, grad[mask]

    hessians = {}

    def hessian(x):
        h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
        hess = np.column_stack([(objective(x + e)[1] - objective(x - e)[1]) / (2.0 * h_j)
                                for h_j, e in zip(h, np.diag(h))])
        hessians[x.tobytes()] = hess = 0.5 * (hess + hess.T)
        return hess

    converged = False

    def stop_at_rounding(intermediate_result):
        nonlocal converged
        x, f = intermediate_result.x, intermediate_result.fun
        if x.tobytes() not in hessians:
            return
        grad = objective(x)[1]
        try:
            cho = scipy.linalg.cho_factor(hessians[x.tobytes()])
            decrement = grad @ scipy.linalg.cho_solve(cho, grad)
        except (np.linalg.LinAlgError, ValueError):
            return
        if decrement <= 64 * np.finfo(float).eps * max(1.0, abs(f)):
            converged = True
            raise StopIteration

    res = minimize(objective, base[mask], method="trust-exact", jac=True, hess=hessian,
                   callback=stop_at_rounding, options={"gtol": 0.0, "maxiter": 100})
    a_hat = base.copy()
    a_hat[mask] = res.x
    fit = restricted_fit(a_hat, lam0, y, k, det, design=dz)
    return fit.loglik, fit.status if fit.status != "converged" else (
        "converged" if converged else "max-iter")


def _random_block(rng, q, symmetric):
    """A q x q block with distinct eigenvalues in [0.9, 1]: symmetric, or that plus a
    perturbation of scale 0.02."""
    rot, _ = np.linalg.qr(rng.normal(size=(q, q)))
    lam0 = rot @ np.diag(rng.uniform(0.9, 1.0, size=q)) @ rot.T
    return lam0 if symmetric else lam0 + 0.02 * rng.normal(size=(q, q))


class TestSearchOracle:
    """The analytic-Hessian search against a central-difference-Hessian search of the same Wald
    form: a seeded sweep of 150 cases over p 3-5, q 2-3, k 1-3, every det, symmetric and
    perturbed blocks, free and fixed entries."""

    @pytest.mark.parametrize("p,q,k", [(p, q, k) for p in (3, 4, 5) for q in (2, 3) if q < p
                                       for k in (1, 2, 3)])
    def test_never_below_the_finite_difference_search(self, p, q, k):
        y = _oracle_data(p, k, q)
        rng = np.random.default_rng(100 * p + 10 * q + k)
        for case in range(10):
            det = DET_CASES[case % 3]
            dz = make_design(y, k, det)
            lam0 = _random_block(rng, q, symmetric=case % 2 == 0)
            init = split(ols_fit(y, k, det, design=dz).coeffs, q, warn_ill_conditioned=False).a
            fixed_entry = None
            if case >= 4:
                i, j = rng.integers(p - q), rng.integers(q)
                fixed_entry = (int(i), int(j), float(init[i, j] + rng.normal(scale=0.3)))
            fit = profile_a(lam0, y, k, det, design=dz, fixed_entry=fixed_entry)
            loglik, status = _fd_search(lam0, y, k, det, dz, init, fixed_entry)
            assert fit.status == status, (case, lam0.tolist(), fixed_entry)
            assert fit.loglik >= loglik - 1e-10 * abs(loglik), (case, lam0.tolist(), fixed_entry)


def _lag_one_rrr(lam0, y, k, det):
    """Rank p-1 regression of the quasi-differences on the lag-1 level, given the lagged
    quasi-differences, mapped back to the levels VAR by its own recursion (needs lam0 != 0
    when k > 1); returns the deterministic block and the stacked lag coefficients."""
    n, p = y.shape
    dz = make_design(y, k, det)
    n_det, D = dz.n_det, dz.W[:, :dz.n_det]
    dy = y[1:] - lam0 * y[:-1]
    Z0, Z1 = dy[k - 1:], y[k - 1: n - 1]
    Z2 = np.hstack([D] + [dy[k - 1 - i: n - 1 - i] for i in range(1, k)])

    R0, R1 = (Z - Z2 @ np.linalg.lstsq(Z2, Z, rcond=None)[0] for Z in (Z0, Z1))
    S00, S01, S11 = R0.T @ R0, R0.T @ R1, R1.T @ R1
    _, vecs = eigh(S01.T @ np.linalg.solve(S00, S01), S11)
    beta = vecs[:, ::-1][:, : p - 1]
    pi = S01 @ beta @ np.linalg.solve(beta.T @ S11 @ beta, beta.T)
    coef2 = np.linalg.lstsq(Z2, Z0 - Z1 @ pi.T, rcond=None)[0]
    psi = [coef2[n_det + (i - 1) * p: n_det + i * p].T for i in range(1, k)]
    if k == 1:
        phi = [lam0 * np.eye(p) + pi]
    else:
        phi = [lam0 * np.eye(p) + pi + psi[0]]
        phi += [psi[j - 1] - lam0 * psi[j - 2] for j in range(2, k)]
        phi.append(-lam0 * psi[k - 2])
    return (coef2[:n_det].T if n_det else None), np.hstack(phi)


class TestRrrFit:
    def _sim(self, seed, n=500, k=2):
        coeffs = build_var(np.array([[0.5], [1.2]]), np.array([[0.98]]), k, seed=seed)
        y, _ = simulate(DgpSpec.simple(coeffs, n), seed + 100)
        return y

    def test_non_finite_residual_moments_are_a_numerical_error(self, monkeypatch):
        y = self._sim(1)
        dz = make_design(y, 2, "trend")
        monkeypatch.setattr(dz, "ssr", lambda theta: np.full((3, 3), np.inf))
        with pytest.raises(NumericalError, match="non-finite residual moments at lambda0 = 0.98"):
            rrr_fit(0.98, 1, y, 2, "trend", design=dz)

    def test_unit_quasi_difference_is_first_difference(self):
        y = self._sim(1)
        fit = rrr_fit(1.0, 1, y, 2, "trend")
        # the level coefficient at unity has rank p - q
        phi_at_one = np.eye(3) - sum(fit.coeffs.phi)
        svals = np.linalg.svd(phi_at_one, compute_uv=False)
        assert svals[-1] <= 1e-10 * svals[0]

    def test_lambda0_zero_k1_rank_restriction(self):
        coeffs = build_var(np.array([[0.3]]), np.array([[0.95]]), 1, seed=3)
        y, _ = simulate(DgpSpec.simple(coeffs, 300), 5)
        fit = rrr_fit(0.0, 1, y, 1, "const")
        svals = np.linalg.svd(fit.coeffs.phi[0], compute_uv=False)
        assert svals[-1] <= 1e-10 * svals[0]

    def test_lambda0_zero_k2_rank_restriction(self):
        # at lambda0 = 0 the restricted level coefficient is Phi_k
        y = self._sim(2)
        fit = rrr_fit(0.0, 1, y, 2, "trend")
        svals = np.linalg.svd(fit.coeffs.phi[1], compute_uv=False)
        assert svals[-1] <= 1e-10 * svals[0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_lag_one_form(self, k):
        # the lag-1 level form is the same model, so both give one fit
        y = self._sim(k, k=k)
        for det in ("trend", "none"):
            for lam0 in (-0.3, 0.5, 0.98, 1.0):
                fit = rrr_fit(lam0, 1, y, k, det)
                det_block, phi = _lag_one_rrr(lam0, y, k, det)
                scale = np.abs(phi).max()
                assert np.abs(fit.coeffs.stacked - phi).max() <= 1e-12 * scale
                if det_block is not None:
                    raw = make_design(y, k, det).unscale_det(det_block)
                    assert np.abs(fit.det_coeffs - raw).max() <= 1e-12 * np.abs(raw).max()

    def test_matches_profile_loglik(self):
        for seed in (0, 1, 2):
            y = self._sim(seed)
            for lam0 in (0.95, 0.98, 1.0):
                rrr = rrr_fit(lam0, 1, y, 2, "trend")
                prof = profile_a(lam0 * np.eye(1), y, 2, "trend")
                assert abs(rrr.loglik - prof.loglik) <= 1e-6
                assert np.abs(rrr.a_hat - prof.a_hat).max() <= 1e-3

    def test_degenerate_ranks(self):
        y = self._sim(4)
        full = rrr_fit(0.97, 0, y, 2, "trend")  # q=0: unrestricted
        ols = ols_fit(y, 2, "trend")
        assert full.loglik == pytest.approx(ols.loglik, abs=1e-6)
        zero = rrr_fit(0.97, 3, y, 2, "trend")  # q=p: zero rank at lam0
        assert zero.loglik <= full.loglik + 1e-8


def _one_real_root_data(p: int):
    """A p = 2 (k = 1) or p = 3 (k = 2) series whose OLS VAR, at det const or trend, has one real
    root in [0.9, 1], and its k."""
    k = p - 1
    a = np.array([[0.5]]) if p == 2 else np.array([[0.5], [1.2]])
    y, _ = simulate(DgpSpec.simple(build_var(a, np.array([[0.98]]), k, seed=1), 300), 101)
    return y, k


def _rotating_data(seed: int, n: int = 300) -> np.ndarray:
    """A p = 2 VAR(1) rotating by 0.05 rad a step at rate 0.97, whose OLS roots form a complex
    pair near 0.965 +- 0.065i: a q = 1 polish bracket holds no real root."""
    c, s = np.cos(0.05), np.sin(0.05)
    phi = 0.97 * np.array([[c, -s], [s, c]])
    e = np.random.default_rng(seed).normal(size=(n, 2))
    y = np.zeros((n, 2))
    for t in range(1, n):
        y[t] = phi @ y[t - 1] + e[t]
    return y


def _real_ols_roots(y, k, det):
    return [z.real for z in roots(ols_fit(y, k, det).coeffs).roots if z.imag == 0]


class TestProfileLambda:
    def test_empty_candidate_grid_is_a_domain_error(self):
        y = TestRrrFit()._sim(5)
        with pytest.raises(DomainError, match="lambda grid is empty"):
            profile_lambda(LambdaGrid(candidates=()), y, 2, "trend")

    def test_single_point_grid_equals_profile_a(self):
        y = TestRrrFit()._sim(5)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, candidates=(np.array([[0.97]]),))
        prof = profile_lambda(grid, y, 2, "trend")
        direct = profile_a(np.array([[0.97]]), y, 2, "trend")
        assert prof.loglik == pytest.approx(direct.loglik, abs=1e-10)

    def test_subgrid_max_bounded_by_full_grid(self):
        y = TestRrrFit()._sim(6, n=300)
        lams = [np.array([[v]]) for v in np.linspace(0.9, 1.0, 11)]
        full = LambdaGrid(family="scalar", q=1, rho=0.9, candidates=tuple(lams))
        sub = LambdaGrid(family="scalar", q=1, rho=0.9, candidates=tuple(lams[::2]))
        p_full = profile_lambda(full, y, 2, "trend")
        p_sub = profile_lambda(sub, y, 2, "trend")
        assert p_sub.loglik <= p_full.loglik + 1e-8

    def test_refinement_improves_or_matches(self):
        y = TestRrrFit()._sim(7, n=300)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        coarse = profile_lambda(grid, y, 2, "trend")
        fine = profile_lambda(grid, y, 2, "trend", refine=True)
        assert fine.loglik >= coarse.loglik - 1e-12

    def test_failed_refine_keeps_grid_best(self, monkeypatch):
        # the profile peaks near 0.97; with every block above 0.95 failing, the top node and a
        # point of the polish fail
        y = np.cumsum(np.random.default_rng(0).normal(size=(200, 2)), axis=0)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.05)
        fail_block_lr_above(monkeypatch, 0.95)
        coarse = profile_lambda(grid, y, 1, "trend")
        fine = profile_lambda(grid, y, 1, "trend", refine=True)
        assert fine.best_lam[0, 0] == coarse.best_lam[0, 0] == 0.95
        assert fine.loglik == coarse.loglik
        assert len(fine.failures) > len(coarse.failures) == 1
        for lam, msg in fine.failures:
            assert 0.95 < lam[0, 0] <= 1.0 and "NumericalError" in msg

    def test_failed_fit_at_the_reported_block_is_raised(self, monkeypatch):
        # the grid ranks scalar blocks without a fit, so the one fit, at the best node, has no
        # next-best node to fall back on
        def failing(*args, **kwargs):
            raise NormalizationError("injected failure of the fit")

        monkeypatch.setattr(likelihood, "profile_a", failing)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.05)
        with pytest.raises(NormalizationError, match="injected failure of the fit"):
            profile_lambda(grid, TestRrrFit()._sim(7, n=300), 2, "trend", refine=True)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("det", ["const", "trend"])
    def test_q1_polish_is_the_real_ols_root(self, p, det):
        # the LR is 0 at a real root of the OLS VAR; a bounded search to 1e-12 finds the same point
        y, k = _one_real_root_data(p)
        dz = make_design(y, k, det)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        lam = profile_lambda(grid, y, k, det, design=dz, refine=True).best_lam[0, 0]
        assert lam in _real_ols_roots(y, k, det)
        assert lr_lambda(lam, y, k, det, design=dz).value <= 1e-9

        def lr(x):
            return lr_lambda(x, y, k, det, design=dz).value

        node = float(min(grid.points(), key=lr)[0, 0])
        searched = minimize_scalar(lr, bounds=(max(0.9, node - 0.02), min(1.0, node + 0.02)),
                                   method="bounded", options={"xatol": 1e-12})
        assert abs(searched.x - lam) <= 1e-7

    def test_q1_polish_builds_one_set_of_moments_and_does_not_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            pytest.fail("the q = 1 polish searched")

        y, k = _one_real_root_data(3)
        builds = _count_calls(monkeypatch, "_partialled_moments")
        monkeypatch.setattr("scipy.optimize.minimize_scalar", forbidden)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        prof = profile_lambda(grid, y, k, "trend", refine=True)
        polished = prof.best_lam[0, 0]
        assert [lam for lam, _ in builds] == [lam[0, 0] for lam in grid.points()] + [polished]

    def test_two_real_roots_in_the_bracket_polish_to_the_nearest(self):
        # both roots have LR 0, so the profile does not tell them apart; the one nearest the
        # grid's best node (0.96) is reported
        y = np.cumsum(np.random.default_rng(20).normal(size=(200, 2)), axis=0)
        dz = make_design(y, 1, "trend")
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        inside = [z for z in _real_ols_roots(y, 1, "trend") if 0.94 <= z <= 0.98]
        assert len(inside) == 2
        for z in inside:
            assert lr_lambda(z, y, 1, "trend", design=dz).value <= 1e-9
        prof = profile_lambda(grid, y, 1, "trend", design=dz, refine=True)
        assert prof.best_lam[0, 0] == min(inside, key=lambda z: abs(z - 0.96))

    def test_equidistant_real_roots_polish_the_larger(self, monkeypatch):
        # with the roots replaced, the polish evaluates the larger of 0.95 and 0.97 around the
        # node 0.96, and ignores the complex pair nearer to it
        y = np.cumsum(np.random.default_rng(20).normal(size=(200, 2)), axis=0)
        fake = spectral.RootSet(np.array([0.97, 0.961 + 0.001j, 0.961 - 0.001j, 0.95]))
        monkeypatch.setattr(likelihood, "roots", lambda coeffs: fake)
        calls = _count_calls(monkeypatch, "_block_lr")
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        profile_lambda(grid, y, 1, "trend", refine=True)
        assert len(calls) == len(grid.points()) + 1 and calls[-1][0][0, 0] == 0.97

    @pytest.mark.parametrize("det, parent_lam", [
        ("const", 0.9620983753737011), ("trend", 0.9615414765164629),
    ])
    def test_no_real_root_in_the_bracket_keeps_the_search(self, det, parent_lam, monkeypatch):
        # the OLS roots are a complex pair; the bounded search runs as before this polish had a
        # closed form, and parent_lam is what it returned then
        searches = []

        def counted(*args, **kwargs):
            searches.append(kwargs["bounds"])
            return minimize_scalar(*args, **kwargs)

        monkeypatch.setattr("scipy.optimize.minimize_scalar", counted)
        y = _rotating_data(0)
        assert _real_ols_roots(y, 1, det) == []
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        prof = profile_lambda(grid, y, 1, det, refine=True)
        assert len(searches) == 1
        assert prof.best_lam[0, 0] == pytest.approx(parent_lam, rel=0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([2, 3]), k=st.sampled_from([1, 2]),
           det=st.sampled_from(DET_CASES))
    def test_the_lr_is_zero_at_every_real_ols_root(self, seed, p, k, det):
        y = np.cumsum(np.random.default_rng(seed).normal(size=(150, p)), axis=0)
        dz = make_design(y, k, det)
        for z in _real_ols_roots(y, k, det):
            if 0.9 <= z <= 1.0:
                assert abs(likelihood._block_lr(z * np.eye(1), dz)[0]) <= 1e-8

    @pytest.mark.parametrize("seed, det", [(300_012, "const"), (300_003, "trend")])
    def test_non_scalar_profiles_do_not_depend_on_the_grid_order(self, seed, det):
        # at seed 300_012, det const, a search started from another node's a ends far below the
        # block's profile at 7 of these 8 non-scalar nodes
        y = symmetric_data(seed)
        runs = [profile_lambda(LambdaGrid(family="symmetric", q=2, candidates=tuple(points)),
                               y, 1, det) for points in (SYMMETRIC_POINTS, SYMMETRIC_POINTS[::-1])]
        forward, backward = ({lam.tobytes(): node for lam, *node in run.trace} for run in runs)
        assert forward == backward and len(forward) == len(SYMMETRIC_POINTS)
        for lam in SYMMETRIC_POINTS:
            loglik, status = forward[lam.tobytes()]
            assert status == "converged"
            if not likelihood._is_scalar(lam):
                assert loglik == pytest.approx(profile_a(lam, y, 1, det).loglik, rel=1e-12, abs=0)

    def test_a_block_does_not_depend_on_its_batch(self):
        # searched alone on a fresh design, inside the default grid (451 blocks, 440 of them
        # non-scalar) and inside a shuffled subset, each block gives the same bits
        y = symmetric_data(300_003)
        default = LambdaGrid(family="symmetric", q=2)
        points = default.points()
        non_scalar = [lam for lam in points if not likelihood._is_scalar(lam)]
        assert len(points) == 451 and len(non_scalar) == 440
        subset = [non_scalar[m] for m in np.random.default_rng(1).permutation(440)[:60]]
        runs = []
        for grid in (default, LambdaGrid(family="symmetric", q=2, candidates=tuple(subset))):
            dz = make_design(y, 1, "const")
            trace = profile_lambda(grid, y, 1, "const", design=dz).trace
            runs.append({lam.tobytes(): (dz._moments[lam.tobytes()], loglik)
                         for lam, loglik, _ in trace if not likelihood._is_scalar(lam)})
        for lam in subset[:12]:
            dz = make_design(y, 1, "const")
            alone = profile_lambda(LambdaGrid(family="symmetric", q=2, candidates=(lam,)), y, 1,
                                   "const", design=dz)
            fit, loglik = dz._moments[lam.tobytes()], alone.trace[0][1]
            single = profile_a(lam, y, 1, "const")
            np.testing.assert_array_equal(single.a_hat, fit.a_hat)
            assert single.evaluations == fit.evaluations
            for run in runs:  # evaluations counts those that included the block
                np.testing.assert_array_equal(run[lam.tobytes()][0].a_hat, fit.a_hat)
                assert run[lam.tobytes()][0].evaluations == fit.evaluations
                assert run[lam.tobytes()][1] == loglik

    @pytest.mark.parametrize("kind", ["singular", "overflowing"])
    def test_a_failing_block_fails_alone(self, monkeypatch, kind):
        # the other blocks of its batch keep their trace entries, bit for bit
        y = symmetric_data(300_006)
        grid = LambdaGrid(family="symmetric", q=2, candidates=tuple(SYMMETRIC_POINTS))
        clean = profile_lambda(grid, y, 1, "trend")
        if kind == "singular":  # G = M'HM does not invert at one block: its values are NaN
            bad, points, original = SYMMETRIC_POINTS[4], SYMMETRIC_POINTS, likelihood._wald_form

            def wald_form(lams, dz):
                evaluate, hit = original(lams, dz), [np.array_equal(lam, bad) for lam in lams]

                def at(a, idx):
                    f, grad, hess = evaluate(a, idx)
                    f[np.array(hit)[idx]] = np.nan
                    return f, grad, hess
                return at

            monkeypatch.setattr(likelihood, "_wald_form", wald_form)
        else:  # the Wald form overflows
            bad = np.array([[1e200, 0.0], [0.0, 0.95]])
            points = SYMMETRIC_POINTS[:4] + [bad] + SYMMETRIC_POINTS[4:]
        with np.errstate(over="ignore", invalid="ignore"):
            prof = profile_lambda(LambdaGrid(family="symmetric", q=2, candidates=tuple(points)),
                                  y, 1, "trend")
            with pytest.raises(NumericalError, match="the Wald form is not finite"):
                profile_a(bad, y, 1, "trend")  # a batch of one raises it
        ((lam, message),) = prof.failures
        np.testing.assert_array_equal(lam, bad)
        assert re.match(r"NumericalError: search at lam0 = .*, fixed entry None: the Wald form is "
                        "not finite", message)
        others = {lam.tobytes(): node for lam, *node in clean.trace if not np.array_equal(lam, bad)}
        assert {lam.tobytes(): node for lam, *node in prof.trace} == others

    def test_non_scalar_blocks_at_q_equal_to_p_are_their_restricted_fits(self):
        # at q = p the matrix a is empty, so each block's profile is restricted_fit, unsearched
        y = np.cumsum(np.random.default_rng(0).standard_normal((200, 2)), axis=0)
        dz = make_design(y, 1, "trend")
        prof = profile_lambda(LambdaGrid(family="symmetric", q=2, rho=0.9, eig_step=0.1), y, 1,
                              "trend", design=dz)
        assert prof.failures == () and len(prof.trace) == len(SYMMETRIC_POINTS)
        for lam, loglik, status in prof.trace:
            fit = restricted_fit(np.zeros((0, 2)), lam, y, 1, "trend")
            assert loglik == pytest.approx(fit.loglik, rel=1e-12, abs=0) and status == fit.status
            if not likelihood._is_scalar(lam):
                assert dz._moments[lam.tobytes()].loglik == fit.loglik
        lam0 = SYMMETRIC_POINTS[4]
        fit = restricted_fit(np.zeros((0, 2)), lam0, y, 1, "trend")
        stat = lr_lambda(lam0, y, 1, "trend")
        assert stat.value == 2.0 * (dz.loglik_ols - fit.loglik)
        assert stat.fit_restricted.loglik == fit.loglik and stat.fit_restricted.evaluations is None

    def test_symmetric_grid_q2(self):
        coeffs = make_instance(8, p=3, k=1, q=2, lam_lo=0.95)
        y, _ = simulate(DgpSpec.simple(coeffs, 400), 31)
        grid = LambdaGrid(family="symmetric", q=2, rho=0.9, eig_step=0.05,
                          angle_step=np.pi / 4)
        prof = profile_lambda(grid, y, 1, "const")
        assert prof.best_fit.status in ("converged", "max-iter")
        assert len(prof.trace) > 3

    def test_deterministic_nesting(self):
        y = TestRrrFit()._sim(8, n=400)
        l_trend = ols_fit(y, 2, "trend").loglik
        l_const = ols_fit(y, 2, "const").loglik
        l_none = ols_fit(y, 2, "none").loglik
        assert l_trend >= l_const >= l_none

    def test_unit_root_data_puts_argmax_at_unity(self):
        # exact unit root: the grid argmax should sit at the top node for
        # a clear majority of seeds (majority vote across 50 seeds)
        coeffs = build_var(
            np.array([[1.0]]), np.array([[1.0]]), 1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )
        spec = DgpSpec.simple(coeffs, 300)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        at_top = 0
        for seed in range(50):
            y, _ = simulate(spec, seed)
            prof = profile_lambda(grid, y, 1, "none")
            if float(prof.best_lam[0, 0]) >= 1.0 - 0.01 - 1e-12:
                at_top += 1
        assert at_top > 25


class TestLambdaGrid:
    def test_scalar(self):
        points = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.05).points()
        assert np.allclose(np.concatenate(points).ravel(), [0.9, 0.95, 1.0], rtol=0, atol=1e-15)

    def test_scalar_family_broadcasts_to_q(self):
        points = LambdaGrid(family="scalar", q=3, rho=0.97, eig_step=0.01).points()
        for lam, block in zip(np.linspace(0.97, 1.0, 4), points, strict=True):
            np.testing.assert_array_equal(block, lam * np.eye(3))

    def test_zero_rotation_is_diagonal(self):
        points = LambdaGrid(family="symmetric", q=2, rho=0.95, eig_step=0.05,
                            angle_step=np.pi / 4).points()
        np.testing.assert_array_equal(points[1], np.diag([1.0, 0.95]))

    def test_quarter_turn_mixes_evenly(self):
        # R D R' at angle pi/4 with D = diag(1.0, 0.9)
        points = LambdaGrid(family="symmetric", q=2, rho=0.9, eig_step=0.1,
                            angle_step=np.pi / 4).points()
        expected = np.array([[0.95, 0.05], [0.05, 0.95]])
        assert len(points) == 4 and np.allclose(points[2], expected, rtol=0, atol=1e-12)

    def test_eigenvalue_domain_error(self):
        with pytest.raises(DomainError):
            LambdaGrid(family="symmetric", q=2, rho=1.05)
        for step in (0.0, -0.01):
            with pytest.raises(DomainError):
                LambdaGrid(family="symmetric", q=2, rho=0.9, eig_step=step)

    @pytest.mark.parametrize("angle_step", [0.0, float("nan"), -0.1, float("inf")])
    def test_angle_step_domain_error(self, angle_step):
        # unchecked, these divide by zero, fail in round(), keep only the diagonal blocks, or
        # make NaN blocks
        with pytest.raises(DomainError, match="step must be positive and the angle step finite"):
            LambdaGrid(family="symmetric", q=2, rho=0.9, angle_step=angle_step)

    @pytest.mark.parametrize("rho", [-np.inf, np.nan])
    def test_rho_domain_error(self, rho):
        # unchecked, rho = -inf overflows in the grid's node count
        with pytest.raises(DomainError, match="finite rho <= 1"):
            LambdaGrid(family="symmetric", q=2, rho=rho)

    def test_normal_family_complex_pair(self):
        # a normal block with a complex pair enters as an explicit candidate; no automatic grid
        with pytest.raises(DomainError):
            LambdaGrid(family="normal", q=2).points()
        block = np.array([[0.9, 0.3], [-0.3, 0.9]])
        (lam,) = LambdaGrid(family="normal", q=2, candidates=(block,)).points()
        np.testing.assert_array_equal(lam, block)
        assert np.allclose(sorted(np.linalg.eigvals(lam).imag), [-0.3, 0.3], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(0.8, 0.99), eig_step=st.floats(0.02, 0.2), angle_step=st.floats(0.2, 1.6))
    def test_symmetric_family_is_symmetric(self, rho, eig_step, angle_step):
        points = LambdaGrid(family="symmetric", q=2, rho=rho, eig_step=eig_step,
                            angle_step=angle_step).points()
        assert points
        for lam in points:
            assert np.abs(lam - lam.T).max() <= 1e-14
            eigs = np.linalg.eigvalsh(lam)
            assert rho - 1e-12 <= eigs.min() and eigs.max() <= 1.0 + 1e-12

    def test_rho_one_gives_the_identity_once(self):
        for family in ("scalar", "symmetric"):
            points = LambdaGrid(family=family, q=2, rho=1.0).points()
            assert len(points) == 1
            np.testing.assert_array_equal(points[0], np.eye(2))

    def test_parameter_count_validation(self):
        with pytest.raises(DomainError):
            LambdaGrid(family="scalar", q=0)
        with pytest.raises(DomainError):
            LambdaGrid(family="symmetric", q=3).points()  # one rotation angle serves q = 2 only


class TestDeterministicInvariance:
    """Adding a deterministic term the model absorbs leaves a non-scalar profile unchanged."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.sampled_from([1, 2]),
           c=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
           d=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_trend_and_constant(self, seed, k, c, d):
        y, _ = simulate(DgpSpec.simple(make_instance(seed, p=3, k=k, q=2, lam_lo=0.95), 300), seed)
        t = np.arange(1, y.shape[0] + 1)[:, None]
        lam0 = _NON_SCALAR_BLOCKS[1]
        c, d = np.array(c), np.array(d)
        for det, shifted in (("trend", y + c + d * t), ("const", y + c)):
            base = profile_a(lam0, y, k, det).loglik
            assert profile_a(lam0, shifted, k, det).loglik == pytest.approx(base, rel=1e-8)


class TestPermutationEquivariance:
    """y -> y P, P permuting the first r series, maps beta = [I_r; -a'] to P'beta, which
    normalises to [I_r; -(P_r a)']: the rows of a are permuted alike."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.sampled_from([1, 2]),
           pq=st.sampled_from([(3, 1), (4, 1), (4, 2)]), lam=st.sampled_from([0.0, 0.95, 1.0]),
           data=st.data())
    def test_scalar_profile_permutes_the_rows_of_a(self, seed, k, pq, lam, data):
        p, q = pq
        r = p - q
        perm = np.array(data.draw(st.permutations(range(r))))
        y, _ = simulate(DgpSpec.simple(make_instance(seed, p=p, k=k, q=q), 200), seed)
        moved = y[:, np.concatenate([perm, np.arange(r, p)])]
        lam0 = lam * np.eye(q)
        free = profile_a(lam0, y, k, "trend").a_hat
        np.testing.assert_allclose(profile_a(lam0, moved, k, "trend").a_hat, free[perm],
                                   rtol=1e-10, atol=1e-10)
        if min(q, r) > 1:
            return  # switching stops at the criterion's rounding, which fixes a to about 5e-7
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, q - 1))
        a0 = float(free[i, j]) + data.draw(st.floats(-2.0, 2.0))
        fixed = profile_a(lam0, y, k, "trend", fixed_entry=(i, j, a0)).a_hat
        entry = (int(np.argsort(perm)[i]), j, a0)
        np.testing.assert_allclose(profile_a(lam0, moved, k, "trend", fixed_entry=entry).a_hat,
                                   fixed[perm], rtol=1e-10, atol=1e-10)
