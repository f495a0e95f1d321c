import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, null_space
from scipy.optimize import brentq, minimize

import qcvar.inference as inference
import qcvar.likelihood as likelihood
from conftest import SYMMETRIC_POINTS, make_instance, symmetric_data
from qcvar.dgp import DgpSpec, NearUnitBase, local_sequence, simulate
from qcvar.exceptions import (
    DomainError,
    NumericalError,
    QcvarError,
    RootSeparationError,
    SingularDesignError,
    TableCoverageError,
)
from qcvar.inference import (
    _quadratic_set,
    bonferroni_ci,
    chi2_quantile,
    ci_coefficient_given_lambda,
    ci_lambda,
    localisation,
    lr_coefficient,
    lr_lambda,
)
from qcvar.likelihood import LambdaGrid, make_design, profile_a, profile_lambda
from qcvar.limitdist import LimitDistConfig, QuantileTable, TableEntry, build_table


def sim_local(seed, n=300, c=-5.0, a=1.0):
    base = NearUnitBase(
        a=np.array([[a]]), k=1,
        stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
    )
    ls = local_sequence(np.array([[c]]), n, base)
    y, _ = simulate(DgpSpec.simple(ls.realized, n), seed)
    lam_true = np.array([[1.0 + c / n]])
    return y, lam_true


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    template = LimitDistConfig(
        q=1, c_star=np.zeros((1, 1)), det="trend", steps=300, reps=3000,
        seed=31, levels=(0.001, 0.5, 0.95, 0.999),
    )
    path = tmp_path_factory.mktemp("tables") / "small.tbl"
    return build_table(list(np.arange(-30.0, 0.5, 2.0)), template, str(path))


class TestChi2:
    def test_reference_quantile(self):
        assert chi2_quantile(0.95) == pytest.approx(3.841459, abs=1e-6)

    def test_independent_erf_inversion(self):
        # P(chi2_1 <= x) = erf(sqrt(x/2)), inverted by bisection
        for level in (0.5, 0.9, 0.95, 0.99):
            oracle = brentq(lambda x: math.erf(math.sqrt(x / 2.0)) - level, 1e-12, 50.0)
            assert chi2_quantile(level) == pytest.approx(oracle, abs=1e-9)

    def test_equals_scipy_stats_to_the_bit(self):
        from scipy.stats import chi2

        levels = np.concatenate([np.linspace(0.0, 1.0, 10_001), [0.9, 0.95, 0.975, 0.99]])
        ours = np.array([chi2_quantile(level) for level in levels])
        np.testing.assert_array_equal(ours, chi2.ppf(levels, 1))

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats adds about half a second to every CLI command
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, qcvar, qcvar.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def _drifting_walks(seed, p, n=150):
    """p drifting random walks, the first made cointegrated with the last."""
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.standard_normal((n, p)) + 0.1, axis=0)
    y[:, 0] = y[:, -1] + rng.standard_normal(n)
    return y


#: (seed, p, q, k, det, lambda0, LR) of ``lr_lambda`` at ``lambda0 * I_q`` on
#: ``_drifting_walks(seed, p)``, evaluated offline with mpmath 1.3.0 at 60 digits from the raw
#: series: Sigma from the OLS fit of the levels VAR, S01 and S11 from the quasi-differences and
#: lag-k levels partialled on the free regressors, and n_eff times the sum of the q smallest
#: eigenvalues of (S10 Sigma^-1 S01, S11); shown to 25 digits, stable from 60 to 100
_LR_LAMBDA_ORACLE = (
    (1, 2, 1, 1, "trend", 0.97, "4.531582744311305344348725"),
    (2, 2, 2, 2, "none", 1.0, "91.35292964744296246198999"),
    (3, 3, 1, 2, "const", 0.0, "0.09547899513904186385992985"),
    (4, 3, 2, 1, "trend", 1.0, "13.07754650667822638806861"),
    (5, 4, 3, 1, "const", 0.97, "16.46372253260067857527687"),
    (6, 4, 2, 2, "trend", 0.0, "1.485704939481774533869331"),
)


class TestLrLambda:
    @pytest.mark.parametrize("seed, p, q, k, det, lam, want", _LR_LAMBDA_ORACLE)
    def test_matches_40_digit_oracle(self, seed, p, q, k, det, lam, want):
        y = _drifting_walks(seed, p)
        assert lr_lambda(lam * np.eye(q), y, k, det).value == pytest.approx(float(want), rel=1e-12)

    def test_nonnegative(self):
        y, lam_true = sim_local(3)
        assert lr_lambda(lam_true, y, 1, "trend").value >= 0.0

    def test_block_larger_than_the_series_is_a_domain_error(self):
        y, _ = sim_local(3)
        with pytest.raises(DomainError, match="q = 3 exceeds series dimension 2"):
            lr_lambda(0.97 * np.eye(3), y, 1, "trend")

    def test_empty_block_is_a_domain_error(self):
        # q = 0 is rejected before any caller indexes the block
        y, _ = sim_local(3)
        empty = np.zeros((0, 0))
        for call in (lambda: lr_lambda(empty, y, 1, "trend"),
                     lambda: lr_coefficient(0.5, 0, 0, empty, y, 1, "trend"),
                     lambda: localisation(empty, make_design(y, 1, "trend")),
                     lambda: profile_a(empty, y, 1, "trend"),
                     lambda: likelihood.restricted_fit(np.zeros((2, 0)), empty, y, 1, "trend")):
            with pytest.raises(DomainError, match="must be a finite square matrix, got \\[\\]"):
                call()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        k=st.sampled_from([1, 2]),
        q=st.sampled_from([1, 2]),
        lam=st.floats(0.9, 1.0),
        scales=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        trend=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    )
    def test_invariant_to_rescaling_and_adding_a_trend(self, seed, k, q, lam, scales, trend):
        # y -> y D rescales every fit alike, and m + d t is absorbed by the deterministic terms
        y, _ = simulate(DgpSpec.simple(make_instance(seed, p=3, k=k, q=q), 200), seed)
        lam0 = lam * np.eye(q)
        base = lr_lambda(lam0, y, k, "trend").value
        m, d = np.reshape(trend, (2, 3))
        moved = y + 10.0 * m + np.arange(len(y))[:, None] * d
        for other in (y * np.array(scales), moved):
            assert lr_lambda(lam0, other, k, "trend").value == pytest.approx(base, rel=1e-10,
                                                                             abs=1e-11)

    @pytest.mark.parametrize("system", ["p2", "p3", "p4q2"])
    @pytest.mark.parametrize("refine", [False, True])
    def test_profile_lambda_ranks_scalar_blocks_by_it_and_fits_once(self, system, refine,
                                                                    monkeypatch):
        y, k = ((sim_local(9)[0], 1) if system == "p2" else (_walks_and_noise(1, 4), 1)
                if system == "p4q2" else (_p3_data(9), 2))
        q = 2 if system.endswith("q2") else 1
        dz = make_design(y, k, "trend")
        grid = LambdaGrid(family="scalar", q=q, rho=0.9, eig_step=0.02)
        lrs = [lr_lambda(lam, y, k, "trend", design=dz).value for lam in grid.points()]
        calls = {"restricted_fit": 0, "profile_a": 0}
        for name in calls:
            original = getattr(likelihood, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(likelihood, name, counted)
        prof = profile_lambda(grid, y, k, "trend", design=dz, refine=refine)
        assert calls == {"restricted_fit": 1, "profile_a": 1}
        best = int(np.argmin(lrs))
        if refine:
            assert lr_lambda(prof.best_lam, y, k, "trend", design=dz).value <= lrs[best]
        else:
            np.testing.assert_array_equal(prof.best_lam, grid.points()[best])
        assert len(prof.trace) == len(lrs) and not prof.failures
        for (_, loglik, status), lr in zip(prof.trace, lrs):
            assert loglik == pytest.approx(dz.loglik_ols - lr / 2, rel=1e-12)
            assert status == "converged"


class TestLrCoefficient:
    def test_zero_at_conditional_optimum(self):
        y, lam_true = sim_local(4)
        fit = profile_a(lam_true, y, 1, "trend")
        stat = lr_coefficient(float(fit.a_hat[0, 0]), 0, 0, lam_true, y, 1, "trend")
        assert stat.value == pytest.approx(0.0, abs=1e-8)

    def test_monotone_away_from_optimum(self):
        y, lam_true = sim_local(5)
        dz = make_design(y, 1, "trend")
        fit = profile_a(lam_true, y, 1, "trend", design=dz)
        center = float(fit.a_hat[0, 0])
        offsets = np.linspace(0.0, 0.2, 11)
        for sign in (-1.0, 1.0):
            values = [
                lr_coefficient(center + sign * off, 0, 0, lam_true, y, 1, "trend", design=dz).value
                for off in offsets
            ]
            diffs = np.diff(values)
            assert (diffs >= -1e-6).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        k=st.sampled_from([1, 2]),
        i=st.sampled_from([0, 1]),
        shift=st.floats(0.05, 0.5),
        sign=st.sampled_from([-1.0, 1.0]),
        scales=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
    )
    def test_invariant_to_rescaling_each_series(self, seed, k, i, shift, sign, scales):
        # y -> y D maps a to D_r a D_q^-1, so a0 -> d_i a0 / d_p, and leaves the LR unchanged
        y, _ = simulate(DgpSpec.simple(make_instance(seed, p=3, k=k, q=1), 300), seed)
        d = np.array(scales)
        lam0 = np.array([[0.98]])
        a0 = float(profile_a(lam0, y, k, "trend").a_hat[i, 0]) + sign * shift
        base = lr_coefficient(a0, i, 0, lam0, y, k, "trend")
        scaled = lr_coefficient(d[i] * a0 / d[2], i, 0, lam0, y * d, k, "trend")
        assert scaled.value == pytest.approx(base.value, rel=1e-8)
        fit = profile_a(lam0, y, k, "trend", fixed_entry=(i, 0, a0))
        fit_scaled = profile_a(lam0, y * d, k, "trend", fixed_entry=(i, 0, d[i] * a0 / d[2]))
        np.testing.assert_allclose(fit_scaled.a_hat, d[:2, None] * fit.a_hat / d[2], rtol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        k=st.sampled_from([1, 2]),
        pq=st.sampled_from([(3, 1), (4, 2)]),
        det=st.sampled_from(["const", "trend"]),
        lam=st.floats(0.9, 1.0),
        entry=st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
        shift=st.floats(-0.5, 0.5),
        trend=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    )
    def test_invariant_to_adding_deterministic_terms(self, seed, k, pq, det, lam, entry, shift,
                                                     trend):
        # m, and d t under "trend", is absorbed by the deterministic terms of every fit
        p, q = pq
        i, j = entry[0], entry[1] % q
        y, _ = simulate(DgpSpec.simple(make_instance(seed, p=p, k=k, q=q), 200), seed)
        lam0 = lam * np.eye(q)
        a0 = float(profile_a(lam0, y, k, det).a_hat[i, j]) + shift
        m, d = np.reshape(trend, (2, 4))[:, :p]
        moved = y + 10.0 * m + (np.arange(len(y))[:, None] * d if det == "trend" else 0.0)
        base = lr_coefficient(a0, i, j, lam0, y, k, det).value
        assert lr_coefficient(a0, i, j, lam0, moved, k, det).value == pytest.approx(
            base, rel=1e-10, abs=1e-11)


class TestScalarBlockBuildsNoFit:
    """At a scalar block every LR is read from eigenvalues, and no fit is built."""

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def forbidden(*args, **kwargs):
            pytest.fail("a fit was built at a scalar block")

        for name in ("profile_a", "restricted_fit", "rrr_fit", "ols_fit", "FitResult"):
            monkeypatch.setattr(likelihood, name, forbidden)
        monkeypatch.setattr(inference, "profile_a", forbidden)

    def test_lr_lambda_and_lr_coefficient(self, no_fit):
        y = _walks_and_noise(1, 4)
        dz = make_design(y, 1, "trend")
        for q in (1, 2, 4):
            for lam in (0.0, 0.97, 1.0):
                assert lr_lambda(lam * np.eye(q), y, 1, "trend", design=dz).fit_restricted is None
                if q < 4:
                    stat = lr_coefficient(0.5, 0, q - 1, lam * np.eye(q), y, 1, "trend", design=dz)
                    assert stat.fit_restricted is None

    def test_ci_lambda(self, no_fit, small_table):
        y, _ = sim_local(3)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        cset = ci_lambda(0.05, y, 1, "trend", grid, small_table)
        assert cset.accepted and not cset.diagnostics


class TestCiLambda:
    def test_alpha_limits(self, small_table):
        y, _ = sim_local(6)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        sets = {
            alpha1: ci_lambda(alpha1, y, 1, "trend", grid, small_table)
            for alpha1 in (0.999, 0.5, 0.05, 0.001)
        }
        sizes = [len(sets[a].accepted) for a in (0.999, 0.5, 0.05, 0.001)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(grid.points())  # alpha1 -> 0 accepts everything
        accepted_at_999 = {
            float(lam[0, 0]) for lam, _, _ in sets[0.999].accepted
        }
        accepted_at_05 = {float(lam[0, 0]) for lam, _, _ in sets[0.05].accepted}
        assert accepted_at_999 <= accepted_at_05

    def test_coverage_contains_truth_typically(self, small_table):
        y, lam_true = sim_local(7)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        cset = ci_lambda(0.05, y, 1, "trend", grid, small_table)
        lams = [float(lam[0, 0]) for lam, _, _ in cset.accepted]
        assert lams, "95% block set should not be empty here"
        assert min(lams) - 0.01 <= float(lam_true[0, 0]) <= max(lams) + 0.01

    def test_missing_coverage_raises(self, small_table):
        y, _ = sim_local(8, n=600)  # C range [-60, 0] exceeds the table
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        with pytest.raises(TableCoverageError):
            ci_lambda(0.05, y, 1, "trend", grid, small_table)

    def test_halving_grid_step_moves_endpoints_by_at_most_one_step(self, small_table):
        y, _ = sim_local(17)
        coarse = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.01)
        fine = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.005)
        c_set = ci_lambda(0.05, y, 1, "trend", coarse, small_table)
        f_set = ci_lambda(0.05, y, 1, "trend", fine, small_table)
        assert c_set.hull is not None and f_set.hull is not None
        assert abs(c_set.hull[0] - f_set.hull[0]) <= 0.01 + 1e-12
        assert abs(c_set.hull[1] - f_set.hull[1]) <= 0.01 + 1e-12


    def test_a_failed_grid_point_is_a_diagnostic(self, small_table):
        # lambda0 = 1e300 overflows the partialled moments; the other node is decided as alone
        y, _ = sim_local(6)
        alone = ci_lambda(0.05, y, 1, "trend", LambdaGrid(candidates=(0.96,)), small_table)
        both = ci_lambda(0.05, y, 1, "trend", LambdaGrid(candidates=(0.96, 1e300)), small_table)
        assert both.diagnostics == ("grid point [[1e+300]] failed: the partialled moments at "
                                    "lambda0 = 1e+300 are not finite",)
        assert len(alone.accepted) == 1 and not alone.diagnostics
        assert both.accepted == alone.accepted

    def test_scalar_q2_block_skips_the_split(self, tmp_path, monkeypatch):
        # c_star(c I, delta) = c I, so a scalar block needs no separation of the fitted roots
        n = 100
        y, _ = simulate(DgpSpec.simple(make_instance(3, p=3, k=1, q=2), n), 1)
        template = LimitDistConfig(q=2, c_star=np.zeros((2, 2)), det="trend", steps=100,
                                   reps=1000, seed=4, levels=(0.95,))
        table = build_table([c * np.eye(2) for c in (-10.0, -5.0, 0.0)], template,
                            str(tmp_path / "q2.tbl"))

        def no_split(*args, **kwargs):
            raise RootSeparationError("split called")

        monkeypatch.setattr("qcvar.inference.split", no_split)
        grid = LambdaGrid(family="scalar", q=2, rho=0.9, eig_step=0.05)
        cset = ci_lambda(0.05, y, 1, "trend", grid, table)
        assert cset.accepted and not cset.diagnostics
        dz = make_design(y, 1, "trend")
        for lam in grid.points():
            np.testing.assert_array_equal(localisation(lam, dz), n * (lam - np.eye(2)))


def _lr_r1(A, S11, a0):
    """LR / n_eff of a[0, 0] = a0 at r = 1, for each a0, straight from its definition."""
    b = np.stack([np.ones_like(a0), -a0])
    quad = np.einsum("in,ij,jn->n", b, A, b) / np.einsum("in,ij,jn->n", b, S11, b)
    return eigh(A, S11, eigvals_only=True)[-1] - quad


#: a dense a0 grid and points far out on both rays
_A0_GRID = np.concatenate([np.linspace(-60.0, 60.0, 24_001), [-1e6, -1e3, 1e3, 1e6]])


def _check_against_grid(lr, threshold, intervals, grid=_A0_GRID):
    """Membership in ``intervals`` agrees with ``lr(a0) <= threshold`` at every grid point whose LR
    is not within rounding of the threshold; ``lr`` maps an array of a0 to their LR values."""
    inside = np.any([(lo <= grid) & (grid <= hi) for lo, hi in intervals], axis=0)
    values = lr(grid)
    decided = np.abs(values - threshold) > 1e-9
    np.testing.assert_array_equal(inside[decided], (values <= threshold)[decided])


class TestQuadraticSet:
    S11 = np.array([[2.0, 0.3], [0.3, 1.0]])
    A = np.array([[3.0, 1.0], [1.0, 0.5]])

    def _gaps(self, A, S11):
        mu = eigh(A, S11, eigvals_only=True)
        at_infinity = mu[-1] - A[1, 1] / S11[1, 1]  # LR / n_eff as |a0| grows
        return mu[-1] - mu[0], at_infinity

    def test_interval(self):
        _, at_infinity = self._gaps(self.A, self.S11)
        slack = 0.5 * at_infinity
        intervals = _quadratic_set(self.A, self.S11, self.S11, slack)
        assert len(intervals) == 1 and np.isfinite(intervals).all()
        _check_against_grid(partial(_lr_r1, self.A, self.S11), slack, intervals)

    def test_two_rays(self):
        spread, at_infinity = self._gaps(self.A, self.S11)
        assert at_infinity < spread
        slack = 0.5 * (at_infinity + spread)
        intervals = _quadratic_set(self.A, self.S11, self.S11, slack)
        lo_ray, hi_ray = intervals
        assert lo_ray[0] == -np.inf and hi_ray[1] == np.inf
        assert np.isfinite([lo_ray[1], hi_ray[0]]).all() and lo_ray[1] < hi_ray[0]
        _check_against_grid(partial(_lr_r1, self.A, self.S11), slack, intervals)

    def test_half_line(self):
        # eigenvalues 2 and 0; the LR at infinity is exactly 1, so a slack of 1 zeroes m11
        A, S11 = np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2)
        intervals = _quadratic_set(A, S11, S11, 1.0)
        assert intervals == ((-np.inf, 0.0),)
        _check_against_grid(partial(_lr_r1, A, S11), 1.0, intervals)
        # mirrored: the accepted half-line points the other way
        flipped = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert _quadratic_set(flipped, S11, S11, 1.0) == ((0.0, np.inf),)

    def test_whole_line(self):
        spread, _ = self._gaps(self.A, self.S11)
        intervals = _quadratic_set(self.A, self.S11, self.S11, 1.01 * spread)
        assert intervals == ((-np.inf, np.inf),)
        _check_against_grid(partial(_lr_r1, self.A, self.S11), 1.01 * spread, intervals)


    def test_whole_line_at_p3(self):
        # q = 1, r = 2: a slack past the gap between the two smallest eigenvalues accepts every a0,
        # as the LR by the restricted basis confirms
        rng = np.random.default_rng(11)
        X, Z = rng.normal(size=(2, 3, 3))
        A, S11 = X @ X.T, Z @ Z.T + np.eye(3)
        mu = eigh(A, S11, eigvals_only=True)
        slack = 1.01 * (mu[1] - mu[0])
        assert _quadratic_set(A, S11, S11[[0, -1]], slack) == ((-np.inf, np.inf),)

        def lr(a0s):
            return np.array([likelihood._fixed_entry_a(A, S11, 0, 0, a0, 2)[1] for a0 in a0s])

        grid = np.concatenate([np.linspace(-30.0, 30.0, 601), [-1e6, -1e3, 1e3, 1e6]])
        _check_against_grid(lr, slack, ((-np.inf, np.inf),), grid)


def _bisection_oracle(alpha2, i, lam0, y, k, j=0):
    """Bracket expansion, brentq and the multimodality scan over lr_coefficient probes."""
    dz = make_design(y, k, "trend")
    fit_u = profile_a(lam0, y, k, "trend", design=dz)
    center = float(fit_u.a_hat[i, j])
    threshold = chi2_quantile(1.0 - alpha2)

    def g(a0):
        return lr_coefficient(a0, i, j, lam0, y, k, "trend", design=dz).value - threshold

    h = 1e-4 * (1.0 + abs(center))
    curv = (g(center + h) + g(center - h) + 2.0 * threshold) / (2.0 * h * h)
    half = 2.0 / np.sqrt(curv) if curv > 0 else 2.0 * (1.0 + abs(center))
    bounds = []
    for sign in (-1.0, 1.0):
        width = half
        while g(center + sign * width) <= 0.0:
            width *= 2.0
            assert width < 1e12 * half, "unbounded side"
        found = center + sign * width
        inner = center + sign * (width / 2.0 if width > half else 0.0)
        if g(inner) > 0.0:
            inner = center
        bounds.append(brentq(g, *sorted((found, inner)), xtol=1e-6))
    lo, hi = bounds
    grid = np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 21)
    accepted = np.array([g(v) for v in grid]) <= 0.0
    assert (np.diff(accepted.astype(int)) != 0).sum() == 2, "multimodal profile"
    return ((lo, hi),)


def _moment_curve(lam, i, dz, j=0, q=1):
    """The LR of a[i, j] = a0 at the block lam * I_q as a function of a0: n_eff times the sum of the
    top r eigenvalues of (A, S11) less the criterion at the restricted basis (x, d), evaluated from
    the basis itself: ``x'Ax / x'S11x`` plus ``d'Ad`` for d, S11-orthonormal and orthogonal to x."""
    A, S11 = likelihood._known_vector_moments(lam, dz)
    top = eigh(A, S11, eigvals_only=True)[q:].sum()

    def lr(a0):
        beta = likelihood._restricted_basis(A, S11, i, j, a0, len(A) - q)[0]
        x, d = beta[:, 0], beta[:, 1:]
        return dz.n_eff * (top - x @ A @ x / (x @ S11 @ x) - np.einsum("ij,ik,kj->", d, A, d))

    return lr


def _rayleigh_curve(lam, j, dz):
    """The r=1 LR of a[0, j] = a0 as a function of a0: n_eff times the top eigenvalue of (A, S11)
    less the top one on the bases orthogonal to c = a0 e_0 + e_(1+j), those whose normalised a has
    a[0, j] = a0, from the pair compressed to an orthonormal basis Q of that complement."""
    A, S11 = likelihood._known_vector_moments(lam, dz)
    top = eigh(A, S11, eigvals_only=True)[-1]

    def lr(a0):
        c = np.zeros(len(A))
        c[[0, 1 + j]] = a0, 1.0
        Q = null_space(c[None])
        return dz.n_eff * (top - eigh(Q.T @ A @ Q, Q.T @ S11 @ Q, eigvals_only=True)[-1])

    return lr


def _simplex_lr(lam, i, j, q, dz, a0):
    """The LR of a[i, j] = a0 at lam * I_q by a multi-start simplex over the free entries of a on
    ``tr[(beta'S11 beta)^-1 beta'A beta]``, beta = [I_r; -a'], from the pair of
    ``_known_vector_moments``: from the free optimum, then from wide random starts, since the
    restricted a can lie far from it."""
    A, S11 = likelihood._known_vector_moments(lam, dz)
    mu, V = eigh(A, S11)
    r = len(A) - q
    beta = V[:, q:]
    a_free = -np.linalg.solve(beta[:r].T, beta[r:].T)
    free = np.ones((r, q), dtype=bool)
    free[i, j] = False

    def negative_criterion(x):
        a = np.empty((r, q))
        a[free], a[i, j] = x, a0
        beta = np.vstack([np.eye(r), -a.T])
        return -np.trace(np.linalg.solve(beta.T @ S11 @ beta, beta.T @ A @ beta))

    rng = np.random.default_rng(0)
    best = -np.inf
    for start in range(5):
        x = rng.normal(scale=100.0, size=free.sum()) if start else a_free[free]
        for _ in range(2):  # a restart shakes the simplex out of a stall
            x = minimize(negative_criterion, x, method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 3000}).x
        best = max(best, -negative_criterion(x))
    return dz.n_eff * (mu[q:].sum() - best)


def _walks_and_noise(seed, p, n=200):
    """Two random walks followed by p - 2 white-noise series."""
    y = _walk_and_noise(seed, p, n)
    y[:, 1] = np.cumsum(y[:, 1])
    return y


def _p3_data(seed, n=400):
    return simulate(DgpSpec.simple(make_instance(seed, p=3, k=2, q=1), n), seed)[0]


def _walk_and_noise(seed, p, n=200):
    """A random walk followed by p - 1 white-noise series."""
    rng = np.random.default_rng(seed)
    noise = [rng.normal(size=n) for _ in range(p)]
    return np.column_stack([np.cumsum(noise[0])] + noise[1:])


class TestCiCoefficient:
    def test_center_inside(self):
        y, lam_true = sim_local(9)
        fit = profile_a(lam_true, y, 1, "trend")
        cset = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend")
        assert cset.contains(float(fit.a_hat[0, 0]))

    def test_nested_levels(self):
        y, lam_true = sim_local(10)
        c95 = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend")
        c99 = ci_coefficient_given_lambda(0.01, 0, 0, lam_true, y, 1, "trend")
        assert c99.intervals[0][0] <= c95.intervals[0][0]
        assert c99.intervals[0][1] >= c95.intervals[0][1]

    def test_endpoints_invert_the_test(self):
        y, lam_true = sim_local(11)
        cset = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend")
        lo, hi = cset.intervals[0]
        thr = chi2_quantile(0.95)
        for endpoint in (lo, hi):
            stat = lr_coefficient(endpoint, 0, 0, lam_true, y, 1, "trend")
            assert stat.value == pytest.approx(thr, abs=1e-2)


    @pytest.mark.parametrize("system", ["p2", "p3"])
    def test_matches_bisection_oracle(self, system):
        for seed in range(4):
            y, k, rows = (sim_local(20 + seed)[0], 1, (0,)) if system == "p2" else (
                _p3_data(seed), 2, (0, 1))
            for lam in (0.95, 0.97, 0.98, 0.99, 1.0):
                lam0 = np.array([[lam]])
                for i in rows:
                    cset = ci_coefficient_given_lambda(0.05, i, 0, lam0, y, k, "trend")
                    oracle = _bisection_oracle(0.05, i, lam0, y, k)
                    assert len(cset.intervals) == 1 and not cset.diagnostics
                    np.testing.assert_allclose(cset.intervals, oracle, rtol=0.0, atol=1e-6)

    def test_r1_endpoints_invert_the_test_exactly(self):
        thr = chi2_quantile(0.95)
        for seed in (11, 12, 13):
            y, lam_true = sim_local(seed)
            (lo, hi), = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend").intervals
            for endpoint in (lo, hi):
                stat = lr_coefficient(endpoint, 0, 0, lam_true, y, 1, "trend")
                assert stat.value == pytest.approx(thr, rel=1e-8)

    def test_moment_lr_matches_profile_logliks(self):
        # lr_coefficient's moment form against twice the free less the fixed profile_a loglik,
        # at q=1, r=1 and q, r >= 2
        for seed, p, k, q in ((0, 3, 2, 1), (1, 3, 1, 1), (2, 4, 1, 1), (3, 3, 1, 2), (4, 4, 1, 2),
                              (5, 5, 2, 2), (6, 5, 1, 3)):
            y = simulate(DgpSpec.simple(make_instance(seed, p=p, k=k, q=q), 300), seed)[0]
            dz = make_design(y, k, "trend")
            for lam in (0.0, 0.95, 1.0):
                lam0 = lam * np.eye(q)
                free = profile_a(lam0, y, k, "trend", design=dz)
                for i, j in {(0, 0), (p - q - 1, q - 1)}:
                    for a0 in free.a_hat[i, j] + np.array([-2.0, -0.3, 0.0, 0.01, 0.4, 2.0]):
                        fixed = profile_a(lam0, y, k, "trend", design=dz, fixed_entry=(i, j, a0))
                        got = lr_coefficient(a0, i, j, lam0, y, k, "trend", design=dz)
                        want = 2.0 * (free.loglik - fixed.loglik)
                        assert got.value == pytest.approx(want, rel=1e-10, abs=1e-10)
                        assert got.fit_restricted is None and fixed.a_hat[i, j] == a0

    def test_bounded_rejected_region_gives_two_rays(self):
        # the LR is 162 at a0 = 0 but below the threshold far out on both sides
        y = _walk_and_noise(0, 3)
        lam0 = np.array([[0.9]])
        cset = ci_coefficient_given_lambda(0.05, 0, 0, lam0, y, 1, "trend")
        (lo_ray, hi_ray) = cset.intervals
        assert lo_ray[0] == -np.inf and hi_ray[1] == np.inf
        assert not cset.contains(0.0)
        for endpoint in (lo_ray[1], hi_ray[0]):
            stat = lr_coefficient(endpoint, 0, 0, lam0, y, 1, "trend")
            assert stat.value == pytest.approx(chi2_quantile(0.95), rel=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        p=st.sampled_from([3, 4]),
        walk=st.booleans(),
        lam=st.floats(0.9, 1.0),
        i=st.integers(0, 2),
        level=st.floats(0.5, 0.99),
    )
    # a rejected stretch [-0.98, -0.30] between two nodes of a 21-point scan in tan(theta)
    @example(seed=2, p=4, walk=True, lam=0.90625, i=2, level=0.625)
    def test_every_shape_matches_the_moment_curve(self, seed, p, walk, lam, i, level):
        i %= p - 1
        y = _walk_and_noise(seed, p) if walk else simulate(
            DgpSpec.simple(make_instance(seed, p=p, k=1, q=1), 200), seed)[0]
        dz = make_design(y, 1, "trend")
        lr = _moment_curve(lam, i, dz)
        center = profile_a(np.array([[lam]]), y, 1, "trend", design=dz).a_hat[i, 0]
        cset = ci_coefficient_given_lambda(1.0 - level, i, 0, np.array([[lam]]), y, 1, "trend",
                                           design=dz)
        grid = np.concatenate([np.linspace(-1e3, 1e3, 2001), center + np.linspace(-5.0, 5.0, 501),
                               [-1e6, 1e6]])
        _check_against_grid(np.vectorize(lr), chi2_quantile(level), cset.intervals, grid)

    def test_q2_matches_bisection_oracle(self):
        # the series of test_cli's test_ci_build_table_q2 at its grid's blocks (p=3, so r=1 and
        # the closed form), and a p=4 series (r=2, so the search and the scan)
        y = simulate(DgpSpec.simple(make_instance(3, p=3, k=1, q=2), 100), 1)[0]
        y4 = simulate(DgpSpec.simple(make_instance(3, p=4, k=1, q=2), 150), 1)[0]
        cases = [(y, lam, 0, j) for lam in (0.9, 0.95, 1.0) for j in (0, 1)]
        for data, lam, i, j in cases + [(y4, 0.97, 0, 1), (y4, 0.97, 1, 0)]:
            cset = ci_coefficient_given_lambda(0.05, i, j, lam * np.eye(2), data, 1, "trend")
            oracle = _bisection_oracle(0.05, i, lam * np.eye(2), data, 1, j=j)
            assert len(cset.intervals) == 1 and not cset.diagnostics
            np.testing.assert_allclose(cset.intervals, oracle, rtol=0.0, atol=1e-6)

    def test_q2_accepted_outermost_node_is_not_infinity(self):
        # two random walks and white noise, p=3 and q=2 (r=1): at a[0, 0] the LR stays below the
        # threshold everywhere and tends to 1.919 far out, so the set is the whole line
        y = _walks_and_noise(0, 3)
        cset = ci_coefficient_given_lambda(0.05, 0, 0, 0.95 * np.eye(2), y, 1, "trend")
        assert cset.intervals == ((-np.inf, np.inf),)
        assert cset.diagnostics == ("accepted set is unbounded",)
        lr = _rayleigh_curve(0.95, 0, make_design(y, 1, "trend"))
        grid = np.concatenate([np.linspace(-1e4, 1e4, 4001), np.linspace(-60.0, 60.0, 1201),
                               [-1e9, 1e9]])
        _check_against_grid(np.vectorize(lr), chi2_quantile(0.95), cset.intervals, grid)

    def test_r1_lr_is_the_constrained_rayleigh_quotient(self):
        # the series above; rounding of restricted_fit at |a| ~ 6e3 is about 7e-9
        y = _walks_and_noise(0, 3)
        dz = make_design(y, 1, "trend")
        lr = _rayleigh_curve(0.95, 0, dz)
        for a0, want, rel in ((2.5, 3.119795, 1e-8), (100.0, 1.961480, 1e-8),
                              (-5930.0, 1.918169, 1e-6)):
            got = lr_coefficient(a0, 0, 0, 0.95 * np.eye(2), y, 1, "trend", design=dz).value
            assert got == pytest.approx(lr(a0), rel=rel)
            assert got == pytest.approx(want, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        walks=st.integers(0, 2),
        lam=st.floats(0.9, 1.0),
        j=st.integers(0, 1),
        level=st.floats(0.5, 0.99),
    )
    def test_r1_sets_match_the_rayleigh_curve(self, seed, walks, lam, j, level):
        # p=3, q=2: no walk, one or two walks among white noise
        y = [lambda: simulate(DgpSpec.simple(make_instance(seed, p=3, k=1, q=2), 200), seed)[0],
             lambda: _walk_and_noise(seed, 3), lambda: _walks_and_noise(seed, 3)][walks]()
        dz = make_design(y, 1, "trend")
        lr = _rayleigh_curve(lam, j, dz)
        center = profile_a(lam * np.eye(2), y, 1, "trend", design=dz).a_hat[0, j]
        cset = ci_coefficient_given_lambda(1.0 - level, 0, j, lam * np.eye(2), y, 1, "trend",
                                           design=dz)
        grid = np.concatenate([np.linspace(-1e3, 1e3, 2001), center + np.linspace(-5.0, 5.0, 501),
                               [-1e6, 1e6]])
        _check_against_grid(np.vectorize(lr), chi2_quantile(level), cset.intervals, grid)
        for lo, hi in cset.intervals:
            for endpoint in np.array([lo, hi])[np.isfinite([lo, hi])]:
                assert lr(endpoint) == pytest.approx(chi2_quantile(level), rel=1e-8)

    def test_q2_unbounded_sides_name_their_outermost_probe(self):
        # p=4, q=2 (r=2), so the scan runs: the LR at a[1, 1] tends below the threshold far out
        y = _walks_and_noise(1, 4)
        lam0 = 0.9 * np.eye(2)
        cset = ci_coefficient_given_lambda(0.05, 1, 1, lam0, y, 1, "trend")
        (lo_ray, hi_ray) = cset.intervals
        assert lo_ray[0] == -np.inf and hi_ray[1] == np.inf and not cset.contains(0.0)
        np.testing.assert_allclose([lo_ray[1], hi_ray[0]], [-46.8431, 8.1807], atol=1e-4)
        assert len(cset.diagnostics) == 2
        for side, message in zip(("lower", "upper"), cset.diagnostics):
            assert message.startswith(f"{side} side accepted at the outermost probe a0 = ")
            probe = float(message.split("a0 = ")[1].split(";")[0])
            assert abs(probe) > 1e12
            assert lr_coefficient(probe, 1, 1, lam0, y, 1, "trend").value <= chi2_quantile(0.95)

    def test_far_lr_stands_without_its_singular_fit(self):
        # restricted_fit at the basis is singular at a0 = 1e13 on this series; the moment LR is not
        y = _walks_and_noise(1, 4)
        dz = make_design(y, 1, "trend")
        got = lr_coefficient(1e13, 1, 1, 0.9 * np.eye(2), y, 1, "trend", design=dz)
        assert got.fit_restricted is None
        assert got.value == pytest.approx(_moment_curve(0.9, 1, dz, j=1, q=2)(1e13), rel=1e-10)
        assert got.value == pytest.approx(1.664403, abs=1e-6)

    def test_non_scalar_scan_goes_no_further_than_its_nodes(self, monkeypatch):
        # a bounded set at a non-scalar block probes nothing far out, so a search that would fail
        # there leaves the set as it is
        y = simulate(DgpSpec.simple(make_instance(3, p=4, k=1, q=2), 150), 1)[0]
        lam0 = np.array([[0.985, 0.02], [-0.01, 0.96]])
        want = ci_coefficient_given_lambda(0.05, 0, 0, lam0, y, 1, "trend")
        original = inference.lr_coefficient

        def failing_far_out(a0, *args, **kwargs):
            if abs(a0) > 1e6:
                raise SingularDesignError("restricted design is singular at this (a, lam0)")
            return original(a0, *args, **kwargs)

        monkeypatch.setattr(inference, "lr_coefficient", failing_far_out)
        got = ci_coefficient_given_lambda(0.05, 0, 0, lam0, y, 1, "trend")
        assert len(want.intervals) == 1 and got == want

    def test_q2_lr_is_the_switching_maximum(self):
        # p=4, q=2 (r=2): the Newton search stopped at 7.641 and 7.638, local optima
        y = _walks_and_noise(1, 4)
        dz = make_design(y, 1, "trend")
        for a0, want in ((0.5, 3.992135), (3.0, 4.106517)):
            got = lr_coefficient(a0, 1, 1, np.eye(2), y, 1, "trend", design=dz)
            assert got.value == pytest.approx(want, abs=1e-6)
            assert got.value == pytest.approx(_simplex_lr(1.0, 1, 1, 2, dz, a0), rel=0, abs=1e-9)
            fit = profile_a(np.eye(2), y, 1, "trend", design=dz, fixed_entry=(1, 1, a0))
            assert fit.a_hat[1, 1] == a0

    def test_q3_lr_needs_both_switching_starts(self):
        # p=5, q=3 (r=2): from psi empty alone switching stops in a local maximum here, at LR
        # 1.638 and 1.788; from the top eigenvectors alone it does at other blocks of this series
        y = _walks_and_noise(54, 5)
        dz = make_design(y, 1, "trend")
        for a0, want in ((-25.0, 0.880279), (-24.0, 0.881194)):
            got = lr_coefficient(a0, 0, 0, np.eye(3), y, 1, "trend", design=dz).value
            assert got == pytest.approx(want, abs=1e-6)
            assert got == pytest.approx(_simplex_lr(1.0, 0, 0, 3, dz, a0), rel=0, abs=1e-8)

    def test_q2_set_at_the_unit_block(self):
        # the search's local optima gave (-2.11e6, -12.938] and [8.5952, 2.35e6)
        y = _walks_and_noise(1, 4)
        cset = ci_coefficient_given_lambda(0.05, 1, 1, np.eye(2), y, 1, "trend")
        (lo_ray, hi_ray) = cset.intervals
        assert lo_ray[0] == -np.inf and hi_ray[1] == np.inf
        np.testing.assert_allclose([lo_ray[1], hi_ray[0]], [-1.7628, 8.5952], atol=1e-4)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        p=st.sampled_from([4, 5]),
        q=st.sampled_from([2, 3]),
        walks=st.booleans(),
        lam=st.floats(0.9, 1.0),
        level=st.floats(0.5, 0.99),
    )
    def test_q2_sets_match_the_moment_curve(self, seed, p, q, walks, lam, level):
        # q, r >= 2, so the scan runs on the moment LR
        q = min(q, p - 2)
        y = _walks_and_noise(seed, p) if walks else simulate(
            DgpSpec.simple(make_instance(seed, p=p, k=1, q=q), 200), seed)[0]
        dz = make_design(y, 1, "trend")
        i, j = seed % (p - q), seed % q
        lr = _moment_curve(lam, i, dz, j=j, q=q)
        center = profile_a(lam * np.eye(q), y, 1, "trend", design=dz).a_hat[i, j]
        cset = ci_coefficient_given_lambda(1.0 - level, i, j, lam * np.eye(q), y, 1, "trend",
                                           design=dz)
        steps = np.logspace(-3, 9, 49)
        grid = np.concatenate([center - steps, [center], center + steps])
        _check_against_grid(np.vectorize(lr), chi2_quantile(level), cset.intervals, grid)
        for lo, hi in cset.intervals:
            for endpoint in np.array([lo, hi])[np.isfinite([lo, hi])]:
                assert lr(endpoint) == pytest.approx(chi2_quantile(level), rel=1e-8)

    def test_singular_pair_is_a_numerical_error(self):
        A, S11 = np.eye(3), np.diag([1.0, 0.0, 1.0])
        for i, j, r in ((1, 0, 2), (0, 1, 1)):  # q=1 and r=1
            with pytest.raises(NumericalError, match="eigenproblem failed"):
                likelihood._restricted_basis(A, S11, i, j, 0.5, r)
        for p in (2, 3):
            with pytest.raises(NumericalError, match="eigenproblem failed"):
                _quadratic_set(np.eye(p), np.zeros((p, p)), np.eye(p)[[0, -1]], 1.0)

    @pytest.mark.parametrize("system", ["p2", "p3", "p3q2", "p4q2"])
    def test_moments_built_once_per_interval(self, system, monkeypatch):
        y, k = ((sim_local(9)[0], 1) if system == "p2" else (_walks_and_noise(1, 4), 1)
                if system == "p4q2" else (_p3_data(9), 2))
        q = 2 if system.endswith("q2") else 1
        calls = {"_partialled_moments": 0, "restricted_fit": 0, "minimize": 0, "lr_coefficient": 0}
        for name in calls:
            module = {"lr_coefficient": inference, "minimize": scipy.optimize}.get(name, likelihood)
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        ci_coefficient_given_lambda(0.05, 0, 0, 0.98 * np.eye(q), y, k, "trend")
        assert calls["_partialled_moments"] == 1
        assert calls["restricted_fit"] <= 1
        if system.endswith("q2"):
            assert calls["minimize"] == calls["lr_coefficient"] == 0


class TestOneSearchPerBlock:
    """A non-scalar block's free profile is searched once per design, whichever statistic asks."""

    NON_SCALAR = [lam for lam in SYMMETRIC_POINTS if not likelihood._is_scalar(lam)]

    @staticmethod
    def _free_searches(monkeypatch):
        """The blocks of the free non-scalar searches run from now on, as bytes: every block of
        every batch of ``likelihood._search`` without a fixed entry."""
        calls, original = [], likelihood._search

        def counted(lams, dz, start=None, fixed_entry=None):
            if fixed_entry is None:
                calls.extend(lam.tobytes() for lam in lams)
            return original(lams, dz, start, fixed_entry)

        monkeypatch.setattr(likelihood, "_search", counted)
        return calls

    @staticmethod
    def _table(y, path):
        """A q=2 table with a node at each block's localisation, so that every block finds its
        critical value."""
        dz = make_design(y, 1, "trend")
        template = LimitDistConfig(q=2, c_star=np.zeros((2, 2)), det="trend", steps=100,
                                   reps=1000, seed=3, levels=(0.975,))
        return build_table([localisation(lam, dz) for lam in SYMMETRIC_POINTS], template, path)

    def test_bonferroni_searches_each_block_once(self, tmp_path, monkeypatch):
        y = symmetric_data(300_006)
        table = self._table(y, str(tmp_path / "q2.tbl"))
        calls = self._free_searches(monkeypatch)
        grid = LambdaGrid(family="symmetric", q=2, candidates=tuple(SYMMETRIC_POINTS))
        cset = bonferroni_ci(0.025, 0.025, 0, 0, y, 1, "trend", grid, table)
        # the conditional scan runs at accepted non-scalar blocks, yet searches none of them again
        assert sum(not likelihood._is_scalar(lam) for lam, _, _ in cset.accepted) >= 2
        assert sorted(calls) == sorted(lam.tobytes() for lam in self.NON_SCALAR)

    def test_ci_lambda_searches_its_grid_in_one_batch(self, tmp_path, monkeypatch):
        # the accepted nodes and the interval match those recorded from one search per block
        y = symmetric_data(300_006)
        table = self._table(y, str(tmp_path / "q2.tbl"))
        batches, original = [], likelihood._search
        monkeypatch.setattr(likelihood, "_search", lambda lams, *args: batches.append(
            sorted(lam.tobytes() for lam in lams)) or original(lams, *args))
        grid = LambdaGrid(family="symmetric", q=2, candidates=tuple(SYMMETRIC_POINTS))
        cset = bonferroni_ci(0.025, 0.025, 0, 0, y, 1, "trend", grid, table)
        assert batches[0] == sorted(lam.tobytes() for lam in self.NON_SCALAR)
        assert all(len(batch) == 1 for batch in batches[1:])  # fixed-entry searches
        for (lam, stat, crit), (m, want_stat, want_crit) in zip(cset.accepted, [
                (7, 15.987649463296293, 18.89133072164873),
                (8, 9.509226917081833, 18.518541025128197),
                (9, 24.918477165399317, 25.042190112678284)], strict=True):
            np.testing.assert_array_equal(lam, SYMMETRIC_POINTS[m])
            assert stat == pytest.approx(want_stat, rel=1e-12, abs=0) and crit == want_crit
        ((lo, hi),) = cset.intervals
        # brentq stops within 1e-6 of a root of the search's LR
        assert lo == pytest.approx(-0.4010275635942385, abs=1e-6)
        assert hi == pytest.approx(-0.24606268553814242, abs=1e-6)

    def test_statistics_after_lr_lambda_search_no_free_profile(self, monkeypatch):
        y = symmetric_data(300_003)
        dz = make_design(y, 1, "trend")
        lam0 = self.NON_SCALAR[2]
        calls = self._free_searches(monkeypatch)
        fit = lr_lambda(lam0, y, 1, "trend", design=dz).fit_restricted
        assert calls == [lam0.tobytes()] and not fit.a_hat.flags.writeable
        localisation(lam0, dz)
        lr_coefficient(0.3, 0, 0, lam0, y, 1, "trend", design=dz)
        ci_coefficient_given_lambda(0.05, 0, 1, lam0, y, 1, "trend", design=dz)
        assert calls == [lam0.tobytes()]


class TestBonferroni:
    def test_singleton_block_set_equals_conditional(self, small_table):
        import warnings

        y, lam_true = sim_local(12)
        single = LambdaGrid(family="scalar", q=1, rho=0.9, candidates=(lam_true,))
        with warnings.catch_warnings():
            # whether the single node is accepted or argmax-fallback fires,
            # the result is the conditional interval at that node
            warnings.simplefilter("ignore", UserWarning)
            bset = bonferroni_ci(0.05, 0.05, 0, 0, y, 1, "trend", single, small_table)
        cond = ci_coefficient_given_lambda(0.05, 0, 0, lam_true, y, 1, "trend")
        assert bset.intervals == cond.intervals

    def test_union_contains_each_conditional(self, small_table):
        y, _ = sim_local(13)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        bset = bonferroni_ci(0.05, 0.05, 0, 0, y, 1, "trend", grid, small_table)
        assert bset.accepted
        for lam, _, _ in bset.accepted:
            cond = ci_coefficient_given_lambda(0.05, 0, 0, lam, y, 1, "trend")
            for lo, hi in cond.intervals:
                assert bset.contains(lo + 1e-9) and bset.contains(hi - 1e-9)

    def test_moments_built_once_per_node(self, small_table, monkeypatch):
        # an accepted node's conditional set reads the moments its block LR built
        y, _ = sim_local(13)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        calls = []
        original = likelihood._partialled_moments

        def counted(lambda0, dz):
            calls.append(lambda0)
            return original(lambda0, dz)

        monkeypatch.setattr(likelihood, "_partialled_moments", counted)
        dz = make_design(y, 1, "trend")
        bset = bonferroni_ci(0.05, 0.05, 0, 0, y, 1, "trend", grid, small_table, design=dz)
        assert bset.accepted
        assert calls == [float(lam[0, 0]) for lam in grid.points()]
        A, S11 = likelihood._known_vector_moments(bset.accepted[0][0][0, 0], dz)
        assert len(calls) == len(grid.points())  # served from the design, read-only
        assert not (A.flags.writeable or S11.flags.writeable)

    def test_empty_block_set_falls_back_with_warning(self):
        y, _ = sim_local(14)
        # absurd table whose critical values are all zero rejects everything
        zero_table = QuantileTable(
            q=1, det="trend", steps=300, reps=3000, seed=0, levels=(0.95,),
            entries=tuple(
                TableEntry(c=np.array([[c]]), quantiles=(0.0,), se=(0.0,), redrawn=0)
                for c in (-40.0, 0.0)
            ),
        )
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        with pytest.warns(UserWarning, match="empty"):
            bset = bonferroni_ci(0.05, 0.05, 0, 0, y, 1, "trend", grid, zero_table)
        assert bset.intervals  # still informative
        assert any("fallback" in d for d in bset.diagnostics)

    def test_monotone_in_alphas(self, small_table):
        y, _ = sim_local(15)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        loose = bonferroni_ci(0.001, 0.01, 0, 0, y, 1, "trend", grid, small_table)
        tight = bonferroni_ci(0.5, 0.10, 0, 0, y, 1, "trend", grid, small_table)
        probe = np.linspace(loose.hull[0], loose.hull[1], 41)
        for v in probe:
            if tight.contains(v):
                assert loose.contains(v)

    def test_alpha_budget_validated(self, small_table):
        y, _ = sim_local(16)
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        with pytest.raises(QcvarError):
            bonferroni_ci(0.7, 0.5, 0, 0, y, 1, "trend", grid, small_table)


class TestEstimatorConcentration:
    def test_profile_estimate_concentrates_at_rate_n(self):
        # interquartile range of n (a_hat - a_true) stays bounded as n grows
        a_true = 1.0
        base = NearUnitBase(
            a=np.array([[a_true]]), k=1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )
        iqr = {}
        for n in (250, 500, 1000):
            ls = local_sequence(np.array([[-5.0]]), n, base)
            spec = DgpSpec.simple(ls.realized, n)
            grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
            devs = np.empty(500)
            for rep in range(500):
                y, _ = simulate(spec, 40_000 + rep)
                prof = profile_lambda(grid, y, 1, "trend", refine=True)
                devs[rep] = n * (float(prof.best_fit.a_hat[0, 0]) - a_true)
            lo, hi = np.quantile(devs, [0.25, 0.75])
            iqr[n] = hi - lo
        values = np.array([iqr[n] for n in (250, 500, 1000)])
        assert values.max() / values.min() <= 2.0, iqr
