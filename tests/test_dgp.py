import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcvar.dgp as dgp
from conftest import make_instance
from qcvar.dgp import DgpSpec, NearUnitBase, build_var, local_sequence, simulate
from qcvar.exceptions import ConstructionError, DomainError, NumericalError
from qcvar.representation import qcs_basis
from qcvar.spectral import VarCoefficients, roots, split


class TestBuildVar:
    def test_k1_similarity_hand_example(self):
        coeffs = build_var(
            np.array([[1.0]]), np.array([[1.0]]), 1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.5]])),
        )
        assert np.allclose(coeffs.phi[0], [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)
        s = split(coeffs, 1)
        assert np.allclose(s.a, [[1.0]], atol=1e-12)
        assert np.allclose(s.lam_near, [[1.0]], atol=1e-12)

    def test_k1_similarity_recovers_requested_blocks(self):
        a = np.array([[0.4], [-1.1]])
        lam = np.array([[0.96]])
        r_st = np.array([[1.0, 0.0], [0.2, 1.0], [0.0, 0.3]])
        lam_st = np.diag([0.5, -0.2])
        coeffs = build_var(a, lam, 1, stationary=(r_st, lam_st))
        s = split(coeffs, 1)
        assert np.abs(s.a - a).max() <= 1e-10
        assert np.abs(s.lam_near - lam).max() <= 1e-10

    def test_k2_round_trip(self):
        a = np.array([[0.5, -0.3]])
        rng = np.random.default_rng(4)
        h = rng.normal(size=(2, 2))
        qmat, _ = np.linalg.qr(h)
        lam = qmat @ np.diag([0.99, 0.95]) @ qmat.T
        coeffs = build_var(a, lam, 2, seed=12)
        s = split(coeffs, 2)
        assert np.abs(s.a - a).max() <= 1e-8
        got = np.sort(np.linalg.eigvals(s.lam_near).real)
        assert np.allclose(got, [0.95, 0.99], atol=1e-8)
        # under the trailing-identity normalisation the block matches entrywise
        assert np.abs(s.lam_near - lam).max() <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p=st.integers(2, 4),
        q=st.integers(1, 2),
        k=st.integers(1, 2),
        moduli=st.lists(st.floats(0.9, 1.0), min_size=2, max_size=2),
        angle=st.one_of(st.just(0.0), st.floats(1e-10, 0.5)),
    )
    def test_split_recovers_a_and_the_roots_of_lam(self, seed, p, q, k, moduli, angle):
        # at q = 2 a nonzero angle makes lam a rotation, whose roots are a complex pair
        q = min(q, p - 1)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(p - q, q))
        if q == 1:
            lam = np.array([[moduli[0]]])
        else:
            basis = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
            core = (moduli[0] * np.array([[np.cos(angle), -np.sin(angle)],
                                          [np.sin(angle), np.cos(angle)]]) if angle
                    else np.diag(moduli))
            lam = basis @ core @ np.linalg.inv(basis)
        s = split(build_var(a, lam, k, seed=seed), q)
        assert np.abs(s.a - a).max() <= 1e-10 * max(1.0, np.abs(a).max())
        got, want = (np.sort_complex(np.linalg.eigvals(m)) for m in (s.lam_near, lam))
        assert np.abs(got - want).max() <= 1e-10

    def test_root_gap_enforced_for_explicit_stable_part(self):
        with pytest.raises(ConstructionError):
            build_var(
                np.array([[1.0]]), np.array([[0.95]]), 1,
                stationary=(np.array([[1.0], [0.0]]), np.array([[0.9499]])),
            )

    @pytest.mark.parametrize("stationary", [np.zeros((2, 2)), [np.zeros((2, 2))]])
    def test_stable_part_must_be_a_pair(self, stationary):
        with pytest.raises(DomainError, match="pair"):
            build_var(np.array([[1.0]]), np.array([[0.95]]), 1, stationary=stationary)

    def test_modulus_cap(self):
        with pytest.raises(DomainError):
            build_var(np.array([[1.0]]), np.array([[1.01]]), 1, seed=0)

    def test_stable_roots_cleared_below_near_block(self):
        coeffs = build_var(np.array([[0.2], [0.4]]), np.array([[0.94]]), 3, seed=9)
        mods = np.abs(roots(coeffs).roots)
        assert mods[0] == pytest.approx(0.94, abs=1e-9)
        assert mods[1] < 0.94 - 1e-3


class TestLocalSequence:
    def _base(self):
        return NearUnitBase(
            a=np.array([[1.0]]), k=1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )

    def test_zero_c_exact_unit_roots(self):
        ls = local_sequence(np.zeros((1, 1)), 100, self._base())
        s = split(ls.realized, 1)
        assert np.allclose(s.lam_near, [[1.0]], atol=1e-12)

    def test_scalar_drift(self):
        ls = local_sequence(np.array([[-5.0]]), 100, self._base())
        s = split(ls.realized, 1)
        assert np.allclose(s.lam_near, [[0.95]], atol=1e-10)

    def test_entrywise_nilpotent_drift(self):
        from qcvar.exceptions import ConditionWarning

        base = NearUnitBase(a=np.zeros((1, 2)), k=1, stationary=17)
        ls = local_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]), 200, base)
        # a near-defective block is legal input: warn, do not fail
        with pytest.warns(ConditionWarning):
            s = split(ls.realized, 2)
        assert np.allclose(s.lam_near, [[1.0, 0.005], [0.0, 1.0]], atol=1e-8)

    def test_explosive_drift_rejected(self):
        with pytest.raises(DomainError):
            local_sequence(np.array([[2.0]]), 100, self._base())

    def test_stationary_part_fixed_across_n(self):
        base = self._base()
        stable_roots = []
        for n in (100, 400):
            ls = local_sequence(np.array([[-5.0]]), n, base)
            rs = np.abs(roots(ls.realized).roots)
            stable_roots.append(rs[1])
        assert stable_roots[0] == pytest.approx(stable_roots[1], abs=1e-12)


class TestSimulate:
    def test_zero_noise_pure_deterministics(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        spec = DgpSpec(
            coeffs=coeffs, sigma=np.eye(2), mu=np.array([1.0, -2.0]),
            delta=np.array([0.5, 0.0]), n=25,
        )
        y, eps = simulate(spec, 3, innovations="none")
        t = np.arange(1, 26)[:, None]
        assert np.array_equal(y, spec.mu + spec.delta * t)
        assert np.abs(eps).max() == 0.0

    def test_white_noise_passthrough(self):
        coeffs = VarCoefficients.from_matrices([np.array([[0.0]])])
        spec = DgpSpec.simple(coeffs, 100)
        y, eps = simulate(spec, 9)
        assert np.array_equal(y, eps)

    def test_bit_reproducible(self):
        coeffs = make_instance(1, p=3, k=2, q=1)
        spec = DgpSpec.simple(coeffs, 200)
        y1, e1 = simulate(spec, 42)
        y2, e2 = simulate(spec, 42)
        assert np.array_equal(y1, y2) and np.array_equal(e1, e2)
        y3, _ = simulate(spec, 43)
        assert not np.array_equal(y1, y3)

    def test_innovation_covariance_lln(self):
        coeffs = VarCoefficients.from_matrices([np.zeros((2, 2))])
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        spec = DgpSpec(coeffs=coeffs, sigma=sigma, mu=np.zeros(2), delta=np.zeros(2), n=100_000)
        _, eps = simulate(spec, 12)
        emp = eps.T @ eps / spec.n
        # MC standard error of a covariance entry is ~ sqrt(var/n)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / spec.n)
                assert abs(emp[i, j] - sigma[i, j]) <= 3 * se

    def test_custom_innovation_hook(self):
        coeffs = VarCoefficients.from_matrices([np.array([[0.0]])])
        spec = DgpSpec.simple(coeffs, 50)
        y, eps = simulate(spec, 0, innovations=lambda rng, n, p: np.ones((n, p)))
        assert np.array_equal(eps, np.ones((50, 1)))

    def test_invalid_sigma(self):
        coeffs = make_instance(0, p=2, k=1, q=1)
        with pytest.raises(DomainError):
            DgpSpec(coeffs=coeffs, sigma=-np.eye(2), mu=np.zeros(2), delta=np.zeros(2), n=10)

    def test_qcs_combination_stationary_under_unit_roots(self):
        # beta' x has bounded variance while x itself wanders
        base = NearUnitBase(
            a=np.array([[1.0]]), k=1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )
        variances = {}
        for n in (500, 2000):
            ls = local_sequence(np.zeros((1, 1)), n, base)
            beta = qcs_basis(split(ls.realized, 1)).beta
            acc = []
            for seed in range(30):
                y, _ = simulate(DgpSpec.simple(ls.realized, n), seed)
                acc.append(np.var(y[n // 2:] @ beta))
            variances[n] = np.mean(acc)
        ratio = variances[2000] / variances[500]
        assert 0.5 <= ratio <= 2.0


def _reference_path(coeffs, eps):
    """The recursion x_t = eps_t + sum_i Phi_i x_{t-i}, one step at a time."""
    n, p, k = eps.shape[0], coeffs.p, coeffs.k
    x = np.zeros((n + k, p))  # rows 0..k-1 are the zero presample
    for t in range(n):
        x[k + t] = eps[t] + sum(coeffs.phi[i - 1] @ x[k + t - i] for i in range(1, k + 1))
    return x[k:]


class TestSimulateOracle:
    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_banded_solve_matches_recursion(self, p, k):
        for n in sorted({1, k, 500}):
            # a stable near-unit system, and one with a root at modulus 1 + 1/n
            explosive = local_sequence(
                np.array([[1.0]]), n,
                NearUnitBase(a=np.full((p - 1, 1), 0.5), k=k, stationary=10 * p + k),
            ).realized
            assert np.abs(roots(explosive).roots[0]) == pytest.approx(1.0 + 1.0 / n, rel=1e-9)
            for coeffs in (make_instance(10 * p + k, p=p, k=k, q=1), explosive):
                x, eps = simulate(DgpSpec.simple(coeffs, n), n + p + k)
                ref = _reference_path(coeffs, eps)
                scale = np.abs(ref).max()
                assert np.abs(x - ref).max() <= 1e-12 * scale
                # residual identity x_t - sum_i Phi_i x_{t-i} = eps_t
                padded = np.vstack([np.zeros((k, p)), x])
                fitted = sum(
                    padded[k - i: k - i + n] @ phi.T for i, phi in enumerate(coeffs.phi, start=1)
                )
                bound = 1e-12 * scale * (1.0 + sum(np.abs(m).sum(axis=1).max() for m in coeffs.phi))
                assert np.abs(x - fitted - eps).max() <= bound


class TestSimulateNonFinite:
    def test_nan_sampler_rejected(self):
        spec = DgpSpec.simple(make_instance(0, p=2, k=1, q=1), 20)
        with pytest.raises(DomainError, match="non-finite"):
            simulate(spec, 0, innovations=lambda rng, n, p: np.full((n, p), np.nan))

    def test_explosive_path_raises(self):
        spec = DgpSpec.simple(VarCoefficients.from_matrices([np.array([[5.0]])]), 1000)
        with pytest.raises(NumericalError, match="not finite"):
            simulate(spec, 0)

    def test_solver_failure_raises(self, monkeypatch):
        monkeypatch.setattr(dgp, "dtbtrs", lambda ab, b, **kw: (b, -1))
        spec = DgpSpec.simple(make_instance(0, p=2, k=1, q=1), 20)
        with pytest.raises(NumericalError, match="info -1"):
            simulate(spec, 0)

    @pytest.mark.parametrize("field", ["mu", "delta"])
    def test_non_finite_deterministics_rejected(self, field):
        kw = dict(mu=np.zeros(2), delta=np.zeros(2))
        kw[field] = np.array([0.0, np.inf])
        with pytest.raises(DomainError, match="finite"):
            DgpSpec(coeffs=make_instance(0, p=2, k=1, q=1), sigma=np.eye(2), n=10, **kw)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_sigma_rejected(self, bad):
        # checked before symmetry and the Cholesky factor, which pass an infinite diagonal
        with pytest.raises(DomainError, match="sigma must be finite"):
            DgpSpec(coeffs=make_instance(0, p=2, k=1, q=1), sigma=np.diag([1.0, bad]),
                    mu=np.zeros(2), delta=np.zeros(2), n=10)


class TestSimulateInvariances:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        p=st.integers(2, 3),
        k=st.integers(1, 2),
        n=st.integers(1, 200),
        c=st.floats(0.1, 10.0),
        mu=st.floats(-1e3, 1e3),
        delta=st.floats(-10.0, 10.0),
    )
    def test_deterministics_additive_and_sigma_scaling(self, seed, p, k, n, c, mu, delta):
        coeffs = make_instance(seed, p=p, k=k, q=1)
        sigma = np.eye(p) + 0.3 * np.ones((p, p))
        base = DgpSpec(coeffs=coeffs, sigma=sigma, mu=np.zeros(p), delta=np.zeros(p), n=n)
        x, _ = simulate(base, seed)
        mu_v, delta_v = np.full(p, mu), np.linspace(-1.0, 1.0, p) * delta
        shifted = DgpSpec(coeffs=coeffs, sigma=sigma, mu=mu_v, delta=delta_v, n=n)
        y, _ = simulate(shifted, seed)
        assert np.array_equal(y, x + (mu_v + delta_v * np.arange(1, n + 1)[:, None]))
        scaled = DgpSpec(coeffs=coeffs, sigma=c * c * sigma, mu=np.zeros(p), delta=np.zeros(p), n=n)
        xc, _ = simulate(scaled, seed)
        assert np.abs(xc - c * x).max() <= 1e-13 * np.abs(c * x).max()
