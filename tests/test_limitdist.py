import numpy as np
import pytest

from conftest import df_tstat_squared
from qcvar.exceptions import DomainError, TableCoverageError
from qcvar.limitdist import (
    LimitDistConfig,
    _detrend_coefficients,
    _simulate_chunk,
    build_table,
    c_star,
    load_table,
    lookup,
    quantiles_with_se,
    simulate_statistics,
)


class TestCStar:
    def test_identity_delta(self):
        c = np.array([[1.0, 2.0], [0.0, -3.0]])
        assert np.allclose(c_star(c, np.eye(2)), c)

    def test_scalar_invariance(self):
        for delta in (0.1, 1.0, 17.3):
            assert c_star(np.array([[-5.0]]), np.array([[delta]])) == pytest.approx(-5.0)

    def test_eigenvalues_preserved(self, rng):
        c = rng.normal(size=(3, 3))
        m = rng.normal(size=(3, 3))
        delta = m @ m.T + 3 * np.eye(3)
        transformed = c_star(c, delta)
        assert np.allclose(
            np.sort_complex(np.linalg.eigvals(transformed)),
            np.sort_complex(np.linalg.eigvals(c)),
            atol=1e-8,
        )

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            c_star(np.eye(2), np.diag([1.0, -1.0]))


class TestSimulateStatistic:
    CFG = LimitDistConfig(q=1, c_star=np.array([[0.0]]), det="none",
                          steps=400, reps=2000, seed=5)

    def test_nonnegative(self):
        stats_, _ = simulate_statistics(self.CFG)
        assert (stats_ >= -1e-12).all()

    def test_single_matches_batch(self):
        stats_, _ = simulate_statistics(self.CFG)
        assert _simulate_chunk(self.CFG, [17])[0] == stats_[17]

    def test_seed_reproducibility(self):
        a, _ = simulate_statistics(self.CFG)
        b, _ = simulate_statistics(self.CFG)
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="none", steps=50)
        with pytest.raises(DomainError):
            LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="none", reps=10)
        with pytest.raises(DomainError):
            LimitDistConfig(q=1, c_star=np.zeros((2, 2)), det="none")

    def test_discretisation_stability(self):
        # doubling the grid moves the 0.95 quantile by less than 3x the MC SE
        qs = {}
        ses = {}
        for steps in (2000, 4000):
            cfg = LimitDistConfig(q=1, c_star=np.array([[-10.0]]), det="trend",
                                  steps=steps, reps=20_000, seed=11)
            sample, _ = simulate_statistics(cfg)
            (q95,), (se,) = quantiles_with_se(sample, [0.95])
            qs[steps], ses[steps] = q95, se
        combined = np.hypot(ses[2000], ses[4000])
        assert abs(qs[2000] - qs[4000]) <= 3 * combined

    def test_footnote_projection_cross_check(self):
        # discrete least-squares detrend vs the closed-form projection
        # weights 4 - 6s and -6 + 12s, integrated on the same grid
        n = 5000
        s = (np.arange(1, n + 1) - 0.5) / n
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
            H, X = _detrend_coefficients(s, "trend")
            resid_ls = z - X @ (H @ z)
            mu0 = np.mean((4.0 - 6.0 * s) * z)
            mu1 = np.mean((-6.0 + 12.0 * s) * z)
            resid_cf = z - mu0 - mu1 * s
            assert np.abs(resid_ls - resid_cf).max() <= 1e-6

    def test_demean_projection_exact(self):
        n = 1000
        s = (np.arange(1, n + 1) - 0.5) / n
        rng = np.random.default_rng(4)
        z = np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
        H, X = _detrend_coefficients(s, "const")
        resid_ls = z - X @ (H @ z)
        assert np.abs(resid_ls - (z - z.mean())).max() <= 1e-12

    def test_df_anchor_quick(self):
        # the C*=0, det=none statistic is the squared Dickey-Fuller ratio
        cfg = LimitDistConfig(q=1, c_star=np.array([[0.0]]), det="none",
                              steps=2000, reps=4000, seed=7)
        sample, _ = simulate_statistics(cfg)
        oracle = df_tstat_squared(np.random.default_rng(8), 2000, 4000)
        (q_sim,), (se_sim,) = quantiles_with_se(sample, [0.95])
        (q_or,), (se_or,) = quantiles_with_se(oracle, [0.95])
        assert abs(q_sim - q_or) <= 2.0 * np.hypot(se_sim, se_or)


class TestQuantileTable:
    TEMPLATE = LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="trend",
                               steps=200, reps=2000, seed=21)

    def test_monotone_quantiles(self, tmp_path):
        table = build_table([0.0], self.TEMPLATE, str(tmp_path / "t.tbl"))
        qs = table.entries[0].quantiles
        assert qs[0] < qs[1] < qs[2]

    def test_node_and_interpolation(self, tmp_path):
        table = build_table([0.0, -5.0, -10.0], self.TEMPLATE, str(tmp_path / "t.tbl"))
        nodes = [float(e.c[0, 0]) for e in table.entries]
        assert nodes == [-10.0, -5.0, 0.0]
        v5 = lookup(table, -5.0, 0.95)
        assert v5 == table.entries[1].quantiles[1]
        mid = lookup(table, -7.5, 0.95)
        assert mid == pytest.approx(
            0.5 * (table.entries[0].quantiles[1] + table.entries[1].quantiles[1])
        )

    def test_extrapolation_error(self, tmp_path):
        table = build_table([0.0, -5.0], self.TEMPLATE, str(tmp_path / "t.tbl"))
        with pytest.raises(TableCoverageError):
            lookup(table, -20.0, 0.95)
        with pytest.raises(TableCoverageError):
            lookup(table, -5.0, 0.42)

    def test_rebuild_bit_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.tbl"), str(tmp_path / "b.tbl")
        build_table([0.0, -2.0], self.TEMPLATE, p1)
        build_table([0.0, -2.0], self.TEMPLATE, p2)
        assert open(p1).read() == open(p2).read()

    def test_resume_reuses_entries(self, tmp_path):
        path = str(tmp_path / "t.tbl")
        t1 = build_table([0.0], self.TEMPLATE, path)
        t2 = build_table([0.0, -3.0], self.TEMPLATE, path)
        assert t2.entries[-1].quantiles == t1.entries[0].quantiles
        assert len(t2.entries) == 2

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "t.tbl")
        table = build_table([0.0, -1.0], self.TEMPLATE, path)
        loaded = load_table(path)
        assert loaded.levels == table.levels
        for a, b in zip(table.entries, loaded.entries):
            assert a.quantiles == b.quantiles
            assert a.se == b.se
            assert np.array_equal(a.c, b.c)

    def test_grid_refinement_self_consistency(self, tmp_path):
        # interpolating a coarse grid agrees with the fine grid within MC noise
        fine = build_table([0.0, -0.5, -1.0], self.TEMPLATE, str(tmp_path / "f.tbl"))
        coarse = build_table([0.0, -1.0], self.TEMPLATE, str(tmp_path / "c.tbl"))
        interp = lookup(coarse, -0.5, 0.95)
        exact = lookup(fine, -0.5, 0.95)
        se = fine.entries[1].se[1]
        assert abs(interp - exact) <= 2.0 * se

    def test_q2_nearest_node_warning(self, tmp_path):
        template = LimitDistConfig(q=2, c_star=np.zeros((2, 2)), det="const",
                                   steps=150, reps=1500, seed=2)
        table = build_table([np.zeros((2, 2)), -5.0 * np.eye(2)], template,
                            str(tmp_path / "t2.tbl"))
        exact = lookup(table, np.zeros((2, 2)), 0.95)
        assert exact == table.entries[0].quantiles[1]
        with pytest.warns(UserWarning, match="nearest"):
            lookup(table, -1.0 * np.eye(2), 0.95)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            build_table([], self.TEMPLATE)
