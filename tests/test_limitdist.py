from dataclasses import replace

import numpy as np
import pytest

import qcvar.limitdist as limitdist
from conftest import df_tstat_squared
from qcvar.exceptions import DomainError, NumericalError, TableCoverageError
from qcvar.limitdist import (
    LimitDistConfig,
    QuantileTable,
    TableEntry,
    _detrend_coefficients,
    _simulate_chunk,
    build_table,
    c_star,
    load_table,
    lookup,
    quantiles_with_se,
    save_table,
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

    def test_repeated_level_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"each level must be listed once, got \(0.9, 0.9\)"):
            LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="none", levels=(0.9, 0.9))

    def test_a_non_finite_replication_is_redrawn(self, monkeypatch):
        # the first pass loses replications 3 and 1500; each is redrawn once from a fresh seed
        statistics = limitdist._statistics
        clean, _ = simulate_statistics(self.CFG)

        def lose_two(config, dw, dw_t):
            out = statistics(config, dw, dw_t)
            if len(dw) == self.CFG.reps:
                out[[3, 1500]] = np.nan
            return out

        monkeypatch.setattr(limitdist, "_statistics", lose_two)
        stats_, redrawn = simulate_statistics(self.CFG)
        assert redrawn == 2
        monkeypatch.setattr(limitdist, "_statistics", statistics)
        np.testing.assert_array_equal(stats_[[3, 1500]],
                                      _simulate_chunk(self.CFG, [1_000_000_010, 1_000_001_507]))
        keep = np.ones(self.CFG.reps, bool)
        keep[[3, 1500]] = False
        np.testing.assert_array_equal(stats_[keep], clean[keep])

    def test_a_replication_singular_after_every_redraw_is_a_numerical_error(self, monkeypatch):
        statistics = limitdist._statistics
        rounds = []

        def always_lose_first(config, dw, dw_t):
            rounds.append(len(dw))
            out = statistics(config, dw, dw_t)
            out[0] = np.nan
            return out

        monkeypatch.setattr(limitdist, "_statistics", always_lose_first)
        with pytest.raises(NumericalError, match="1 replications remained singular after redraws"):
            simulate_statistics(self.CFG)
        assert rounds == [self.CFG.reps] + [1] * limitdist.MAX_REDRAWS

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_localisation_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="c_star must be a finite 2x2 matrix"):
            LimitDistConfig(q=2, c_star=[[-5.0, 0.0], [bad, -5.0]], det="trend")

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

    @staticmethod
    def _q2_table(*nodes):
        entries = tuple(TableEntry(c=np.asarray(c, dtype=float), quantiles=(12.0, 14.0),
                                   se=(0.1, 0.2), redrawn=0) for c in nodes)
        return QuantileTable(q=2, det="const", steps=100, reps=1000, seed=0,
                             levels=(0.9, 0.95), entries=entries)

    def test_q2_query_beyond_the_node_spacing_raises(self):
        # nodes 0, -5 I and -10 I: each node's nearest neighbour is 5 sqrt(2) = 7.07 away
        table = self._q2_table(*(c * np.eye(2) for c in (0.0, -5.0, -10.0)))
        with pytest.warns(UserWarning, match="nearest"):
            assert lookup(table, [[-12.0, 1.0], [0.0, -15.0]], 0.95) == 14.0  # 5.48 from -10 I
        with pytest.raises(TableCoverageError, match=(
                r"query C=\[-20.0, 6.0, 0.0, -20.0\] is at Frobenius distance 15\.3623 from the "
                r"nearest node \[-10.0, 0.0, 0.0, -10.0\], beyond the table's largest node "
                r"spacing 7\.07107")):
            lookup(table, [[-20.0, 6.0], [0.0, -20.0]], 0.95)

    def test_q2_spacing_is_the_largest_nearest_neighbour_distance(self):
        # irregular nodes: a query just inside the spacing, measured node by node, is answered
        # and one just beyond it raises
        nodes = np.random.default_rng(6).normal(scale=4.0, size=(30, 2, 2))
        table = self._q2_table(*nodes)
        flat = nodes.reshape(30, 4)
        gaps = [np.sort(np.linalg.norm(flat - c, axis=1))[1] for c in flat]
        far, spacing = int(np.argmax(gaps)), max(gaps)
        outward = flat[far] - flat.mean(axis=0)
        outward /= np.linalg.norm(outward)
        for scale, inside in ((0.999, True), (1.5, False)):
            query = (flat[far] + scale * spacing * outward).reshape(2, 2)
            assert (np.linalg.norm(flat - query.ravel(), axis=1).min() <= spacing) == inside
            if inside:
                with pytest.warns(UserWarning, match="nearest"):
                    lookup(table, query, 0.9)
            else:
                with pytest.raises(TableCoverageError, match=f"spacing {spacing:.6g}"):
                    lookup(table, query, 0.9)

    def test_one_node_q2_table_covers_only_its_node(self):
        table = self._q2_table(-5.0 * np.eye(2))
        assert lookup(table, -5.0 * np.eye(2), 0.9) == 12.0
        with pytest.raises(TableCoverageError, match="distance 0.001 "):
            lookup(table, [[-5.0, 0.001], [0.0, -5.0]], 0.9)

    @pytest.mark.parametrize("q, query", [
        (1, -5.0 * np.eye(2)),
        (1, [-5.0]),
        (2, -5.0),
        (2, [[-5.0, 0.0, 0.0, -5.0]]),
    ])
    def test_query_of_another_shape_raises(self, q, query):
        table = self._q2_table(-5.0 * np.eye(2))
        if q == 1:
            table = replace(table, q=1, entries=(replace(table.entries[0], c=np.array([[-5.0]])),))
        assert lookup(table, -5.0 * np.eye(q), 0.9) == 12.0
        with pytest.raises(TableCoverageError, match=f"does not match the table's {q}x{q} nodes"):
            lookup(table, query, 0.9)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            build_table([], self.TEMPLATE)

    def test_malformed_node_rejected_before_any_simulation(self, tmp_path, monkeypatch):
        def forbidden(configs):
            pytest.fail("a node was simulated")

        monkeypatch.setattr(limitdist, "_simulate_nodes", forbidden)
        path = tmp_path / "never.tbl"
        for grid in ([np.nan], [-5.0, np.inf], [[[0.0]], np.zeros((2, 2))]):
            with pytest.raises(DomainError, match="c_star must be a finite 1x1 matrix"):
                build_table(grid, self.TEMPLATE, str(path))
        assert not path.exists()


class TestSharedDraws:
    """One pass over the replication chunks serves every node of a build."""

    TEMPLATE = LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="trend",
                               steps=120, reps=2500, seed=9)

    @staticmethod
    def _by_node(table):
        return {float(e.c[0, 0]): e for e in table.entries}

    def test_entry_independent_of_companions_and_order(self):
        alone = self._by_node(build_table([-4.0], self.TEMPLATE))[-4.0]
        for grid in ([-4.0, 0.0, -9.0], [0.0, -9.0, -4.0], [-9.0, -4.0]):
            entry = self._by_node(build_table(grid, self.TEMPLATE))[-4.0]
            assert entry.quantiles == alone.quantiles
            assert entry.se == alone.se
            assert entry.redrawn == alone.redrawn

    def test_statistics_independent_of_chunk_size(self, monkeypatch):
        # 2500 replications: two chunks at the default size, three at 1000, each ragged
        config = replace(self.TEMPLATE, c_star=np.array([[-3.0]]))
        default, _ = simulate_statistics(config)
        monkeypatch.setattr(limitdist, "_CHUNK", 1000)
        small, _ = simulate_statistics(config)
        assert np.array_equal(default, small)

    def test_interrupted_build_resumes_from_saved_node(self, tmp_path, monkeypatch):
        path = str(tmp_path / "t.tbl")
        grid = [-6.0, -2.0, 0.0]
        save = limitdist.save_table

        def save_then_stop(table, p):
            save(table, p)
            raise KeyboardInterrupt

        monkeypatch.setattr(limitdist, "save_table", save_then_stop)
        with pytest.raises(KeyboardInterrupt):
            build_table(grid, self.TEMPLATE, path)
        monkeypatch.setattr(limitdist, "save_table", save)
        assert [float(e.c[0, 0]) for e in load_table(path).entries] == [-6.0]

        runs = []
        statistics = limitdist._statistics

        def counted(config, *arrays):
            runs.append(float(config.c_star[0, 0]))
            return statistics(config, *arrays)

        monkeypatch.setattr(limitdist, "_statistics", counted)
        resumed = build_table(grid, self.TEMPLATE, path)
        assert sorted(set(runs)) == [-2.0, 0.0]  # the saved node is not simulated again
        monkeypatch.setattr(limitdist, "_statistics", statistics)
        assert len(resumed.entries) == 3
        fresh = str(tmp_path / "fresh.tbl")
        build_table(grid, self.TEMPLATE, fresh)
        assert open(path).read() == open(fresh).read()

    def test_golden_values(self):
        # values at 10 significant digits, recorded before draws were shared across nodes
        q1 = LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="trend",
                             steps=200, reps=2500, seed=21)
        q2 = LimitDistConfig(q=2, c_star=np.zeros((2, 2)), det="const",
                             steps=150, reps=1500, seed=2)
        golden = {
            (-5.0,): ["6.013625027", "7.783852507", "11.67230053",
                      "0.1066480404", "0.2018474299", "1.191320602"],
            (0.0,): ["9.200712665", "11.10671906", "15.46585801",
                     "0.1936246966", "0.2066744765", "0.6747126564"],
            (0.0, 0.0, 0.0, 0.0): ["15.66320459", "17.87259711", "23.00808718",
                                   "0.2999408705", "0.3865928617", "1.051440142"],
            (-5.0, 1.0, 0.0, -2.0): ["12.14531218", "14.4209983", "18.87878375",
                                     "0.3308770778", "0.3419579789", "1.842370174"],
        }
        got = {}
        for template, grid in ((q1, [0.0, -5.0]),
                               (q2, [np.zeros((2, 2)), np.array([[-5.0, 1.0], [0.0, -2.0]])])):
            for e in build_table(grid, template).entries:
                assert e.redrawn == 0
                got[tuple(e.c.ravel().tolist())] = [f"{v:.10g}" for v in e.quantiles + e.se]
        assert got == golden


def _stepwise_statistics(config, dw):
    """The statistic as a step-by-step loop over the (m, steps, q) draws computes it."""
    m, n, q = dw.shape
    A_T = (np.eye(q) + config.c_star / n).T
    lagged = np.empty((m, n, q))
    z = np.zeros((m, q))
    for j in range(n):
        lagged[:, j, :] = z
        z = z @ A_T + dw[:, j, :]

    s_grid = (np.arange(1, n + 1) - 0.5) / n
    if config.det != "none":
        H, X = _detrend_coefficients(s_grid, config.det)
        coef = np.einsum("dn,mnq->mdq", H, lagged)
        lagged = lagged - np.einsum("nd,mdq->mnq", X, coef)

    s1 = np.einsum("mnq,mnr->mqr", dw, lagged)
    s2 = np.einsum("mnq,mnr->mqr", lagged, lagged) / n
    return np.einsum("mqr,mrq->m", s1, np.linalg.solve(s2, np.transpose(s1, (0, 2, 1))))


class TestStatisticsOracle:
    """The blocked time-major recursion reproduces the step-by-step loop bit for bit."""

    C_GRID = {1: [[[-7.0]], [[2.0]]],
              2: [-3.0 * np.eye(2), [[-5.0, 1.0], [0.0, -2.0]], [[-1.0, 2.0], [-4.0, -7.0]]]}

    @pytest.mark.parametrize("steps", [100, 127])  # 127 is not a multiple of _BLOCK
    @pytest.mark.parametrize("det", ["none", "const", "trend"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_stepwise_loop(self, q, det, steps):
        configs = [LimitDistConfig(q=q, c_star=c, det=det, steps=steps, reps=2500, seed=13)
                   for c in self.C_GRID[q]]
        chunks = [limitdist._draw(configs[0], range(s, min(s + limitdist._CHUNK, 2500)))
                  for s in range(0, 2500, limitdist._CHUNK)]
        assert len(chunks) == 2
        for config, (got, redrawn) in zip(configs, limitdist._simulate_nodes(configs)):
            want = np.concatenate([_stepwise_statistics(config, dw) for dw in chunks])
            assert redrawn == 0
            assert np.array_equal(got, want)


class TestLoadTableValidation:
    """Malformed tables raise DomainError naming the file and line."""

    @pytest.fixture
    def lines(self, tmp_path):
        table = QuantileTable(
            q=1, det="trend", steps=100, reps=1000, seed=0, levels=(0.9, 0.95),
            entries=(TableEntry(c=np.array([[-5.0]]), quantiles=(8.0, 9.5), se=(0.1, 0.2),
                                redrawn=0),
                     TableEntry(c=np.array([[0.0]]), quantiles=(11.0, 12.5), se=(0.1, 0.2),
                                redrawn=1)),
        )
        path = str(tmp_path / "good.tbl")
        save_table(table, path)
        assert load_table(path) is not None
        with open(path) as fh:
            return fh.read().splitlines()

    @staticmethod
    def _load_error(tmp_path, lines):
        path = str(tmp_path / "bad.tbl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DomainError) as err:
            load_table(path)
        return str(err.value).replace(path, "<path>")

    def test_missing_metadata_key(self, tmp_path, lines):
        # the header line "q=1" is line 3; "---" moves up to line 8
        msg = self._load_error(tmp_path, [ln for ln in lines if not ln.startswith("q=")])
        assert msg.startswith("<path>:8:") and "'q='" in msg

    def test_non_numeric_cell(self, tmp_path, lines):
        lines[10] = lines[10].replace("8.0", "eight")
        assert self._load_error(tmp_path, lines).startswith("<path>:11:")

    def test_nan_quantile(self, tmp_path, lines):
        lines[11] = lines[11].replace("11.0", "nan")
        msg = self._load_error(tmp_path, lines)
        assert msg.startswith("<path>:12:") and "finite" in msg

    def test_missing_last_se_field(self, tmp_path, lines):
        lines[11] = lines[11].rpartition(",")[0]
        assert self._load_error(tmp_path, lines).startswith("<path>:12:")

    def test_wrong_number_of_c_values(self, tmp_path, lines):
        lines[10] = "-5.0 1.0" + lines[10][len("-5.0"):]
        assert self._load_error(tmp_path, lines).startswith("<path>:11:")

    def test_negative_redrawn(self, tmp_path, lines):
        lines[10] = lines[10].replace(",0,", ",-1,", 1)
        assert self._load_error(tmp_path, lines).startswith("<path>:11:")

    def test_bad_metadata_value(self, tmp_path, lines):
        lines[5] = "reps=many"
        assert self._load_error(tmp_path, lines).startswith("<path>:6:")
