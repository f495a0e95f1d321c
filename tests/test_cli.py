import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcvar.likelihood as likelihood
import qcvar.limitdist as limitdist
from conftest import make_instance
from test_inference import _rayleigh_curve
from test_likelihood import fail_block_lr_above
from qcvar import __version__
from qcvar.cli import Dataset, _Emitter, _round15, build_parser, ingest_csv, main
from qcvar.dgp import DgpSpec, NearUnitBase, local_sequence, simulate
from qcvar.exceptions import DomainError, TableCoverageError
from qcvar.inference import bonferroni_ci, ci_lambda, localisation
from qcvar.likelihood import LambdaGrid, make_design
from qcvar.limitdist import (
    LimitDistConfig,
    QuantileTable,
    TableEntry,
    build_table,
    load_table,
    lookup,
    save_table,
)


def write_csv(path, names, values):
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=(100, 3)), axis=0)
    path = tmp_path / "series.csv"
    write_csv(path, ["a", "b", "c"], values)
    return str(path)


class TestIngestCsv:
    def test_plain_file(self, sample_csv):
        ds = ingest_csv(sample_csv)
        assert ds.p == 3 and ds.n == 100
        assert ds.names == ("a", "b", "c")

    def test_date_column_dropped_with_notice(self, tmp_path):
        path = tmp_path / "dated.csv"
        with open(path, "w") as fh:
            fh.write("date,x,y\n")
            for t in range(5):
                fh.write(f"2020-01-{t + 1:02d},{t * 1.0},{t * 2.0}\n")
        notices = []
        ds = ingest_csv(str(path), notices)
        assert ds.p == 2
        assert ds.names == ("x", "y")
        assert any("date" in n for n in notices)

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x,y\n1.0,2.0\nNA,3.0\n")
        with pytest.raises(DomainError, match="row 3.*'x'"):
            ingest_csv(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with open(path, "w") as fh:
            fh.write("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(DomainError, match="line 3"):
            ingest_csv(str(path))

    def test_column_order_preserved(self, tmp_path):
        path = tmp_path / "ordered.csv"
        write_csv(path, ["z2", "z1"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        ds = ingest_csv(str(path))
        assert ds.names == ("z2", "z1")
        assert ds.values[0, 0] == 1.0

    @pytest.mark.parametrize("dated", [False, True])
    def test_byte_order_mark_is_ignored(self, tmp_path, dated):
        # spreadsheets' "CSV UTF-8" export starts the file with U+FEFF
        path = tmp_path / "bom.csv"
        with open(path, "w", encoding="utf-8-sig") as fh:
            fh.write("date,x,y\n" if dated else "x,y\n")
            for t in range(4):
                fh.write(f"2020-01-0{t + 1}," * dated + f"{t * 1.5},{t * t}\n")
        notices = []
        ds = ingest_csv(str(path), notices)
        assert ds.names == ("x", "y")
        assert notices == (["dropped non-numeric leading column 'date'"] if dated else [])
        np.testing.assert_array_equal(ds.values[:, 0], [0.0, 1.5, 3.0, 4.5])


def _reference_ingest(path, notices):
    """The cell-by-cell parser ingest_csv replaced, kept as the oracle for its one-pass parse."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(io.StringIO(fh.read())))
    if not rows:
        raise DomainError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    body = rows[1:]
    if not body:
        raise DomainError(f"{path}: no data rows")
    for line_no, row in enumerate(body, start=2):
        if len(row) != width:
            raise DomainError(f"{path}: line {line_no} has {len(row)} fields, expected {width}")

    def numeric(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    na_markers = ("", "NA", "NaN", "nan")
    start_col = 0
    first_cells = [row[0].strip() for row in body]
    if (
        width > 1
        and all(numeric(c) is None for c in first_cells)
        and not any(c in na_markers for c in first_cells)
    ):
        notices.append(f"dropped non-numeric leading column {header[0]!r}")
        start_col = 1

    bad = []
    values = np.empty((len(body), width - start_col))
    for i, row in enumerate(body):
        for j in range(start_col, width):
            cell = row[j].strip()
            v = numeric(cell) if cell not in na_markers else None
            if v is None or not np.isfinite(v):
                bad.append(f"row {i + 2}, column {header[j]!r}: {row[j]!r}")
            else:
                values[i, j - start_col] = v
    if bad:
        listed = "; ".join(bad[:20])
        raise DomainError(f"{path}: missing or non-numeric cells: {listed}")
    constant = [repr(name) for name, col in zip(header[start_col:], values.T) if np.ptp(col) == 0]
    if len(values) > 1 and constant:
        raise DomainError(f"{path}: constant columns: {', '.join(constant)}")
    return Dataset(names=tuple(header[start_col:]), values=values)


def _parse_outcome(parser, path):
    notices = []
    try:
        ds = parser(path, notices)
    except DomainError as exc:
        return "error", str(exc)
    return ds.names, ds.values.shape, ds.values.tobytes(), notices


_finite = st.floats(allow_nan=False, allow_infinity=False)
_pad = st.sampled_from(["", " ", "\t", "\x1c"])
_good_cells = st.one_of(
    st.builds("{}{}{}".format, _pad, st.one_of(
        _finite.map(repr),
        _finite.map("{:e}".format),
        _finite.map("{:_f}".format),
        st.integers(-10**9, 10**9).map("{:_}".format),
    ), _pad),
    st.sampled_from(["1", "2", "0.5"]),  # few distinct values, so constant columns occur
)
_bad_cells = st.sampled_from(["", "NA", "NaN", "nan", "inf", "-inf", "1e400", "abc", "0x10", " NA "])
_labels = st.sampled_from(["2020-01-01", "2020-01-02", "Q1", "jan", "", "NA", "1"])


@st.composite
def _csv_files(draw):
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = draw(st.sampled_from([_good_cells, st.one_of(_good_cells, _bad_cells)]))
    rows = [draw(st.lists(cells, min_size=width, max_size=width)) for _ in range(n)]
    header = [draw(st.sampled_from(["x", " y ", "z", "x"])) for _ in range(width)]
    if draw(st.booleans()):
        header.insert(0, "date")
        rows = [[draw(_labels)] + row for row in rows]
    buf = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    csv.writer(buf, quoting=quoting, lineterminator="\n").writerows([header] + rows)
    return buf.getvalue()


class TestIngestCsvOracle:
    @settings(max_examples=300, deadline=None)
    @given(text=_csv_files())
    def test_matches_the_cell_by_cell_parser(self, text):
        """Equal names, notices and bits, or the same DomainError, as the per-cell loop."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert _parse_outcome(ingest_csv, path) == _parse_outcome(_reference_ingest, path)


class TestByteOrderMark:
    """The coefficient JSON and table readers ignore a leading U+FEFF, as a spreadsheet or Notepad
    may write it; the CSV reader's case is ``TestIngestCsv::test_byte_order_mark_is_ignored``."""

    @staticmethod
    def _read_both_ways(path, text, read):
        """``read(path)`` with ``text`` written to ``path`` without, then with, a leading BOM."""
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            path.write_text(text, encoding=encoding)
            results.append(read(str(path)))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        return results

    @pytest.mark.parametrize("argv", [
        ["roots", "--rho", "0.9"],
        ["irf", "--q", "1", "--horizon", "5"],
        ["simulate", "--n", "4", "--seed", "9", "--format", "csv"],
    ])
    def test_coefficient_json(self, tmp_path, capsys, argv):
        def run(path):
            assert main(argv[:1] + ["--coeffs", path] + argv[1:]) == 0
            return capsys.readouterr().out

        text = json.dumps({"phi": [[[0.5, 0.0], [0.0, 0.95]]]})
        plain, marked = self._read_both_ways(tmp_path / "c.json", text, run)
        assert plain == marked

    @pytest.mark.parametrize("comment", [True, False])
    def test_table(self, tmp_path, comment):
        # without its comment line the file's first line is version=1, which the mark would hide
        table = QuantileTable(q=1, det="trend", steps=100, reps=200, seed=3, levels=(0.9, 0.95),
                              entries=(TableEntry(c=np.array([[-5.0]]), quantiles=(2.5, 3.75),
                                                  se=(0.01, 0.02), redrawn=0),))
        saved = str(tmp_path / "saved.tbl")
        save_table(table, saved)
        text = open(saved).read()

        def resave(path):
            save_table(load_table(path), saved)
            return open(saved).read()

        body = text if comment else text.split("\n", 1)[1]
        assert self._read_both_ways(tmp_path / "cv.tbl", body, resave) == [text, text]


_HEADER = ("# qcvar VERSION | command=demo | config-hash=dbda98f7400a\n"
           "# config: command=demo rho=0.9 source=y.csv\n")
_RENDERED = {
    # text pads every table cell, the last column's too, to its column's width
    "text": _HEADER + (
        "\n== notice\nmessage: dropped non-numeric leading column 'date'\n"
        "\n== estimates\n"
        "row  value     label      \n"
        "0    0.123457  near-unit  \n"
        "1    -2        stable, far\n"
        "\n== empty\nlo  hi\n"
        "\n== summary\nloglik: -91.5592\nn_eff: 119\nfamily: scalar\nhalf_life: inf\n"
    ),
    "csv": _HEADER + """[notice]
message,dropped non-numeric leading column 'date'
[estimates]
row,value,label
0,0.123456789,near-unit
1,-2,"stable, far"
[empty]
lo,hi
[summary]
loglik,-91.55923456789
n_eff,119
family,scalar
half_life,inf
""",
    "json": """{
 "command": "demo",
 "config": {
  "command": "demo",
  "rho": 0.9,
  "source": "y.csv"
 },
 "config_hash": "dbda98f7400a",
 "sections": [
  {
   "title": "notice",
   "values": {
    "message": "dropped non-numeric leading column 'date'"
   }
  },
  {
   "columns": [
    "row",
    "value",
    "label"
   ],
   "rows": [
    [
     0,
     0.123456789,
     "near-unit"
    ],
    [
     1,
     -2.0,
     "stable, far"
    ]
   ],
   "title": "estimates"
  },
  {
   "columns": [
    "lo",
    "hi"
   ],
   "rows": [],
   "title": "empty"
  },
  {
   "title": "summary",
   "values": {
    "family": "scalar",
    "half_life": "inf",
    "loglik": -91.55923456789,
    "n_eff": 119
   }
  }
 ],
 "version": "VERSION"
}
""",
}


class TestEmitter:
    """Each format renders a notice, a table, an empty table and scalars to fixed bytes."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_renders_the_recorded_bytes(self, tmp_path, capsys, fmt):
        want = _RENDERED[fmt].replace("VERSION", __version__)
        for output in (None, str(tmp_path / f"out.{fmt}")):
            args = argparse.Namespace(command="demo", format=fmt, output=output)
            config = {"command": "demo", "rho": 0.9, "seed": None, "source": "y.csv"}
            em = _Emitter(args, config, ["dropped non-numeric leading column 'date'"])
            em.add_table("estimates", ["row", "value", "label"],
                         [[0, 0.123456789, "near-unit"], [1, -2.0, "stable, far"]])
            em.add_table("empty", ["lo", "hi"], [])
            em.add_scalars("summary", {"loglik": -91.55923456789, "n_eff": 119,
                                       "family": "scalar", "half_life": float("inf")})
            em.emit()
            assert (capsys.readouterr().out if output is None else open(output).read()) == want


class TestCommands:
    def test_roots_inline_coefficients(self, tmp_path, capsys):
        coeffs_path = tmp_path / "c.json"
        json.dump({"phi": [[[0.5, 0.0], [0.0, 0.95]]]}, open(coeffs_path, "w"))
        rc = main(["roots", "--coeffs", str(coeffs_path), "--rho", "0.9"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "near-unit" in out and "stable" in out
        assert "q: 1" in out

    def test_roots_from_data(self, sample_csv, capsys):
        rc = main(["roots", "--data", sample_csv, "--k", "1", "--rho", "0.9"])
        assert rc == 0
        assert "characteristic roots" in capsys.readouterr().out

    def test_irf_csv_output(self, tmp_path):
        coeffs_path = tmp_path / "c.json"
        json.dump({"phi": [[[0.5, 0.5], [0.0, 1.0]]]}, open(coeffs_path, "w"))
        out_path = tmp_path / "irf.csv"
        rc = main([
            "irf", "--coeffs", str(coeffs_path), "--q", "1", "--horizon", "5",
            "--format", "csv", "--output", str(out_path),
        ])
        assert rc == 0
        text = open(out_path).read()
        assert "value[0,0]" in text and text.startswith("# qcvar")

    def test_simulate_deterministic_and_zero_noise(self, tmp_path, capsys):
        coeffs_path = tmp_path / "c.json"
        json.dump(
            {"phi": [[[0.5, 0.0], [0.0, 0.9]]], "mu": [1.0, 2.0], "delta": [0.1, 0.0]},
            open(coeffs_path, "w"),
        )
        argv = ["simulate", "--coeffs", str(coeffs_path), "--n", "4", "--seed", "9",
                "--zero-noise", "--format", "csv"]
        rc = main(argv)
        first = capsys.readouterr().out
        assert rc == 0
        rows = [ln for ln in first.splitlines() if not ln.startswith(("#", "[", "y"))]
        assert rows[0].split(",")[0] == "1.1"  # mu + delta * 1
        main(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("payload, code", [
        ({"phi": [[[5.0]]]}, 3),  # explosive: the path overflows
        ({"phi": [[[0.5]]], "mu": [float("nan")]}, 2),
        ({"phi": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": [[1.0, 0.0], [0.0, float("inf")]]}, 2),
    ])
    def test_simulate_non_finite_path_exits_nonzero(self, tmp_path, capsys, payload, code):
        coeffs_path, out_path = tmp_path / "c.json", tmp_path / "path.csv"
        json.dump(payload, open(coeffs_path, "w"))
        rc = main(["simulate", "--coeffs", str(coeffs_path), "--n", "1000",
                   "--format", "csv", "--output", str(out_path)])
        assert rc == code
        assert "finite" in capsys.readouterr().err
        assert not out_path.exists()

    def test_fit_json_byte_identical(self, tmp_path, sample_csv):
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        argv = ["fit", "--data", sample_csv, "--k", "1", "--q", "1", "--rho", "0.9",
                "--grid-step", "0.02", "--format", "json"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert open(out1).read() == open(out2).read()
        payload = json.loads(open(out1).read())
        assert payload["command"] == "fit"
        assert payload["config_hash"]

    def test_lr_command(self, tmp_path):
        base = NearUnitBase(
            a=np.array([[1.0]]), k=1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )
        ls = local_sequence(np.array([[-5.0]]), 200, base)
        y, _ = simulate(DgpSpec.simple(ls.realized, 200), 3)
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2"], y)
        out_path = tmp_path / "lr.json"
        rc = main([
            "lr", "--data", str(data_path), "--k", "1", "--q", "1",
            "--lambda0", "0.975", "--coef", "0,0", "--a0", "1.0",
            "--format", "json", "--output", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(open(out_path).read())
        titles = [s["title"] for s in payload["sections"]]
        assert "dynamics-block LR" in titles and "coefficient LR" in titles

    def test_critvals_and_ci_pipeline(self, tmp_path, capsys):
        table_path = tmp_path / "cv.tbl"
        rc = main([
            "critvals", "--q", "1", "--det", "trend",
            "--c-grid=" + ",".join(str(v) for v in np.arange(-30.0, 0.5, 5.0)),
            "--steps", "200", "--reps", "2000", "--seed", "5",
            "--levels", "0.9,0.95,0.975,0.99", "--table", str(table_path),
        ])
        capsys.readouterr()
        assert rc == 0 and os.path.exists(table_path)

        base = NearUnitBase(
            a=np.array([[1.0]]), k=1,
            stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
        )
        ls = local_sequence(np.array([[-5.0]]), 250, base)
        y, _ = simulate(DgpSpec.simple(ls.realized, 250), 4)
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2"], y)
        rc = main([
            "ci", "--data", str(data_path), "--k", "1", "--q", "1", "--rho", "0.9",
            "--alpha1", "0.025", "--alpha2", "0.025", "--coef", "0,0",
            "--table", str(table_path), "--grid-step", "0.02",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall_level: 0.95" in out
        assert "bonferroni confidence set" in out

    def test_critvals_repeated_node_simulated_once(self, tmp_path, monkeypatch, capsys):
        # count at the per-node statistic step, and the generators of the shared draws
        runs = []
        generators = []
        statistics, default_rng = limitdist._statistics, np.random.default_rng

        def counted(config, *arrays):
            runs.append(float(config.c_star[0, 0]))
            return statistics(config, *arrays)

        def counted_rng(*args, **kwargs):
            generators.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(limitdist, "_statistics", counted)
        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        table_path = tmp_path / "cv.tbl"
        rc = main([
            "critvals", "--q", "1", "--det", "trend", "--c-grid=-5,0,0",
            "--steps", "100", "--reps", "1000", "--table", str(table_path),
        ])
        capsys.readouterr()
        assert rc == 0
        assert runs == [-5.0, 0.0]
        assert len(generators) == 1000  # one chunk drawn once for both nodes
        assert [float(e.c[0, 0]) for e in load_table(str(table_path)).entries] == [-5.0, 0.0]

    def test_ci_malformed_table_exit_code(self, tmp_path, sample_csv, capsys):
        table_path = tmp_path / "bad.tbl"
        table_path.write_text(
            "# qcvar critical-value table\nversion=1\ndet=trend\nsteps=100\nreps=1000\n"
            "seed=0\nlevels=0.975,0.9,0.95,0.99\n---\nc,redrawn\n"
        )
        rc = main([
            "ci", "--data", sample_csv, "--k", "1", "--q", "1",
            "--alpha1", "0.025", "--alpha2", "0.025", "--coef", "0,0",
            "--table", str(table_path),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{table_path}:8" in err and "'q='" in err

    def test_ci_missing_table_exit_code(self, tmp_path, sample_csv, capsys):
        rc = main([
            "ci", "--data", sample_csv, "--k", "1", "--q", "1",
            "--alpha1", "0.025", "--alpha2", "0.025", "--coef", "0,0",
            "--table", str(tmp_path / "missing.tbl"),
        ])
        capsys.readouterr()
        assert rc == 4

    def test_bad_csv_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x,y\n1.0,NA\n")
        rc = main(["roots", "--data", str(path), "--k", "1"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("command", ["fit --data", "roots --coeffs", "ci --table"])
    def test_file_that_is_not_utf8_is_an_input_error(self, tmp_path, sample_csv, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"x,y\n1.0,2.0\n\xff,3.0\n")
        argv = {
            "fit --data": ["fit", "--data", str(bad), "--k", "1", "--q", "1"],
            "roots --coeffs": ["roots", "--coeffs", str(bad)],
            "ci --table": ["ci", "--data", sample_csv, "--k", "1", "--q", "1", "--coef", "0,0",
                           "--table", str(bad)],
        }[command]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error (input)") and f"{bad} is not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["roots", "irf"])
    def test_nan_lag_matrix_is_an_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"phi": [[[0.5, float("nan")], [0.0, 0.3]]]}))
        rc = main([command, "--coeffs", str(path)] + (["--q", "1"] if command == "irf" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error (input)") and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--q", "1"],
        ["lr", "--q", "1", "--lambda0", "0.98"],
        ["roots"],
        ["ci", "--q", "1", "--coef", "0,0", "--build-table", "--reps", "200"],
    ], ids=["fit", "lr", "roots --data", "ci --build-table"])
    def test_too_few_usable_observations_is_a_numerical_error(self, tmp_path, capsys, argv):
        # 5 rows at p = 3, k = 2 and a trend leave 3 observations for 8 regressors; ci finds that
        # out before it simulates a table
        data, table = tmp_path / "short.csv", tmp_path / "never.tbl"
        write_csv(data, ["a", "b", "c"], np.random.default_rng(0).normal(size=(5, 3)))
        extra = ["--table", str(table)] if argv[0] == "ci" else []
        rc = main(argv + extra + ["--data", str(data), "--k", "2"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "only 3 usable observations for 8 regressors" in err
        assert not table.exists()

    @pytest.mark.parametrize("q, lambda0, code", [
        ("1", "inf", 2), ("1", "nan", 2), ("2", "nan", 2), ("2", "0.99,0.01,0.01,inf", 2),
        ("1", "1e300", 3), ("2", "1e300", 3),
    ])
    def test_non_finite_block_or_moments_exit_with_their_codes(self, tmp_path, capsys, q, lambda0,
                                                               code):
        """A non-finite dynamics block is an input error; one whose moments overflow, numerical."""
        data = tmp_path / "p3.csv"
        walks = np.cumsum(np.random.default_rng(2).normal(size=(100, 3)), axis=0)
        write_csv(data, ["a", "b", "c"], walks)
        rc = main(["lr", "--data", str(data), "--k", "1", "--q", q, f"--lambda0={lambda0}",
                   "--coef", "0,0", "--a0", "0.5"])
        err = capsys.readouterr().err
        assert rc == code
        assert {2: "error (input): the dynamics block must be a finite square matrix",
                3: "error (numerical): the partialled moments at lambda0 = 1e+300 are not finite",
                }[code] in err

    @pytest.mark.parametrize("q", ["1", "2"])
    def test_overflowing_moments_print_only_the_error(self, tmp_path, q):
        """numpy's overflow warnings stay inside the moment build, whose error says it all."""
        data = tmp_path / "p3.csv"
        walks = np.cumsum(np.random.default_rng(2).normal(size=(100, 3)), axis=0)
        write_csv(data, ["a", "b", "c"], walks)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qcvar.cli", "lr", "--data", str(data), "--k",
                               "1", "--q", q, "--lambda0=1e300"], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 3
        assert proc.stderr == ("error (numerical): the partialled moments at lambda0 = 1e+300 are "
                               "not finite\n")

    def test_repeated_critvals_level_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        """Each level is one quantile column: a repeat is rejected before any replication."""
        def forbidden(configs):
            pytest.fail("a node was simulated")

        monkeypatch.setattr("qcvar.limitdist._simulate_nodes", forbidden)
        table = tmp_path / "cv.tbl"
        rc = main(["critvals", "--c-grid=-5", "--levels", "0.9,0.95,0.9", "--table", str(table)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error (input): each level must be listed once, got (0.9, 0.95, 0.9)" in err
        assert not table.exists()

    @pytest.mark.parametrize("grid", ["nan", "inf", "-5,nan"])
    def test_non_finite_critvals_node_is_an_input_error(self, tmp_path, capsys, monkeypatch, grid):
        """Rejected before any replication is drawn, at the default reps and steps."""
        def forbidden(configs):
            pytest.fail("a node was simulated")

        monkeypatch.setattr("qcvar.limitdist._simulate_nodes", forbidden)
        table = tmp_path / "cv.tbl"
        rc = main(["critvals", f"--c-grid={grid}", "--table", str(table)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "c_star must be a finite 1x1 matrix" in err and not table.exists()

    @pytest.mark.parametrize("argv, message", [
        (["ci", "--q", "1", "--coef", "5,0"], "--coef 5,0 needs 0 <= i < 1"),
        (["ci", "--q", "2", "--coef", "0,0"], "--coef 0,0 needs 0 <= i < 0"),
        (["lr", "--q", "1", "--lambda0", "0.98", "--coef=-1,0", "--a0", "0.3"], "0 <= i < 1"),
        (["lr", "--q", "1", "--lambda0", "abc"], "--lambda0 takes comma-separated numbers"),
        (["fit", "--q", "1", "--grid-step", "0"], "step must be positive"),
        (["fit", "--q", "1", "--grid-step", "-0.1"], "step must be positive"),
        (["ci", "--q", "1", "--coef", "0,0", "--grid-step", "0"], "step must be positive"),
        (["fit", "--q", "3"], "--q 3 must lie in"),
        (["ci", "--q", "3", "--coef", "0,0"], "--q 3 must lie in"),
        (["critvals", "--c-grid=abc"], "--c-grid takes comma-separated numbers"),
        (["critvals", "--c-grid=-5,0", "--levels", "0.9,x"], "--levels takes comma-separated"),
        (["critvals", "--q", "0", "--c-grid=0"], "positive q"),
        (["lr", "--q", "1", "--lambda0", "0.98", "--coef", "0,0"], "--coef requires --a0"),
        (["lr", "--q", "1", "--lambda0", "0.98", "--a0", "0.3"], "--a0 requires --coef"),
        (["fit", "--q", "1", "--family", "symmetric"], "--family symmetric has a grid only at --q 2"),
    ])
    def test_bad_argument_is_an_input_error(self, tmp_path, capsys, monkeypatch, argv, message):
        """Each exits 2 before any fit, table build or simulation, naming what is wrong."""
        for name in ("lr_lambda", "ols_fit", "profile_lambda", "bonferroni_ci", "build_table"):
            def forbidden(*args, _name=name, **kwargs):
                pytest.fail(f"{_name} ran before the input was rejected")

            monkeypatch.setattr(f"qcvar.cli.{name}", forbidden)
        data = tmp_path / "p2.csv"
        write_csv(data, ["x", "y"], np.cumsum(np.random.default_rng(1).normal(size=(100, 2)), axis=0))
        table = ["--table", str(tmp_path / "cv.tbl")] if argv[0] in ("ci", "critvals") else []
        source = [] if argv[0] == "critvals" else ["--data", str(data), "--k", "1"]
        rc = main(argv + table + source)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert message in err and err.startswith("error (input)")
        assert not (tmp_path / "cv.tbl").exists()

    @pytest.mark.parametrize("first, second, first_rc", [
        (["ci", "--q", "1", "--coef", "0,0", "--grid-step", "0.05", "--build-table",
          "--reps", "1000", "--steps", "100", "--seed", "3"],
         ["ci", "--q", "1", "--coef", "0,0", "--grid-step", "0.05"], 0),
        (["fit", "--q", "1", "--rho", "0.8"], ["fit", "--q", "1", "--half-life", "12"], 0),
        (["fit", "--q", "1", "--half-life", "12"], ["fit", "--q", "1", "--rho", "0.8"], 0),
        (["lr", "--q", "1", "--lambda0", "0.5", "--coef", "x"],
         ["lr", "--q", "1", "--lambda0", "0.98"], "exit 2"),
    ], ids=["ci --build-table, ci", "fit --rho, fit --half-life", "fit --half-life, fit --rho",
            "rejected argv, lr"])
    def test_parser_built_once_keeps_no_state(self, tmp_path, capsys, first, second, first_rc):
        """Each command reads the same through the cached parser as through a new one."""
        data, table = tmp_path / "p2.csv", tmp_path / "cv.tbl"
        write_csv(data, ["x", "y"], np.cumsum(np.random.default_rng(1).normal(size=(100, 2)), axis=0))
        extra = ["--data", str(data), "--k", "1"] + (["--table", str(table)] if first[0] == "ci" else [])

        def run(argv):
            try:
                rc = main(argv + extra)
            except SystemExit as exc:
                rc = f"exit {exc.code}"
            out = capsys.readouterr()
            return rc, out.out, out.err

        build_parser.cache_clear()
        reused = [run(first), run(second)]
        assert build_parser.cache_info().hits >= 1
        fresh = []
        for argv in (first, second):
            if "--build-table" in argv:
                table.unlink()
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [first_rc, 0]

    def test_separation_error_exit_code(self, tmp_path, capsys):
        # conjugate roots far from both regions: classification fails
        th = 0.5
        m = (0.95 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
        coeffs_path = tmp_path / "c.json"
        json.dump({"phi": [m.tolist()]}, open(coeffs_path, "w"))
        rc = main(["roots", "--coeffs", str(coeffs_path), "--rho", "0.9"])
        capsys.readouterr()
        assert rc == 3

    def test_every_grid_point_failed_names_the_cause(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "walks.csv"
        write_csv(path, ["x", "y"], np.cumsum(np.random.default_rng(0).normal(size=(200, 2)), 0))
        fail_block_lr_above(monkeypatch, -np.inf)
        rc = main(["fit", "--data", str(path), "--k", "1", "--q", "1", "--grid-step", "0.05"])
        err = capsys.readouterr().err
        assert rc == 3
        assert ("every grid point failed (3 points); the first failed with NumericalError: "
                "injected failure at lambda = 0.9") in err

    def test_failed_refine_point_keeps_the_grid_best(self, tmp_path, monkeypatch):
        # the profile peaks near 0.97; the top node and a point the refine visits fail, and the
        # grid's best node stands
        path, out = tmp_path / "walks.csv", tmp_path / "fit.json"
        write_csv(path, ["x", "y"], np.cumsum(np.random.default_rng(0).normal(size=(200, 2)), 0))
        fail_block_lr_above(monkeypatch, 0.95)
        rc = main(["fit", "--data", str(path), "--k", "1", "--q", "1", "--grid-step", "0.05",
                   "--format", "json", "--output", str(out)])
        assert rc == 0
        sections = {s["title"]: s for s in json.loads(out.read_text())["sections"]}
        assert sections["profile estimate: near-unit dynamics"]["rows"] == [[0, 0.95]]

    def test_constant_column_is_an_input_error(self, tmp_path, capsys):
        # a constant series duplicates the intercept: fitted, it gave a = (-8.2e16, -1.2e17) and a
        # profile loglik above the unrestricted maximum
        rng = np.random.default_rng(0)
        walks = np.cumsum(rng.normal(size=(200, 2)), axis=0)
        path = tmp_path / "constant.csv"
        write_csv(path, ["x", "y", "c"], np.column_stack([walks, np.full(200, 3.0)]))
        rc = main(["fit", "--data", str(path), "--k", "1", "--q", "1", "--grid-step", "0.02"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error (input)") and "constant columns: 'c'" in err

    def test_half_life_and_rho_mutually_exclusive(self, sample_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--data", sample_csv, "--k", "1",
                  "--rho", "0.9", "--half-life", "8"])
        capsys.readouterr()
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def q1_inputs(tmp_path_factory):
    """A p=2 dataset and a small q=1 table whose levels include 1 - 0.6."""
    tmp = tmp_path_factory.mktemp("q1")
    base = NearUnitBase(
        a=np.array([[1.0]]), k=1,
        stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
    )
    ls = local_sequence(np.array([[-5.0]]), 250, base)
    y, _ = simulate(DgpSpec.simple(ls.realized, 250), 4)
    data_path = tmp / "y.csv"
    write_csv(data_path, ["s1", "s2"], y)
    template = LimitDistConfig(q=1, c_star=np.zeros((1, 1)), det="trend", steps=100,
                               reps=1000, seed=5, levels=(0.4, 0.9, 0.95, 0.975, 0.99))
    table_path = str(tmp / "cv.tbl")
    build_table([np.array([[c]]) for c in np.arange(-30.0, 0.5, 5.0)], template, table_path)
    return str(data_path), y, table_path


def _ci_argv(data_path, table_path, alpha1="0.025", alpha2="0.025"):
    return ["ci", "--data", data_path, "--k", "1", "--q", "1", "--rho", "0.9",
            "--alpha1", alpha1, "--alpha2", alpha2, "--coef", "0,0",
            "--table", table_path, "--grid-step", "0.02"]


class TestSharedInference:
    def test_ci_renders_bonferroni_ci(self, q1_inputs, tmp_path):
        data_path, y, table_path = q1_inputs
        out_path = tmp_path / "ci.json"
        rc = main(_ci_argv(data_path, table_path) + ["--format", "json", "--output", str(out_path)])
        assert rc == 0
        sections = {s["title"]: s for s in json.loads(open(out_path).read())["sections"]}
        grid = LambdaGrid(family="scalar", q=1, rho=0.9, eig_step=0.02)
        want = bonferroni_ci(0.025, 0.025, 0, 0, y, 1, "trend", grid, load_table(table_path))
        assert want.intervals
        assert sections["bonferroni confidence set"]["rows"] == [
            [_round15(lo), _round15(hi)] for lo, hi in want.intervals
        ]
        assert sections["conditional intervals"]["rows"] == [
            [_round15(lam[0, 0]), _round15(lo), _round15(hi)] for lam, lo, hi in want.conditional
        ]

    def test_ci_alpha_budget_exit_code(self, q1_inputs, tmp_path, capsys):
        data_path, _, table_path = q1_inputs
        rc = main(_ci_argv(data_path, table_path, alpha1="0.6", alpha2="0.5"))
        captured = capsys.readouterr()
        assert rc == 2
        assert "overall_level" not in captured.out
        assert "alpha1 + alpha2" in captured.err
        # the budget is checked before a table is simulated
        new_table = tmp_path / "never.tbl"
        rc = main(_ci_argv(data_path, str(new_table), alpha1="0.6", alpha2="0.5")
                  + ["--build-table", "--reps", "1000", "--steps", "100"])
        assert rc == 2
        assert "alpha1 + alpha2" in capsys.readouterr().err
        assert not new_table.exists()

    @pytest.mark.parametrize("argv, needs", [
        (["ci", "--q", "1", "--det", "const", "--coef", "0,0", "--grid-step", "0.02"],
         "q = 1, det = const"),
        (["lr", "--q", "2", "--det", "none", "--lambda0", "0.98"], "q = 2, det = none"),
    ])
    def test_table_for_another_statistic_exits_4(self, q1_inputs, capsys, monkeypatch, argv,
                                                 needs):
        """Each exits 4 before any statistic is computed, naming the table's q and det."""
        def forbidden(*args, **kwargs):
            pytest.fail("a statistic was computed with a table for another one")

        for module in ("cli", "inference"):
            monkeypatch.setattr(f"qcvar.{module}.lr_lambda", forbidden)
        data_path, y, table_path = q1_inputs
        rc = main(argv + ["--data", data_path, "--k", "1", "--table", table_path])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err == ("error (table coverage): the table was simulated at q = 1, "
                                f"det = trend; this statistic needs {needs}\n")
        grid = LambdaGrid(q=2, rho=0.9, eig_step=0.02)
        with pytest.raises(TableCoverageError, match="this statistic needs q = 2, det = trend"):
            ci_lambda(0.025, y, 1, "trend", grid, load_table(table_path))

    def test_lr_coef_builds_the_moments_once(self, sample_csv, monkeypatch):
        # the block LR and the coefficient LR at one scalar block share the design's moments
        calls = []
        original = likelihood._partialled_moments

        def counted(lambda0, dz):
            calls.append(lambda0)
            return original(lambda0, dz)

        monkeypatch.setattr(likelihood, "_partialled_moments", counted)
        rc = main(["lr", "--data", sample_csv, "--k", "1", "--q", "1", "--lambda0", "0.975",
                   "--coef", "0,0", "--a0", "1.0"])
        assert rc == 0 and calls == [0.975]

    def test_lr_nonscalar_lambda0_uses_shared_localisation(self, tmp_path):
        n = 200
        y, _ = simulate(DgpSpec.simple(make_instance(3, p=3, k=1, q=2), n), 1)
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2", "s3"], y)
        lam0 = np.array([[0.99, 0.01], [0.01, 0.97]])
        design = make_design(y, 1, "trend")
        c_plugin = localisation(lam0, design)
        c_raw = n * (lam0 - np.eye(2))
        assert np.linalg.norm(c_plugin - c_raw) > 1.0
        # one node at each candidate argument, so the two lookups must differ
        template = LimitDistConfig(q=2, c_star=np.zeros((2, 2)), det="trend",
                                   steps=100, reps=1000, seed=2)
        table_path = str(tmp_path / "cv2.tbl")
        table = build_table([c_raw, c_plugin], template, table_path)
        out_path = tmp_path / "lr.json"
        rc = main([
            "lr", "--data", str(data_path), "--k", "1", "--q", "2",
            "--lambda0", "0.99,0.01,0.01,0.97", "--table", table_path,
            "--format", "json", "--output", str(out_path),
        ])
        assert rc == 0
        sections = {s["title"]: s for s in json.loads(open(out_path).read())["sections"]}
        values = sections["dynamics-block LR"]["values"]
        for level in table.levels:
            want = lookup(table, c_plugin, level)
            assert want != lookup(table, c_raw, level)
            assert values[f"critical[{level:g}]"] == _round15(want)

    def test_lr_q2_lambda0_far_from_every_node_exits_4(self, tmp_path, capsys):
        y, _ = simulate(DgpSpec.simple(make_instance(3, p=3, k=1, q=2), 200), 1)
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2", "s3"], y)
        # scalar nodes 5 sqrt(2) apart; C = 200 (lambda0 - I) is near [[-20, 10], [0, -40]]
        table_path = str(tmp_path / "cv2.tbl")
        save_table(QuantileTable(
            q=2, det="trend", steps=100, reps=1000, seed=0, levels=(0.9, 0.95),
            entries=tuple(TableEntry(c=c * np.eye(2), quantiles=(12.0, 14.0), se=(0.1, 0.2),
                                     redrawn=0) for c in (-10.0, -5.0, 0.0)),
        ), table_path)
        rc = main(["lr", "--data", str(data_path), "--k", "1", "--q", "2",
                   "--lambda0", "0.9,0.05,0,0.8", "--table", table_path])
        captured = capsys.readouterr()
        assert rc == 4
        assert "critical" not in captured.out
        assert captured.err.startswith("error (table coverage): query C=")
        assert "from the nearest node [-10.0, 0.0, 0.0, -10.0]" in captured.err

    def test_ci_build_table_q2(self, tmp_path, capsys):
        y, _ = simulate(DgpSpec.simple(make_instance(3, p=3, k=1, q=2), 100), 1)
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2", "s3"], y)
        table_path = tmp_path / "cv2.tbl"
        rc = main([
            "ci", "--data", str(data_path), "--k", "1", "--q", "2", "--rho", "0.9",
            "--coef", "0,0", "--table", str(table_path), "--build-table", "--alpha1", "0.05",
            "--reps", "1000", "--steps", "100", "--grid-step", "0.05",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        table = load_table(str(table_path))
        assert table.q == 2
        assert table.levels == (0.95, 0.9, 0.99)  # 1 - alpha1 is not tabulated twice
        assert all(np.array_equal(e.c, e.c[0, 0] * np.eye(2)) for e in table.entries)
        # each node once: no float-drift twin of the node at 0
        c_values = np.sort([e.c[0, 0] for e in table.entries])
        assert np.diff(c_values).min() > 1e-9
        assert "bonferroni confidence set" in out

    def test_lr_q2_extreme_coefficient_exits_cleanly(self, tmp_path, capsys):
        # two random walks and white noise, where a search once raised scipy's UnboundLocalError
        # and a fit difference once gave LR = -1.086; the moment LR is the constrained maximum
        rng = np.random.default_rng(0)
        noise = [rng.normal(size=200) for _ in range(3)]
        y = np.column_stack([np.cumsum(noise[0]), np.cumsum(noise[1]), noise[2]])
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["s1", "s2", "s3"], y)
        rc = main(["lr", "--data", str(data_path), "--k", "1", "--q", "2", "--lambda0", "0.95",
                   "--coef", "0,1", "--a0=-5.6e15", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        got = json.loads(out)["sections"][1]["values"]["lr_coefficient"]
        want = _rayleigh_curve(0.95, 1, make_design(y, 1, "trend"))(-5.6e15)
        assert got == pytest.approx(want, rel=1e-8)

    def test_fit_identical_walks_exits_with_a_stated_cause(self, tmp_path, capsys):
        # identical series leave the OLS residual covariance singular at every grid point
        walk = np.cumsum(np.random.default_rng(0).normal(size=200))
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["a", "b"], np.column_stack([walk, walk]))
        with pytest.warns(UserWarning, match="ill conditioned"):
            rc = main(["fit", "--data", str(data_path), "--k", "1", "--q", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error (numerical): every grid point failed (21 points)")


class TestWarningText:
    """A warning raised while a command runs reaches stderr as ``warning: <message>``, without the
    source path and line of Python's default format."""

    def _identical_walks(self, tmp_path):
        # identical series leave the regressor moment matrix ill conditioned
        walk = np.cumsum(np.random.default_rng(0).normal(size=200))
        data_path = tmp_path / "y.csv"
        write_csv(data_path, ["a", "b"], np.column_stack([walk, walk]))
        return ["fit", "--data", str(data_path), "--k", "1", "--q", "1"]

    def test_warning_shows_its_message_alone(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qcvar.cli"] + self._identical_walks(tmp_path),
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("warning: regressor moment matrix is ill conditioned")
        assert ".py:" not in proc.stderr
        assert all(line.startswith(("warning: ", "error ")) for line in lines), proc.stderr

    def test_callers_own_handling_is_kept(self, tmp_path, capsys):
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="ill conditioned"):
            assert main(self._identical_walks(tmp_path)) == 3
        assert warnings.formatwarning is before
        assert "warning" not in capsys.readouterr().err


class TestStartUpImports:
    """A command imports scipy.optimize and scipy.special only when it solves with them: together
    they are about a third of a shell command's start-up."""

    LAZY = ("scipy.optimize", "scipy.special")

    def _loaded(self, argv=None):
        """Which of LAZY a fresh interpreter holds after importing qcvar and qcvar.cli, and after
        ``main(argv)`` when argv is given."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import json, sys, qcvar, qcvar.cli\n"
        if argv is not None:
            code += f"assert qcvar.cli.main({argv!r}) == 0\n"
        code += f"print(json.dumps([m for m in {self.LAZY!r} if m in sys.modules]))\n"
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        return set(json.loads(out.stdout.strip().splitlines()[-1]))

    def test_import_loads_neither(self):
        assert self._loaded() == set()

    def test_roots_loads_neither(self, sample_csv):
        assert self._loaded(["roots", "--data", sample_csv, "--k", "1"]) == set()

    def test_scalar_block_lr_loads_no_optimizer(self, sample_csv):
        argv = ["lr", "--data", sample_csv, "--k", "1", "--q", "1", "--lambda0", "0.975",
                "--coef", "0,0", "--a0", "1.0"]
        assert "scipy.optimize" not in self._loaded(argv)

    def test_q1_ci_loads_only_the_chi_square_quantile(self, q1_inputs, tmp_path):
        data_path, _, table_path = q1_inputs
        argv = _ci_argv(data_path, table_path) + ["--output", str(tmp_path / "ci.txt")]
        assert self._loaded(argv) == {"scipy.special"}

    def test_symmetric_fit_loads_neither(self, sample_csv):
        # the non-scalar search is a Newton loop of its own, and no scalar node is polished
        argv = ["fit", "--data", sample_csv, "--k", "1", "--q", "2", "--family", "symmetric",
                "--grid-step", "0.1"]
        assert self._loaded(argv) == set()

    def test_non_scalar_lr_loads_only_the_chi_square_quantile(self, sample_csv):
        argv = ["lr", "--data", sample_csv, "--k", "1", "--q", "2", "--lambda0",
                "0.98,0.01,0.01,0.95", "--coef", "0,1", "--a0", "0.3"]
        assert self._loaded(argv) == {"scipy.special"}

    def test_q1_fit_loads_neither(self, sample_csv):
        # at q = 1 the lambda polish takes a real root of the OLS VAR, with no search
        argv = ["fit", "--data", sample_csv, "--k", "1", "--q", "1", "--rho", "0.9",
                "--grid-step", "0.02"]
        assert self._loaded(argv) == set()

    def test_fit_polish_loads_both(self, sample_csv):
        # at q = 2 on the scalar family the lambda polish calls minimize_scalar: the guard above
        # is live
        argv = ["fit", "--data", sample_csv, "--k", "1", "--q", "2", "--rho", "0.9",
                "--grid-step", "0.02"]
        assert self._loaded(argv) == set(self.LAZY)
