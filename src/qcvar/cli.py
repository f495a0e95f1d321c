"""Command-line interface: data ingestion and user-facing commands.

Subcommands: ``roots``, ``fit``, ``irf``, ``lr``, ``ci``, ``critvals``,
``simulate``.  Every run echoes its resolved configuration (including a
hash and any seed) into the output header, so artifacts can be rerun
bit-identically.  Exit codes: 0 success, 2 input error (``fit --family
symmetric`` without ``--q 2`` included), 3 numerical or root-separation
error, 4 critical-value table coverage error (a table simulated at another
q or det than the command's included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dgp import DgpSpec, simulate
from .exceptions import (
    ClassificationError,
    ConstructionError,
    DomainError,
    NumericalError,
    QcvarError,
    SingularDesignError,
    TableCoverageError,
)
from .inference import (
    bonferroni_ci, bonferroni_level, chi2_quantile, localisation, lr_coefficient, lr_lambda,
)
from .likelihood import DET_CASES, LambdaGrid, make_design, ols_fit, profile_lambda
from .limitdist import LimitDistConfig, _check_table, _read_text, build_table, load_table, lookup
from .representation import irf
from .spectral import (
    RegionSpec,
    VarCoefficients,
    classify,
    half_life_to_radius,
    radius_to_half_life,
    roots,
    split,
)

__all__ = ["Dataset", "ingest_csv", "main"]


@dataclass(frozen=True)
class Dataset:
    """A parsed data matrix (n observations of p series) and its column labels."""

    names: tuple
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def _numeric(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def ingest_csv(path: str, notices: Optional[list] = None) -> Dataset:
    """Read a comma-delimited file with a header row into a Dataset.

    A leading byte-order mark is ignored.  A leading non-numeric column
    (dates or row labels) is detected and dropped with a notice.  Cells are
    read with Python's ``float``; missing, non-numeric or non-finite cells,
    and constant columns, are a hard error naming every offending row and
    column; ragged rows report the line number, and a file that is not UTF-8
    text its name.  Column order is preserved: the trailing q series are the
    ones assumed to load on the near-unit directions.
    """
    notices = notices if notices is not None else []
    rows = list(csv.reader(io.StringIO(_read_text(path))))
    if not rows:
        raise DomainError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    width = len(header)
    body = rows[1:]
    if not body:
        raise DomainError(f"{path}: no data rows")
    for line_no, row in enumerate(body, start=2):
        if len(row) != width:
            raise DomainError(
                f"{path}: line {line_no} has {len(row)} fields, expected {width}"
            )

    na_markers = ("", "NA", "NaN", "nan")
    start_col = 0
    first_cells = [row[0].strip() for row in body]
    # a date/index column is non-numeric in every row; sporadic or NA-like
    # cells are data errors, not an index column
    if (
        width > 1
        and all(_numeric(c) is None for c in first_cells)
        and not any(c in na_markers for c in first_cells)
    ):
        notices.append(f"dropped non-numeric leading column {header[0]!r}")
        start_col = 1

    # str.strip also removes the separators \x1c-\x1f, which float() rejects;
    # the cell loop below runs only to name the offending cells
    cells = itertools.chain.from_iterable(row[start_col:] for row in body)
    try:
        values = np.array(list(map(float, map(str.strip, cells)))).reshape(len(body), -1)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        bad = []
        for i, row in enumerate(body, start=2):
            for j in range(start_col, width):
                v = _numeric(row[j].strip())
                if v is None or not np.isfinite(v):
                    bad.append(f"row {i}, column {header[j]!r}: {row[j]!r}")
        raise DomainError(f"{path}: missing or non-numeric cells: {'; '.join(bad[:20])}")
    constant = [repr(name) for name, col in zip(header[start_col:], values.T) if np.ptp(col) == 0]
    if len(values) > 1 and constant:
        raise DomainError(f"{path}: constant columns: {', '.join(constant)}")
    return Dataset(names=tuple(header[start_col:]), values=values)


def _load_coeffs_json(path: str) -> tuple[VarCoefficients, dict]:
    payload = json.loads(_read_text(path))
    phi = payload.get("phi")
    if phi is None:
        raise DomainError(f"{path}: missing 'phi' (list of k p-by-p lag matrices)")
    coeffs = VarCoefficients.from_matrices([np.asarray(m, dtype=float) for m in phi])
    return coeffs, payload


def _round15(obj):
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return str(obj)  # keep JSON standard-compliant for inf half-lives
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round15(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round15(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _config_hash(config: dict) -> str:
    canon = json.dumps(_round15(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


class _Emitter:
    """Formats a command's result as text, csv or json with a config header.

    Every section is ``(title, columns, rows)``; a section of scalars has ``columns = None`` and
    one ``[name, value]`` row per item.  Each ingest notice opens the output as its own section.
    """

    def __init__(self, args, config: dict, notices: Sequence[str] = ()):
        self.command, self.fmt, self.output = args.command, args.format, args.output
        self.config = {k: v for k, v in config.items() if v is not None}
        self.sections: list = []
        for note in notices:
            self.add_scalars("notice", {"message": note})

    def add_table(self, title: str, columns: Sequence[str], rows: Sequence[Sequence]):
        self.sections.append((title, list(columns), [list(r) for r in rows]))

    def add_scalars(self, title: str, items: dict):
        self.sections.append((title, None, [[k, v] for k, v in items.items()]))

    def render(self) -> str:
        config_hash = _config_hash(self.config)
        if self.fmt == "json":
            sections = [
                {"title": title, "values": _round15(dict(rows))} if cols is None
                else {"title": title, "columns": cols, "rows": _round15(rows)}
                for title, cols, rows in self.sections
            ]
            payload = {
                "version": __version__,
                "command": self.command,
                "config_hash": config_hash,
                "config": _round15(self.config),
                "sections": sections,
            }
            return json.dumps(payload, sort_keys=True, indent=1) + "\n"

        cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        buf = io.StringIO()
        buf.write(f"# qcvar {__version__} | command={self.command} | config-hash={config_hash}\n")
        buf.write(f"# config: {cfg}\n")
        if self.fmt == "csv":
            writer = csv.writer(buf, lineterminator="\n")
            for title, cols, rows in self.sections:
                writer.writerow([f"[{title}]"])
                if cols is not None:
                    writer.writerow(cols)
                writer.writerows([_fmt(v) if isinstance(v, float) else v for v in r] for r in rows)
            return buf.getvalue()

        for title, cols, rows in self.sections:
            buf.write(f"\n== {title}\n")
            cells = [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in r] for r in rows]
            if cols is None:
                buf.writelines(f"{name}: {value}\n" for name, value in cells)
                continue
            widths = [max([len(str(c))] + [len(r[i]) for r in cells]) for i, c in enumerate(cols)]
            for r in [[str(c) for c in cols]] + cells:
                buf.write("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n")
        return buf.getvalue()

    def emit(self) -> None:
        text = self.render()
        if self.output:
            with open(self.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _resolve_rho(args) -> float:
    if args.half_life is not None:
        return half_life_to_radius(args.half_life)
    return args.rho if args.rho is not None else 0.9


def _floats(text: str, option: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"{option} takes comma-separated numbers, got {text!r}") from exc


def _check_block(p: int, q: int, coef: Optional[tuple] = None) -> None:
    """Reject, before any fit, a q outside [1, p] or an index outside the (p-q) x q matrix a."""
    if not 1 <= q <= p:
        raise DomainError(f"--q {q} must lie in [1, p] = [1, {p}]")
    if coef is not None and not (0 <= coef[0] < p - q and 0 <= coef[1] < q):
        raise DomainError(f"--coef {coef[0]},{coef[1]} needs 0 <= i < {p - q} and 0 <= j < {q} "
                          f"(a is {p - q}x{q}, 0-based)")


def _coef_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected two comma-separated integers i,j") from exc
    return i, j


def _common_output_args(sub):
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--output", help="write to this file instead of standard output")


def _add_roots(em: _Emitter, title: str, coeffs: VarCoefficients, rho: float):
    """Add the table of characteristic roots and their regions; return the classification."""
    rs = roots(coeffs)
    cls = classify(rs, RegionSpec(rho))
    rows = [
        [idx, float(z.real), float(z.imag), float(abs(z)), float(abs(1 - z)), lab]
        for idx, (z, lab) in enumerate(zip(rs.roots, cls.labels), start=1)
    ]
    em.add_table(title, ["index", "re", "im", "modulus", "dist_to_unity", "region"], rows)
    return cls


def _matrix_rows(m: np.ndarray) -> list:
    """One row per matrix row, led by its 0-based index."""
    return [[i] + [float(v) for v in row] for i, row in enumerate(m)]


def cmd_roots(args) -> int:
    rho = _resolve_rho(args)
    notices: list = []
    if args.coeffs:
        coeffs, _ = _load_coeffs_json(args.coeffs)
        source = args.coeffs
    else:
        ds = ingest_csv(args.data, notices)
        coeffs = ols_fit(ds.values, args.k, args.det).coeffs
        source = args.data
    config = dict(command="roots", source=source, k=coeffs.k, p=coeffs.p, rho=rho, det=args.det)
    em = _Emitter(args, config, notices)
    cls = _add_roots(em, "characteristic roots", coeffs, rho)
    half_life = radius_to_half_life(rho)
    em.add_scalars("classification", {"q": cls.q, "rho": rho, "half_life": half_life})
    em.emit()
    return 0


def cmd_fit(args) -> int:
    rho = _resolve_rho(args)
    notices: list = []
    ds = ingest_csv(args.data, notices)
    _check_block(ds.p, args.q)
    if args.family == "symmetric" and args.q != 2:
        raise DomainError(f"--family symmetric has a grid only at --q 2, got --q {args.q}")
    grid = LambdaGrid(family=args.family, q=args.q, rho=rho, eig_step=args.grid_step)
    config = dict(
        command="fit", source=args.data, k=args.k, q=args.q, rho=rho, det=args.det,
        family=args.family, grid_step=grid.resolved_eig_step,
    )
    em = _Emitter(args, config, notices)

    design = make_design(ds.values, args.k, args.det)
    fit = ols_fit(ds.values, args.k, args.det, design=design)
    _add_roots(em, "unrestricted roots", fit.coeffs, rho)
    em.add_scalars("unrestricted fit", {"loglik": fit.loglik, "n_eff": fit.n_eff})

    prof = profile_lambda(grid, ds.values, args.k, args.det, design=design, refine=True)
    best = prof.best_fit
    block_columns = ["row"] + [f"col{j}" for j in range(args.q)]
    em.add_table("profile estimate: near-unit dynamics", block_columns, _matrix_rows(prof.best_lam))
    if best.a_hat is not None and best.a_hat.size:
        em.add_table("profile estimate: subspace coefficients a", block_columns,
                     _matrix_rows(best.a_hat))
        beta = np.hstack([np.eye(ds.p - args.q), -best.a_hat])
        em.add_table("quasi-cointegrating rows [I, -a]", ["relation"] + list(ds.names),
                     _matrix_rows(beta))
    lam_eigs = np.linalg.eigvals(prof.best_lam)
    top = float(np.abs(lam_eigs).max())
    em.add_scalars(
        "persistence",
        {
            "largest_eigenvalue_modulus": top,
            "implied_half_life": radius_to_half_life(min(top, 1.0)) if top > 0 else 0.0,
            "profile_loglik": best.loglik,
            "grid_points": len(prof.trace),
            "grid_failures": len(prof.failures),
        },
    )
    em.emit()
    return 0


def cmd_irf(args) -> int:
    coeffs, _ = _load_coeffs_json(args.coeffs)
    sp = split(coeffs, args.q)
    config = dict(command="irf", source=args.coeffs, q=args.q, horizon=args.horizon)
    em = _Emitter(args, config)
    cols = ["s"]
    p = coeffs.p
    for tag in ("value", "near", "stable"):
        cols += [f"{tag}[{i},{j}]" for i in range(p) for j in range(p)]
    rows = []
    for s in range(0, args.horizon + 1):
        resp = irf(sp, s)
        row = [s]
        for m in (resp.value, resp.near_part, resp.stable_part):
            row += [float(v) for v in m.ravel()]
        rows.append(row)
    em.add_table("impulse responses (row-major p*p blocks)", cols, rows)
    em.emit()
    return 0


def _parse_lambda0(text: str, q: int) -> np.ndarray:
    vals = _floats(text, "--lambda0")
    if len(vals) == 1:
        return vals[0] * np.eye(q)
    if len(vals) == q * q:
        return np.asarray(vals, dtype=float).reshape(q, q)
    raise DomainError(f"--lambda0 takes 1 or q*q={q * q} comma-separated values")


def cmd_lr(args) -> int:
    notices: list = []
    ds = ingest_csv(args.data, notices)
    _check_block(ds.p, args.q, args.coef)
    if (args.coef is None) != (args.a0 is None):
        raise DomainError("--coef requires --a0" if args.a0 is None else "--a0 requires --coef")
    lam0 = _parse_lambda0(args.lambda0, args.q)
    config = dict(
        command="lr", source=args.data, k=args.k, q=args.q, det=args.det,
        lambda0=args.lambda0, coef=None if args.coef is None else f"{args.coef[0]},{args.coef[1]}",
        a0=args.a0, table=args.table,
    )
    em = _Emitter(args, config, notices)
    if args.table:
        table = load_table(args.table)
        _check_table(table, args.q, args.det)
    design = make_design(ds.values, args.k, args.det)
    items = {"lr_lambda": lr_lambda(lam0, ds.values, args.k, args.det, design=design).value}
    if args.table:
        c_query = localisation(lam0, design)
        for level in table.levels:
            items[f"critical[{level:g}]"] = lookup(table, c_query, level)
    em.add_scalars("dynamics-block LR", items)
    if args.coef is not None:
        i, j = args.coef
        cstat = lr_coefficient(args.a0, i, j, lam0, ds.values, args.k, args.det, design=design)
        em.add_scalars(
            "coefficient LR",
            {"lr_coefficient": cstat.value}
            | {f"chi2_{level:.2f}": chi2_quantile(level) for level in (0.90, 0.95, 0.99)},
        )
    em.emit()
    return 0


def cmd_ci(args) -> int:
    rho = _resolve_rho(args)
    notices: list = []
    ds = ingest_csv(args.data, notices)
    i, j = args.coef
    config = dict(
        command="ci", source=args.data, k=args.k, q=args.q, rho=rho, det=args.det,
        alpha1=args.alpha1, alpha2=args.alpha2, coef=f"{i},{j}",
        grid_step=args.grid_step, table=args.table, seed=args.seed,
    )
    em = _Emitter(args, config, notices)

    # reject bad input and too few observations before any simulation or fit
    _check_block(ds.p, args.q, args.coef)
    lambda_space = LambdaGrid(family="scalar", q=args.q, rho=rho, eig_step=args.grid_step)
    bonferroni_level(args.alpha1, args.alpha2)
    design = make_design(ds.values, args.k, args.det)
    if os.path.exists(args.table):
        table = load_table(args.table)
    elif args.build_table:
        template = LimitDistConfig(
            q=args.q, c_star=np.zeros((args.q, args.q)), det=args.det,
            steps=args.steps, reps=args.reps, seed=args.seed,
            levels=tuple(dict.fromkeys((1.0 - args.alpha1, 0.90, 0.95, 0.99))),
        )
        c_lo = ds.n * (rho - 1.0)
        c_step = max(0.5, ds.n * args.grid_step / 2.0)
        # the arange may end at a float-drift neighbour of 0, which is the node at 0
        grid = [c for c in np.arange(c_lo, 1e-9, c_step) if abs(c) > 1e-9] + [0.0]
        table = build_table([c * np.eye(args.q) for c in grid], template, args.table)
        em.add_scalars("table", {"built": args.table, "nodes": len(table.entries)})
    else:
        raise TableCoverageError(
            f"critical-value table {args.table} not found; rerun with --build-table to create it"
        )

    result = bonferroni_ci(
        args.alpha1, args.alpha2, i, j, ds.values, args.k, args.det, lambda_space, table,
        design=design,
    )
    em.add_table(
        "dynamics-block confidence set (accepted nodes)",
        ["lambda", "lr", "critical"],
        [[float(lam[0, 0]), lr, crit] for lam, lr, crit in result.accepted],
    )
    if not result.accepted:
        em.add_scalars("warning", {"message": "empty block set; using grid argmax fallback"})
    em.add_table(
        "conditional intervals",
        ["lambda", "lo", "hi"],
        [[float(lam[0, 0]), lo, hi] for lam, lo, hi in result.conditional],
    )
    intervals = [[lo, hi] for lo, hi in result.intervals]
    em.add_table("bonferroni confidence set", ["lo", "hi"], intervals)
    em.add_scalars(
        "levels",
        {
            "alpha1": args.alpha1,
            "alpha2": args.alpha2,
            "overall_level": result.level,
        },
    )
    em.emit()
    return 0


def cmd_critvals(args) -> int:
    grid_vals = _floats(args.c_grid, "--c-grid")
    if args.q < 1 or len(grid_vals) % (args.q * args.q):
        raise DomainError(f"--c-grid must supply a multiple of q*q values for a positive q; "
                          f"got {len(grid_vals)} values at q = {args.q}")
    grid = [
        np.asarray(grid_vals[s: s + args.q * args.q]).reshape(args.q, args.q)
        for s in range(0, len(grid_vals), args.q * args.q)
    ]
    levels = tuple(_floats(args.levels, "--levels"))
    template = LimitDistConfig(
        q=args.q, c_star=grid[0], det=args.det, steps=args.steps,
        reps=args.reps, seed=args.seed, levels=levels,
    )
    config = dict(
        command="critvals", q=args.q, det=args.det, steps=args.steps, reps=args.reps,
        seed=args.seed, levels=args.levels, c_grid=args.c_grid, table=args.table,
    )
    em = _Emitter(args, config)
    table = build_table(grid, template, args.table)
    rows = []
    for entry in table.entries:
        rows.append(
            [" ".join(_fmt(v) for v in entry.c.ravel()), entry.redrawn]
            + [float(v) for v in entry.quantiles]
        )
    em.add_table(
        "simulated quantiles",
        ["c", "redrawn"] + [f"q[{lv:g}]" for lv in table.levels],
        rows,
    )
    em.add_scalars("table", {"path": args.table, "entries": len(table.entries)})
    em.emit()
    return 0


def cmd_simulate(args) -> int:
    coeffs, payload = _load_coeffs_json(args.coeffs)
    p = coeffs.p
    sigma = np.asarray(payload.get("sigma", np.eye(p)), dtype=float)
    mu = np.asarray(payload.get("mu", np.zeros(p)), dtype=float)
    delta = np.asarray(payload.get("delta", np.zeros(p)), dtype=float)
    spec = DgpSpec(coeffs=coeffs, sigma=sigma, mu=mu, delta=delta, n=args.n)
    y, eps = simulate(spec, args.seed, innovations="none" if args.zero_noise else None)
    config = dict(
        command="simulate", source=args.coeffs, n=args.n, seed=args.seed,
        zero_noise=args.zero_noise,
    )
    em = _Emitter(args, config)
    cols = [f"y{i + 1}" for i in range(p)]
    rows = [[float(v) for v in y[t]] for t in range(args.n)]
    if args.with_innovations:
        cols += [f"eps{i + 1}" for i in range(p)]
        rows = [r + [float(v) for v in eps[t]] for t, r in enumerate(rows)]
    em.add_table("simulated path", cols, rows)
    em.emit()
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The qcvar argument parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="qcvar",
        description="Quasi-cointegration analysis for VARs with near-unit roots",
    )
    parser.add_argument("--version", action="version", version=f"qcvar {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add_rho_group(sub):
        grp = sub.add_mutually_exclusive_group()
        grp.add_argument("--rho", type=float, help="radius of the stable region (default 0.9)")
        grp.add_argument(
            "--half-life", type=float, dest="half_life",
            help="minimum shock half-life in periods (alternative to --rho)",
        )

    sub = subs.add_parser("roots", help="characteristic roots and their classification")
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV file of observed series")
    src.add_argument("--coeffs", help="JSON file with inline lag matrices")
    sub.add_argument("--k", type=int, default=1, help="lag order (data mode)")
    sub.add_argument("--det", choices=DET_CASES, default="trend")
    add_rho_group(sub)
    _common_output_args(sub)
    sub.set_defaults(func=cmd_roots)

    sub = subs.add_parser("fit", help="OLS and profile estimates with the QCS basis")
    sub.add_argument("--data", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--det", choices=DET_CASES, default="trend")
    sub.add_argument("--family", choices=("scalar", "symmetric"), default="scalar")
    sub.add_argument("--grid-step", type=float, default=None, dest="grid_step",
                     help="eigenvalue grid step (default 0.005 scalar, 0.01 symmetric)")
    add_rho_group(sub)
    _common_output_args(sub)
    sub.set_defaults(func=cmd_fit)

    sub = subs.add_parser("irf", help="impulse responses and their near/stable split")
    sub.add_argument("--coeffs", required=True, help="JSON file with inline lag matrices")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--horizon", type=int, default=20)
    _common_output_args(sub)
    sub.set_defaults(func=cmd_irf)

    sub = subs.add_parser("lr", help="likelihood-ratio statistics at a hypothesised block")
    sub.add_argument("--data", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--det", choices=DET_CASES, default="trend")
    sub.add_argument("--lambda0", required=True, help="scalar or q*q comma-separated entries")
    sub.add_argument("--coef", type=_coef_pair, help="coefficient indices i,j (0-based)")
    sub.add_argument("--a0", type=float, help="hypothesised coefficient value")
    sub.add_argument("--table", help="critical-value table for the block statistic")
    _common_output_args(sub)
    sub.set_defaults(func=cmd_lr)

    sub = subs.add_parser("ci", help="confidence sets including the Bonferroni interval")
    sub.add_argument("--data", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--det", choices=DET_CASES, default="trend")
    sub.add_argument("--alpha1", type=float, default=0.025)
    sub.add_argument("--alpha2", type=float, default=0.025)
    sub.add_argument("--coef", type=_coef_pair, required=True, help="indices i,j (0-based)")
    sub.add_argument("--table", required=True, help="critical-value table path")
    sub.add_argument("--build-table", action="store_true", dest="build_table")
    sub.add_argument("--grid-step", type=float, default=0.005, dest="grid_step")
    sub.add_argument("--steps", type=int, default=2000)
    sub.add_argument("--reps", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    add_rho_group(sub)
    _common_output_args(sub)
    sub.set_defaults(func=cmd_ci)

    sub = subs.add_parser("critvals", help="build or extend a critical-value table")
    sub.add_argument("--q", type=int, default=1)
    sub.add_argument("--det", choices=DET_CASES, default="trend")
    sub.add_argument("--c-grid", required=True, dest="c_grid",
                     help="comma-separated localisation values (q*q per node for q>1); "
                          "write --c-grid=-5,... to protect a leading minus sign")
    sub.add_argument("--steps", type=int, default=2000)
    sub.add_argument("--reps", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--levels", default="0.9,0.95,0.99")
    sub.add_argument("--table", required=True, help="output table path")
    _common_output_args(sub)
    sub.set_defaults(func=cmd_critvals)

    sub = subs.add_parser("simulate", help="simulate a path from inline coefficients")
    sub.add_argument("--coeffs", required=True, help="JSON with phi and optional sigma/mu/delta")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--zero-noise", action="store_true", dest="zero_noise")
    sub.add_argument("--with-innovations", action="store_true", dest="with_innovations")
    _common_output_args(sub)
    sub.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    format_warning = warnings.formatwarning  # a shown warning reads as its message alone
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except TableCoverageError as exc:
        print(f"error (table coverage): {exc}", file=sys.stderr)
        return 4
    except (NumericalError, ConstructionError, SingularDesignError, ClassificationError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return 2
    except QcvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
