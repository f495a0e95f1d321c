"""Monte Carlo simulation of the near-unit likelihood-ratio limit law.

The limit statistic is the trace functional
``tr{ S1 S2^{-1} S1^T }`` of a q-dimensional Ornstein-Uhlenbeck-type
path Z driven by standard Brownian increments, with
``S1 = sum_j dW_j Zbar_{j-1}^T`` and ``S2 = sum_j Zbar_{j-1} Zbar_{j-1}^T / steps``,
where Zbar is the path detrended per the deterministic case.  Quantiles
are tabulated on a grid of localisation matrices and persisted in a
self-describing text format.  A table build draws each chunk of
replications once and computes every node's statistics from it.  The
path recursion runs time-major, in blocks of steps, over one time-major
copy of the chunk's draws, and writes each block back into the
(replication, step) layout; its arithmetic and every reduction over time
are those of a step-by-step loop, so the statistics are the same bits.

Discretisation conventions: the path follows the exact local recursion
``Z_j = (I + C/steps) Z_{j-1} + dW_j`` with ``Z_0 = 0``; the lagged
value Z_{j-1} is associated with time (j - 1/2)/steps.  The midpoint
time grid makes the discrete first and second moments of the trend
regressors match their continuous counterparts to O(steps^-2), so the
discrete least-squares detrend agrees with the closed-form L2[0,1]
projection weights evaluated on the same grid.
"""

from __future__ import annotations

import io
import logging
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .exceptions import DomainError, NumericalError, TableCoverageError
from .likelihood import DET_CASES

logger = logging.getLogger("qcvar.limitdist")

__all__ = [
    "LimitDistConfig",
    "TableEntry",
    "QuantileTable",
    "c_star",
    "simulate_statistics",
    "quantiles_with_se",
    "build_table",
    "lookup",
    "save_table",
    "load_table",
]

_TABLE_VERSION = "1"
#: The metadata a build must share with a saved table to reuse its nodes.
_TABLE_META = ("q", "det", "steps", "reps", "seed", "levels")
_CHUNK = 2048
#: Block length: steps of the time-major recursion, replications of the detrend.
_BLOCK = 64
#: Redraw rounds for replications with a singular second-moment matrix.
MAX_REDRAWS = 100


def c_star(c: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Similarity transform ``delta^{-1/2} C delta^{1/2}``.

    ``delta`` must be symmetric positive definite; its principal
    (symmetric) square root is used.  The eigenvalues of the result
    equal those of C.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    if delta.shape != c.shape:
        raise DomainError(f"C {c.shape} and delta {delta.shape} must have equal shape")
    if not np.allclose(delta, delta.T, atol=1e-10):
        raise DomainError("delta must be symmetric")
    vals, vecs = np.linalg.eigh(delta)
    if vals.min() <= 0:
        raise DomainError("delta must be positive definite")
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return inv_root @ c @ root


@dataclass(frozen=True)
class LimitDistConfig:
    """Configuration of one limit-law simulation.

    ``c_star`` is the finite q-by-q localisation argument of the limit law,
    ``det`` the detrending case, ``steps`` the Euler grid size,
    ``reps`` the number of replications and ``levels`` the quantile
    levels to report.
    """

    q: int
    c_star: np.ndarray
    det: str
    steps: int = 2000
    reps: int = 100_000
    seed: int = 0
    levels: tuple = (0.90, 0.95, 0.99)

    def __post_init__(self):
        if self.det not in DET_CASES:
            raise DomainError(f"det must be one of {DET_CASES}")
        if self.steps < 100:
            raise DomainError("steps must be at least 100")
        if self.reps < 1000:
            raise DomainError("reps must be at least 1000")
        c = np.atleast_2d(np.asarray(self.c_star, dtype=float))
        if c.shape != (self.q, self.q) or not np.isfinite(c).all():
            raise DomainError(f"c_star must be a finite {self.q}x{self.q} matrix, got {c.tolist()}")
        levels = tuple(float(v) for v in self.levels)
        if not levels or any(not 0.0 < v < 1.0 for v in levels):
            raise DomainError("levels must lie strictly inside (0, 1)")
        if len(set(levels)) < len(levels):
            raise DomainError(f"each level must be listed once, got {levels}")
        object.__setattr__(self, "c_star", c)
        object.__setattr__(self, "levels", levels)


def _detrend_coefficients(s: np.ndarray, det: str) -> tuple[np.ndarray, np.ndarray]:
    """Pair (H, X): regressors X and the map H = (X'X)^{-1} X' to coefficients."""
    n = s.shape[0]
    X = np.ones((n, 1)) if det == "const" else np.column_stack([np.ones(n), s])
    return np.linalg.solve(X.T @ X, X.T), X


def _draw(config: LimitDistConfig, rep_indices: Sequence[int]) -> np.ndarray:
    """Scaled Brownian increments, one (steps, q) block per replication index."""
    scale = 1.0 / np.sqrt(config.steps)
    dw = np.empty((len(rep_indices), config.steps, config.q))
    for i, rep in enumerate(rep_indices):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, int(rep))))
        dw[i] = rng.standard_normal(dw.shape[1:]) * scale
    return dw


def _time_major(dw: np.ndarray) -> np.ndarray:
    """A contiguous (steps, m, q) copy of the (m, steps, q) draws."""
    return np.ascontiguousarray(dw.transpose(1, 0, 2))


def _statistics(config: LimitDistConfig, dw: np.ndarray, dw_t: np.ndarray) -> np.ndarray:
    """The statistic of each replication of ``dw`` at ``config``'s localisation.

    ``dw_t`` is ``_time_major(dw)``.  The recursion steps through it in
    blocks of ``_BLOCK`` steps and writes each block back into the
    (m, steps, q) layout, so every reduction over time sees the same
    array, and the same bits, as a step-by-step loop over ``dw``.
    """
    m, n, q = dw.shape
    A_T = (np.eye(q) + config.c_star / n).T
    lagged = np.empty((m, n, q))
    blk = np.zeros((_BLOCK + 1, m, q))
    for j0 in range(0, n, _BLOCK):
        b = min(_BLOCK, n - j0)
        for j in range(b):
            if q == 1:  # a 1x1 matmul rounds to this product
                np.multiply(blk[j], A_T[0, 0], out=blk[j + 1])
            else:
                np.matmul(blk[j], A_T, out=blk[j + 1])
            blk[j + 1] += dw_t[j0 + j]
        lagged[:, j0: j0 + b] = blk[:b].transpose(1, 0, 2)
        blk[0] = blk[b]

    s_grid = (np.arange(1, n + 1) - 0.5) / n
    if config.det != "none":
        H, X = _detrend_coefficients(s_grid, config.det)
        coef = np.einsum("dn,mnq->mdq", H, lagged)
        for i in range(0, m, _BLOCK):
            # the fitted values X @ coef, summed term by term as einsum sums them
            fitted = X[:, 0, None] * coef[i: i + _BLOCK, None, 0]
            for d in range(1, X.shape[1]):
                fitted += X[:, d, None] * coef[i: i + _BLOCK, None, d]
            lagged[i: i + _BLOCK] -= fitted

    s1 = np.einsum("mnq,mnr->mqr", dw, lagged)
    s2 = np.einsum("mnq,mnr->mqr", lagged, lagged) / n
    dets = np.linalg.det(s2)
    bad = ~np.isfinite(dets) | (np.abs(dets) < 1e-300)
    stats = np.full(m, np.nan)
    good = ~bad
    if good.any():
        solved = np.linalg.solve(s2[good], np.transpose(s1[good], (0, 2, 1)))
        stats[good] = np.einsum("mqr,mrq->m", s1[good], solved)
    return stats


def _simulate_chunk(config: LimitDistConfig, rep_indices: Sequence[int]) -> np.ndarray:
    """Statistics for the given replication indices (deterministic per index)."""
    dw = _draw(config, rep_indices)
    return _statistics(config, dw, _time_major(dw))


def _simulate_nodes(configs: Sequence[LimitDistConfig]) -> Iterator[tuple[np.ndarray, int]]:
    """Each config's :func:`simulate_statistics` result, in order, from shared draws.

    The configs differ only in ``c_star``; a node is yielded once its last chunk is done.
    """
    reps = configs[0].reps
    outs = [np.empty(reps) for _ in configs]
    for start in range(0, reps, _CHUNK):
        dw = _draw(configs[0], range(start, min(start + _CHUNK, reps)))
        dw_t = _time_major(dw)
        for config, out in zip(configs, outs):
            out[start: start + len(dw)] = _statistics(config, dw, dw_t)
            if start + len(dw) < reps:
                continue
            redrawn, attempt = 0, 1
            bad = np.flatnonzero(~np.isfinite(out))
            while bad.size and attempt <= MAX_REDRAWS:
                # redraw indices shifted into a disjoint seed range
                redraw_ids = [int(1_000_000_007 * attempt + b) for b in bad]
                out[bad] = _simulate_chunk(config, redraw_ids)
                redrawn += bad.size
                bad = np.flatnonzero(~np.isfinite(out))
                attempt += 1
            if bad.size:
                raise NumericalError(f"{bad.size} replications remained singular after redraws")
            yield out, redrawn


def simulate_statistics(config: LimitDistConfig) -> tuple[np.ndarray, int]:
    """All replications of the limit statistic, chunk-vectorised.

    Replications with a numerically singular second-moment matrix are
    flagged and redrawn from fresh derived seeds; the count of redraws
    is returned alongside the statistics.
    """
    return next(_simulate_nodes([config]))


def quantiles_with_se(sample: np.ndarray, levels: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical quantiles and their Monte Carlo standard errors.

    The SE uses order-statistic asymptotics, with the quantile density
    estimated from a +/- sqrt(n)/2 order-statistic window.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.shape[0]
    levels = np.asarray(levels, dtype=float)
    qs = np.quantile(x, levels, method="linear")
    ses = np.empty_like(qs)
    half = max(1, int(0.5 * np.sqrt(n)))
    for i, tau in enumerate(levels):
        kk = int(tau * (n - 1))
        lo = max(0, kk - half)
        hi = min(n - 1, kk + half)
        slope = (x[hi] - x[lo]) / ((hi - lo) / n)
        ses[i] = np.sqrt(tau * (1.0 - tau) / n) * slope
    return qs, ses


@dataclass(frozen=True)
class TableEntry:
    """Simulated quantiles for one localisation grid point."""

    c: np.ndarray
    quantiles: tuple
    se: tuple
    redrawn: int


@dataclass(frozen=True)
class QuantileTable:
    """Persisted quantiles of the limit law over a localisation grid.

    Rebuilding with identical metadata (q, det, steps, reps, seed,
    levels, grid) reproduces the table bit-exactly.
    """

    q: int
    det: str
    steps: int
    reps: int
    seed: int
    levels: tuple
    entries: tuple


def _format_float(v: float) -> str:
    return repr(float(v))


def _entry_line(entry: TableEntry) -> str:
    c_txt = " ".join(_format_float(v) for v in np.asarray(entry.c).ravel())
    cols = [c_txt, str(entry.redrawn)]
    cols += [_format_float(v) for v in entry.quantiles]
    cols += [_format_float(v) for v in entry.se]
    return ",".join(cols)


def save_table(table: QuantileTable, path: str) -> None:
    """Write the table in the self-describing text format."""
    buf = io.StringIO()
    buf.write("# qcvar critical-value table\n")
    buf.write(f"version={_TABLE_VERSION}\n")
    buf.write(f"q={table.q}\n")
    buf.write(f"det={table.det}\n")
    buf.write(f"steps={table.steps}\n")
    buf.write(f"reps={table.reps}\n")
    buf.write(f"seed={table.seed}\n")
    buf.write("levels=" + ",".join(_format_float(v) for v in table.levels) + "\n")
    buf.write("---\n")
    head = ["c", "redrawn"]
    head += [f"q[{_format_float(v)}]" for v in table.levels]
    head += [f"se[{_format_float(v)}]" for v in table.levels]
    buf.write(",".join(head) + "\n")
    for entry in table.entries:
        buf.write(_entry_line(entry) + "\n")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(buf.getvalue())
    os.replace(tmp, path)


def _read_text(path: str) -> str:
    """The text of the file at ``path`` less a leading BOM; non-UTF-8 bytes are a DomainError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def load_table(path: str) -> QuantileTable:
    """Read a table written by :func:`save_table`.

    A malformed table raises :class:`DomainError` naming the file and line, and a file that is
    not UTF-8 text one naming the file.
    """
    lines = _read_text(path).split("\n")
    meta, meta_line = {}, {}
    body_at = None
    for i, ln in enumerate(lines):
        if ln.startswith("#") or not ln.strip():
            continue
        if ln.strip() == "---":
            body_at = i + 1
            break
        key, _, val = ln.partition("=")
        meta[key.strip()] = val.strip()
        meta_line[key.strip()] = i + 1
    if body_at is None or meta.get("version") != _TABLE_VERSION:
        raise DomainError(f"{path} is not a version-{_TABLE_VERSION} qcvar table")

    def header(key, parse):
        if key not in meta:
            raise DomainError(f"{path}:{body_at}: the header ends without '{key}='")
        try:
            return parse(meta[key])
        except ValueError:
            raise DomainError(f"{path}:{meta_line[key]}: bad value {key}={meta[key]!r}") from None

    q = header("q", int)
    if q < 1:
        raise DomainError(f"{path}:{meta_line['q']}: q must be positive")
    levels = header("levels", lambda v: tuple(float(x) for x in v.split(",")))
    n_lv = len(levels)
    entries = []
    for lineno, ln in enumerate(lines[body_at + 1:], start=body_at + 2):
        if not ln.strip():
            continue
        cols = ln.split(",")
        try:
            c = [float(v) for v in cols[0].split()]
            redrawn = int(cols[1])
            values = [float(v) for v in cols[2:]]
        except (ValueError, IndexError):
            raise DomainError(f"{path}:{lineno}: a cell is missing or not a number") from None
        if len(c) != q * q or redrawn < 0 or len(values) != 2 * n_lv:
            raise DomainError(
                f"{path}:{lineno}: a row holds q*q = {q * q} values of c, a non-negative "
                f"redrawn count, {n_lv} quantiles and {n_lv} standard errors"
            )
        if not all(map(math.isfinite, c + values)):
            raise DomainError(f"{path}:{lineno}: c, quantiles and standard errors must be finite")
        entries.append(TableEntry(c=np.array(c).reshape(q, q), quantiles=tuple(values[:n_lv]),
                                  se=tuple(values[n_lv:]), redrawn=redrawn))
    return QuantileTable(
        q=q,
        det=header("det", str),
        steps=header("steps", int),
        reps=header("reps", int),
        seed=header("seed", int),
        levels=levels,
        entries=tuple(entries),
    )


def _entry_key(c: np.ndarray) -> tuple:
    return tuple(np.asarray(c, dtype=float).ravel().tolist())


def build_table(
    c_grid: Sequence[Union[float, np.ndarray]],
    template: LimitDistConfig,
    path: Optional[str] = None,
) -> QuantileTable:
    """Simulate quantiles for each grid point and persist after each.

    One pass over the replication chunks serves every missing node: each
    chunk is drawn once, and a node is saved as soon as the last chunk
    gives its statistics.  The pass holds one chunk's draws and one
    time-major copy of them, 33 MB each at 2000 steps and q = 1, and one
    float64 vector of ``reps`` per missing node, 33 MB for 41 nodes at
    100 000 reps.  If ``path`` exists and carries identical
    metadata, its nodes are reused, so an interrupted build keeps only the
    nodes already saved: above one chunk of ``reps``, no node is saved
    before the last chunk.
    """
    if len(c_grid) == 0:
        raise DomainError("the localisation grid must be nonempty")
    grid = [replace(template, c_star=c).c_star for c in c_grid]  # each node checked as a config

    meta = {name: getattr(template, name) for name in _TABLE_META}
    done: dict[tuple, TableEntry] = {}
    if path is not None and os.path.exists(path):
        prev = load_table(path)
        if all(getattr(prev, name) == value for name, value in meta.items()):
            done = {_entry_key(e.c): e for e in prev.entries}

    nodes: dict[tuple, np.ndarray] = {}
    for c in grid:
        nodes.setdefault(_entry_key(c), c)  # a node listed twice is simulated and stored once
    entries = {key: done[key] for key in nodes if key in done}
    finished = _simulate_nodes([replace(template, c_star=c) for k, c in nodes.items() if k not in done])
    for key, c in nodes.items():
        if key not in done:
            stats, redrawn = next(finished)
            qs, ses = quantiles_with_se(stats, template.levels)
            entries[key] = TableEntry(c=c, quantiles=tuple(qs), se=tuple(ses), redrawn=redrawn)
        ordered = [entries[key] for key in nodes if key in entries]
        if template.q == 1:
            ordered.sort(key=lambda e: float(e.c[0, 0]))
        table = QuantileTable(entries=tuple(ordered), **meta)
        if path is not None:
            save_table(table, path)
    return table


def _level_index(table: QuantileTable, level: float) -> int:
    for i, lv in enumerate(table.levels):
        if abs(lv - level) <= 1e-12:
            return i
    raise TableCoverageError(f"level {level} not among tabulated levels {table.levels}")


def _check_table(table: QuantileTable, q: int, det: str) -> None:
    """Raise :class:`TableCoverageError` unless ``table`` was simulated at this q and det."""
    if (table.q, table.det) != (q, det):
        raise TableCoverageError(
            f"the table was simulated at q = {table.q}, det = {table.det}; "
            f"this statistic needs q = {q}, det = {det}"
        )


def lookup(table: QuantileTable, c_query: Union[float, np.ndarray], level: float) -> float:
    """Critical value at the queried localisation point.

    The query is a q-by-q matrix, q the table's; at q = 1 a float is
    accepted too.  Any other shape raises :class:`TableCoverageError`.
    Exact at grid nodes.  Between nodes the q = 1 case interpolates
    linearly; queries outside the grid hull raise
    :class:`TableCoverageError`.  For q >= 2 the nearest node is used,
    with a warning reporting its distance when the match is not exact; a
    query farther from it than the largest distance between a node and its
    nearest neighbour raises :class:`TableCoverageError`, so a one-node
    table covers only its node.
    """
    idx = _level_index(table, level)
    if not table.entries:
        raise TableCoverageError("table has no entries")
    cq = np.asarray(c_query, dtype=float)
    if cq.shape != (table.q, table.q) and not (cq.shape == () and table.q == 1):
        raise TableCoverageError(
            f"query C of shape {cq.shape} does not match the table's {table.q}x{table.q} nodes"
        )
    if table.q == 1:
        cq = float(cq.reshape(()))
        nodes = np.array([float(e.c[0, 0]) for e in table.entries])
        values = np.array([e.quantiles[idx] for e in table.entries])
        exact = np.flatnonzero(np.abs(nodes - cq) <= 1e-9)
        if exact.size:
            return float(values[exact[0]])
        if cq < nodes.min() - 1e-9 or cq > nodes.max() + 1e-9:
            raise TableCoverageError(
                f"query C={cq:.6g} outside tabulated range [{nodes.min():.6g}, {nodes.max():.6g}]"
            )
        hi = int(np.searchsorted(nodes, cq))
        lo = hi - 1
        w = (cq - nodes[lo]) / (nodes[hi] - nodes[lo])
        logger.debug(
            "interpolating C=%g between nodes %g and %g", cq, nodes[lo], nodes[hi]
        )
        return float((1.0 - w) * values[lo] + w * values[hi])

    nodes = np.array([e.c.ravel() for e in table.entries])
    dists = np.linalg.norm(nodes - cq.ravel(), axis=1)
    j = int(np.argmin(dists))
    # the largest distance from a node to its nearest neighbour; 0 for one node
    pairwise = np.linalg.norm(nodes[:, None] - nodes[None], axis=2)
    np.fill_diagonal(pairwise, np.inf)
    spacing = float(pairwise.min(axis=1).max()) if len(nodes) > 1 else 0.0
    if dists[j] > max(spacing, 1e-9):
        raise TableCoverageError(
            f"query C={(cq.ravel() + 0.0).tolist()} is at Frobenius distance {dists[j]:.6g} "
            f"from the nearest node {(nodes[j] + 0.0).tolist()}, beyond the table's largest "
            f"node spacing {spacing:.6g}"
        )
    if dists[j] > 1e-9:
        warnings.warn(
            f"no exact node for the queried localisation matrix; using the nearest "
            f"node at Frobenius distance {dists[j]:.6g}",
            UserWarning,
            stacklevel=2,
        )
    return float(table.entries[j].quantiles[idx])
