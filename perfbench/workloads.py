"""The benchmark's four workloads: inputs, operations and output checks.

Every input is drawn from a fixed pool whose outputs were recorded on the
seed commit (``reference.json``, written by ``record.py``); the workload
seed decides which pool members a run uses and in which order.  Each
workload runs in *units* (one replication, one command, one table build,
one fit), and a unit yields one record per operation.  A run cycles over
a few dozen inputs, so that each input is measured several times; the
record's ``key`` names the input.

Library calls go through module attributes (``likelihood.profile_a``,
not a name imported from it), so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

import qcvar.cli as cli
import qcvar.dgp as dgp
import qcvar.likelihood as likelihood
import qcvar.limitdist as limitdist

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Functions the checks call, bound before any tracing so that checks add no spans.
_simulate = dgp.simulate
_ols_fit = likelihood.ols_fit
_rrr_fit = likelihood.rrr_fit

#: loglik and LR agree to this (relative above 1), as the ROADMAP requires.
LIK_TOL = 1e-10
#: brentq endpoint tolerance of ``ci_coefficient_given_lambda``.
CI_TOL = 1e-6
#: fitted dynamics blocks (grid nodes, or the bounded refine to xatol 1e-8).
LAM_TOL = 1e-7
#: significant digits of the table digest; a last-bit difference between
#: CPUs does not count, a change of the simulated law does.
DIGEST_DIGITS = 10

N_OBS = 500
RHO = 0.9
GRID_STEP = 0.005  # the ``ci`` default, which sets the 42-node table grid
TABLE_LEVELS = (0.975, 0.90, 0.95, 0.99)  # ``ci`` with alpha1 = 0.025


@dataclass
class Record:
    """One operation: its unit, latency and output (or why it failed)."""

    unit: Any
    latency_s: float
    output: Any = None
    error: Optional[str] = None
    key: Any = None  # the input, where repeats of it share a key; the unit by default
    kernels: tuple = ()  # reference-kernel times just before and after (see speed.py)

    def __post_init__(self):
        if self.key is None:
            self.key = self.unit


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _write_csv(path: str, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"y{i + 1}" for i in range(y.shape[1])) + "\n")
        for row in y:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _pool_order(seed: int, size: int) -> list:
    return [int(i) for i in np.random.default_rng(seed).permutation(size)]


def acceptance_spec():
    """The tier-1 Monte Carlo DGP: p=2, k=1, q=1, C=-5, n=500, a=1."""
    base = dgp.NearUnitBase(
        a=np.array([[1.0]]), k=1,
        stationary=(np.array([[1.0], [0.0]]), np.array([[0.4]])),
    )
    ls = dgp.local_sequence(np.array([[-5.0]]), N_OBS, base)
    return dgp.DgpSpec.simple(ls.realized, N_OBS), 1.0 - 5.0 / N_OBS, 1.0


def p3_spec():
    """A fixed p=3, k=2, q=1 system with lambda = 0.99."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 1))
    coeffs = dgp.build_var(a, np.array([[0.99]]), 2, rng=rng)
    return dgp.DgpSpec.simple(coeffs, N_OBS), 0.99, float(a[0, 0])


def symmetric_spec():
    """A fixed p=3, k=1, q=2 system with a symmetric near-unit block."""
    rng = np.random.default_rng(11)
    qmat, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    lam = qmat @ np.diag([0.995, 0.96]) @ qmat.T
    coeffs = dgp.build_var(rng.normal(size=(1, 2)), lam, 1, rng=rng)
    return dgp.DgpSpec.simple(coeffs, N_OBS)


def ci_table_grid() -> list:
    """The localisation grid ``qcvar ci --build-table`` uses at n=500, rho=0.9."""
    c_lo = N_OBS * (RHO - 1.0)
    c_step = max(0.5, N_OBS * GRID_STEP / 2.0)
    return list(np.arange(c_lo, 1e-9, c_step)) + [0.0]


def _sections(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return {s["title"]: s for s in payload["sections"]}


class Workload:
    name = ""
    #: the reference kernel to time around each operation, or None
    kernel: Optional[Callable[[], float]] = None

    def __init__(self, workdir: str, seed: int, reference: Optional[dict]):
        self.workdir = workdir
        self.seed = seed
        self.ref = reference.get(self.name) if reference else None

    def setup(self) -> None:
        """Generate inputs, build what is cached, warm up."""

    def units(self) -> Iterator:
        """The unit sequence: ``self.order``, set by ``setup``, repeated."""
        return itertools.cycle(self.order)

    def run(self, unit) -> list:
        raise NotImplementedError

    def check(self, record: Record) -> Optional[str]:
        """None when the output matches the reference, else why not."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo anything setup changed outside the work directory."""


# ---------------------------------------------------------------------------
# montecarlo: the tier-1 replication loop
# ---------------------------------------------------------------------------

MC_POOL = 2048
#: replications a run cycles over, each measured about five times in 25 s
MC_INPUTS = 256


def mc_replication(spec, lam_true: np.ndarray, a_true: float, rep: int):
    """One replication of the tier-1 ``mc_experiment`` loop."""
    y, _ = dgp.simulate(spec, rep)
    dz = likelihood.make_design(y, 1, "trend")
    ref = likelihood.ols_fit(y, 1, "trend", design=dz).loglik
    fit_u = likelihood.profile_a(lam_true, y, 1, "trend", design=dz)
    fit_r = likelihood.profile_a(
        lam_true, y, 1, "trend", design=dz,
        fixed_entry=(0, 0, a_true), init=fit_u.a_hat,
    )
    return fit_u.loglik, 2.0 * (ref - fit_u.loglik), 2.0 * (fit_u.loglik - fit_r.loglik)


class MonteCarlo(Workload):
    name = "montecarlo"

    def setup(self):
        spec, lam, self.a_true = acceptance_spec()
        self.spec, self.lam = spec, np.array([[lam]])
        start = int(np.random.default_rng(self.seed).integers(MC_POOL))
        self.order = [(start + i) % MC_POOL for i in range(MC_INPUTS)]
        mc_replication(self.spec, self.lam, self.a_true, start)

    def run(self, rep):
        t0 = time.perf_counter()
        out = mc_replication(self.spec, self.lam, self.a_true, rep)
        return [Record(rep, time.perf_counter() - t0, out)]

    def check(self, record):
        want = self.ref[record.unit]
        for label, got, ref in zip(("loglik", "lr_block", "lr_coef"), record.output, want):
            if not _close(got, ref, LIK_TOL):
                return f"rep {record.unit}: {label} {got!r} != reference {ref!r}"
        lr_block = record.output[1]
        y, _ = _simulate(self.spec, record.unit)
        oracle = 2.0 * (_ols_fit(y, 1, "trend").loglik - _rrr_fit(self.lam[0, 0], 1, y, 1, "trend").loglik)
        if not _close(lr_block, oracle, LIK_TOL):
            return f"rep {record.unit}: lr_block {lr_block!r} != 2(ols - rrr) {oracle!r}"
        return None

    def record_reference(self):
        return [list(mc_replication(self.spec, self.lam, self.a_true, rep)) for rep in range(MC_POOL)]


# ---------------------------------------------------------------------------
# analysis: a user's fit / lr / ci session through the CLI
# ---------------------------------------------------------------------------

#: datasets per system; a pass over the pool is twelve commands, about 4 s
ANALYSIS_POOL = 2
COMMANDS = ("fit", "lr", "ci")
#: the cached table's Euler steps; its reps are the minimum, 1000
SETUP_TABLE_STEPS = 100
#: eigenvalue grid step of ``fit`` (6 points); coarser than the 0.005
#: default so that a run measures every command several times
FIT_GRID_STEP = "0.02"
#: (name, spec factory, lag order k, simulation seed offset, ci grid step)
ANALYSIS_SYSTEMS = (
    ("p2", acceptance_spec, 1, 100_000, "0.02"),
    ("p3", p3_spec, 2, 200_000, "0.1"),
)


class Analysis(Workload):
    name = "analysis"

    def setup(self):
        self.table = os.path.join(self.workdir, "ci.tbl")
        self.systems = {}
        for name, factory, k, offset, ci_step in ANALYSIS_SYSTEMS:
            spec, lam0, a0 = factory()
            self.systems[name] = (k, lam0, a0, ci_step)
            for idx in range(ANALYSIS_POOL):
                y, _ = dgp.simulate(spec, offset + idx)
                _write_csv(self._csv(name, idx), y)
        ops = [(system, idx, command) for system in self.systems
               for idx in range(ANALYSIS_POOL) for command in COMMANDS]
        self.order = [ops[i] for i in _pool_order(self.seed, len(ops))]
        # the cached table, built by ``ci --build-table`` at the default grid
        # step (42 nodes), with reduced reps
        build = [
            "ci", "--data", self._csv("p2", 0), "--k", "1", "--q", "1", "--coef", "0,0",
            "--table", self.table, "--build-table", "--reps", "1000",
            "--steps", str(SETUP_TABLE_STEPS), "--output", os.path.join(self.workdir, "build.txt"),
        ]
        if cli.main(build) != 0:
            raise RuntimeError("table build failed")
        if cli.main(self._argv("ci", "p2", 0)) != 0:  # warm-up
            raise RuntimeError("warm-up ci failed")
        err = self.ref and self._check_output("ci", "p2", 0, _sections(self._out("p2", "ci")))
        if err:
            raise RuntimeError(f"warm-up ci: {err}")

    def _csv(self, system: str, idx: int) -> str:
        return os.path.join(self.workdir, f"{system}_{idx}.csv")

    def _argv(self, command: str, system: str, idx: int) -> list:
        k, lam0, a0, ci_step = self.systems[system]
        argv = [command, "--data", self._csv(system, idx), "--k", str(k), "--q", "1"]
        if command == "fit":
            argv += ["--grid-step", FIT_GRID_STEP]
        elif command == "lr":
            argv += ["--lambda0", repr(lam0), "--coef", "0,0", "--a0", repr(a0), "--table", self.table]
        else:
            argv += ["--coef", "0,0", "--table", self.table, "--grid-step", ci_step]
        return argv + ["--format", "json", "--output", self._out(system, command)]

    def _out(self, system: str, command: str) -> str:
        return os.path.join(self.workdir, f"{system}_{command}.json")

    def run(self, unit):
        """One operation: one ``fit``, ``lr`` or ``ci`` command."""
        system, idx, command = unit
        t0 = time.perf_counter()
        try:
            rc = cli.main(self._argv(command, system, idx))
        except Exception as exc:  # a traceback is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if rc != 0:
            return [Record(unit, latency, error=f"{system}[{idx}] {command}: exit {rc}")]
        return [Record(unit, latency, _sections(self._out(system, command)))]

    def _check_output(self, command: str, system: str, idx: int, sec: dict) -> Optional[str]:
        want = self.ref[system][str(idx)][command]
        got = extract_analysis(command, sec)
        where = f"{system}[{idx}] {command}"
        for key, ref in want.items():
            val = got.get(key)
            if isinstance(ref, list):
                tol = CI_TOL if key == "bonferroni" else LAM_TOL
                if val is None or np.shape(val) != np.shape(ref) or not np.allclose(
                    val, ref, rtol=0.0, atol=tol
                ):
                    return f"{where}: {key} {val} != reference {ref}"
            elif val is None or not _close(val, ref, LIK_TOL):
                return f"{where}: {key} {val!r} != reference {ref!r}"
        if command == "lr":
            k, lam0, _, _ = self.systems[system]
            y = np.loadtxt(self._csv(system, idx), delimiter=",", skiprows=1)
            oracle = 2.0 * (_ols_fit(y, k, "trend").loglik - _rrr_fit(lam0, 1, y, k, "trend").loglik)
            if not _close(got["lr_lambda"], oracle, LIK_TOL):
                return f"{where}: lr_lambda {got['lr_lambda']!r} != 2(ols - rrr) {oracle!r}"
        return None

    def check(self, record):
        if record.error:
            return record.error
        system, idx, command = record.unit
        return self._check_output(command, system, idx, record.output)

    def record_reference(self):
        ref = {}
        for system in self.systems:
            ref[system] = {}
            for idx in range(ANALYSIS_POOL):
                entry = {}
                for command in COMMANDS:
                    if cli.main(self._argv(command, system, idx)) != 0:
                        raise RuntimeError(f"{system}[{idx}] {command} failed")
                    entry[command] = extract_analysis(command, _sections(self._out(system, command)))
                ref[system][str(idx)] = entry
        return ref


def extract_analysis(command: str, sec: dict) -> dict:
    """The checked values of one ``fit``, ``lr`` or ``ci`` JSON output."""
    if command == "fit":
        persistence = sec["persistence"]["values"]
        return {
            "ols_loglik": sec["unrestricted fit"]["values"]["loglik"],
            "profile_loglik": persistence["profile_loglik"],
            "grid_failures": persistence["grid_failures"],
            "best_lambda": [r[1:] for r in sec["profile estimate: near-unit dynamics"]["rows"]],
        }
    if command == "lr":
        out = dict(sec["dynamics-block LR"]["values"])
        out.update(sec["coefficient LR"]["values"])
        return out
    accepted = sec["dynamics-block confidence set (accepted nodes)"]["rows"]
    return {
        "accepted_lambda": [r[0] for r in accepted],
        "bonferroni": sec["bonferroni confidence set"]["rows"],
    }


# ---------------------------------------------------------------------------
# tables: the limit-law table ``ci --build-table`` builds
# ---------------------------------------------------------------------------

TABLE_SEEDS = 8
TABLE_REPS = 2048
TABLE_STEPS = 1000


def node_digest(entry) -> str:
    values = list(entry.quantiles) + list(entry.se) + [entry.redrawn]
    text = ",".join(f"{float(v):.{DIGEST_DIGITS}g}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_version(path: str) -> str:
    with open(path) as fh:
        for line in fh:
            if line.startswith("version="):
                return line.strip().partition("=")[2]
    return "?"


class Tables(Workload):
    name = "tables"

    def setup(self):
        # node clock: build_table saves after every node; the kernel runs
        # between nodes, outside both nodes' latencies
        self._save = limitdist.save_table
        self._started_at: list = []
        self._saved_at: list = []
        self._kernels: list = []
        first = int(np.random.default_rng(self.seed).integers(TABLE_SEEDS))
        self.order = [(first + i) % TABLE_SEEDS for i in range(TABLE_SEEDS)]
        self.grid = [np.array([[c]]) for c in ci_table_grid()]
        self.builds = 0

        def save_and_clock(table, path):
            self._save(table, path)
            self._saved_at.append(time.perf_counter())
            if self.kernel:
                self._kernels.append(self.kernel())
            self._started_at.append(time.perf_counter())

        limitdist.save_table = save_and_clock

    def teardown(self):
        limitdist.save_table = self._save

    def _template(self, table_seed: int):
        return limitdist.LimitDistConfig(
            q=1, c_star=np.zeros((1, 1)), det="trend", steps=TABLE_STEPS,
            reps=TABLE_REPS, seed=table_seed, levels=TABLE_LEVELS,
        )

    def build(self, table_seed: int):
        self.builds += 1
        path = os.path.join(self.workdir, f"build{self.builds}.tbl")
        table = limitdist.build_table(self.grid, self._template(table_seed), path)
        return table, table_version(path)

    def run(self, table_seed):
        self._saved_at.clear()
        self._kernels[:] = [self.kernel()] if self.kernel else []
        self._started_at[:] = [time.perf_counter()]
        try:
            table, version = self.build(table_seed)
        except Exception as exc:
            return [Record(table_seed, time.perf_counter() - self._started_at[0],
                           error=f"{type(exc).__name__}: {exc}")]
        return [
            Record((table_seed, version, i), self._saved_at[i] - self._started_at[i], entry,
                   key=i, kernels=tuple(self._kernels[i:i + 2]))
            for i, entry in enumerate(table.entries)
        ]

    def check(self, record):
        if record.error:
            return record.error
        table_seed, version, i = record.unit
        by_version = self.ref.get(version)
        if by_version is None:
            return f"no reference for table version {version}"
        want = by_version[str(table_seed)][i]
        got = node_digest(record.output)
        if got != want:
            return f"table seed {table_seed} node {i}: digest {got} != reference {want}"
        return None

    def record_reference(self):
        out = {}
        for table_seed in range(TABLE_SEEDS):
            table, version = self.build(table_seed)
            out.setdefault(version, {})[str(table_seed)] = [node_digest(e) for e in table.entries]
        return out


# ---------------------------------------------------------------------------
# symmetric: Nelder-Mead profiles on non-scalar 2x2 blocks
# ---------------------------------------------------------------------------

SYMMETRIC_POOL = 16
SYMMETRIC_STEP = "0.1"  # 10 grid points, 8 of them non-scalar blocks


class Symmetric(Workload):
    name = "symmetric"

    def setup(self):
        self.order = _pool_order(self.seed, SYMMETRIC_POOL)
        self.out = os.path.join(self.workdir, "out.json")
        spec = symmetric_spec()
        for idx in range(SYMMETRIC_POOL):
            y, _ = dgp.simulate(spec, 300_000 + idx)
            _write_csv(self._csv(idx), y)
        if cli.main(self._argv(self.order[0])) != 0:  # warm-up
            raise RuntimeError("warm-up fit failed")

    def _csv(self, idx: int) -> str:
        return os.path.join(self.workdir, f"sym_{idx}.csv")

    def _argv(self, idx: int) -> list:
        return [
            "fit", "--data", self._csv(idx), "--k", "1", "--q", "2", "--family", "symmetric",
            "--grid-step", SYMMETRIC_STEP, "--format", "json", "--output", self.out,
        ]

    def run(self, idx):
        t0 = time.perf_counter()
        try:
            rc = cli.main(self._argv(idx))
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if rc != 0:
            return [Record(idx, latency, error=f"exit {rc}")]
        return [Record(idx, latency, extract_analysis("fit", _sections(self.out)))]

    def check(self, record):
        if record.error:
            return record.error
        want = self.ref[str(record.unit)]
        got = record.output
        for key in ("ols_loglik", "profile_loglik"):
            if not _close(got[key], want[key], LIK_TOL):
                return f"sym[{record.unit}]: {key} {got[key]!r} != reference {want[key]!r}"
        if got["grid_failures"] != want["grid_failures"] or not np.allclose(
            got["best_lambda"], want["best_lambda"], rtol=0.0, atol=LAM_TOL
        ):
            return f"sym[{record.unit}]: best block {got['best_lambda']} != reference {want['best_lambda']}"
        return None

    def record_reference(self):
        return {str(idx): self.run(idx)[0].output for idx in range(SYMMETRIC_POOL)}


WORKLOADS = {w.name: w for w in (Analysis, MonteCarlo, Tables, Symmetric)}
