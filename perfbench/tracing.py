"""Per-layer spans around the public functions of each ``qcvar`` module.

The tracer wraps functions from outside the package: every ``qcvar``
namespace that bound a target by name gets the wrapper, so a call made
through ``qcvar.inference.profile_a`` is recorded under
``likelihood.profile_a`` just like a direct call.  ``Design`` is timed
through a subclass whose ``__init__`` opens a span.  Spans live in
memory, each with its parent, and are reduced to metrics at the end.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

#: (module, attribute) of every traced function; the span name is the
#: module's last component and the attribute.
TARGETS = (
    ("qcvar.dgp", "simulate"),
    ("qcvar.likelihood", "ols_fit"),
    ("qcvar.likelihood", "restricted_fit"),
    ("qcvar.likelihood", "profile_a"),
    ("qcvar.likelihood", "rrr_fit"),
    ("qcvar.likelihood", "profile_lambda"),
    ("qcvar.spectral", "split"),
    ("qcvar.inference", "lr_lambda"),
    ("qcvar.inference", "lr_coefficient"),
    ("qcvar.inference", "ci_lambda"),
    ("qcvar.inference", "ci_coefficient_given_lambda"),
    ("qcvar.limitdist", "build_table"),
    ("qcvar.limitdist", "simulate_statistics"),
    ("qcvar.limitdist", "quantiles_with_se"),
    ("qcvar.limitdist", "save_table"),
    ("qcvar.limitdist", "load_table"),
    ("qcvar.limitdist", "lookup"),
    ("qcvar.cli", "ingest_csv"),
    ("qcvar.cli", "main"),
)

#: Spans whose call count is reported.
CALLS = (
    "dgp.simulate", "likelihood.Design", "likelihood.ols_fit", "likelihood.restricted_fit",
    "likelihood.profile_a", "likelihood.rrr_fit", "spectral.split",
    "inference.lr_coefficient", "limitdist.save_table", "limitdist.lookup",
)
#: Spans whose self time is reported.
SELF_S = CALLS + (
    "likelihood.profile_lambda", "inference.lr_lambda", "inference.ci_lambda",
    "inference.ci_coefficient_given_lambda", "limitdist.build_table",
    "limitdist.simulate_statistics", "limitdist.quantiles_with_se", "limitdist.load_table",
    "cli.ingest_csv", "cli.main",
)
#: CLI commands whose median wall time (inclusive ``cli.main`` span) is reported.
COMMANDS = ("fit", "lr", "ci")

#: Every per-layer metric with its unit, in report order.
METRIC_UNITS = {}
for _name in CALLS:
    METRIC_UNITS[f"{_name}.calls"] = "count"
for _name in SELF_S:
    METRIC_UNITS[f"{_name}.self_s"] = "s"
METRIC_UNITS.update({
    "likelihood.profile_a.evals_per_call": "ratio",
    "likelihood.profile_a.maxiter_frac": "ratio",
    "likelihood.profile_lambda.points": "count",
    "likelihood.profile_lambda.failed_points": "count",
    "inference.ci_coefficient_given_lambda.lr_evals_per_call": "ratio",
    "limitdist.rep_node_us": "us",
    "limitdist.redrawn": "count",
    "limitdist.chunk_bytes": "bytes_computed",
    "limitdist.save_table.bytes": "bytes",
    "limitdist.distinct_node_frac": "ratio",
})
for _cmd in COMMANDS:
    METRIC_UNITS[f"cli.main.{_cmd}_p50_s"] = "s"
METRIC_UNITS.update({
    "trace.wall_untraced_s": "s",
    "trace.wall_traced_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_frac": "ratio",
    "trace.uncovered_s": "s",
})

#: Tolerance within which two localisation values count as one node.
SAME_NODE_TOL = 1e-9


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    info: Any = None  # what the observer extracted from the call


class Tracer:
    """Collects nested spans in memory; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced


def _chunk_size() -> int:
    from qcvar import limitdist
    return int(getattr(limitdist, "_CHUNK", 2048))


def _observe_profile_a(args, kwargs, result):
    return result.status


def _observe_profile_lambda(args, kwargs, result):
    return len(result.trace), len(result.failures)


def _observe_simulate_statistics(args, kwargs, result):
    config = args[0]
    n_reps = args[1] if len(args) > 1 else kwargs.get("n_reps")
    reps = config.reps if n_reps is None else int(n_reps)
    _, redrawn = result
    chunk = min(reps, _chunk_size())
    # draws, lagged path and detrended path: three (chunk, steps, q) float64 arrays
    chunk_bytes = 3 * chunk * config.steps * config.q * 8
    return np.asarray(config.c_star, dtype=float).ravel(), reps + redrawn, redrawn, chunk_bytes


def _observe_save_table(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _observe_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


OBSERVERS = {
    "likelihood.profile_a": _observe_profile_a,
    "likelihood.profile_lambda": _observe_profile_lambda,
    "limitdist.simulate_statistics": _observe_simulate_statistics,
    "limitdist.save_table": _observe_save_table,
    "cli.main": _observe_main,
}


def _rebind(original, replacement, undo: list) -> None:
    """Point every qcvar namespace that holds ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qcvar" or mod_name.startswith("qcvar.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextmanager
def installed(tracer: Tracer):
    """Trace every target (and ``Design``) until the block exits."""
    import qcvar.likelihood as likelihood

    undo: list = []
    try:
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            _rebind(original, tracer.wrap(name, original, OBSERVERS.get(name)), undo)

        design_cls = likelihood.Design
        design_init = tracer.wrap("likelihood.Design", design_cls.__init__)

        class TracedDesign(design_cls):
            __init__ = design_init

        TracedDesign.__name__ = TracedDesign.__qualname__ = design_cls.__name__
        _rebind(design_cls, TracedDesign, undo)
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _ancestor(spans: list[Span], idx: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[idx].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def _distinct(values: list[np.ndarray]) -> int:
    kept: list[np.ndarray] = []
    for v in values:
        if not any(v.shape == k.shape and np.max(np.abs(v - k)) <= SAME_NODE_TOL for k in kept):
            kept.append(v)
    return len(kept)


def layer_metrics(spans: list[Span], wall_traced: float, wall_untraced: float) -> dict:
    """Reduce spans to every metric of :data:`METRIC_UNITS` (value only)."""
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    by_name: dict = {}
    for idx, (s, st) in enumerate(zip(spans, selfs)):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        by_name.setdefault(s.name, []).append(idx)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict = {}
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_S:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    pa = [spans[i].info for i in by_name.get("likelihood.profile_a", [])]
    m["likelihood.profile_a.evals_per_call"] = ratio(calls.get("likelihood.restricted_fit", 0), len(pa))
    m["likelihood.profile_a.maxiter_frac"] = ratio(sum(st == "max-iter" for st in pa), len(pa))

    pl = [spans[i].info for i in by_name.get("likelihood.profile_lambda", []) if spans[i].info]
    m["likelihood.profile_lambda.points"] = sum(ok + bad for ok, bad in pl)
    m["likelihood.profile_lambda.failed_points"] = sum(bad for _, bad in pl)

    ccl = "inference.ci_coefficient_given_lambda"
    lr_under_ci = sum(
        _ancestor(spans, i, ccl) >= 0 for i in by_name.get("inference.lr_coefficient", [])
    )
    m[f"{ccl}.lr_evals_per_call"] = ratio(lr_under_ci, calls.get(ccl, 0))

    sim_idx = [i for i in by_name.get("limitdist.simulate_statistics", []) if spans[i].info]
    sims = [spans[i].info for i in sim_idx]
    m["limitdist.rep_node_us"] = ratio(
        1e6 * self_s.get("limitdist.simulate_statistics", 0.0), sum(s[1] for s in sims)
    )
    m["limitdist.redrawn"] = sum(s[2] for s in sims)
    m["limitdist.chunk_bytes"] = max((s[3] for s in sims), default=0)
    by_build: dict = {}  # a C value repeated in another table is not waste
    for i in sim_idx:
        by_build.setdefault(_ancestor(spans, i, "limitdist.build_table"), []).append(spans[i].info[0])
    m["limitdist.distinct_node_frac"] = ratio(
        sum(_distinct(cs) for cs in by_build.values()), len(sims)
    )
    m["limitdist.save_table.bytes"] = sum(
        spans[i].info or 0 for i in by_name.get("limitdist.save_table", [])
    )

    for cmd in COMMANDS:
        durations = [
            spans[i].end - spans[i].start
            for i in by_name.get("cli.main", []) if spans[i].info == cmd
        ]
        m[f"cli.main.{cmd}_p50_s"] = statistics.median(durations) if durations else 0.0

    covered = sum(selfs)
    m["trace.wall_untraced_s"] = wall_untraced
    m["trace.wall_traced_s"] = wall_traced
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.covered_frac"] = ratio(covered, wall_traced)
    m["trace.uncovered_s"] = wall_traced - covered
    return m
