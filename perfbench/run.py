"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced replay (see README.md).
The line before it records the environment.  The exit code is 0 only
when every operation's output matched its reference.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

#: BLAS threads, pinned before numpy loads; at most the CPU count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (loads numpy, so after the pin)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("analysis", "montecarlo", "tables", "symmetric")
#: set-ups measured per run, one after another in this process; the median is reported
SETUP_SAMPLES = 3
#: the tail percentile, when enough operations lie beyond it
TAIL_QUANTILE = 0.90

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def latencies(records: list, scaled: bool = True) -> list:
    """Every operation's latency; scaled ones are multiplied by the speed
    factor of the kernel times that bracket the operation (see speed.py)."""
    return [r.latency_s * (speed.factor(r.kernels) if scaled else 1.0) for r in records]


def input_medians(records: list, xs: list) -> list:
    """Each input's median latency over its repeats in the run."""
    by_input: dict = defaultdict(list)
    for r, x in zip(records, xs):
        by_input[r.key].append(x)
    return [statistics.median(v) for v in by_input.values()]


def tail(xs: list) -> tuple:
    """(value, percentile) of the tail latency.

    The 90th percentile, or the highest percentile with at least ten
    samples above it when that is lower; never below the median.
    """
    xs = sorted(xs)
    n = len(xs)
    idx = max(min(math.ceil(TAIL_QUANTILE * n) - 1, n - 11), n // 2)
    return xs[idx], 100.0 * (idx + 1) / n


def latency_summary(records: list, scaled: bool = True) -> dict:
    """``op_p50_ms`` over the inputs' medians, ``op_tail_ms`` over all
    operations, and the tail's percentile."""
    xs = latencies(records, scaled)
    tail_s, pct = tail(xs)
    return {
        "op_p50_ms": 1e3 * statistics.median(input_medians(records, xs)),
        "op_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
    }


def end_to_end(values: dict) -> dict:
    """The end-to-end metrics among ``values``, each with its unit."""
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def timed_pass(workload, units, seconds: float) -> tuple:
    """Run whole units until ``seconds`` have passed; return records, units, wall.

    With ``workload.kernel`` set, the kernel runs between units and each
    record that has no kernel times of its own gets those around its unit.
    """
    records, done = [], []
    kernel = workload.kernel
    t0 = time.perf_counter()
    before = kernel() if kernel else None
    while time.perf_counter() - t0 < seconds:
        unit = next(units)
        batch = workload.run(unit)
        if kernel:
            after = kernel()
            for r in batch:
                r.kernels = r.kernels or (before, after)
            before = after
        records.extend(batch)
        done.append(unit)
    return records, done, time.perf_counter() - t0


def replay(workload, done: list) -> tuple:
    records = []
    t0 = time.perf_counter()
    for unit in done:
        records.extend(workload.run(unit))
    return records, time.perf_counter() - t0


def check_all(workload, records: list) -> list:
    failures = []
    for r in records:
        try:
            err = workload.check(r)
        except Exception as exc:  # a check that cannot run is a failed operation
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(err)
    return failures


def set_up(args, reference: dict) -> tuple:
    """A workload set up in a fresh work directory, the seconds it took,
    and the kernel time measured right after."""
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    workload = WORKLOADS[args.workload](workdir, args.seed, reference)
    t0 = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        tear_down(workload)
        raise
    elapsed = time.perf_counter() - t0
    return workload, elapsed, speed.kernel_s()


def tear_down(workload) -> None:
    workload.teardown()
    shutil.rmtree(workload.workdir, ignore_errors=True)


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; do not report an enclosing repository's commit
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qcvar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcvar", "__init__.py")):
        print(f"error: no qcvar sources under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qcvar
    if not os.path.abspath(qcvar.__file__).startswith(SRC + os.sep):
        print(f"error: imported qcvar from {qcvar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import REFERENCE_PATH

    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    import_s = time.perf_counter() - _STARTED
    speed.kernel_s()  # the first call pays numpy's one-off costs
    kernels = [speed.kernel_s()]  # the kernel times before, between and after the set-ups
    os.makedirs(WORK_ROOT, exist_ok=True)
    workload = None
    try:
        workload, setup_s, k = set_up(args, reference)
        setup_samples, kernels = [setup_s], kernels + [k]
        if not args.trace:
            while len(setup_samples) < SETUP_SAMPLES:
                tear_down(workload)
                workload = None
                workload, setup_s, k = set_up(args, reference)
                setup_samples.append(setup_s)
                kernels.append(k)
            workload.kernel = speed.kernel_s

        units = workload.units()
        if args.trace:
            records, done, wall_untraced = timed_pass(workload, units, args.seconds / 2.0)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced, wall_traced = replay(workload, done)
            records += traced
            values = tracing.layer_metrics(tracer.spans, wall_traced, wall_untraced)
            metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.METRIC_UNITS.items()}
            extra = {"traced_spans": len(tracer.spans)}
        else:
            records, done, wall = timed_pass(workload, units, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # each set-up is scaled by the kernel times around it; the imports
            # are not: their time did not follow the kernel's on this host
            setup_scaled = import_s + statistics.median(
                s * speed.factor(kernels[i:i + 2]) for i, s in enumerate(setup_samples))
            summary = latency_summary(records)
            metrics = end_to_end(dict(summary, setup_s=setup_scaled, peak_rss_mb=peak_rss_mb))
            repeats = defaultdict(int)
            for r in records:
                repeats[r.key] += 1
            unscaled = latency_summary(records, scaled=False)
            unscaled["setup_s"] = import_s + statistics.median(setup_samples)
            extra = {
                "import_s": import_s,
                "setup_samples_s": setup_samples,
                "inputs": len(repeats),
                "min_repeats": min(repeats.values()),
                "tail_percentile": summary["tail_percentile"],
                "ops_per_s": len(records) / wall,
                "kernel_ms_median": 1e3 * statistics.median(
                    k for r in records for k in r.kernels),
                "unscaled": unscaled,
            }

        failures = check_all(workload, records)
    finally:
        if workload is not None:
            tear_down(workload)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    env = environment(args)
    env.update(extra, units=len(done), operations=len(records), first_failures=failures[:5])
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
