"""Wall time of one-shot shell commands from two checkouts, in alternating pairs.

    python3 tools/cold_start.py --parent <dir> --change <dir> --pairs 15 --output BENCH_x.json

Each checkout is the root of a full copy of the repository.  A command is

    python3 -m qcvar.cli <argv>

spawned with ``PYTHONPATH=<checkout>/src`` and BLAS pinned to one thread, as
``perfbench/run.py`` pins it, and timed from spawn to exit: interpreter start,
imports and the work.  The commands are ``lr`` and ``ci`` at q=1 with a cached
table, ``roots --data``, ``fit`` at q=1, and ``fit --family symmetric`` at q=2
(the non-scalar search) at ``--grid-step 0.1`` (10 blocks) and at the default
grid (451 blocks), on one p=3, n=500 dataset that this script writes
(seed 2101).  The table is built once, untimed, by the change's ``ci
--build-table``.  In every pair each command runs once from each checkout, the
parent first in even pairs and the change first in odd ones.  The output holds
every time, and per command each side's median and quartiles, the ratio of the
medians (change / parent), the number of pairs in which the change is faster,
and whether the two checkouts printed the same bytes in every pair.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

from bench_pairs import SIDES, quartiles

N_OBS = 500
DATA_SEED = 2101
TABLE_STEPS = 100
TABLE_REPS = 1000
CI_GRID_STEP = "0.1"


def commands(data: str, table: str) -> dict:
    """The timed commands, by name: the argv after ``python3 -m qcvar.cli``."""
    base = ["--data", data, "--k", "2"]
    return {
        "lr": ["lr", *base, "--q", "1", "--lambda0", "0.98", "--coef", "0,0", "--a0", "1.0",
               "--table", table],
        "ci": ["ci", *base, "--q", "1", "--coef", "0,0", "--table", table,
               "--grid-step", CI_GRID_STEP],
        "roots": ["roots", *base],
        "fit": ["fit", *base, "--q", "1", "--grid-step", "0.02"],
        "fit-symmetric": ["fit", *base, "--q", "2", "--family", "symmetric", "--grid-step", "0.1"],
        "fit-symmetric-default": ["fit", *base, "--q", "2", "--family", "symmetric"],
    }


def write_data(path: str) -> None:
    """A p=3 series: a near-unit common trend loading on the first and last columns, plus a
    stationary AR(1) column."""
    rng = np.random.default_rng(DATA_SEED)
    e = rng.standard_normal((N_OBS, 4))
    trend, ar = np.zeros(N_OBS), np.zeros(N_OBS)
    for t in range(1, N_OBS):
        trend[t] = 0.98 * trend[t - 1] + e[t, 0]
        ar[t] = 0.5 * ar[t - 1] + e[t, 1]
    y = np.column_stack([trend + 0.5 * e[:, 2], ar, 0.7 * trend + 0.5 * e[:, 3]])
    with open(path, "w") as fh:
        fh.write("y1,y2,y3\n")
        for row in y:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def spawn(root: str, argv: list) -> tuple:
    """Run ``python3 -m qcvar.cli argv`` from ``root``: its wall time and stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qcvar.cli", *argv], cwd=root, env=env,
                          capture_output=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr.decode(errors='replace')}")
    return wall, proc.stdout


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                        None)
    except OSError:
        return None


def commit(root: str):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summarise(times: dict) -> dict:
    side = {s: quartiles(times[s]) for s in SIDES}
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return dict(side, ratio_of_medians=side["change"]["median"] / side["parent"]["median"],
                change_faster_in_pairs=f"{faster}/{len(times['parent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=15, help="pairs of runs per command")
    parser.add_argument("--output", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    roots = {s: os.path.abspath(getattr(args, s)) for s in SIDES}

    with tempfile.TemporaryDirectory() as work:
        data, table = os.path.join(work, "y.csv"), os.path.join(work, "cv.tbl")
        write_data(data)
        cmds = commands(data, table)
        spawn(roots["change"], cmds["ci"] + ["--build-table", "--steps", str(TABLE_STEPS),
                                             "--reps", str(TABLE_REPS)])
        times = {name: {s: [] for s in SIDES} for name in cmds}
        identical = {name: True for name in cmds}
        for pair in range(args.pairs):
            for name, cmd in cmds.items():
                out = {}
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    wall, out[side] = spawn(roots[side], cmd)
                    times[name][side].append(wall)
                identical[name] &= out["parent"] == out["change"]
            print(f"pair {pair}: " + ", ".join(
                f"{name} {times[name]['parent'][-1]:.3f}/{times[name]['change'][-1]:.3f} s"
                for name in cmds), flush=True)

    result = {
        "command": "python3 -m qcvar.cli <argv>, PYTHONPATH=<checkout>/src, BLAS pinned to one "
                   "thread; wall time from spawn to exit",
        "procedure": f"{args.pairs} pairs; in each pair every command runs once from each "
                     "checkout, parent first in even pairs; one process at a time; inputs: a "
                     f"p=3, n={N_OBS} dataset (seed {DATA_SEED}) and a q=1 table built untimed by "
                     f"the change's ci --build-table (--steps {TABLE_STEPS} --reps {TABLE_REPS}); "
                     "written by tools/cold_start.py",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": importlib.metadata.version("scipy")},
        "parent": {"commit": commit(roots["parent"])},
        "change": {"commit": commit(roots["change"])},
        "argv": commands("<data>", "<table>"),
        "commands": {name: dict(summarise(times[name]), stdout_identical=identical[name],
                                runs_s=times[name]) for name in cmds},
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
