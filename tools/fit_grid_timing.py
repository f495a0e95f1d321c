"""In-process wall time of ``fit --family symmetric`` from two checkouts, and whether they agree.

    python3 tools/fit_grid_timing.py --parent <dir> --change <dir> --rounds 3 --output BENCH_x.json

Each checkout is the root of a full copy of the repository.  The inputs are the 16 series of
perfbench's ``symmetric`` workload (p=3, k=1, n=500, seeds 300000-300015), written once as CSV
files.  A case is one input at one det (trend or const) and one grid: the default symmetric grid
(451 blocks, 440 of them non-scalar), which is timed, and ``--grid-step 0.1`` (10 blocks), which is
only compared.  For each checkout a worker process, with ``PYTHONPATH=<checkout>/src`` and BLAS
pinned to one thread, runs every case in-process through ``qcvar.cli.main`` with ``--format
json``: once untimed, then ``--repeats`` times, keeping the median wall time and the output bytes.
A round runs one worker per checkout, the parent first in even rounds.  The output holds, per
timed case, each side's median over the rounds and their ratio (change / parent), the same over
the sum of the cases, and whether the two checkouts wrote the same bytes in every case and round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

N_INPUTS = 16
FIRST_SEED = 300_000
DETS = ("trend", "const")
GRIDS = {"default": [], "0.1": ["--grid-step", "0.1"]}
TIMED = "default"
SIDES = ("parent", "change")


def cases(data_dir: str) -> dict:
    """The argv after ``qcvar`` of every case, by name ``<input>/<det>/<grid>``."""
    return {f"{idx}/{det}/{grid}": ["fit", "--data", os.path.join(data_dir, f"sym_{idx}.csv"),
                                    "--k", "1", "--q", "2", "--family", "symmetric", "--det", det,
                                    *extra, "--format", "json"]
            for idx in range(N_INPUTS) for det in DETS for grid, extra in GRIDS.items()}


def write_inputs(root: str, data_dir: str) -> None:
    """The ``symmetric`` workload's series, simulated by the checkout ``root``."""
    sys.path.insert(0, os.path.join(root, "src"))
    from qcvar import dgp

    rng = np.random.default_rng(11)
    qmat, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    lam = qmat @ np.diag([0.995, 0.96]) @ qmat.T
    spec = dgp.DgpSpec.simple(dgp.build_var(rng.normal(size=(1, 2)), lam, 1, rng=rng), 500)
    for idx in range(N_INPUTS):
        y, _ = dgp.simulate(spec, FIRST_SEED + idx)
        with open(os.path.join(data_dir, f"sym_{idx}.csv"), "w") as fh:
            fh.write("y1,y2,y3\n")
            for row in y:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def worker(data_dir: str, repeats: int) -> None:
    """Run every case in this process and print one JSON line per case."""
    from qcvar import cli

    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.json")
        for name, argv in cases(data_dir).items():
            times = []
            for _ in range(1 + repeats):
                started = time.perf_counter()
                rc = cli.main([*argv, "--output", out])
                times.append(time.perf_counter() - started)
                if rc != 0:
                    raise RuntimeError(f"{name} exited {rc}")
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(json.dumps({"case": name, "median_s": statistics.median(times[1:]),
                              "sha256": digest}), flush=True)


def identity(root: str) -> dict:
    """The checkout's commit and a digest of its ``src/`` files."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(fh.read())
    return {"commit": proc.stdout.strip() or None, "src_sha256": digest.hexdigest()}


def run_worker(root: str, data_dir: str, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", data_dir,
                           "--repeats", str(repeats)], cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker in {root} exited {proc.returncode}:\n{proc.stderr}")
    return {rec["case"]: rec for rec in map(json.loads, proc.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=3, help="worker runs per checkout")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs of a case per worker")
    parser.add_argument("--output", help="the BENCH_*.json file to write")
    parser.add_argument("--worker", metavar="DATA_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.repeats)
        return 0
    if not (args.parent and args.change and args.output):
        parser.error("--parent, --change and --output are required")
    roots = {s: os.path.abspath(getattr(args, s)) for s in SIDES}

    runs = {s: [] for s in SIDES}
    with tempfile.TemporaryDirectory() as data_dir:
        write_inputs(roots["change"], data_dir)
        for rnd in range(args.rounds):
            for side in SIDES if rnd % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_worker(roots[side], data_dir, args.repeats))
            total = {s: sum(rec["median_s"] for name, rec in runs[s][-1].items()
                            if name.endswith(TIMED)) for s in SIDES}
            print(f"round {rnd}: timed cases sum to {total['parent']:.3f} s (parent), "
                  f"{total['change']:.3f} s (change)", flush=True)

    names = list(runs["parent"][0])
    timed = [name for name in names if name.endswith(TIMED)]
    per_case = {}
    for name in timed:
        med = {s: statistics.median(run[name]["median_s"] for run in runs[s]) for s in SIDES}
        per_case[name] = dict(parent_s=med["parent"], change_s=med["change"],
                              ratio=med["change"] / med["parent"])
    sums = {s: [sum(run[name]["median_s"] for name in timed) for run in runs[s]] for s in SIDES}
    mismatched = sorted({name for name in names for p, c in zip(runs["parent"], runs["change"])
                         if p[name]["sha256"] != c[name]["sha256"]})
    result = {
        "command": "qcvar.cli.main(['fit', '--data', <input>, '--k', '1', '--q', '2', '--family', "
                   "'symmetric', '--det', <det>, <grid>, '--format', 'json', '--output', <file>]) "
                   "in-process, BLAS pinned to one thread",
        "procedure": f"{args.rounds} rounds, one worker process per checkout a round, parent first "
                     f"in even rounds; a worker runs each case once untimed and {args.repeats} "
                     "times timed and keeps the median; per case the median over rounds; inputs: "
                     f"the {N_INPUTS} symmetric workload series (seeds {FIRST_SEED}-"
                     f"{FIRST_SEED + N_INPUTS - 1}); written by tools/fit_grid_timing.py",
        "parent": identity(roots["parent"]),
        "change": identity(roots["change"]),
        "timed_grid": TIMED,
        "sum_of_cases_s": {s: dict(median=statistics.median(sums[s]), rounds=sums[s])
                           for s in SIDES},
        "ratio_of_median_sums": statistics.median(sums["change"]) / statistics.median(sums["parent"]),
        "cases_faster": f"{sum(c['ratio'] < 1 for c in per_case.values())}/{len(per_case)}",
        "outputs_compared": len(names),
        "outputs_mismatched": mismatched,
        "cases": per_case,
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
