"""Paired benchmark runs of two checkouts, summarised into one BENCH_*.json file.

    python3 tools/bench_pairs.py --parent <dir> --change <dir> \\
        --workload analysis:5001-5010 --workload tables:8001,8002 --output BENCH_x.json

Each checkout is the root of a full copy of the repository (``src/`` and
``perfbench/``).  For every seed of every workload, one pair of runs is made:

    python3 perfbench/run.py --workload <w> --seed <s> --seconds 25 --trace 0

once from each checkout, one run at a time, the parent first in even pairs
and the change first in odd ones.  The output holds every run's end-to-end
metrics and, per workload and metric, each side's median and quartiles, the
ratio of the medians (change / parent) and the number of pairs in which the
change reads lower.  The file is rewritten after every run, so an interrupted
session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 25
METRICS = ("setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
SIDES = ("parent", "change")


def seeds(text: str) -> list:
    """``"5001-5003"`` or ``"5001,5004"`` (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def workload_arg(text: str) -> tuple:
    name, sep, spec = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected <workload>:<seeds>, e.g. analysis:5001-5010")
    return name, seeds(spec)


def run_once(root: str, workload: str, seed: int) -> tuple:
    """One benchmark run from ``root``: its environment line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list) -> dict:
    """Per metric, each side's median and quartiles over the complete pairs."""
    by_pair: dict = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    if len(pairs) < 2:
        return {}
    out = {}
    for m in METRICS:
        side = {s: quartiles([p[s][m] for p in pairs]) for s in SIDES}
        lower = sum(p["change"][m] < p["parent"][m] for p in pairs)
        out[m] = dict(side, ratio_of_medians=side["change"]["median"] / side["parent"]["median"],
                      change_lower_in_pairs=f"{lower}/{len(pairs)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", type=workload_arg, action="append", required=True,
                        help="<workload>:<seeds>, seeds as a-b ranges or a comma list; repeatable")
    parser.add_argument("--output", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    result = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {SECONDS} --trace 0",
        "procedure": "pairs of runs, parent and change on the same seed, alternating which side "
                     "runs first (parent first in even pairs); each side runs from its own "
                     "checkout, BLAS pinned to one thread by run.py, one run at a time; written by "
                     "tools/bench_pairs.py",
        "machine": None,
        "parent": None,
        "change": None,
        "workloads": {},
    }
    for name, workload_seeds in args.workload:
        entry = {"pairs": len(workload_seeds), "seeds": workload_seeds, "summary": {}, "runs": []}
        result["workloads"][name] = entry
        for pair, seed in enumerate(workload_seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                env, res = run_once(roots[side], name, seed)
                result["machine"] = {k: env[k] for k in ("nproc", "cpu_model", "python", "numpy",
                                                         "scipy", "blas", "blas_threads")}
                result[side] = {"commit": env["git_commit"], "src_sha256": env["src_sha256"]}
                entry["runs"].append({
                    "pair": pair, "seed": seed, "side": side, "correct": res["correct"],
                    "attempted": res["attempted"], "failed": res["failed"],
                    "metrics": {m: res["metrics"][m]["value"] for m in METRICS},
                    "unscaled": {m: env["unscaled"][m] for m in METRICS if m in env["unscaled"]},
                })
                entry["summary"] = summarise(entry["runs"])
                with open(args.output, "w") as fh:
                    json.dump(result, fh, indent=1)
                    fh.write("\n")
                p50 = res["metrics"]["op_p50_ms"]["value"]
                print(f"{name} pair {pair} seed {seed} {side}: op_p50_ms {p50:.3f}, "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
