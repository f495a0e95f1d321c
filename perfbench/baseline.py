"""Measure every workload on ten seeds and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs ``run.py --trace 0`` once per (seed, workload), cycling through the
workloads for each seed so that slow phases of a shared machine spread
over all of them, then one ``--trace 1`` run per workload on the first
seed.  For each end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to every raw value.  A metric whose spread exceeds its
bound is marked ``unresolved``: on that host its bound cannot tell a
regression from noise.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
OUT = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarise(values: list, bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "unresolved": spread > bound, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    raw: dict = {name: [] for name in names}
    environment = None
    for seed in SEEDS:
        for name in names:
            env, result = run_once(name, seed, seconds, 0)
            environment = environment or env
            raw[name].append(result)
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)

    out = {"run_seconds": seconds, "seeds": SEEDS, "environment": environment, "workloads": {}}
    for name in names:
        results = raw[name]
        metrics = {
            m["name"]: dict(unit=m["unit"], bound=m["bound"],
                            **summarise([r["metrics"][m["name"]]["value"] for r in results],
                                        m["bound"]))
            for m in bench["end_to_end"]
        }
        _, traced = run_once(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in metrics.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (above a third of the bound)"
            if s["unresolved"]:
                flag = "  UNRESOLVED (above the bound)"
            print(f"{name:10s} {metric:12s} median {s['median']:.4f} spread {s['spread']:.4f}{flag}")
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
