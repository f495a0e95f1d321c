"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(workload, seed, trace, seconds="0.3"):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def test_declared_metrics_match_what_the_code_reports():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == tracing.METRIC_UNITS
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit_and_names_do_not_depend_on_seed(trace):
    key = "end_to_end" if trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    results = [_run("montecarlo", seed, trace) for seed in (1, 2)]
    for env, result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert env["blas_threads"] <= env["nproc"]
    assert results[0][0]["seed"] != results[1][0]["seed"]


def test_seed_changes_the_inputs(tmp_path):
    assert workloads._pool_order(1, 16) != workloads._pool_order(2, 16)
    starts = set()
    for seed in (1, 2, 3):
        mc = workloads.MonteCarlo(str(tmp_path), seed, None)
        mc.setup()
        starts.add(next(mc.units()))
    assert len(starts) > 1
    firsts = set()
    for seed in range(8):
        tables = workloads.Tables(str(tmp_path), seed, None)
        tables.setup()
        firsts.add(next(tables.units()))
        tables.teardown()
    assert len(firsts) > 1


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("likelihood.profile_a", 1.0, 7.0, 0),
        Span("likelihood.restricted_fit", 2.0, 3.0, 1),
        Span("likelihood.restricted_fit", 4.0, 6.5, 1),
        Span("cli.ingest_csv", 8.0, 9.0, 0),
        Span("dgp.simulate", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0, 1.0])
    m = tracing.layer_metrics(spans, wall_traced=12.5, wall_untraced=12.0)
    assert m["likelihood.profile_a.self_s"] == pytest.approx(2.5)
    assert m["likelihood.restricted_fit.self_s"] == pytest.approx(3.5)
    assert m["likelihood.profile_a.evals_per_call"] == pytest.approx(2.0)
    assert m["trace.covered_frac"] == pytest.approx(11.0 / 12.5)
    assert m["trace.uncovered_s"] == pytest.approx(1.5)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_call_through_inference_namespace_counts_under_likelihood():
    import qcvar.inference as inference
    import qcvar.likelihood as likelihood

    original, design = likelihood.profile_a, likelihood.Design
    spec, lam, _ = workloads.acceptance_spec()
    y, _ = workloads.dgp.simulate(spec, 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        inference.profile_a(np.array([[lam]]), y, 1, "trend")
        inference.lr_lambda(np.array([[lam]]), y, 1, "trend")
    assert likelihood.profile_a is original and inference.profile_a is original
    assert likelihood.Design is design and inference.Design is design
    names = [s.name for s in tracer.spans]
    assert names.count("likelihood.profile_a") == 2
    assert "likelihood.Design" in names and "spectral.split" in names
    m = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    assert m["likelihood.profile_a.calls"] == 2
    assert m["likelihood.Design.calls"] == 2  # one per profile_a without a design
    assert m["likelihood.ols_fit.calls"] >= 3  # _init_a twice, the LR reference once
    assert m["likelihood.restricted_fit.calls"] > 2


def test_distinct_node_fraction_counts_repeats_within_each_table():
    grid = workloads.ci_table_grid()
    assert len(grid) == 42
    spans = []
    for build in range(2):  # two tables on the same grid
        spans.append(Span("limitdist.build_table", 0.0, 1.0, -1))
        parent = len(spans) - 1
        for c in grid:
            spans.append(Span("limitdist.simulate_statistics", 0.0, 0.01, parent,
                              (np.array([c]), 2048, 0, 1)))
    m = tracing.layer_metrics(spans, 2.0, 2.0)
    assert m["limitdist.distinct_node_frac"] == pytest.approx(41 / 42)


def test_latencies_are_scaled_and_p50_is_taken_over_each_inputs_median():
    Record, ref = workloads.Record, speed.REF_KERNEL_S
    # 20 inputs, each three times: once at reference speed, once on a CPU
    # twice as slow (kernel and operation alike), once interrupted
    records = []
    for i in range(20):
        cost = 0.001 * (i + 1)
        records.append(Record(i, cost, kernels=(ref, ref)))
        records.append(Record(i, 2.0 * cost, kernels=(2.0 * ref, 2.0 * ref)))
        records.append(Record(("seed", "v", i), 50.0 * cost, kernels=(ref, ref), key=i))
    xs = run.latencies(records)
    assert sorted(run.input_medians(records, xs)) == pytest.approx([0.001 * (i + 1) for i in range(20)])
    assert sorted(run.input_medians(records, run.latencies(records, scaled=False))) == pytest.approx(
        [0.002 * (i + 1) for i in range(20)])
    summary = run.latency_summary(records)
    assert summary["op_p50_ms"] == pytest.approx(10.5)
    value, pct = run.tail(xs)  # 60 samples: p90 would leave only six beyond
    assert summary["op_tail_ms"] == pytest.approx(1e3 * value) and pct == pytest.approx(50 / 60 * 100)
    m = run.end_to_end(dict(summary, setup_s=2.5, peak_rss_mb=100.0))
    assert list(m) == list(run.END_TO_END_UNITS)
    assert m["setup_s"] == {"value": 2.5, "unit": "s"}


def test_tail_is_p90_with_at_least_ten_samples_beyond():
    value, pct = run.tail(list(range(1000)))
    assert value == 899 and pct == pytest.approx(90.0)
    value, pct = run.tail(list(range(50)))  # p90 would leave five beyond
    assert value == 39 and pct == pytest.approx(80.0)
    value, pct = run.tail([5.0, 1.0, 3.0])  # too few samples: the median
    assert value == 3.0
