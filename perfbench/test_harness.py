"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

The run tests start the benchmark as a user would; together they take about
three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (sets the BLAS thread count before numpy is used)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from modlab import cutoff, field, quadrature  # noqa: E402


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def sidecar(workload: str, seed: int, trace: int) -> dict:
    return json.loads((run.OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def test_benchmark_json_names_what_the_harness_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.METRIC_UNITS


def test_checks_record_tolerance_use():
    checks = workloads.Checks()
    checks.within("residual", 3e-7, 1e-6)
    checks.above("lower bound", 0.5, 0.1, strict=True)
    checks.holds("flag", True)
    checks.within("too large", 2.0, 1.0)
    assert (checks.attempted, checks.failed, checks.failures) == (4, 1, ["too large"])
    assert checks.tol_use_max == 2.0
    checks = workloads.Checks()
    checks.within("zero residual, zero tolerance", 0.0, 0.0)
    checks.above("the program's verdict must agree", 0.2, 0.1, verdict=False)
    assert checks.failed == 1 and checks.tol_use_max == 0.5


def test_tracer_spans_are_well_formed_and_unwrapped_afterwards():
    originals = (quadrature.integrate_1d, field.integrate_1d, cutoff.integrate_1d,
                 cutoff.AnalyticCutoff.__dict__["eta_prime"], np.linalg.eigh, np.kron)
    profile = cutoff.eta_st(1.5, 40.0)
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        assert field.integrate_1d is not originals[1]
        cutoff.energy(profile)
        np.linalg.norm(np.eye(3), 2)
        np.linalg.norm(np.ones(3), 2)
    finally:
        tracer.uninstall()
    assert (quadrature.integrate_1d, field.integrate_1d, cutoff.integrate_1d,
            cutoff.AnalyticCutoff.__dict__["eta_prime"], np.linalg.eigh, np.kron) == originals
    assert tracer.tree_errors() == []
    m = tracer.pass_metrics(0)
    assert m["quadrature.integrate_1d.calls"] == 1
    assert m["quadrature.integrand.calls"] == m["cutoff.eta_prime.calls"] > 0
    assert m["linalg.norm2.calls"] == 1 and m["linalg.norm2.n3"] == 27
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))
    # the energy integrand is cutoff code, so its time is cutoff self time
    assert m["cutoff.self_s"] > 0 and m["field.self_s"] == 0


def test_tree_errors_catch_a_child_outside_its_parent():
    tracer = spans.Tracer()
    tracer.names, tracer.parents, tracer.passes = ["a.x", "a.y"], [-1, 0], [0, 0]
    tracer.starts, tracer.ends = [0, 5], [10, 12]
    assert any("outside its parent" in e for e in tracer.tree_errors())
    tracer.ends = [10, 9]
    assert tracer.tree_errors() == []


def test_speed_probe_samples_and_leaves_its_own_time_out():
    probe = speed.SpeedProbe(period_s=0.01)
    x = np.linspace(0.0, 1.0, 200_000)
    timing = probe.time(lambda: [np.sin(x).sum() for _ in range(200)])
    assert timing.samples > 5
    assert 0.0 < timing.wall_s and 0.0 < timing.cpu_s and 0.0 < timing.adjusted_s
    # the probe's first sample is in the block and its time is not
    assert timing.wall_s < probe._samples[-1][1] - probe._samples[0][0] + 0.05
    untimed = len(probe._samples)
    probe.time(lambda: None)
    assert len(probe._samples) == 1 and untimed > 1


def test_untraced_result_line_has_the_end_to_end_metrics():
    out = result_line(bench("ensembles", trace=0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_checks_itself(workload):
    out = result_line(bench(workload, trace=1))
    assert out["correct"] is True and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == set(spans.METRIC_UNITS)
    cold = sidecar(workload, 7, 1)["samples"]["cold_counts"]
    idle = spans.IDLE_LAYERS[workload]
    for key in spans.COUNT_METRICS:
        if key.split(".")[0] in idle:
            assert metrics[key] == 0, key
    if workload == "squeeze":
        # the mollifier norm is computed once per process, in the cold pass
        assert cold["quadrature.integrate_1d.calls"] == metrics["quadrature.integrate_1d.calls"] + 1
        assert metrics["cutoff.repeat_point_ratio"] > 0.9
    if workload == "ensembles":
        assert metrics["cli.unstable_artifacts"] >= 0
        assert metrics["suites.rows"] > 7000


def test_warm_counts_repeat_between_runs():
    first = result_line(bench("ensembles", trace=1, seed=3))
    second = result_line(bench("ensembles", trace=1, seed=3))
    for key in spans.COUNT_METRICS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_fails_without_the_program():
    stripped = run.OUT / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        done = bench("signalling", trace=0, cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
