"""modlab benchmark: one workload in one process, a closed loop of passes.

    python3 perfbench/run.py --workload squeeze --seed 20260810 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off:
set-up time (the median over fresh child processes), one cold pass, then warm
passes while --seconds allow (at least two; see RUN_CAP_S). A speed probe (speed.py) runs
beside the untraced passes, so the gated times are rescaled to a nominal
machine speed; the raw times are printed beside them. With --trace 1 it traces
the cold pass and alternates untraced and traced warm passes, and reports the
per-layer metrics of the traced warm passes. Every pass checks its outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it name every metric with its
unit, and the machine facts; the same facts, metrics and samples go to
.perfbench_out/ at the root of the checkout, with the spans of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()

# Fixed before numpy is imported anywhere in this process or its children: one
# BLAS thread gives steadier passes on a small shared machine than two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
RUN_SECONDS = 20
MIN_WARM = 2
# No pass starts that would end later than this after the process started,
# judged by the last pass, so a run on a machine slowed severalfold still ends
# within 180 s; the run then makes at least one warm pass, not MIN_WARM.
RUN_CAP_S = 150
CHILD_TIMEOUT_S = 120
# The end-to-end metrics of BENCHMARK.json. The raw wall_s, cpu_s and
# cold_wall_s are measured and printed too, but on a shared machine their
# spread over runs follows the host's load and is wider than any bound (see
# README.md, "Steadiness").
END_TO_END = {"wall_adj_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_modlab():
    """Import modlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import modlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import modlab from {SRC}: {exc}")
    if SRC not in Path(modlab.__file__).resolve().parents:
        sys.exit(f"perfbench: modlab was imported from {modlab.__file__}, not {SRC}")
    return modlab


def parse_args(argv=None):
    from workloads import ACCEPTANCE_SEED, WORKLOADS  # numpy only after the BLAS setting

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the warm passes run (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print the elapsed time, exit "
                             "(the set-up probe the run starts as a child)")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# machine facts
# --------------------------------------------------------------------------

def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {"l2": None, "l3": None}
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()[:2].lower()] = value.strip()
    return {"l2": caches.get("l2"), "l3": caches.get("l3")}


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    active = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        active = getter()
    return {"blas": info.get("name"), "blas_version": info.get("version"),
            "blas_threads_configured": BLAS_THREADS, "blas_threads_active": active}


def _modlab_commit():
    """The commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "modlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), **_lscpu_caches(), **_blas(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "modlab_commit": _modlab_commit(),
            "modlab_source_sha256": digest.hexdigest(), "seed": seed}


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def setup_probe(args, probe) -> tuple[float, float]:
    """Raw and speed-adjusted wall seconds a fresh process takes to import
    modlab and build the inputs. The child measures the raw time; this process,
    idle meanwhile, runs the speed probe's reference just before and after."""
    from speed import NOMINAL_REF_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = probe.median_reference()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    after = probe.median_reference()
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw, raw * NOMINAL_REF_S / statistics.median([before, after])


def timed_pass(run_pass, inputs, checks) -> tuple[float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    run_pass(inputs, checks)
    return time.perf_counter() - wall, time.process_time() - cpu


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4g} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"


def run_untraced(args, workload, inputs, checks, probe, setup_samples) -> dict:
    from workloads import WORKLOADS

    _, run_pass = WORKLOADS[workload]
    cold = probe.time(run_pass, inputs, checks)
    warm = []
    warm_start = time.perf_counter()
    # start a pass only while it can end within --seconds, judged by the last one
    while not warm or (
            time.perf_counter() - STARTED + warm[-1].wall_s < RUN_CAP_S
            and (len(warm) < MIN_WARM
                 or time.perf_counter() - warm_start + warm[-1].wall_s < args.seconds)):
        warm.append(probe.time(run_pass, inputs, checks))
    samples = {
        "wall_adj_s": [t.adjusted_s for t in warm],
        "wall_s": [t.wall_s for t in warm],
        "cpu_s": [t.cpu_s for t in warm],
        "speed": [t.speed for t in warm],
        "cold_wall_s": [cold.wall_s],
        "setup_s": [adjusted for _, adjusted in setup_samples],
        "setup_raw_s": [raw for raw, _ in setup_samples],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["probe_samples"] = [t.samples for t in warm]
    units = {**END_TO_END, "wall_s": "s", "cpu_s": "s", "speed": "ratio",
             "cold_wall_s": "s", "setup_raw_s": "s"}
    return {"metrics": metrics, "units": units, "samples": samples,
            "reported": END_TO_END}


def run_traced(args, workload, inputs, checks) -> dict:
    import spans
    from workloads import WORKLOADS, unstable_artifacts

    _, run_pass = WORKLOADS[workload]
    tracer = spans.Tracer()
    walls = {"untraced": [], "traced": []}

    def one_pass(pass_id, traced):
        if traced:
            tracer.install(pass_id)
        try:
            wall, _ = timed_pass(run_pass, inputs, checks)
        finally:
            tracer.uninstall()
        return wall

    one_pass(0, traced=True)
    schedule = [False, True, True]
    warm_start = time.perf_counter()
    pass_id = 1
    while schedule or time.perf_counter() - warm_start < args.seconds:
        traced = schedule.pop(0) if schedule else len(walls["traced"]) <= len(walls["untraced"])
        wall = one_pass(pass_id, traced)
        walls["traced" if traced else "untraced"].append(wall)
        pass_id += 1

    traced_ids = [p for p in sorted(tracer.counters) if p > 0]
    per_pass = [tracer.pass_metrics(p) for p in traced_ids]
    metrics = spans.warm_metrics(per_pass)
    metrics["cli.unstable_artifacts"] = (
        unstable_artifacts(inputs["out_root"] / "pass0", inputs["out_root"] / "pass1")
        if workload == "ensembles" else 0)
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["untraced"]))

    # the harness checks itself: well-formed spans, exact repeats, zero predictions
    tree_errors = tracer.tree_errors()
    for error in tree_errors[:20]:
        checks.holds(f"span tree: {error}", False)
    checks.holds("span tree well formed", not tree_errors)
    for key in spans.COUNT_METRICS:
        values = {m[key] for m in per_pass}
        checks.holds(f"{key} repeats across warm passes", len(values) == 1)
    for pass_id in [0] + traced_ids:
        calls = tracer.layer_calls(pass_id)
        for layer in spans.IDLE_LAYERS[workload]:
            checks.holds(f"{layer} idle on {workload}", calls[layer] == 0)

    cold = tracer.pass_metrics(0)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{args.seed}.json.gz",
                 {"workload": workload, "seed": args.seed,
                  "passes": {"0": "cold, traced",
                             **{str(p): "warm, traced" for p in traced_ids}}})
    samples = {"traced_wall_s": walls["traced"], "untraced_wall_s": walls["untraced"],
               "cold_counts": {k: cold[k] for k in spans.COUNT_METRICS}}
    metrics["checks.tol_use_max"] = checks.tol_use_max
    return {"metrics": {k: metrics[k] for k in spans.METRIC_UNITS},
            "units": spans.METRIC_UNITS, "samples": samples,
            "reported": spans.METRIC_UNITS}


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_modlab()
    args = parse_args(argv)
    from workloads import WORKLOADS, Checks

    workload = args.workload
    setup, _ = WORKLOADS[workload]
    workdir = OUT / f"{workload}-seed{args.seed}-pid{os.getpid()}"
    if args.setup_only:
        setup(args.seed, workdir)
        print(time.perf_counter() - STARTED)
        return 0

    if not args.trace:
        from speed import SpeedProbe

        probe = SpeedProbe()
        setup_samples = [setup_probe(args, probe) for _ in range(SETUP_SAMPLES)]
    inputs = setup(args.seed, workdir)
    checks = Checks()
    try:
        if args.trace:
            result = run_traced(args, workload, inputs, checks)
        else:
            result = run_untraced(args, workload, inputs, checks, probe, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reported = result.pop("reported")

    facts = machine_facts(args.seed)
    fail_ratio = checks.failed / checks.attempted
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "fail_ratio": fail_ratio,
              "tol_use_max": checks.tol_use_max,
              "failures": checks.failures[:50], **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {workload} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - STARTED:.1f} s)")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, value in result["metrics"].items():
        detail = quartiles(result["samples"][name]) if name in result["samples"] else ""
        print(f"  {name:<34} {value!r:>24} {result['units'][name]:<14} {detail}")
    print(f"  {'fail_ratio':<34} {fail_ratio!r:>24} {'ratio':<14} "
          f"{checks.failed} of {checks.attempted} checks failed")
    print(f"  {'tol_use_max':<34} {checks.tol_use_max!r:>24} {'ratio':<14} "
          "largest residual/tolerance over the checks")
    for name in checks.failures[:10]:
        print(f"  FAILED {name}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
