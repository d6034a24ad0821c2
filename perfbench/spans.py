"""Tracing for the benchmark's traced run: spans around the calls into each layer.

The tracer wraps names from outside modlab and undoes the wrapping when a
traced pass ends; no modlab code knows about it. A function is wrapped in
every modlab module that binds it (`integrate_1d` in quadrature, field and
cutoff), methods are wrapped on their class (`AnalyticCutoff.eta`, so a
reflected profile counts once), and the dense kernels are wrapped on numpy
itself.

A span is (name, parent, pass, start, end) with integer nanosecond times, so
self times are exact differences. Work counters are kept next to the spans:
points handed to integrands and cutoff profiles, and work computed from array
shapes (sum of n^3 for decompositions, output bytes for kron).
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import modlab  # noqa: F401  (loads every module the tracer rebinds in)
from modlab import cli, cuntz, cutoff, fock

# span name -> (owner, attribute). Module functions are rebound in every modlab
# module that holds the same object.
FUNCTIONS = {
    "quadrature.integrate_1d": ("modlab.quadrature", "integrate_1d"),
    "cutoff.energy": ("modlab.cutoff", "energy"),
    "cutoff.minimize_discrete": ("modlab.cutoff", "minimize_discrete"),
    "field.entropy_bound": ("modlab.field", "entropy_bound"),
    "field.exact_entropy": ("modlab.field", "exact_entropy"),
    "field.squeeze_sweep": ("modlab.field", "squeeze_sweep"),
    "field.boundary_term_prediction": ("modlab.field", "boundary_term_prediction"),
    "linalg.hermitian_eig": ("modlab.linalg", "hermitian_eig"),
    "modular.rel_entropy_dm": ("modlab.modular", "rel_entropy_dm"),
    "modular.modular_data": ("modlab.modular", "modular_data"),
    "modular.theorem_entropy_bounds": ("modlab.modular", "theorem_entropy_bounds"),
    "modular.monotonicity_check": ("modlab.modular", "monotonicity_check"),
    "fock.weyl": ("modlab.fock", "weyl"),
    "fock.gamma": ("modlab.fock", "gamma"),
    "fock.dgamma": ("modlab.fock", "dgamma"),
    "cuntz.nonsignalling_check": ("modlab.cuntz", "nonsignalling_check"),
    "cuntz.norm_gap_experiment": ("modlab.cuntz", "norm_gap_experiment"),
    "cuntz.align_product": ("modlab.cuntz", "align_product"),
    "cuntz.product_reconstruction": ("modlab.cuntz", "product_reconstruction"),
    "cuntz.certify_no_product_form": ("modlab.cuntz", "certify_no_product_form"),
    "suites.run_findim_suite": ("modlab.suites", "run_findim_suite"),
    "suites.run_theorem_suite": ("modlab.suites", "run_theorem_suite"),
    "suites.run_fock_suite": ("modlab.suites", "run_fock_suite"),
    "cli.main": ("modlab.cli", "main"),
}
CLI_WRITERS = ("write_csv", "write_summary", "write_plot_script", "write_manifest")

# Layers a workload never reaches: their counts must read 0 (the zero predictions).
IDLE_LAYERS = {
    "squeeze": ("modular", "fock", "cuntz", "suites", "cli"),
    "signalling": ("quadrature", "cutoff", "field", "modular", "fock", "suites", "cli"),
    "ensembles": ("quadrature", "cutoff", "field", "cuntz"),
}

# The per-layer metrics, in BENCHMARK.json order: name -> unit. `.calls` counts
# spans, `.s` is inclusive time in them, `<layer>.self_s` is the layer's span
# time minus the time of the spans it called; `.n3` and `.bytes` are computed
# from array shapes.
METRIC_UNITS = {
    "quadrature.integrate_1d.calls": "count",
    "quadrature.integrand.calls": "count",
    "quadrature.integrand.points": "count",
    "quadrature.integrand.s": "s",
    "quadrature.self_s": "s",
    "cutoff.eta.calls": "count",
    "cutoff.eta.s": "s",
    "cutoff.eta_prime.calls": "count",
    "cutoff.eta_prime.s": "s",
    "cutoff.points": "count",
    "cutoff.repeat_point_ratio": "ratio",
    "cutoff.energy.s": "s",
    "cutoff.minimize_discrete.s": "s",
    "cutoff.self_s": "s",
    "field.entropy_bound.calls": "count",
    "field.entropy_bound.s": "s",
    "field.exact_entropy.calls": "count",
    "field.exact_entropy.s": "s",
    "field.squeeze_sweep.s": "s",
    "field.boundary_term_prediction.s": "s",
    "field.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.s": "s",
    "linalg.eigh.n3": "n3-computed",
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "linalg.svd.n3": "n3-computed",
    "linalg.norm2.calls": "count",
    "linalg.norm2.s": "s",
    "linalg.norm2.n3": "n3-computed",
    "linalg.kron.calls": "count",
    "linalg.kron.s": "s",
    "linalg.kron.bytes": "bytes-computed",
    "linalg.hermitian_eig.calls": "count",
    "linalg.self_s": "s",
    "modular.rel_entropy_dm.calls": "count",
    "modular.rel_entropy_dm.s": "s",
    "modular.modular_data.calls": "count",
    "modular.modular_data.s": "s",
    "modular.theorem_entropy_bounds.s": "s",
    "modular.monotonicity_check.s": "s",
    "modular.self_s": "s",
    "fock.weyl.calls": "count",
    "fock.weyl.s": "s",
    "fock.gamma.calls": "count",
    "fock.gamma.s": "s",
    "fock.dgamma.calls": "count",
    "fock.dgamma.s": "s",
    "fock.TruncatedFock.calls": "count",
    "fock.TruncatedFock.s": "s",
    "fock.self_s": "s",
    "cuntz.TruncatedCuntz.calls": "count",
    "cuntz.TruncatedCuntz.s": "s",
    "cuntz.nonsignalling_check.s": "s",
    "cuntz.norm_gap_experiment.s": "s",
    "cuntz.align_product.calls": "count",
    "cuntz.align_product.s": "s",
    "cuntz.product_reconstruction.s": "s",
    "cuntz.certify_no_product_form.s": "s",
    "cuntz.self_s": "s",
    "suites.run_findim_suite.s": "s",
    "suites.run_theorem_suite.s": "s",
    "suites.run_fock_suite.s": "s",
    "suites.rows": "count",
    "suites.self_s": "s",
    "cli.main.s": "s",
    "cli.write.s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.unstable_artifacts": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "checks.tol_use_max": "ratio",
}

# Filled in by the run, not from the spans of one pass.
RUN_METRICS = ("cli.unstable_artifacts", "trace.overhead_s", "checks.tol_use_max")

# Counts that must repeat exactly from one warm pass to the next. The artifact
# bytes are left out: summary.json carries a wall-clock elapsed time whose
# printed length varies.
COUNT_METRICS = [k for k, unit in METRIC_UNITS.items()
                 if unit in ("count", "n3-computed", "bytes-computed")
                 and k not in RUN_METRICS]


def _n3(a) -> int:
    """Work of a dense decomposition from its shape: m n min(m, n) per matrix."""
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    """Spans and work counters of the traced passes of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.passes: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: dict[int, Counter] = {}
        self.pass_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._last_eta = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.passes.append(tracer.pass_id)
            tracer.ends.append(0)
            tracer._stack.append(sid)
            tracer.starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[sid] = perf_counter_ns()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _count(self, key, amount=1):
        self.counters[self.pass_id][key] += amount

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace `original` by `wrapper` in every modlab module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "modlab" or mod_name.startswith("modlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _integrand_args(self, args, kwargs):
        """integrate_1d(f, ...): hand the adaptive quadrature a traced integrand."""
        tracer = self
        f = kwargs["f"] if "f" in kwargs else args[0]
        inner = self._wrap(f, "quadrature.integrand",
                           after=lambda a, k, out: tracer._count(
                               "quadrature.integrand.points", np.size(a[0])))
        if "f" in kwargs:
            return args, {**kwargs, "f": inner}
        return (inner,) + tuple(args[1:]), kwargs

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counters[pass_id] = Counter()
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            before = self._integrand_args if name == "quadrature.integrate_1d" else None
            after = None
            if name.startswith("suites.run_"):
                after = lambda a, k, out: self._count("suites.rows", len(out.rows))
            self._rebind(original, self._wrap(original, name, before, after))
        for attr in CLI_WRITERS:
            original = getattr(cli, attr)

            def wrote(args, kwargs, out, attr=attr):
                path = Path(args[0])
                if attr == "write_manifest":
                    path = path / "manifest.json"
                self._count("cli.artifact_bytes", path.stat().st_size)

            self._rebind(original, self._wrap(original, "cli.write", after=wrote))

        def eta_after(args, kwargs, out):
            self._count("cutoff.points", np.size(args[1]))
            self._last_eta = (args[0], np.array(args[1], dtype=float))

        def eta_prime_after(args, kwargs, out):
            self._count("cutoff.points", np.size(args[1]))
            last = self._last_eta
            if last is not None and last[0] is args[0] and np.array_equal(last[1], args[1]):
                self._count("cutoff.repeat_points")

        cls = cutoff.AnalyticCutoff
        self._set(cls, "eta", self._wrap(cls.eta, "cutoff.eta", after=eta_after))
        self._set(cls, "eta_prime", self._wrap(cls.eta_prime, "cutoff.eta_prime",
                                               after=eta_prime_after))
        for cls, name in ((fock.TruncatedFock, "fock.TruncatedFock"),
                          (cuntz.TruncatedCuntz, "cuntz.TruncatedCuntz")):
            self._set(cls, "__init__", self._wrap(cls.__init__, name))

        la = np.linalg
        self._set(la, "eigh", self._wrap(la.eigh, "linalg.eigh", after=lambda a, k, out:
                                         self._count("linalg.eigh.n3", _n3(a[0]))))
        self._set(la, "svd", self._wrap(la.svd, "linalg.svd", after=lambda a, k, out:
                                        self._count("linalg.svd.n3", _n3(a[0]))))
        plain_norm = la.norm
        norm2 = self._wrap(plain_norm, "linalg.norm2", after=lambda a, k, out:
                           self._count("linalg.norm2.n3", _n3(a[0])))

        def norm(x, *args, **kwargs):
            order = kwargs.get("ord", args[0] if args else None)
            axis = kwargs.get("axis", args[1] if len(args) > 1 else None)
            if order == 2 and axis is None and np.ndim(x) == 2:
                return norm2(x, *args, **kwargs)
            return plain_norm(x, *args, **kwargs)

        self._set(la, "norm", norm)
        self._set(np, "kron", self._wrap(np.kron, "linalg.kron", after=lambda a, k, out:
                                         self._count("linalg.kron.bytes", out.nbytes)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._last_eta = None

    # -- analysis ----------------------------------------------------------

    def layer_of(self, sid: int) -> str:
        """A span's layer; an integrand runs the caller's code, so it belongs
        to the nearest enclosing layer outside quadrature."""
        name = self.names[sid]
        if name == "quadrature.integrand":
            p = self.parents[sid]
            while p >= 0 and self.names[p].startswith("quadrature."):
                p = self.parents[p]
            return self.names[p].split(".")[0] if p >= 0 else "quadrature"
        return name.split(".")[0]

    def tree_errors(self) -> list[str]:
        """Spans outside their parent, spans of another pass than their
        parent's, unfinished spans and negative self times."""
        errors = []
        child_ns = [0] * len(self.names)
        for sid, p in enumerate(self.parents):
            if self.ends[sid] < self.starts[sid]:
                errors.append(f"span {sid} {self.names[sid]} ends before it starts")
            if p < 0:
                continue
            child_ns[p] += self.ends[sid] - self.starts[sid]
            if not self.starts[p] <= self.starts[sid] <= self.ends[sid] <= self.ends[p]:
                errors.append(f"span {sid} {self.names[sid]} lies outside its parent")
            if self.passes[p] != self.passes[sid]:
                errors.append(f"span {sid} {self.names[sid]} has another pass than its parent")
        for sid, covered in enumerate(child_ns):
            if self.ends[sid] - self.starts[sid] - covered < 0:
                errors.append(f"span {sid} {self.names[sid]} has negative self time")
        return errors

    def layer_calls(self, pass_id: int) -> Counter:
        """Spans per layer in one pass, by the layer named in the span."""
        return Counter(self.names[i].split(".")[0]
                       for i, p in enumerate(self.passes) if p == pass_id)

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer counts and times of one traced pass, all but RUN_METRICS."""
        ids = [i for i, p in enumerate(self.passes) if p == pass_id]
        calls = Counter(self.names[i] for i in ids)
        inclusive = Counter()
        self_ns = Counter()
        for i in ids:
            dur = self.ends[i] - self.starts[i]
            self_ns[self.layer_of(i)] += dur
            p = self.parents[i]
            if p >= 0:
                self_ns[self.layer_of(p)] -= dur
            # a call nested in a call of the same name is already inside it
            q = p
            while q >= 0 and self.names[q] != self.names[i]:
                q = self.parents[q]
            if q < 0:
                inclusive[self.names[i]] += dur
        counters = self.counters.get(pass_id, Counter())
        out = {}
        for key in METRIC_UNITS:
            if key in RUN_METRICS:
                continue
            base, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = calls[base]
            elif kind == "s":
                out[key] = inclusive[base] / 1e9
            elif kind == "self_s":
                out[key] = self_ns[base] / 1e9
            else:
                out[key] = counters[key]
        eta_prime_calls = calls["cutoff.eta_prime"]
        out["cutoff.repeat_point_ratio"] = (counters["cutoff.repeat_points"] / eta_prime_calls
                                            if eta_prime_calls else 0.0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        """The sidecar: every span of the run, times in ns from the first span."""
        t0 = min(self.starts, default=0)
        doc = {"meta": meta,
               "columns": ["id", "name", "start_ns", "end_ns", "parent", "pass"],
               "spans": [[i, self.names[i], self.starts[i] - t0, self.ends[i] - t0,
                          self.parents[i], self.passes[i]] for i in range(len(self.names))]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def warm_metrics(per_pass: list[dict]) -> dict:
    """Counts of the last warm pass (the run checks that they repeat) and the
    median of every other metric over the warm passes."""
    return {k: per_pass[-1][k] if k in COUNT_METRICS
            else statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
