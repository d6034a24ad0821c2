"""Configuration-driven command line.

Runs the check suites and the field sweeps, emitting deterministic artifacts:
results.csv (17-significant-digit values), summary.json, plot.txt where a
plot is meaningful, and manifest.json listing every emitted file with its
SHA-256 digest (timestamps live only in the manifest).

Configuration is a flat key=value text file; command-line --key value flags
override the file.  Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import suites
from .cutoff import energy, energy_limit, eta_st, minimize_discrete
from .errors import ConfigError, ModlabError
from .field import (
    Ball,
    BumpFunction,
    InitialData,
    Wedge,
    boundary_term_prediction,
    entropy_bound,
    exact_entropy,
    modular_flow_point,
    squeeze_sweep,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_COMPUTATION = 3


# --------------------------------------------------------------------------
# parameter schemas
# --------------------------------------------------------------------------

def _positive(x):
    return x > 0


def _point(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


# mass <= 1e100 keeps m^2 (up to 1e200) times the O(1) preset sections finite
FIELD_KEYS = {"geometry": (str, lambda v: v in ("wedge", "cone"), "wedge"),
              "d": (int, lambda v: v in (1, 2, 3), 1),
              "mass": (float, lambda v: 0 <= v <= 1e100, 0.0),
              "r": (float, _positive, 1.0),
              "data": (str, lambda v: v in ("interior", "boundary"), "interior")}

SCHEMAS = {
    ("findim", "suite"): {"trials": (int, lambda v: 1 <= v <= 10 ** 6, 1000)},
    # the coherent-entropy check is built for two modes, and below cutoff 7
    # the degree-3 particle bound overruns the truncation
    ("fock", "suite"): {"modes": (int, lambda v: v == 2, 2),
                        "cutoff": (int, lambda v: 7 <= v <= 20, 12)},
    ("scalar", "exact"): FIELD_KEYS,
    ("scalar", "bound"): {**FIELD_KEYS,
                          "side": (str, lambda v: v in ("upper", "lower"), "upper"),
                          "s": (float, lambda v: v > 1, 1.5),
                          "t": (float, _positive, 200.0),
                          "epsilon": (float, _positive, 0.01)},
    ("scalar", "sweep"): {**FIELD_KEYS,
                          "schedule": (str, lambda v: True,
                                       "1e-2:1.8:40;3e-3:1.6:100;1e-3:1.5:200")},
    # cosh s and sinh s overflow past |s| = 710.4
    ("scalar", "flow"): {"geometry": FIELD_KEYS["geometry"], "r": FIELD_KEYS["r"],
                         "s": (float, lambda v: abs(v) <= 700, 1.0),
                         "point": (_point, lambda v: len(v) >= 2, (0.0, 0.5))},
    ("cutoff", "energy"): {"s": (float, lambda v: v > 1, 1.5),
                           "t": (float, _positive, 200.0)},
    ("cutoff", "limit"): {"s": (float, lambda v: v > 1, 3.0)},
    ("cutoff", "minimize"): {"n_grid": (int, lambda v: v >= 3, 20000)},
    ("signalling", "check"): {"n": (int, lambda v: v >= 1, 2),
                              "d1": (int, lambda v: v >= 4, 16),
                              "d2": (int, lambda v: v >= 4, 32)},
    ("signalling", "gap"): {"epsilon": (float, lambda v: 0 < v <= 0.05, 0.01),
                            "samples": (int, lambda v: 1 <= v <= 10 ** 5, 200),
                            # the 12-term reference tail needs (d - 2)//2 >= 12
                            "d_factor": (int, lambda v: v >= 26, 32)},
    ("signalling", "factorize"): {"n": (int, lambda v: v >= 1, 2),
                                  "outer_dim": (int, lambda v: v >= 4, 8),
                                  "middle_dim": (int, lambda v: v >= 4, 16)},
}

COMMON_KEYS = {"seed": (int, lambda v: 0 <= v < 2 ** 63, 0),
               "tolerance_scale": (float, _positive, 1.0)}


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def resolve_params(group: str, action: str, raw: dict) -> dict:
    schema = dict(SCHEMAS[(group, action)])
    schema.update(COMMON_KEYS)
    params = {key: default for key, (_, _, default) in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown parameter {key!r} for {group} {action}")
        typ, check, _ = schema[key]
        try:
            parsed = typ(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameter {key}={value!r}: {exc}") from exc
        if typ in (float, _point) and not np.all(np.isfinite(parsed)):
            raise ConfigError(f"parameter {key}={value!r} is not finite")
        if not check(parsed):
            raise ConfigError(f"parameter {key}={parsed!r} out of range")
        params[key] = parsed
    return params


# --------------------------------------------------------------------------
# canonical data presets
# --------------------------------------------------------------------------

def preset_data(geometry: str, d: int, mass: float, data: str) -> InitialData:
    if geometry == "cone":
        if d != 3:
            raise ConfigError(f"cone presets are three-dimensional, not d = {d}")
        width = 0.5 if data == "interior" else 1.3
        return InitialData((BumpFunction((0.0, 0.0, 0.0), (width,) * 3),), (), 3, mass)
    if d == 1:
        center = 2.0 if data == "interior" else 0.0
        return InitialData((BumpFunction((center,), (1.0,)),),
                           (BumpFunction((center - 0.2,), (0.6,), 0.5),), 1, mass)
    if d == 2:
        if data == "interior":
            return InitialData((BumpFunction((1.5, 0.3), (0.8, 0.9)),),
                               (BumpFunction((1.4, -0.2), (0.7, 0.8), 0.7),), 2, mass)
        return InitialData((BumpFunction((0.0, 0.0), (0.9, 1.0)),), (), 2, mass)
    raise ConfigError(f"wedge presets exist for d = 1 and d = 2, not d = {d}")


def preset_region(geometry: str, r: float):
    return Wedge() if geometry == "wedge" else Ball(r)


def parse_schedule(text: str) -> list[tuple[float, float, float]]:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"schedule entry {chunk!r} is not eps:s:t")
        try:
            entries.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"schedule entry {chunk!r}: {exc}") from exc
    return entries


# --------------------------------------------------------------------------
# artifact writing
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, (np.bool_,)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, rows: list, header: list[str] | None = None) -> None:
    lines = []
    if rows:
        header = header or list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row.get(col, "")) for col in header))
    elif header:
        lines.append(",".join(header))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n")


def write_plot_script(path: Path, csv_name: str, curves: list[tuple[int, int, str]],
                      notes: str = "") -> None:
    lines = [
        "# column-indexed plot recipe (1-based indices into the CSV below)",
        f"data {csv_name} delimiter=, header=1",
    ]
    for x_col, y_col, label in curves:
        lines.append(f'curve x={x_col} y={y_col} label="{label}"')
    if notes:
        lines.append(f"# {notes}")
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out_dir: Path) -> None:
    entries = []
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        entries.append({"file": p.name, "sha256": digest, "bytes": p.stat().st_size})
    manifest = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "files": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True,
                                                      indent=2) + "\n")


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _emit(out_dir: str | None, rows: list, summary: dict,
          header: list[str] | None = None,
          plot: tuple[list[tuple[int, int, str]], str] | None = None) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "results.csv", rows, header)
    write_summary(out / "summary.json", summary)
    if plot is not None:
        curves, notes = plot
        write_plot_script(out / "plot.txt", "results.csv", curves, notes)
    write_manifest(out)


def cmd_suite(group: str, params: dict, out_dir: str | None) -> suites.SuiteResult:
    seed = params["seed"]
    scale = params["tolerance_scale"]
    if group == "findim":
        result = suites.run_findim_suite(seed=seed, trials=params["trials"],
                                         tolerance_scale=scale)
        theorem = suites.run_theorem_suite(seed=seed,
                                           theorem_trials=max(params["trials"] // 2, 1),
                                           monotonicity_trials=params["trials"],
                                           tolerance_scale=scale)
        rows = result.rows + theorem.rows
        summary = {"findim": result.summary, "theorem": theorem.summary,
                   "passed": result.passed and theorem.passed}
        merged = suites.SuiteResult(rows, summary)
        header = ["check", "trial_seed", "residual", "tolerance",
                  "lhs", "rhs", "margin", "pass"]
        _emit(out_dir, rows, summary, header)
        return merged
    result = suites.run_fock_suite(seed=seed, modes=params["modes"],
                                   cutoff_n=params["cutoff"], tolerance_scale=scale)
    _emit(out_dir, result.rows, result.summary)
    return result


def cmd_scalar(action: str, params: dict, out_dir: str | None) -> dict:
    geometry = params["geometry"]
    if action == "flow":
        point = np.array(params["point"])
        with np.errstate(all="ignore"):  # an overflow is refused just below
            mapped, factor = modular_flow_point(preset_region(geometry, params["r"]),
                                                params["s"], point)
        if not (np.all(np.isfinite(mapped)) and np.isfinite(factor)):
            raise ConfigError(f"the flow of point {params['point']} by s = {params['s']!r} "
                              f"overflows double precision")
        summary = {"point": point.tolist(), "mapped": mapped.tolist(),
                   "factor": factor, "passed": True}
        rows = [{"coordinate": i, "before": float(point[i]), "after": float(mapped[i])}
                for i in range(point.size)]
        _emit(out_dir, rows, summary)
        print(f"flow({params['s']:g}) -> {mapped.tolist()} factor {_fmt(factor)}")
        return summary
    g = preset_data(geometry, params["d"], params["mass"], params["data"])
    region = preset_region(geometry, params["r"])
    if action == "exact":
        res = exact_entropy(g, region)
        summary = {"value": res.value, "quad_error": res.error, "passed": True}
        _emit(out_dir, [{"value": res.value, "quad_error": res.error}], summary)
        print(_fmt(res.value))
        return summary
    if action == "bound":
        prof = eta_st(params["s"], params["t"])
        res = entropy_bound(g, region, params["side"], prof, params["epsilon"])
        pred = boundary_term_prediction(g, region, prof, params["side"])
        summary = {"value": res.value, "quad_error": res.error,
                   "boundary_prediction": pred, "passed": True}
        _emit(out_dir, [{"value": res.value, "quad_error": res.error,
                         "boundary_prediction": pred}], summary)
        print(_fmt(res.value))
        return summary
    # sweep
    records = squeeze_sweep(g, region, parse_schedule(params["schedule"]))
    rows = [{"epsilon": r.epsilon, "s": r.s, "t": r.t, "H_minus": r.h_minus,
             "H_exact": r.h_exact, "H_plus": r.h_plus, "gap": r.gap,
             "quad_err": r.quad_error_estimate} for r in records]
    ordered = all(r.ordering_ok() for r in records)
    summary = {"entries": len(records), "ordering_ok": ordered, "passed": ordered}
    if len(records) >= 2:
        eps = np.array([r.epsilon for r in records])
        gaps = np.array([r.gap for r in records])
        fit = np.polyfit(eps, gaps, 1)
        summary["gap_slope"] = float(fit[0])
        summary["gap_intercept"] = float(fit[1])
        summary["final_relative_gap"] = records[-1].relative_gap()
    header = ["epsilon", "s", "t", "H_minus", "H_exact", "H_plus", "gap", "quad_err"]
    plot = ([(1, 4, "H_minus"), (1, 5, "H_exact"), (1, 6, "H_plus"), (1, 7, "gap")],
            "squeeze sweep; epsilon on the x axis")
    _emit(out_dir, rows, summary, header, plot)
    return summary


def cmd_cutoff(action: str, params: dict, out_dir: str | None) -> dict:
    if action == "limit":
        value = energy_limit(params["s"])
        summary = {"s": params["s"], "limit": value, "passed": True}
        _emit(out_dir, [{"s": params["s"], "limit": value}], summary)
        print(_fmt(value))
        return summary
    if action == "energy":
        prof = eta_st(params["s"], params["t"])
        e_val = energy(prof)
        limit = energy_limit(params["s"])
        summary = {"s": params["s"], "t": params["t"], "E": e_val,
                   "E_limit": limit, "gap": e_val - limit, "passed": True}
        rows = [{"s": params["s"], "t": params["t"], "E": e_val,
                 "E_limit": limit, "gap": e_val - limit}]
        _emit(out_dir, rows, summary, ["s", "t", "E", "E_limit", "gap"])
        print(_fmt(e_val))
        return summary
    profile, minimum = minimize_discrete(params["n_grid"])
    grid = profile.grid
    rows = [{"x": float(x), "eta": float(v)} for x, v in
            zip(grid[:: max(1, grid.size // 2000)],
                profile.values[:: max(1, grid.size // 2000)])]
    summary = {"n_grid": params["n_grid"], "minimum": minimum, "passed": True}
    plot = ([(1, 2, "eta")], "discrete transition minimizer")
    _emit(out_dir, rows, summary, ["x", "eta"], plot)
    print(_fmt(minimum))
    return summary


def cmd_signalling(action: str, params: dict, out_dir: str | None) -> dict:
    from . import cuntz
    if action == "check":
        # the cuntz-sum scenario holds a dense (d1 d2)^2 complex unitary
        if params["d1"] * params["d2"] > 4096:
            raise ConfigError(f"d1*d2 = {params['d1'] * params['d2']} exceeds 4096")
        scenario = cuntz.make_scenario(params["n"], params["d1"], params["d2"],
                                       seed=params["seed"])
        rep = cuntz.nonsignalling_check(scenario)
        rep["passed"] = rep["pass"]
        _emit(out_dir, [rep], rep)
        print(f"max commutator {_fmt(rep['max_commutator'])}")
        return rep
    if action == "gap":
        rep = cuntz.norm_gap_experiment(params["epsilon"], params["samples"],
                                        d_factor=params["d_factor"],
                                        seed=params["seed"])
        rep["passed"] = rep["pass"]
        _emit(out_dir, [rep], rep,
              ["epsilon", "samples", "floor", "min_gap", "slack", "pass"])
        print(f"floor {_fmt(rep['floor'])} min gap {_fmt(rep['min_gap'])}")
        return rep
    rep = cuntz.product_reconstruction(params["n"], params["outer_dim"],
                                       params["middle_dim"])
    cert = cuntz.certify_no_product_form(seed=params["seed"])
    summary = {"reconstruction": rep, "no_middle_certificate": cert,
               "passed": rep["pass"] and cert["pass"]}
    _emit(out_dir, [rep], summary)
    print(f"factorization residual {_fmt(rep['factorization_residual'])}")
    return summary


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modlab",
                                     description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("group", choices=["findim", "fock", "scalar", "cutoff",
                                          "signalling"])
    parser.add_argument("action")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="artifact output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns, leftover = parser.parse_known_args(argv)
    except SystemExit:
        return EXIT_CONFIG
    try:
        group, action = ns.group, ns.action
        if (group, action) not in SCHEMAS:
            raise ConfigError(
                f"unknown action {action!r} for {group}; "
                f"expected one of {sorted(a for g, a in SCHEMAS if g == group)}")
        raw: dict = {}
        if ns.config:
            raw.update(parse_config_file(ns.config))
        # leftover tokens: --key value, --key=value and bare key=value overrides
        i = 0
        while i < len(leftover):
            token = leftover[i]
            if token.startswith("--") and "=" not in token:
                if i + 1 >= len(leftover):
                    raise ConfigError(f"flag {token} is missing a value")
                i += 1
                token = f"{token}={leftover[i]}"
            if "=" not in token:
                raise ConfigError(f"unparseable argument {token!r}")
            key, value = token.split("=", 1)
            raw[key.strip().removeprefix("--").replace("-", "_")] = value.strip()
            i += 1
        params = resolve_params(group, action, raw)

        if action == "suite":
            result = cmd_suite(group, params, ns.out)
            print(f"{group} suite: {result.summary.get('checks', len(result.rows))} "
                  f"checks, passed={result.passed}")
            return EXIT_OK if result.passed else EXIT_TOLERANCE
        command = {"scalar": cmd_scalar, "cutoff": cmd_cutoff,
                   "signalling": cmd_signalling}[group]
        summary = command(action, params, ns.out)
        return EXIT_OK if summary.get("passed", True) else EXIT_TOLERANCE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModlabError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
