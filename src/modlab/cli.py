"""Configuration-driven command line:

    modlab GROUP ACTION [--config FILE] [--out DIR] [key=value ...]

The two bare words name one (group, action) of `SCHEMAS`; every other token,
anywhere on the line, is a setting `--key value`, `--key=value` or `key=value`.
`config` names a flat key=value file of parameters that the other settings
override, `out` the artifact directory; unknown keys are rejected.

Each command returns its results as columns and `main` alone writes them:
results.csv (17-significant-digit values, formatted a column at a time),
summary.json, plot.txt where a plot is meaningful, and manifest.json listing
every emitted file with its SHA-256 digest (timestamps live only in the manifest).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from itertools import groupby
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

def _point(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


# mass <= 1e100 keeps m^2 (up to 1e200) times the O(1) preset sections finite
FIELD_KEYS = {"geometry": (str, lambda v: v in ("wedge", "cone"), "wedge"),
              "d": (int, lambda v: v in (1, 2, 3), 1),
              "mass": (float, lambda v: 0 <= v <= 1e100, 0.0),
              "r": (float, lambda v: v > 0, 1.0),
              "data": (str, lambda v: v in ("interior", "boundary"), "interior")}

# A rule the library enforces itself, with a ConfigError, is not repeated here:
# its key accepts every value (lambda v: True), and the library refuses it.
SCHEMAS = {
    ("findim", "suite"): {"trials": (int, lambda v: 1 <= v <= 10 ** 6, 1000)},
    ("fock", "suite"): {"cutoff": (int, lambda v: v <= 20, 12)},
    ("scalar", "exact"): FIELD_KEYS,
    ("scalar", "bound"): {**FIELD_KEYS,
                          "side": (str, lambda v: v in ("upper", "lower"), "upper"),
                          "s": (float, lambda v: True, 1.5),
                          "t": (float, lambda v: True, 200.0),
                          "epsilon": (float, lambda v: True, 0.01)},
    ("scalar", "sweep"): {**FIELD_KEYS,
                          "schedule": (str, lambda v: True,
                                       "1e-2:1.8:40;3e-3:1.6:100;1e-3:1.5:200")},
    # cosh s and sinh s overflow past |s| = 710.4
    ("scalar", "flow"): {"geometry": FIELD_KEYS["geometry"], "r": FIELD_KEYS["r"],
                         "s": (float, lambda v: abs(v) <= 700, 1.0),
                         "point": (_point, lambda v: len(v) >= 2, (0.0, 0.5))},
    ("cutoff", "energy"): {"s": (float, lambda v: True, 1.5),
                           "t": (float, lambda v: True, 200.0)},
    ("cutoff", "limit"): {"s": (float, lambda v: True, 3.0)},
    # minimize_discrete allocates O(n_grid) arrays
    ("cutoff", "minimize"): {"n_grid": (int, lambda v: v <= 10 ** 6, 20000)},
    ("signalling", "check"): {"n": (int, lambda v: True, 2),
                              "d1": (int, lambda v: v >= 4, 16),
                              "d2": (int, lambda v: v >= 4, 32)},
    ("signalling", "gap"): {"epsilon": (float, lambda v: True, 0.01),
                            "samples": (int, lambda v: 1 <= v <= 10 ** 5, 200),
                            # the 12-term reference tail needs (d - 2)//2 >= 12; 200
                            # samples take 0.5 s at 256 (1 BLAS thread)
                            "d_factor": (int, lambda v: 26 <= v <= 256, 32)},
    # the shift families are n dense dim^2 matrices
    ("signalling", "factorize"): {"n": (int, lambda v: True, 2),
                                  "outer_dim": (int, lambda v: 4 <= v <= 1024, 8),
                                  "middle_dim": (int, lambda v: 4 <= v <= 1024, 16)},
}

COMMON_KEYS = {"seed": (int, lambda v: 0 <= v < 2 ** 63, 0)}

USAGE = ("usage: modlab GROUP ACTION [--config FILE] [--out DIR] "
         "[--key value | --key=value | key=value ...]\n"
         "commands: " + ", ".join(f"{group} {action}" for group, action in SCHEMAS))


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

_FLOAT = "%.17g".__mod__  # the text of format(value, ".17g"), a quarter faster
_BOOL = {True: "true", False: "false"}.__getitem__
# formatter by exact type, one lookup per run of same-type cells in a CSV column;
# the isinstance rule below takes every other type (subclasses too) to the same text
_FORMATTERS = {float: _FLOAT, np.float64: _FLOAT, bool: _BOOL, np.bool_: _BOOL, int: str, str: str}


def _fmt(value) -> str:
    formatter = _FORMATTERS.get(type(value))
    if formatter is not None:
        return formatter(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT(value)
    return str(value)


def _format_column(cells: list) -> list[str]:
    return [text for kind, run in groupby(cells, type)
            for text in map(_FORMATTERS.get(kind, _fmt), run)]


def write_csv(path: Path, columns: dict) -> None:
    """The header of column names, then a line per row of the equal-length columns."""
    lines = [",".join(columns)]
    lines += map(",".join, zip(*map(_format_column, columns.values())))
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, summary: dict) -> None:
    # np.float64 is a float; `default` takes the other numpy scalars and arrays
    path.write_text(json.dumps(summary, sort_keys=True, indent=2,
                               default=lambda obj: obj.tolist()) + "\n")


def write_plot_script(path: Path, curves: list[tuple[int, int, str]], notes: str) -> None:
    lines = [
        "# column-indexed plot recipe (1-based indices into the CSV below)",
        "data results.csv delimiter=, header=1",
    ]
    for x_col, y_col, label in curves:
        lines.append(f'curve x={x_col} y={y_col} label="{label}"')
    lines.append(f"# {notes}")
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out_dir: Path, names: list[str]) -> None:
    """manifest.json: digest and size of each named file, the files this run wrote."""
    entries = []
    for name in sorted(names):
        p = out_dir / name
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        entries.append({"file": p.name, "sha256": digest, "bytes": p.stat().st_size})
    manifest = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "files": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True,
                                                      indent=2) + "\n")


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _emit(out_dir: str | None, columns: dict, summary: dict,
          plot: tuple[list[tuple[int, int, str]], str] | None) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "results.csv", columns)
    write_summary(out / "summary.json", summary)
    names = ["results.csv", "summary.json"]
    if plot is not None:
        write_plot_script(out / "plot.txt", *plot)
        names.append("plot.txt")
    write_manifest(out, names)


def _one_row(record: dict) -> dict:
    return {name: [value] for name, value in record.items()}


# Each command returns (columns, summary, plot, line): the CSV columns by name, a summary
# with "passed", a plot recipe and a line, or None.
def cmd_suite(group: str, params: dict) -> tuple:
    """The suite of a suite group: its one action is `suite`, its group names it."""
    seed = params["seed"]
    if group == "fock":
        result = suites.run_fock_suite(seed=seed, cutoff_n=params["cutoff"])
        columns, summary = result.columns, result.summary
    else:
        result = suites.run_findim_suite(seed=seed, trials=params["trials"])
        theorem = suites.run_theorem_suite(seed=seed,
                                           theorem_trials=max(params["trials"] // 2, 1),
                                           monotonicity_trials=params["trials"])
        n, m = result.summary["checks"], theorem.summary["checks"]
        # each suite leaves the other's columns blank
        columns = {name: result.columns.get(name, [""] * n) + theorem.columns.get(name, [""] * m)
                   for name in ("check", "trial_seed", "residual", "tolerance",
                                "lhs", "rhs", "margin", "pass")}
        summary = {"findim": result.summary, "theorem": theorem.summary,
                   "passed": result.passed and theorem.passed}
    line = f"{group} suite: {len(columns['pass'])} checks, passed={summary['passed']}"
    return columns, summary, None, line


def cmd_scalar(action: str, params: dict) -> tuple:
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
        columns = {"coordinate": list(range(point.size)), "before": point.tolist(),
                   "after": mapped.tolist()}
        line = f"flow({params['s']:g}) -> {mapped.tolist()} factor {_fmt(factor)}"
        return columns, summary, None, line
    g = preset_data(geometry, params["d"], params["mass"], params["data"])
    region = preset_region(geometry, params["r"])
    if action == "exact":
        res = exact_entropy(g, region)
        row = {"value": res.value, "quad_error": res.error}
        return _one_row(row), {**row, "passed": True}, None, _fmt(res.value)
    if action == "bound":
        prof = eta_st(params["s"], params["t"])
        res = entropy_bound(g, region, params["side"], prof, params["epsilon"])
        row = {"value": res.value, "quad_error": res.error,
               "boundary_prediction": boundary_term_prediction(g, region, prof, params["side"])}
        return _one_row(row), {**row, "passed": True}, None, _fmt(res.value)
    # sweep
    records = squeeze_sweep(g, region, parse_schedule(params["schedule"]))
    columns = {name: [getattr(r, attr) for r in records] for name, attr in zip(
        ("epsilon", "s", "t", "H_minus", "H_exact", "H_plus", "gap", "quad_err"),
        ("epsilon", "s", "t", "h_minus", "h_exact", "h_plus", "gap", "quad_error_estimate"))}
    ordered = all(r.ordering_ok() for r in records)
    summary = {"entries": len(records), "ordering_ok": ordered, "passed": ordered}
    if len({r.epsilon for r in records}) >= 2:  # a line needs two distinct epsilons
        fit = np.polyfit(columns["epsilon"], columns["gap"], 1)
        summary["gap_slope"] = float(fit[0])
        summary["gap_intercept"] = float(fit[1])
        summary["final_relative_gap"] = records[-1].relative_gap()
    plot = ([(1, 4, "H_minus"), (1, 5, "H_exact"), (1, 6, "H_plus"), (1, 7, "gap")],
            "squeeze sweep; epsilon on the x axis")
    return columns, summary, plot, None


def cmd_cutoff(action: str, params: dict) -> tuple:
    if action == "limit":
        row = {"s": params["s"], "limit": energy_limit(params["s"])}
        return _one_row(row), {**row, "passed": True}, None, _fmt(row["limit"])
    if action == "energy":
        e_val = energy(eta_st(params["s"], params["t"]))
        limit = energy_limit(params["s"])
        row = {"s": params["s"], "t": params["t"], "E": e_val,
               "E_limit": limit, "gap": e_val - limit}
        return _one_row(row), {**row, "passed": True}, None, _fmt(e_val)
    values, minimum = minimize_discrete(params["n_grid"])
    step = max(1, values.size // 2000)
    grid = np.linspace(-1.0, 1.0, values.size)
    columns = {"x": grid[::step].tolist(), "eta": values[::step].tolist()}
    summary = {"n_grid": params["n_grid"], "minimum": minimum, "passed": True}
    plot = ([(1, 2, "eta")], "discrete transition minimizer")
    return columns, summary, plot, _fmt(minimum)


def cmd_signalling(action: str, params: dict) -> tuple:
    from . import cuntz
    if action == "check":
        # the cuntz-sum scenario holds a dense (d1 d2)^2 complex unitary
        if params["d1"] * params["d2"] > 4096:
            raise ConfigError(f"d1*d2 = {params['d1'] * params['d2']} exceeds 4096")
        scenario = cuntz.make_scenario(params["n"], params["d1"], params["d2"],
                                       seed=params["seed"])
        rep = cuntz.nonsignalling_check(scenario)
        line = f"max commutator {_fmt(rep['max_commutator'])}"
        return _one_row(rep), {**rep, "passed": rep["pass"]}, None, line
    if action == "gap":
        rep = cuntz.norm_gap_experiment(params["epsilon"], params["samples"],
                                        d_factor=params["d_factor"],
                                        seed=params["seed"])
        line = f"floor {_fmt(rep['floor'])} min gap {_fmt(rep['min_gap'])}"
        return _one_row(rep), {**rep, "passed": rep["pass"]}, None, line
    # the factorization's column maps hold outer^2 middle entries each
    size = params["outer_dim"] ** 2 * params["middle_dim"]
    if size > 2 ** 20:
        raise ConfigError(f"outer_dim^2*middle_dim = {size} exceeds 2^20")
    rep = cuntz.product_reconstruction(params["n"], params["outer_dim"],
                                       params["middle_dim"])
    cert = cuntz.certify_no_product_form(seed=params["seed"])
    summary = {"reconstruction": rep, "no_middle_certificate": cert,
               "passed": rep["pass"] and cert["pass"]}
    line = f"factorization residual {_fmt(rep['factorization_residual'])}"
    return _one_row(rep), summary, None, line


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _tokenize(argv: list[str]) -> tuple[list[str], dict]:
    """argv's bare words, and its settings `--key value`, `--key=value`, `key=value`."""
    words, raw = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--") and "=" not in token:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"flag {token} is missing a value")
            token = f"{token}={value}"
        if "=" not in token:
            words.append(token)
            continue
        key, value = token.split("=", 1)
        raw[key.strip().removeprefix("--").replace("-", "_")] = value.strip()
    return words, raw


def _check_out_dir(out_dir: str) -> None:
    """Refuse, creating nothing, an artifact directory that cannot be made: an existing
    non-directory, or one whose nearest existing ancestor is no writable directory."""
    ancestor = Path(out_dir).absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write artifacts to {out_dir}: "
                          f"{ancestor} is not a writable directory")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return EXIT_OK
    try:
        words, raw = _tokenize(argv)
        if len(words) < 2 or words[0] not in {group for group, _ in SCHEMAS}:
            print(USAGE, file=sys.stderr)
            return EXIT_CONFIG
        group, action = words[:2]
        if (group, action) not in SCHEMAS:
            raise ConfigError(
                f"unknown action {action!r} for {group}; "
                f"expected one of {sorted(a for g, a in SCHEMAS if g == group)}")
        if len(words) > 2:
            raise ConfigError(f"unparseable argument {words[2]!r}")
        config, out_dir = raw.pop("config", None), raw.pop("out", None)
        params = resolve_params(group, action,
                                {**(parse_config_file(config) if config else {}), **raw})
        if out_dir is not None:
            _check_out_dir(out_dir)
        command = {"findim": cmd_suite, "fock": cmd_suite, "scalar": cmd_scalar,
                   "cutoff": cmd_cutoff, "signalling": cmd_signalling}[group]
        columns, summary, plot, line = command(group if action == "suite" else action, params)
        _emit(out_dir, columns, summary, plot)
        if line is not None:
            print(line)
        return EXIT_OK if summary["passed"] else EXIT_TOLERANCE
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
