"""The benchmark's three workloads: set-up, one pass, and the checks on its outputs.

Every modlab function is looked up through its module at call time
(`field.entropy_bound`, not a name imported once), so that the traced run's
wrappers, installed on those module attributes, see every call.

Each check applies an acceptance criterion's threshold exactly as
tests/test_acceptance.py states it. A check records residual / tolerance
(bound / value for a lower-bound check) so the run can report how much of its
tolerance the worst check used.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from modlab import cli, cuntz, cutoff, field

ACCEPTANCE_SEED = 20260810


class Checks:
    """Counts checks and failures and keeps the largest tolerance use."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tol_use_max = 0.0
        self.failures: list[str] = []

    def _record(self, name: str, ok: bool, use: float) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        self.tol_use_max = max(self.tol_use_max, use)

    def within(self, name: str, residual: float, tol: float, verdict: bool = True) -> None:
        """residual <= tol; `verdict`, the program's own where it reports one,
        must agree."""
        residual, tol = float(residual), float(tol)
        use = 0.0 if residual <= 0.0 else (residual / tol if tol > 0.0 else math.inf)
        self._record(name, residual <= tol and verdict, use)

    def above(self, name: str, value: float, bound: float, verdict: bool = True,
              strict: bool = False) -> None:
        """value >= bound (value > bound when strict); `verdict` as in within."""
        value, bound = float(value), float(bound)
        ok = value > bound if strict else value >= bound
        use = bound / value if value > 0.0 else math.inf
        self._record(name, ok and verdict, use)

    def holds(self, name: str, ok: bool) -> None:
        """A yes/no check with no tolerance to use."""
        self._record(name, bool(ok), 0.0)


# --------------------------------------------------------------------------
# squeeze: criteria 5 and 4 (quadrature, cutoff, field)
# --------------------------------------------------------------------------

CONFIGS = [("wedge", 1, 0.0), ("wedge", 1, 1.0), ("wedge", 2, 0.0),
           ("wedge", 2, 1.0), ("cone", 3, 0.0)]
SCHEDULE = [(1e-2, 1.8, 40.0), (3e-3, 1.6, 100.0), (1e-3, 1.5, 200.0)]
BOUNDARY_EPS = [0.02, 0.01, 0.005]
SLOPE_EPS = (4e-3, 2e-3, 1e-3)
CONE_RADIUS = 1.0


def _bump_terms(bumps, pts):
    """Value and gradient of a bump sum at points (n, d), from the bump formula
    amplitude * exp(1 - 1/(1 - s^2)) written out here, not taken from modlab."""
    val = np.zeros(pts.shape[0])
    grad = np.zeros_like(pts)
    for b in bumps:
        c, w = np.array(b.center), np.array(b.width)
        z = (pts - c) / w
        s2 = np.sum(z * z, axis=1)
        inside = s2 < 1.0
        one_minus = 1.0 - s2[inside]
        g = b.amplitude * np.exp(1.0 - 1.0 / one_minus)
        val[inside] += g
        grad[inside] += (-2.0 * g / one_minus ** 2)[:, None] * z[inside] / w
    return val, grad


_ORACLE_CHUNK = 1 << 12  # points per evaluation, so the oracle adds nothing to peak memory


def _box_integral(bumps, density, panels: int, order: int) -> np.ndarray:
    """Composite tensor Gauss-Legendre integrals of the columns of
    density(pts, value, grad) over the bumps' joint support box, a few slices
    of the first axis at a time."""
    d = len(bumps[0].center)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes, wts = [], []
    for i in range(d):
        lo = min(b.center[i] - b.width[i] for b in bumps)
        hi = max(b.center[i] + b.width[i] for b in bumps)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        axes.append(((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel())
        wts.append((half[:, None] * weights).ravel())
    if d == 1:
        rest_pts, rest_w = np.zeros((1, 0)), np.ones(1)
    else:
        rest = np.meshgrid(*axes[1:], indexing="ij")
        rest_pts = np.stack([g.ravel() for g in rest], axis=-1)
        rest_w = np.prod(np.meshgrid(*wts[1:], indexing="ij"), axis=0).ravel()
    total = 0.0
    step = max(1, _ORACLE_CHUNK // rest_w.size)
    for i in range(0, axes[0].size, step):
        x1, w1 = axes[0][i:i + step], wts[0][i:i + step]
        pts = np.column_stack([np.repeat(x1, rest_w.size), np.tile(rest_pts, (x1.size, 1))])
        val, grad = _bump_terms(bumps, pts)
        total = total + np.outer(w1, rest_w).ravel() @ density(pts, val, grad)
    return total


# (panels, order) per dimension; each reproduces the integrals to better than
# 1e-6 relative, far inside the 1e-4 slope law they serve
_ORACLE_RULE = {1: (16, 16), 2: (8, 16), 3: (4, 12)}


def gap_oracle(g, region):
    """Expected H+ - H- as a function of the collar eps, for data inside the region.

    Wedge: eps * 2 pi * int (|grad g0|^2 + m^2 g0^2 + g1^2). Cone: (pi/2) times
    the integral of the squeezed-weight difference
    (r+ - r-)/2 - |x|^2 (1/r+ - 1/r-)/2 against |grad g0|^2 + g1^2, plus
    (d-1)/2 (1/r+ - 1/r-) g0^2, over the whole space; this needs the data's
    support inside the inner ball. The moments are integrated here, on a
    tensor rule of their own, and share no code with modlab's field integrals.
    """
    rule = _ORACLE_RULE[g.dimension]

    def moments(bumps, terms):
        return _box_integral(bumps, terms, *rule) if bumps else 0.0

    if isinstance(region, field.Wedge):
        m2 = g.mass ** 2
        e = (moments(g.g0, lambda p, v, gr: np.sum(gr * gr, axis=1) + m2 * v * v)
             + moments(g.g1, lambda p, v, gr: v * v))
        return lambda eps: eps * 2.0 * math.pi * float(e)
    r = region.radius
    for b in g.g0 + g.g1:
        if float(np.linalg.norm(b.center)) + max(b.width) > r - 2.0 * SLOPE_EPS[0]:
            raise ValueError("cone oracle needs the data inside the inner ball")
    grad_terms = (lambda p, v, gr: np.stack([np.sum(gr * gr, axis=1),
                                             np.sum(p * p, axis=1) * np.sum(gr * gr, axis=1),
                                             v * v], axis=1))
    flat, weighted, mass_term = moments(g.g0, grad_terms)
    if g.g1:
        q, q_weighted = moments(g.g1, lambda p, v, gr: np.stack(
            [v * v, np.sum(p * p, axis=1) * v * v], axis=1))
        flat, weighted = flat + q, weighted + q_weighted
    d = g.dimension

    def expected(eps):
        r_p, r_m = r + 2.0 * eps, r - 2.0 * eps
        inv = 1.0 / r_p - 1.0 / r_m
        return 0.5 * math.pi * float((r_p - r_m) / 2.0 * flat - inv / 2.0 * weighted
                                     + (d - 1) / 2.0 * inv * mass_term)
    return expected


def setup_squeeze(seed: int, workdir: Path) -> dict:
    """Presets and reference gaps; squeeze has no random input, so `seed` is unused."""
    cases = []
    for geometry, d, mass in CONFIGS:
        region = cli.preset_region(geometry, CONE_RADIUS)
        interior = cli.preset_data(geometry, d, mass, "interior")
        boundary = cli.preset_data(geometry, d, mass, "boundary")
        oracle = gap_oracle(interior, region)
        expected = {eps: oracle(eps) for eps in SLOPE_EPS}
        cases.append((f"{geometry} d={d} m={mass:g}", region, interior, boundary,
                      expected))
    return {"cases": cases}


def _ordering(checks: Checks, label: str, recs) -> None:
    for rec in recs:
        violation = max(rec.h_minus - rec.h_exact, rec.h_exact - rec.h_plus, 0.0)
        checks.within(f"{label}: ordering", violation, rec.quad_error_estimate)


def pass_squeeze(inputs: dict, checks: Checks) -> None:
    prof = cutoff.eta_st(1.5, 200.0)
    for label, region, interior, boundary, expected in inputs["cases"]:
        recs = field.squeeze_sweep(interior, region, SCHEDULE)
        _ordering(checks, label, recs)
        checks.within(f"{label}: final gap", recs[-1].relative_gap(), 0.02)

        for eps in SLOPE_EPS:
            hp = field.entropy_bound(interior, region, "upper", prof, eps)
            hm = field.entropy_bound(interior, region, "lower", prof, eps)
            gap = hp.value - hm.value
            checks.within(f"{label} eps={eps}: slope law", abs(gap - expected[eps]),
                          1e-4 * expected[eps])

        h_exact = field.exact_entropy(boundary, region)
        recs_b = field.squeeze_sweep(boundary, region,
                                     [(e, 1.5, 200.0) for e in BOUNDARY_EPS])
        _ordering(checks, f"{label} boundary", recs_b)
        a = np.vstack([np.ones(len(BOUNDARY_EPS)), BOUNDARY_EPS]).T
        for side in ("upper", "lower"):
            pred = field.boundary_term_prediction(boundary, region, prof, side)
            diffs = [field.entropy_bound(boundary, region, side, prof, e).value
                     - h_exact.value for e in BOUNDARY_EPS]
            coef, *_ = np.linalg.lstsq(a, np.array(diffs), rcond=None)
            checks.within(f"{label} {side}: boundary term", abs(coef[0] - pred),
                          0.05 * abs(pred))

    # criterion 4: the cutoff lemma
    e_val = cutoff.energy(cutoff.eta_st(1.5, 200.0))
    checks.within("energy limit", abs(e_val - 1.0 / math.log(5.0)), 0.01)
    limit3 = cutoff.energy_limit(3.0)
    checks.within("limit arithmetic", abs(limit3 - 1.0 / math.log(2.0)), 1e-12)
    checks.within("limit value", abs(limit3 - 1.4427), 1e-4)
    _, minimum = cutoff.minimize_discrete(20000)
    _, doubled = cutoff.minimize_discrete(40000)
    checks.within("discrete minimum", abs(minimum - 0.10), 0.01)
    # a comparison of two computed values with no stated tolerance to use up
    checks.holds("discrete minimum decays", doubled < minimum)


# --------------------------------------------------------------------------
# signalling: criterion 6 (cuntz, linalg at up to 1024^2)
# --------------------------------------------------------------------------

def setup_signalling(seed: int, workdir: Path) -> dict:
    return {"seed": seed, "scenario": cuntz.make_scenario(2, 16, 32, seed=seed)}


def pass_signalling(inputs: dict, checks: Checks) -> None:
    seed = inputs["seed"]
    ns = cuntz.nonsignalling_check(inputs["scenario"])
    checks.within("commutator", ns["max_commutator"], 1e-12)

    floor = cuntz.gap_floor(0.01)
    formula = 0.99 * math.sqrt(2 - math.sqrt(2)) - 2 * math.sqrt(0.02)
    checks.within("floor arithmetic", abs(floor - formula), 1e-14)
    checks.within("floor value", abs(floor - 0.4749), 5e-5)
    gap = cuntz.norm_gap_experiment(0.01, samples=200, d_factor=32, seed=seed,
                                    adversarial=True)
    checks.above("norm gap", gap["min_gap"], gap["floor"] - gap["slack"],
                 verdict=gap["pass"])

    recon = cuntz.product_reconstruction(2, 8, 16)
    checks.within("reconstruction", recon["factorization_residual"], 1e-12)
    cert = cuntz.certify_no_product_form(epsilon=0.01, d_factor=16, seed=seed)
    checks.above("certified floor", cert["certified_floor"], 0.1, strict=True)
    checks.above("certificate", cert["best_alignment_gap"], cert["certified_floor"],
                 verdict=cert["pass"])


# --------------------------------------------------------------------------
# ensembles: criteria 1-3 through the CLI (modular, fock, suites, cli, small linalg)
# --------------------------------------------------------------------------

THEOREM_MARGIN_TOL = 1e-8  # criterion 2: min margin >= -1e-8
PINNED_PREFIX = "analytic_0.013863"  # criterion 3: the pinned coherent-entropy row


def setup_ensembles(seed: int, workdir: Path) -> dict:
    return {"seed": seed, "out_root": workdir, "passes": 0}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def pass_ensembles(inputs: dict, checks: Checks) -> None:
    """Run both suites through the CLI and check their artifacts.

    Passes alternate between the directories pass0 and pass1, so the previous
    pass's artifacts stay for the determinism probe.
    """
    seed = str(inputs["seed"])
    out = inputs["out_root"] / f"pass{inputs['passes'] % 2}"
    inputs["passes"] += 1
    findim_dir, fock_dir = out / "findim", out / "fock"
    with contextlib.redirect_stdout(io.StringIO()):
        code_findim = cli.main(["findim", "suite", "--seed", seed, "--out", str(findim_dir)])
        code_fock = cli.main(["fock", "suite", "--seed", seed, "--out", str(fock_dir)])
    checks.holds("findim exit code", code_findim == cli.EXIT_OK)
    checks.holds("fock exit code", code_fock == cli.EXIT_OK)

    rows = _rows(findim_dir / "results.csv")
    summary = json.loads((findim_dir / "summary.json").read_text())
    for row in rows:
        verdict = row["pass"] == "true"
        if row["residual"]:
            checks.within(row["check"], float(row["residual"]), float(row["tolerance"]),
                          verdict)
        else:
            checks.within(row["check"], max(-float(row["margin"]), 0.0),
                          THEOREM_MARGIN_TOL, verdict)
    checks.holds("findim row count", len(rows) == summary["findim"]["checks"]
                 + summary["theorem"]["checks"])
    checks.holds("findim summary passed", summary["passed"] is True)
    checks.within("theorem min margin", max(-summary["theorem"]["min_margin"], 0.0),
                  THEOREM_MARGIN_TOL)

    rows = _rows(fock_dir / "results.csv")
    summary = json.loads((fock_dir / "summary.json").read_text())
    for row in rows:
        checks.within(row["check_name"], float(row["residual"]), float(row["tolerance"]),
                      row["pass"] == "true")
    pinned = [r for r in rows if r["check_name"] == "coherent_entropy_pinned"]
    checks.holds("pinned coherent entropy",
                 bool(pinned) and pinned[0]["params"].startswith(PINNED_PREFIX))
    checks.holds("fock row count", len(rows) == summary["checks"])
    checks.holds("fock summary passed", summary["passed"] is True)


def unstable_artifacts(a: Path, b: Path) -> int:
    """Files under a and b whose bytes differ, leaving out manifest.json, whose
    timestamp and digests differ by design."""
    names = sorted(p.relative_to(a) for p in a.rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    return sum(1 for rel in names
               if not (b / rel).is_file() or (a / rel).read_bytes() != (b / rel).read_bytes())


WORKLOADS = {
    "squeeze": (setup_squeeze, pass_squeeze),
    "signalling": (setup_signalling, pass_signalling),
    "ensembles": (setup_ensembles, pass_ensembles),
}
