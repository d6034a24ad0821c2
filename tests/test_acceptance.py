"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on success) and
enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from modlab import cuntz, suites
from modlab.cli import preset_data
from modlab.cutoff import energy, energy_limit, eta_st, minimize_discrete
from modlab.field import (
    Ball,
    Wedge,
    boundary_term_prediction,
    entropy_bound,
    exact_entropy,
    squeeze_sweep,
)
from oracles import box_integral


def report(number, label, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert passed, f"criterion {number} failed: {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_findim_modular_suite():
    budget = 60.0
    start = time.time()
    result = suites.run_findim_suite(seed=20260810, trials=1000)
    elapsed = time.time() - start
    worst = result.summary["worst_residuals"]
    detail = ("1000 instances dims 2-4, worst residuals "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    report(1, "finite-dim modular suite", result.passed, detail, elapsed, budget)


def test_criterion_2_theorem_inequalities():
    budget = 120.0
    start = time.time()
    result = suites.run_theorem_suite(seed=20260810, theorem_trials=500,
                                      monotonicity_trials=1000)
    elapsed = time.time() - start
    detail = (f"500 nested-bound + 1000 monotonicity trials, "
              f"min margin {result.summary['min_margin']:.3e} >= -1e-8")
    passed = result.passed and result.summary["min_margin"] >= -1e-8
    report(2, "theorem inequalities", passed, detail, elapsed, budget)


def test_criterion_3_fock_identity_suite():
    budget = 300.0
    start = time.time()
    result = suites.run_fock_suite(seed=20260810, cutoff_n=12)
    pinned = [r for r in result.rows if r["check_name"] == "coherent_entropy_pinned"]
    pinned_ok = pinned and pinned[0]["params"].startswith("analytic_0.013863")
    elapsed = time.time() - start
    worst = {}
    for row in result.rows:
        worst[row["check_name"]] = max(worst.get(row["check_name"], 0.0),
                                       row["residual"])
    detail = ("n=2 N=12 |chi|<=0.5, worst residuals "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    report(3, "Fock identity suite", result.passed and pinned_ok, detail,
           elapsed, budget)


def test_criterion_4_cutoff_lemma():
    budget = 30.0
    start = time.time()
    e_val = energy(eta_st(1.5, 200.0))
    limit_ok = abs(e_val - 1.0 / math.log(5.0)) <= 0.01
    arith_ok = abs(energy_limit(3.0) - 1.0 / math.log(2.0)) <= 1e-12
    arith_ok &= abs(energy_limit(3.0) - 1.4427) <= 1e-4
    _, minimum = minimize_discrete(20000)
    _, doubled = minimize_discrete(40000)
    min_ok = abs(minimum - 0.10) <= 0.01 and doubled < minimum
    elapsed = time.time() - start
    detail = (f"E[eta_(1.5,200)]={e_val:.4f} vs 1/log5={1 / math.log(5):.4f}, "
              f"limit(3)={energy_limit(3.0):.4f}, discrete min={minimum:.4f} "
              f"-> {doubled:.4f} under doubling")
    report(4, "cutoff lemma", limit_ok and arith_ok and min_ok, detail,
           elapsed, budget)


# (panels per axis, Gauss order) per dimension; each reproduces the oracle
# integrals to better than 1e-6 relative, far inside the 1e-4 slope law
TENSOR_RULE = {1: (16, 16), 2: (8, 16), 3: (4, 12)}


def _field_energy(g):
    """int (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x."""
    m2 = g.mass ** 2
    return (box_integral(g.g0, lambda x, v, gr: np.sum(gr * gr, axis=1) + m2 * v * v,
                         TENSOR_RULE)
            + box_integral(g.g1, lambda x, v, gr: v * v, TENSOR_RULE))


def _cone_gap_oracle(g, r, eps):
    """Weight-difference oracle for the interior cone gap: (pi/2) times the
    integral of the closed-form difference of the squeezed weights against
    the data, for data supported inside the inner ball."""
    r_p, r_m = r + 2.0 * eps, r - 2.0 * eps
    assert all(np.linalg.norm(b.center) + max(b.width) < r_m for b in g.g0 + g.g1)
    d = g.dimension
    inv = 1.0 / r_p - 1.0 / r_m

    def dbeta(x):
        return (r_p - r_m) / 2.0 - np.sum(x * x, axis=1) * inv / 2.0

    total = box_integral(g.g0, lambda x, v, gr: dbeta(x) * np.sum(gr * gr, axis=1)
                         + (d - 1) / 2.0 * inv * v * v, TENSOR_RULE)
    total += box_integral(g.g1, lambda x, v, gr: dbeta(x) * v * v, TENSOR_RULE)
    return 0.5 * math.pi * total


def test_criterion_5_squeeze_theorems():
    budget = 600.0
    start = time.time()
    configs = [("wedge d=1 m=0", Wedge(), 1, 0.0), ("wedge d=1 m=1", Wedge(), 1, 1.0),
               ("wedge d=2 m=0", Wedge(), 2, 0.0), ("wedge d=2 m=1", Wedge(), 2, 1.0),
               ("cone d=3 r=1", Ball(1.0), 3, 0.0)]
    schedule = [(1e-2, 1.8, 40.0), (3e-3, 1.6, 100.0), (1e-3, 1.5, 200.0)]
    prof = eta_st(1.5, 200.0)
    failures = []
    for label, region, d, mass in configs:
        geometry = "cone" if isinstance(region, Ball) else "wedge"
        interior = preset_data(geometry, d, mass, "interior")
        boundary = preset_data(geometry, d, mass, "boundary")

        recs = squeeze_sweep(interior, region, schedule)
        if not all(r.ordering_ok() for r in recs):
            failures.append(f"{label}: ordering violated")
        if recs[-1].relative_gap() > 0.02:
            failures.append(f"{label}: final gap {recs[-1].relative_gap():.4f} > 2%")

        for eps in (4e-3, 2e-3, 1e-3):
            hp = entropy_bound(interior, region, "upper", prof, eps)
            hm = entropy_bound(interior, region, "lower", prof, eps)
            gap = hp.value - hm.value
            if isinstance(region, Ball):
                expected = _cone_gap_oracle(interior, region.radius, eps)
            else:
                expected = eps * 2.0 * math.pi * _field_energy(interior)
            if abs(gap - expected) > 1e-4 * expected:
                failures.append(
                    f"{label} eps={eps}: gap dev {abs(gap - expected) / expected:.2e}")

        h_exact = exact_entropy(boundary, region)
        recs_b = squeeze_sweep(boundary, region,
                               [(0.02, 1.5, 200.0), (0.01, 1.5, 200.0), (0.005, 1.5, 200.0)])
        if not all(r.ordering_ok() for r in recs_b):
            failures.append(f"{label}: boundary ordering violated")
        for side, sign in (("upper", 1.0), ("lower", -1.0)):
            pred = boundary_term_prediction(boundary, region, prof, side)
            epss = [0.02, 0.01, 0.005]
            diffs = [entropy_bound(boundary, region, side, prof, e).value - h_exact.value
                     for e in epss]
            a = np.vstack([np.ones(3), epss]).T
            coef, *_ = np.linalg.lstsq(a, np.array(diffs), rcond=None)
            if abs(coef[0] - pred) > 0.05 * abs(pred):
                failures.append(f"{label} {side}: boundary term {coef[0]:.4f} vs {pred:.4f}")
    elapsed = time.time() - start
    detail = "all 5 configurations ordered, 2% gaps, slope and boundary laws" \
        if not failures else "; ".join(failures)
    report(5, "squeeze theorems", not failures, detail, elapsed, budget)


def test_criterion_6_signalling():
    budget = 120.0
    start = time.time()
    failures = []

    scenario = cuntz.make_scenario(2, 16, 32, seed=20260810)
    ns = cuntz.nonsignalling_check(scenario)
    if ns["max_commutator"] > 1e-12:
        failures.append(f"commutator {ns['max_commutator']:.2e}")

    floor = cuntz.gap_floor(0.01)
    if abs(floor - (0.99 * math.sqrt(2 - math.sqrt(2)) - 2 * math.sqrt(0.02))) > 1e-14:
        failures.append("floor arithmetic")
    if abs(floor - 0.4749) > 5e-5:
        failures.append(f"floor value {floor:.6f}")
    gap = cuntz.norm_gap_experiment(0.01, samples=200, d_factor=32,
                                    seed=20260810, adversarial=True)
    if not gap["pass"]:
        failures.append(f"norm gap breached: {gap}")

    recon = cuntz.product_reconstruction(2, 8, 16)
    if recon["factorization_residual"] > 1e-12:
        failures.append(f"reconstruction residual {recon['factorization_residual']:.2e}")
    cert = cuntz.certify_no_product_form(epsilon=0.01, d_factor=16, seed=20260810)
    if not (cert["certified_floor"] > 0.1 and cert["pass"]):
        failures.append(f"certification failed: {cert}")

    elapsed = time.time() - start
    detail = (f"commutators {ns['max_commutator']:.1e}, floor {floor:.4f}, "
              f"min sampled gap {gap['min_gap']:.4f}, reconstruction "
              f"{recon['factorization_residual']:.1e}, certified gap floor "
              f"{cert['certified_floor']:.4f}") if not failures else "; ".join(failures)
    report(6, "signalling", not failures, detail, elapsed, budget)
