"""Batched check suites over seeded random ensembles.

Each suite returns uniform row dictionaries (one per executed check) plus an
aggregate summary; the command line writes them out as CSV/JSON and the
acceptance tests assert on the aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, modular

KLEIN_TOL = 1e-10
JOINT_INVARIANCE_TOL = 1e-9
CANCELLATION_TOL = 1e-8
POLAR_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
THEOREM_MARGIN_TOL = 1e-8
WEYL_TOL = 1e-6
GAMMA_CONJUGATION_TOL = 1e-6
GENERATOR_SHIFT_TOL = 1e-5
DERIVATIVE_TOL = 1e-6
COHERENT_ENTROPY_TOL = 1e-4


@dataclass(frozen=True)
class SuiteResult:
    rows: list
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed", False))


def _finish(rows: list, extra: dict) -> SuiteResult:
    summary = {
        "checks": len(rows),
        "failures": sum(1 for r in rows if not r["pass"]),
    }
    summary["passed"] = summary["failures"] == 0
    summary.update(extra)
    return SuiteResult(rows, summary)


# --------------------------------------------------------------------------
# finite-dimensional modular suite
# --------------------------------------------------------------------------

def run_findim_suite(seed: int = 0, trials: int = 1000,
                     tolerance_scale: float = 1.0) -> SuiteResult:
    """Klein positivity, joint unitary invariance, commutant cancellation,
    polar reconstruction and the closed-form modular operator, on random
    state pairs of dimension 2 to 4."""
    rows = []
    worst: dict[str, float] = {}

    def record(check, trial, residual, tol):
        tol = tol * tolerance_scale
        rows.append({"check": check, "trial_seed": trial,
                     "residual": float(residual), "tolerance": tol,
                     "pass": bool(residual <= tol)})
        worst[check] = max(worst.get(check, 0.0), float(residual))

    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        dim = 2 + trial % 3
        rho = modular.random_density(dim, rng)
        rho_t = modular.random_density(dim, rng)

        h = modular.rel_entropy_dm(rho, rho_t)
        record("klein_positivity", trial, max(-h, 0.0), KLEIN_TOL)

        u = modular.random_unitary(dim, rng)
        h_rot = modular.rel_entropy_dm(
            modular.DensityMatrix(u @ rho.matrix @ u.conj().T),
            modular.DensityMatrix(u @ rho_t.matrix @ u.conj().T))
        record("joint_unitary_invariance", trial,
               abs(h - h_rot) / max(1.0, abs(h)), JOINT_INVARIANCE_TOL)

        u_r = modular.random_unitary(dim, rng)
        v_r = modular.random_unitary(dim, rng)
        record("commutant_cancellation", trial,
               modular.check_commutant_cancellation(u_r, v_r, rho, rho_t),
               CANCELLATION_TOL)

        md = modular.modular_data(rho, rho_t)
        record("polar_reconstruction", trial, md.s_reconstruction_residual(),
               POLAR_TOL)
        ref = modular.delta_closed_form(rho, rho_t)
        record("delta_closed_form", trial,
               np.linalg.norm(md.Delta - ref, 2) / np.linalg.norm(ref, 2),
               CLOSED_FORM_TOL)

    return _finish(rows, {"suite": "findim", "trials": trials,
                          "worst_residuals": worst})


def run_theorem_suite(seed: int = 0, theorem_trials: int = 500,
                      monotonicity_trials: int = 1000,
                      tolerance_scale: float = 1.0) -> SuiteResult:
    """Nested-algebra entropy inequalities on 2x2 bipartite states and
    monotonicity of the relative entropy under the partial trace."""
    rows = []
    tol = THEOREM_MARGIN_TOL * tolerance_scale
    min_margin = math.inf
    for trial in range(theorem_trials):
        rng = np.random.default_rng(seed + trial)
        pb = modular.PurifiedBipartite(2, 2, modular.random_density(4, rng))
        u, v = modular.random_unitary(4, rng), modular.random_unitary(4, rng)
        u_b, v_b = modular.random_unitary(2, rng), modular.random_unitary(2, rng)
        upper, lower = modular.theorem_entropy_bounds(pb, u, v, u_b, v_b,
                                                      trial_seed=trial, tol=tol)
        for kind, rep in (("theorem_upper", upper), ("theorem_lower", lower)):
            rows.append({"check": kind, "trial_seed": trial, "lhs": rep.lhs,
                         "rhs": rep.rhs, "margin": rep.margin, "pass": rep.passed})
            min_margin = min(min_margin, rep.margin)
    for trial in range(monotonicity_trials):
        rng = np.random.default_rng(seed + 10_000 + trial)
        rep = modular.monotonicity_check(modular.random_density(4, rng),
                                         modular.random_density(4, rng),
                                         (2, 2), trial_seed=trial, tol=tol)
        rows.append({"check": "monotonicity", "trial_seed": trial, "lhs": rep.lhs,
                     "rhs": rep.rhs, "margin": rep.margin, "pass": rep.passed})
        min_margin = min(min_margin, rep.margin)
    return _finish(rows, {"suite": "theorem", "theorem_trials": theorem_trials,
                          "monotonicity_trials": monotonicity_trials,
                          "min_margin": min_margin})


# --------------------------------------------------------------------------
# truncated Fock suite
# --------------------------------------------------------------------------

def run_fock_suite(seed: int = 0, modes: int = 2, cutoff_n: int = 12,
                   tolerance_scale: float = 1.0) -> SuiteResult:
    """Displacement-relation, conjugation, generator-shift, derivative,
    particle-bound and coherent-entropy checks at |chi| <= 0.5."""
    rows = []
    tf = fock.TruncatedFock(modes, cutoff_n)
    rng = np.random.default_rng(seed)

    def rand_amp(scale):
        v = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        return scale * v / np.linalg.norm(v)

    def record(check, residual, tol, params):
        tol = tol * tolerance_scale
        rows.append({"check_name": check, "params": params,
                     "residual": float(residual), "tolerance": tol,
                     "pass": bool(residual <= tol)})

    pairs = [(np.array([0.5] + [0.0] * (modes - 1), dtype=complex),
              np.array([0.5j] + [0.0] * (modes - 1), dtype=complex))]
    pairs += [(rand_amp(0.5), rand_amp(0.5)) for _ in range(6)]
    for k, (chi, xi) in enumerate(pairs):
        record("weyl_relation", fock.weyl_relation_residual(tf, chi, xi), WEYL_TOL,
               f"pair_{k}")

    for k in range(4):
        u = modular.random_unitary(modes, rng)
        record("gamma_conjugation", fock.gamma_adjoint_check(tf, u, rand_amp(0.5)),
               GAMMA_CONJUGATION_TOL, f"unitary_{k}")

    for k in range(4):
        g = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
        k_one = (g + g.conj().T) / 2.0
        record("generator_shift", fock.wdgamma_identity_check(tf, k_one, rand_amp(0.4)),
               GENERATOR_SHIFT_TOL, f"generator_{k}")

    psi_list = [fock.FockVector.from_array(tf, tf.vacuum)]
    for _ in range(3):
        idx = tf.sector_slice(3)
        v = np.zeros(tf.dim, dtype=complex)
        v[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        v /= np.linalg.norm(v)
        psi_list.append(fock.FockVector.from_array(tf, v))
    for k, psi in enumerate(psi_list):
        chi = rand_amp(0.4)
        res = fock.weyl_derivative_check(tf, lambda t: t * chi, chi, psi)
        record("derivative_lemma", res / (1.0 + psi.norm), DERIVATIVE_TOL, f"state_{k}")

    bound_failures = 0
    for k in range(100):
        psi = psi_list[1 + k % 3]
        n_pow = 1 + k % 4
        rep = fock.number_estimate_check(tf, rand_amp(0.5), psi, n_pow)
        if not rep["pass"]:
            bound_failures += 1
    record("particle_number_bound", float(bound_failures), 0.0, "100_trials")

    ssd = fock.StandardSubspaceData.two_mode(2.0)
    rep = fock.coherent_entropy_check(tf, ssd, np.array([0.0, 0.2]),
                                      np.array([0.3, 0.1j]))
    record("coherent_entropy_pinned", rep["relative_deviation"], COHERENT_ENTROPY_TOL,
           f"analytic_{rep['analytic']:.6f}")
    for k in range(3):
        lam = rng.uniform(1.2, 3.0)
        rep = fock.coherent_entropy_check(tf, fock.StandardSubspaceData.two_mode(lam),
                                          rand_amp(0.2), rand_amp(0.3))
        record("coherent_entropy_random", rep["relative_deviation"], COHERENT_ENTROPY_TOL,
               f"lambda_{lam:.3f}")

    return _finish(rows, {"suite": "fock", "modes": modes, "cutoff": cutoff_n})
