"""Batched check suites over seeded random ensembles.

Each suite returns its results as columns, one list per CSV column with an
entry per executed check, plus an aggregate summary; the command line writes
them out as CSV/JSON and the acceptance tests assert on the aggregates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fock, modular
from .errors import ParameterViolation
from .linalg import dagger
from .quadrature import blocks

# Every gate below is empirical at the acceptance configuration: seed 20260810,
# 1000 findim trials, 500 theorem and 1000 monotonicity trials, and the Fock
# suite on 2 modes at cutoff 12 with |chi| <= 0.5.  Each comment gives the
# worst residual measured there (the rows report every residual).

# findim: identities that hold exactly, so the residuals are rounding
KLEIN_TOL = 1e-10  # -H(rho, rho'): worst 0
JOINT_INVARIANCE_TOL = 1e-9  # relative: worst 3.2e-13
CANCELLATION_TOL = 1e-8  # worst 3.4e-11
# the two Frobenius residuals bound the spectral norm from above, so neither needs an SVD
POLAR_TOL = 1e-9  # worst 7.7e-12
CLOSED_FORM_TOL = 1e-9  # relative: worst 9.1e-15
# theorem: rounding slack on each inequality; the smallest margin is +0.115,
# so no trial leans on it
THEOREM_MARGIN_TOL = 1e-8

# Fock: truncation and finite-difference residuals, fixed for cutoff 12.  At seeds
# 0-19 weyl_relation stays within 0.35 WEYL_TOL at cutoff 11 and fails at cutoff 10
# at every one (5.1e-6 at seed 0; 8.1e-5 at cutoff 8), so cutoffs below 11 are refused.
MIN_FOCK_CUTOFF = 11
WEYL_TOL = 1e-6  # worst 7.0e-7
# No derived bound fits under WEYL_TOL: with T the sector walk (entries sqrt(n+1))
# and s = |chi|/sqrt(2), the majorant ||[e^{s1 T} e^{s2 T} - e^{s1 T_N} e^{s2 T_N}]_{<=m}||
# + ||[e^{s3 T} - e^{s3 T_N}]_{<=m}|| is 1.1e-6 to 2.2e-6 at N = 12, m = 6.
GAMMA_CONJUGATION_TOL = 1e-6  # worst 4.2e-15: Gamma(u) is exact on every sector
GENERATOR_SHIFT_TOL = 1e-5  # worst 4.5e-9
DERIVATIVE_TOL = 1e-6  # worst 5.2e-10: central difference at step 1e-4
COHERENT_ENTROPY_TOL = 1e-4  # relative: worst 3.6e-15


@dataclass(frozen=True)
class SuiteResult:
    columns: dict
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed", False))

    @property
    def rows(self) -> list:
        """One dictionary per check, read off the columns."""
        return [dict(zip(self.columns, cells)) for cells in zip(*self.columns.values())]


def _finish(columns: dict, extra: dict) -> SuiteResult:
    summary = {"checks": len(columns["pass"]), "failures": columns["pass"].count(False)}
    summary["passed"] = summary["failures"] == 0
    summary.update(extra)
    return SuiteResult(columns, summary)


# --------------------------------------------------------------------------
# seeded ensembles, stacked in blocks
# --------------------------------------------------------------------------

FINDIM_CHECKS = (("klein_positivity", KLEIN_TOL),
                 ("joint_unitary_invariance", JOINT_INVARIANCE_TOL),
                 ("commutant_cancellation", CANCELLATION_TOL),
                 ("polar_reconstruction", POLAR_TOL),
                 ("delta_closed_form", CLOSED_FORM_TOL))


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each s of a uint64 array, as rows:
    numpy's hash (bit_generator.pyx) in uint32 arrays, which wrap, a seed's 2 words padded."""
    def hasher(const, mult):  # numpy's hashmix with its running constant
        def hashmix(x):
            nonlocal const
            x = x ^ const
            const = const * mult & 0xFFFFFFFF
            x = x * const
            return x ^ x >> 16
        return hashmix

    hash_a = hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    zero = np.zeros_like(seeds)  # numpy pads short entropy to its pool of 4 words
    pool = [hash_a(w.astype(np.uint32)) for w in (seeds & 0xFFFFFFFF, seeds >> 32, zero, zero)]
    for i, j in itertools.permutations(range(4), 2):  # mix(pool[j], hashmix(pool[i]))
        y = 0xCA01F9DD * pool[j] - 0x4973F715 * hash_a(pool[i])
        pool[j] = y ^ y >> 16
    hash_b = hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    out = np.column_stack([hash_b(word) for word in pool * 2])  # 8 words, cycling
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed_seed() -> type:
    """An ISeedSequence handing PCG64 a ready state, built at the first draw, not at import."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64's 4 uint64 words
            return self.state

    return HashedSeed


def _blocks(seed: int, trials: np.ndarray, width: int):
    """Runs of the trial indices, each with one generator per trial: trial t draws
    default_rng(seed + t)'s stream, as when it runs alone, from a PCG64 handed the state
    that `_seed_states` hashed for the whole run.  Every run is a block of `quadrature.blocks`
    at `width`, the entries of one trial's largest temporary, which bounds memory whatever
    the trial count.  A findim trial's is its d^2 x d^2 Tomita map, width d^4: 512, 101 and
    32 trials at d = 2, 3 and 4.  The theorem and monotonicity trials build no Tomita map;
    theirs is a d x d matrix at d = 4, width d^2: 512 trials.  A width counts a complex
    entry as one element, though it holds two floats, so a complex block may reach 2
    BLOCK_ELEMENTS floats: a 512-trial theorem block of complex 4 x 4 matrices is 128 KiB."""
    hashed, generator, pcg64 = _hashed_seed(), np.random.Generator, np.random.PCG64
    for blk in blocks(len(trials), width):
        idx = trials[blk]
        states = _seed_states(np.uint64(seed) + idx.astype(np.uint64))
        yield idx, [generator(pcg64(hashed(state))) for state in states]


def run_findim_suite(seed: int = 0, trials: int = 1000) -> SuiteResult:
    """Klein positivity, joint unitary invariance, commutant cancellation,
    polar reconstruction and the closed-form modular operator, on random
    state pairs of dimension 2 to 4 (trial t has dimension 2 + t % 3)."""
    if not 0 <= seed <= 2 ** 64 - trials:  # a uint64 seed sum would wrap onto other streams
        raise ParameterViolation(f"the trial seeds from {seed} leave [0, 2**64)")
    residuals = np.empty((trials, len(FINDIM_CHECKS)))
    for dim in (2, 3, 4):
        for idx, rngs in _blocks(seed, np.arange(dim - 2, trials, 3), dim ** 4):
            rho, rho_t = modular.random_density(dim, rngs), modular.random_density(dim, rngs)
            h = modular.rel_entropy_dm(rho, rho_t)
            u = modular.random_unitary(dim, rngs)
            h_rot = modular.rel_entropy_dm(
                modular.DensityMatrix(u @ rho.matrix @ dagger(u)),
                modular.DensityMatrix(u @ rho_t.matrix @ dagger(u)))
            u_r, v_r = modular.random_unitary(dim, rngs), modular.random_unitary(dim, rngs)
            md = modular.modular_data(rho, rho_t)
            ref = modular.delta_closed_form(rho, rho_t)
            # ||kron(rho_t, (rho^-1)^T)||_2 = q_max / p_min, from the kept spectra
            ref_norm = rho_t.eig.eigenvalues[:, -1] / rho.eig.eigenvalues[:, 0]
            residuals[idx] = np.column_stack([
                np.maximum(-h, 0.0),
                np.abs(h - h_rot) / np.maximum(1.0, np.abs(h)),
                modular.check_commutant_cancellation(u_r, v_r, rho, rho_t),
                md.s_reconstruction_residual(),
                np.linalg.norm(md.Delta - ref, axis=(-2, -1)) / ref_norm])

    checks, tols = zip(*FINDIM_CHECKS)
    # fmax leaves out a nan residual, which fails its gate
    worst = np.fmax.reduce(residuals, axis=0, initial=0.0).tolist()
    columns = {"check": list(checks) * trials,
               "trial_seed": np.repeat(np.arange(trials), len(checks)).tolist(),
               "residual": residuals.ravel().tolist(), "tolerance": list(tols) * trials,
               "pass": (residuals <= tols).ravel().tolist()}
    return _finish(columns, {"suite": "findim", "trials": trials,
                             "worst_residuals": dict(zip(checks, worst))})


def run_theorem_suite(seed: int = 0, theorem_trials: int = 500,
                      monotonicity_trials: int = 1000) -> SuiteResult:
    """Nested-algebra entropy inequalities on 2x2 bipartite states and
    monotonicity of the relative entropy under the partial trace."""
    if not 0 <= seed <= 2 ** 64 - max(theorem_trials, 10_000 + monotonicity_trials):
        raise ParameterViolation(f"the trial seeds from {seed} leave [0, 2**64)")
    columns = {"check": [], "trial_seed": [], "lhs": [], "rhs": [], "margin": [], "pass": []}

    def record(reports):
        # trial by trial, each trial's reports in turn
        columns["check"] += [check for check, _ in reports] * len(reports[0][1].lhs)
        for name, attr in zip(list(columns)[1:], ("trial_seed", "lhs", "rhs", "margin", "passed")):
            stacked = np.column_stack([getattr(rep, attr) for _, rep in reports])
            columns[name] += stacked.ravel().tolist()

    for idx, rngs in _blocks(seed, np.arange(theorem_trials), 4 ** 2):
        rho_ab = modular.random_density(4, rngs)
        u, v = modular.random_unitary(4, rngs), modular.random_unitary(4, rngs)
        u_b, v_b = modular.random_unitary(2, rngs), modular.random_unitary(2, rngs)
        upper, lower = modular.theorem_entropy_bounds(rho_ab, (2, 2), u, v, u_b, v_b,
                                                      trial_seed=idx, tol=THEOREM_MARGIN_TOL)
        record([("theorem_upper", upper), ("theorem_lower", lower)])
    for idx, rngs in _blocks(seed + 10_000, np.arange(monotonicity_trials), 4 ** 2):
        record([("monotonicity", modular.monotonicity_check(
            modular.random_density(4, rngs), modular.random_density(4, rngs), (2, 2),
            trial_seed=idx, tol=THEOREM_MARGIN_TOL))])
    min_margin = min([math.inf] + columns["margin"])
    return _finish(columns, {"suite": "theorem", "theorem_trials": theorem_trials,
                             "monotonicity_trials": monotonicity_trials,
                             "min_margin": min_margin})


# --------------------------------------------------------------------------
# truncated Fock suite
# --------------------------------------------------------------------------

def run_fock_suite(seed: int = 0, cutoff_n: int = 12) -> SuiteResult:
    """Displacement-relation, conjugation, generator-shift, derivative,
    particle-bound and coherent-entropy checks at |chi| <= 0.5 on two modes."""
    if not cutoff_n >= MIN_FOCK_CUTOFF:
        raise ParameterViolation(f"cutoff {cutoff_n} is below {MIN_FOCK_CUTOFF}, where the "
                                 f"weyl_relation gate WEYL_TOL = {WEYL_TOL:g} first holds")
    modes = 2  # the coherent-entropy check is built on StandardSubspaceData.two_mode
    columns = {"check_name": [], "params": [], "residual": [], "tolerance": [], "pass": []}
    tf = fock.TruncatedFock(modes, cutoff_n)
    rng = np.random.default_rng(seed)

    def rand_amp(scale):
        v = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        return scale * v / np.linalg.norm(v)

    def record(check, residual, tol, params, ok=None):
        for cells, value in zip(columns.values(), (check, params, float(residual), tol,
                                                   bool(residual <= tol if ok is None else ok))):
            cells.append(value)

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

    psi_list = [tf.vacuum]
    idx = np.flatnonzero(tf.totals == 3)
    for _ in range(3):
        v = np.zeros(tf.dim, dtype=complex)
        v[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        v /= np.linalg.norm(v)
        psi_list.append(v)
    for k, psi in enumerate(psi_list):
        chi = rand_amp(0.4)
        res = fock.weyl_derivative_check(tf, lambda t: t * chi, chi, psi)
        record("derivative_lemma", res / (1.0 + np.linalg.norm(psi)), DERIVATIVE_TOL, f"state_{k}")

    trials = np.arange(100)
    chis = np.array([rand_amp(0.5) for _ in trials])
    rep = fock.number_estimate_check(tf, chis, np.array(psi_list[1:])[trials % 3],
                                     1 + trials % 4)
    # the worst trial's share of its bound; the verdict is the trials' own,
    # which allow lhs the 1e-12 slack of number_estimate_check
    record("particle_number_bound", np.max(rep["lhs"] / rep["bound"]), 1.0, "100_trials",
           np.all(rep["pass"]))

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

    return _finish(columns, {"suite": "fock", "modes": modes, "cutoff": cutoff_n})
