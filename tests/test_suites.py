"""Tests for the stacked seeded suites against one-trial references."""

import numpy as np
import pytest

from modlab import modular, quadrature, suites
from modlab.errors import ParameterViolation
from modlab.linalg import dagger
from modlab.modular import (
    DensityMatrix,
    check_commutant_cancellation,
    delta_closed_form,
    modular_data,
    monotonicity_check,
    random_density,
    random_unitary,
    rel_entropy_dm,
    theorem_entropy_bounds,
)

SEED = 20260810
TRIALS = 7
# with this candidate threshold random_density rejects about 7%, 20% and 47% of
# the first candidates in dimensions 2, 3 and 4, so trials with and without
# redraws both occur
REJECTING_EIG = 1e-2


def findim_reference(seed, trials):
    """The findim rows, one trial at a time through the one-pair functions."""
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        dim = 2 + trial % 3
        rho, rho_t = random_density(dim, rng), random_density(dim, rng)
        h = rel_entropy_dm(rho, rho_t)
        u = random_unitary(dim, rng)
        h_rot = rel_entropy_dm(DensityMatrix(u @ rho.matrix @ dagger(u)),
                               DensityMatrix(u @ rho_t.matrix @ dagger(u)))
        u_r, v_r = random_unitary(dim, rng), random_unitary(dim, rng)
        md = modular_data(rho, rho_t)
        ref = delta_closed_form(rho, rho_t)
        residuals = [max(-h, 0.0), abs(h - h_rot) / max(1.0, abs(h)),
                     check_commutant_cancellation(u_r, v_r, rho, rho_t),
                     md.s_reconstruction_residual(),
                     np.linalg.norm(md.Delta - ref, 2) / np.linalg.norm(ref, 2)]
        for (check, tol), residual in zip(suites.FINDIM_CHECKS, residuals):
            rows.append({"check": check, "trial_seed": trial, "residual": residual,
                         "tolerance": tol, "pass": residual <= tol})
    return rows


def theorem_reference(seed, theorem_trials, monotonicity_trials):
    rows = []
    tol = suites.THEOREM_MARGIN_TOL

    def add(check, rep):
        rows.append({"check": check, "trial_seed": rep.trial_seed, "lhs": rep.lhs,
                     "rhs": rep.rhs, "margin": rep.margin, "pass": rep.passed})

    for trial in range(theorem_trials):
        rng = np.random.default_rng(seed + trial)
        rho_ab = random_density(4, rng)
        u, v = random_unitary(4, rng), random_unitary(4, rng)
        u_b, v_b = random_unitary(2, rng), random_unitary(2, rng)
        upper, lower = theorem_entropy_bounds(rho_ab, (2, 2), u, v, u_b, v_b,
                                              trial_seed=trial, tol=tol)
        add("theorem_upper", upper)
        add("theorem_lower", lower)
    for trial in range(monotonicity_trials):
        rng = np.random.default_rng(seed + 10_000 + trial)
        add("monotonicity", monotonicity_check(random_density(4, rng),
                                               random_density(4, rng), (2, 2),
                                               trial_seed=trial, tol=tol))
    return rows


@pytest.mark.parametrize("candidate_eig", [modular.WELL_CONDITIONED_EIG, REJECTING_EIG])
def test_rows_match_one_trial_reference(monkeypatch, candidate_eig):
    monkeypatch.setattr(modular, "WELL_CONDITIONED_EIG", candidate_eig)
    got = suites.run_findim_suite(seed=SEED, trials=TRIALS).rows
    want = findim_reference(SEED, TRIALS)
    assert len(got) == len(want) == 5 * TRIALS
    for g, w in zip(got, want):
        assert (g["check"], g["trial_seed"], g["tolerance"], g["pass"]) == \
            (w["check"], w["trial_seed"], w["tolerance"], w["pass"])
        assert abs(g["residual"] - w["residual"]) <= 1e-2 * w["tolerance"]

    got = suites.run_theorem_suite(seed=SEED, theorem_trials=TRIALS // 2,
                                   monotonicity_trials=TRIALS).rows
    want = theorem_reference(SEED, TRIALS // 2, TRIALS)
    assert len(got) == len(want) == 2 * (TRIALS // 2) + TRIALS
    for g, w in zip(got, want):
        assert (g["check"], g["trial_seed"], g["pass"]) == \
            (w["check"], w["trial_seed"], w["pass"])
        for key in ("lhs", "rhs"):
            assert g[key] == pytest.approx(w[key], rel=1e-9, abs=1e-300)
        assert abs(g["margin"] - w["margin"]) <= 1e-9


def test_redrawn_states_match_sequential_draws(monkeypatch):
    # a block draws its states with random_density(dim, generators): a rejected
    # candidate is redrawn from its own generator, so every trial sees the
    # random numbers it would see alone
    monkeypatch.setattr(modular, "WELL_CONDITIONED_EIG", REJECTING_EIG)
    seeds = range(SEED, SEED + 24)
    for dim in (2, 3, 4):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        states = [random_density(dim, rngs), random_density(dim, rngs)]
        unitaries = random_unitary(dim, rngs)
        redrawn = 0
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ dagger(g)
            redrawn += np.linalg.eigvalsh(m / np.trace(m).real)[0] <= REJECTING_EIG
            rng = np.random.default_rng(seed)
            for rho in states:
                assert np.array_equal(rho.matrix[k], random_density(dim, rng).matrix)
            assert np.array_equal(unitaries[k], random_unitary(dim, rng))
        assert redrawn > 0


def test_rows_do_not_depend_on_the_block_size(monkeypatch):
    # a cap of 10**9 floats takes every trial in one block, a cap of 1 one trial a block
    monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 10 ** 9)
    whole = (suites.run_findim_suite(seed=SEED, trials=40).rows,
             suites.run_theorem_suite(seed=SEED, theorem_trials=20,
                                      monotonicity_trials=40).rows)
    monkeypatch.setattr(quadrature, "BLOCK_ELEMENTS", 1)
    blocked = (suites.run_findim_suite(seed=SEED, trials=40).rows,
               suites.run_theorem_suite(seed=SEED, theorem_trials=20,
                                        monotonicity_trials=40).rows)
    assert blocked == whole


def test_theorem_blocks_are_sized_by_a_d_by_d_matrix(monkeypatch):
    # a theorem or monotonicity trial builds no Tomita map: its largest
    # temporary is a 4 x 4 matrix, so a block holds BLOCK_ELEMENTS // 16 = 512
    # trials, and the acceptance size runs in 3 blocks (48 at width d^4)
    sizes = []
    for name in ("theorem_entropy_bounds", "monotonicity_check"):
        def spy(*args, _check=getattr(modular, name), **kwargs):
            sizes.append(len(kwargs["trial_seed"]))
            return _check(*args, **kwargs)
        monkeypatch.setattr(modular, name, spy)
    suites.run_theorem_suite(seed=SEED, theorem_trials=500, monotonicity_trials=1000)
    assert sizes == [500, 512, 488]


def test_rows_do_not_depend_on_the_trial_count():
    short = suites.run_findim_suite(seed=SEED, trials=TRIALS).rows
    assert suites.run_findim_suite(seed=SEED, trials=40).rows[:len(short)] == short


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_random_unitary_is_phase_fixed_qr(dim):
    rng = np.random.default_rng(dim)
    u = random_unitary(dim, rng)
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    assert np.array_equal(u, q * phases[None, :])
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) <= 1e-13


@pytest.mark.parametrize("dim", [2, 5, 26, 32, 64])
@pytest.mark.parametrize("stack", [False, True])
def test_thin_unitary_is_leading_columns(dim, stack):
    # columns=k QRs only the Gaussian's first k columns: the same bits as the
    # full unitary's first k columns, and the generators end where they would
    n = 8 if stack else 1
    for k in sorted({1, dim // 3, dim} - {0}):
        full_rngs = [np.random.default_rng(SEED + i) for i in range(n)]
        thin_rngs = [np.random.default_rng(SEED + i) for i in range(n)]
        full = random_unitary(dim, full_rngs if stack else full_rngs[0])
        thin = random_unitary(dim, thin_rngs if stack else thin_rngs[0], columns=k)
        assert thin.shape == full.shape[:-1] + (k,)
        assert np.array_equal(thin, full[..., :k])
        for a, b in zip(full_rngs, thin_rngs):
            assert a.standard_normal() == b.standard_normal()


@pytest.mark.parametrize("columns", [0, 6])
def test_thin_unitary_refuses_columns_outside_the_dimension(columns):
    with pytest.raises(ParameterViolation):
        random_unitary(5, np.random.default_rng(SEED), columns=columns)
