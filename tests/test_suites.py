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


def findim_trial(seed, trial):
    """Trial `trial` of the findim suite drawn alone: its states, its rotation u
    and its right factors u_r, v_r."""
    rng = np.random.default_rng(seed + trial)
    dim = 2 + trial % 3
    rho, rho_t = random_density(dim, rng), random_density(dim, rng)
    u = random_unitary(dim, rng)
    return rho, rho_t, u, random_unitary(dim, rng), random_unitary(dim, rng)


def closed_form_scale(rho, rho_t):
    """||kron(rho_t, (rho^-1)^T)||_2 = q_max / p_min, as the suite reads it."""
    return rho_t.eig.eigenvalues[..., -1] / rho.eig.eigenvalues[..., 0]


def findim_reference(seed, trials):
    """The findim rows, one trial at a time through the one-pair functions."""
    rows = []
    for trial in range(trials):
        rho, rho_t, u, u_r, v_r = findim_trial(seed, trial)
        h = rel_entropy_dm(rho, rho_t)
        h_rot = rel_entropy_dm(DensityMatrix(u @ rho.matrix @ dagger(u)),
                               DensityMatrix(u @ rho_t.matrix @ dagger(u)))
        md = modular_data(rho, rho_t)
        ref = delta_closed_form(rho, rho_t)
        residuals = [max(-h, 0.0), abs(h - h_rot) / max(1.0, abs(h)),
                     check_commutant_cancellation(u_r, v_r, rho, rho_t),
                     md.s_reconstruction_residual(),
                     float(np.linalg.norm(md.Delta - ref, axis=(-2, -1))
                           / closed_form_scale(rho, rho_t))]
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
    # a stacked row equals its one-trial row bit for bit
    got = suites.run_findim_suite(seed=SEED, trials=TRIALS).rows
    want = findim_reference(SEED, TRIALS)
    assert len(got) == len(want) == 5 * TRIALS
    assert got == want

    got = suites.run_theorem_suite(seed=SEED, theorem_trials=TRIALS // 2,
                                   monotonicity_trials=TRIALS).rows
    want = theorem_reference(SEED, TRIALS // 2, TRIALS)
    assert len(got) == len(want) == 2 * (TRIALS // 2) + TRIALS
    assert got == want


def test_frobenius_residuals_bound_the_spectral_ones():
    # ||A||_2 <= ||A||_F <= sqrt(rank A) ||A||_2 <= d ||A||_2 for a d^2 x d^2 matrix A,
    # so under the same gate each residual is at least as strict as the spectral one
    trials = 300
    got = {(row["trial_seed"], row["check"]): row["residual"]
           for row in suites.run_findim_suite(seed=SEED, trials=trials).rows}
    for trial in range(trials):
        rho, rho_t = findim_trial(SEED, trial)[:2]
        md = modular_data(rho, rho_t)
        rebuilt = md.J.linear_part @ np.conj(md.delta_eig.apply(np.sqrt))
        spectral = {
            "polar_reconstruction": np.linalg.norm(rebuilt - md.S.linear_part, 2),
            "delta_closed_form": np.linalg.norm(md.Delta - delta_closed_form(rho, rho_t), 2)
            / closed_form_scale(rho, rho_t)}
        for check, value in spectral.items():
            assert value * (1.0 - 1e-13) <= got[trial, check] <= rho.dim * value


def test_findim_suite_takes_no_svd(monkeypatch):
    # np.linalg.norm(x, 2) calls the svd of numpy's internal module, not np.linalg.svd
    calls = []
    for owner in (np.linalg, np.linalg._linalg):
        def spy(a, *args, _svd=owner.svd, **kwargs):
            calls.append(np.shape(a))
            return _svd(a, *args, **kwargs)
        monkeypatch.setattr(owner, "svd", spy)
    suites.run_findim_suite(seed=SEED, trials=40)
    assert calls == []


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


@pytest.mark.parametrize("run", [
    lambda: suites.run_findim_suite(seed=SEED, trials=TRIALS),
    lambda: suites.run_theorem_suite(seed=SEED, theorem_trials=TRIALS // 2,
                                     monotonicity_trials=TRIALS),
    lambda: suites.run_fock_suite(seed=SEED)], ids=["findim", "theorem", "fock"])
def test_rows_are_the_columns_zipped(run):
    # the benchmark's tracer counts len(rows) as the suite's checks
    result = run()
    checks = result.summary["checks"]
    assert {len(cells) for cells in result.columns.values()} == {checks}
    rows = result.rows
    assert len(rows) == checks
    assert all(list(row) == list(result.columns) for row in rows)
    for name, cells in result.columns.items():
        assert [row[name] for row in rows] == cells


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gaussians_are_each_generators_draws(dim):
    # one preallocated stack, each generator filling its own (2, dim, dim) slot
    rngs = [np.random.default_rng(SEED + i) for i in range(512)]
    want = np.array([np.random.default_rng(SEED + i).standard_normal((2, dim, dim))
                     for i in range(512)])
    assert np.array_equal(modular._gaussians(dim, rngs), want[:, 0] + 1j * want[:, 1])


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


# a two-word seed, the command line's largest seed and its largest monotonicity seed
HASHED_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63 - 1 + 1_010_000]


def test_hashed_states_are_seed_sequence_states():
    states = suites._seed_states(np.array(HASHED_SEEDS, dtype=np.uint64))
    for seed, state in zip(HASHED_SEEDS, states):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert state.dtype == want.dtype and np.array_equal(state, want)


@pytest.mark.parametrize("seed", HASHED_SEEDS)
def test_block_generators_draw_default_rng_streams(seed):
    # two blocks of 2 trials: each generator is default_rng(seed + t)'s stream
    runs = list(suites._blocks(seed, np.arange(4), quadrature.BLOCK_ELEMENTS // 2))
    assert [idx.tolist() for idx, _ in runs] == [[0, 1], [2, 3]]
    for idx, rngs in runs:
        for t, rng in zip(idx, rngs):
            want = np.random.default_rng(seed + int(t)).standard_normal(64)
            assert np.array_equal(rng.standard_normal(64), want)


def test_suites_construct_no_default_rng(monkeypatch):
    made = []

    def spy(*args, _default_rng=np.random.default_rng, **kwargs):
        made.append(args)
        return _default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    suites.run_findim_suite(SEED, 30)
    suites.run_theorem_suite(SEED, 15, 30)
    assert made == []
    np.random.default_rng(SEED)  # the spy counts
    assert made == [(SEED,)]


LAST = 2 ** 64 - 1


@pytest.mark.parametrize("seed, trials", [(-1, 3), (LAST - 1, 3), (LAST + 1, 1)])
def test_findim_suite_refuses_seeds_outside_uint64(seed, trials):
    with pytest.raises(ParameterViolation):
        suites.run_findim_suite(seed, trials)


# the last monotonicity seed is seed + 10_000 + monotonicity_trials - 1, and the
# last theorem seed seed + theorem_trials - 1: each of the last two cases reaches 2**64
@pytest.mark.parametrize("seed, theorem_trials, monotonicity_trials", [
    (-1, 1, 1), (LAST - 10_000 - 2, 1, 4), (LAST - 10_001, 10_003, 0)])
def test_theorem_suite_refuses_seeds_outside_uint64(seed, theorem_trials, monotonicity_trials):
    with pytest.raises(ParameterViolation):
        suites.run_theorem_suite(seed, theorem_trials, monotonicity_trials)


def test_suites_run_up_to_the_last_uint64_seed():
    # the last trial draws default_rng(2**64 - 1), with no wrap onto seed 0
    assert suites.run_findim_suite(LAST - 2, 3).rows == findim_reference(LAST - 2, 3)
    seed = LAST - 10_000 - 2
    assert suites.run_theorem_suite(seed, 1, 3).rows == theorem_reference(seed, 1, 3)
