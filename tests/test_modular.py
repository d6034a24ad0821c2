"""Tests for relative modular data, entropies and the nested-algebra bounds."""

import math

import numpy as np
import pytest
from scipy.linalg import logm, sqrtm

from modlab import modular, suites
from modlab.errors import DimensionMismatch, NonHermitian, NonUnitary, RankDeficient
from modlab.linalg import dagger, kron
from modlab.modular import (
    AntilinearMap,
    DensityMatrix,
    check_commutant_cancellation,
    check_unitary_covariance,
    delta_closed_form,
    entropy_from_modular,
    hs_vec,
    modular_data,
    monotonicity_check,
    random_density,
    random_unitary,
    rel_entropy_dm,
    rel_tomita,
    theorem_entropy_bounds,
)

# frozen closed-form oracle: sum_i p_i (log p_i - log q_i) for the diagonal pair
# p = (1/2, 1/2), q = (3/4, 1/4)
DIAG_ORACLE = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)


def diag_state(*probs):
    return DensityMatrix(np.diag(np.array(probs, dtype=complex)))


class TestRelEntropy:
    def test_identical_states(self):
        rng = np.random.default_rng(0)
        rho = random_density(3, rng)
        assert abs(rel_entropy_dm(rho, rho)) <= 1e-12

    def test_diagonal_closed_form(self):
        rho = diag_state(0.5, 0.5)
        rho_t = diag_state(0.75, 0.25)
        assert abs(rel_entropy_dm(rho, rho_t) - DIAG_ORACLE) <= 1e-12
        assert abs(DIAG_ORACLE - 0.14384) <= 5e-6

    def test_support_violation_is_inf(self):
        rho = diag_state(0.5, 0.5)
        rho_t = diag_state(1.0, 0.0)
        assert rel_entropy_dm(rho, rho_t) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rel_entropy_dm(diag_state(1.0), diag_state(0.5, 0.5))

    def test_klein_inequality(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            for _ in range(50):
                h = rel_entropy_dm(random_density(d, rng), random_density(d, rng))
                assert h >= -1e-10

    def test_klein_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            rho = random_density(3, rng)
            rho_t = random_density(3, rng)
            assert abs(rel_entropy_dm(rho, rho)) <= 1e-10
            if np.linalg.norm(rho.matrix - rho_t.matrix) > 1e-4:
                # Pinsker direction: well separated states have visible entropy
                assert rel_entropy_dm(rho, rho_t) > 1e-10

    def test_joint_unitary_invariance(self):
        rng = np.random.default_rng(3)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        u = random_unitary(3, rng)
        h0 = rel_entropy_dm(rho, rho_t)
        h1 = rel_entropy_dm(DensityMatrix(u @ rho.matrix @ dagger(u)),
                            DensityMatrix(u @ rho_t.matrix @ dagger(u)))
        assert abs(h0 - h1) <= 1e-9 * max(1.0, abs(h0))


class TestTomita:
    def test_tracial_state_gives_adjoint_map(self):
        d = 3
        rho = DensityMatrix(np.eye(d) / d)
        s = rel_tomita(rho, rho)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out = (s.linear_part @ np.conj(hs_vec(x))).reshape(d, d)
            assert np.linalg.norm(out - dagger(x)) <= 1e-12

    def test_defining_relation(self):
        rng = np.random.default_rng(5)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        s = rel_tomita(rho, rho_t)
        sq, sq_t = rho.sqrt(), rho_t.sqrt()
        worst = 0.0
        for _ in range(100):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            got = (s.linear_part @ np.conj(hs_vec(a @ sq))).reshape(3, 3)
            worst = max(worst, np.linalg.norm(got - dagger(a) @ sq_t))
        assert worst <= 1e-10

    def test_inverse_composition(self):
        rng = np.random.default_rng(6)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        s = rel_tomita(rho, rho_t)
        s_back = rel_tomita(rho_t, rho)
        # two antilinear maps compose to the linear map M_back conj(M)
        product = s_back.linear_part @ np.conj(s.linear_part)
        assert np.linalg.norm(product - np.eye(9), 2) <= 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            rel_tomita(diag_state(1.0, 0.0), diag_state(0.5, 0.5))


class TestPolarModular:
    def test_k_annihilates_state_vector(self):
        rng = np.random.default_rng(7)
        rho = random_density(3, rng)
        md = modular_data(rho, rho)
        omega = hs_vec(rho.sqrt())
        assert np.linalg.norm(md.K @ omega) <= 1e-9

    def test_delta_closed_form(self):
        rng = np.random.default_rng(8)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        md = modular_data(rho, rho_t)
        ref = delta_closed_form(rho, rho_t)
        assert np.linalg.norm(md.Delta - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)

    def test_delta_closed_form_rank_deficient(self):
        with pytest.raises(RankDeficient):
            delta_closed_form(diag_state(1.0, 0.0), diag_state(0.5, 0.5))

    def test_one_decomposition_per_state(self, monkeypatch):
        # each state keeps the eigendecomposition it was built with, and the modular
        # data keeps that of Delta: past construction only Delta itself is decomposed
        rng = np.random.default_rng(15)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rel_entropy_dm(rho, rho_t)
        md = modular_data(rho, rho_t)
        delta_closed_form(rho, rho_t)
        rho.sqrt()
        md.s_reconstruction_residual()
        assert shapes == [(9, 9)]

    def test_modular_data_takes_no_svd(self, monkeypatch):
        # rel_tomita's full-rank check implies both the Tomita and the polar guard
        rng = np.random.default_rng(15)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        modular_data(rho, rho_t)
        assert calls == []

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_delta_of_condition_1e12_accepted(self, n):
        rng = np.random.default_rng(n)
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        md = modular._polar(AntilinearMap((u * np.geomspace(1.0, 1e-6, n)) @ v))
        w = md.delta_eig.eigenvalues
        assert w[0] / w[-1] == pytest.approx(1e-12, rel=1e-2)

    def test_delta_below_eigh_resolution_accepted(self):
        # a full-rank state below random_density's floor: S spreads its singular
        # values by 2.5e7 only, while Delta's w_min / w_max = 1.6e-15 is at the
        # rounding of eigh, so a cut on Delta's spectrum would refuse the pair
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2 - 2e-8, 2e-8]).astype(complex))
        for md in (modular_data(rho, rho), modular._polar(rel_tomita(rho, rho))):
            assert np.all(np.isfinite(md.K))

    def test_entropy_cross_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rho, rho_t = random_density(3, rng), random_density(3, rng)
            md = modular_data(rho, rho_t)
            h_form = entropy_from_modular(md, rho)
            h_direct = rel_entropy_dm(rho, rho_t)
            assert abs(h_form - h_direct) <= 1e-8 * max(1.0, abs(h_direct))

    def test_polar_consistency(self):
        rng = np.random.default_rng(10)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        md = modular_data(rho, rho_t)
        assert md.s_reconstruction_residual() <= 1e-9
        assert md.J.antiunitarity_defect() <= 1e-10

    def test_j_conjugation_swaps_order(self):
        # K_{swapped} = -J K J^dag, i.e. -M_J conj(K) M_J^dag on linear parts
        rng = np.random.default_rng(11)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        md = modular_data(rho, rho_t)
        md_swapped = modular_data(rho_t, rho)
        mj = md.J.linear_part
        rebuilt = -mj @ np.conj(md.K) @ dagger(mj)
        assert np.linalg.norm(md_swapped.K - rebuilt, 2) <= 1e-8


class TestUnitaryCovariance:
    def test_identity(self):
        rng = np.random.default_rng(12)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        assert check_unitary_covariance(np.eye(2), rho, rho_t) <= 1e-10

    def test_diagonal_phase(self):
        rng = np.random.default_rng(13)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        u = np.diag(np.exp(1j * np.array([0.3, -1.1])))
        assert check_unitary_covariance(u, rho, rho_t) <= 1e-9

    def test_haar(self):
        rng = np.random.default_rng(14)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        u = random_unitary(3, rng)
        assert check_unitary_covariance(u, rho, rho_t) <= 1e-8

    def test_nonunitary_rejected(self):
        rng = np.random.default_rng(15)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        with pytest.raises(NonUnitary):
            check_unitary_covariance(np.diag([1.0, 2.0]), rho, rho_t)


class TestUnitarityGuard:
    def test_defect_2e10_rejected(self):
        u = random_unitary(4, np.random.default_rng(19)) @ np.diag([1.0 + 1e-10, 1.0, 1.0, 1.0])
        # u^dag u - I = diag(2e-10 + 1e-20, 0, 0, 0)
        with pytest.raises(NonUnitary):
            modular._check_unitary(u)

    def test_haar_accepted(self):
        rng = np.random.default_rng(20)
        for d in (2, 3, 4, 8, 16, 32):
            modular._check_unitary(random_unitary(d, rng))
            modular._check_unitary(random_unitary(d, [rng] * 4))


class TestCommutantCancellation:
    def test_identity_exact(self):
        rng = np.random.default_rng(16)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        assert check_commutant_cancellation(np.eye(2), np.eye(2), rho, rho_t) <= 1e-10

    def test_random_right_unitaries(self):
        rng = np.random.default_rng(17)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        u_r, v_r = random_unitary(2, rng), random_unitary(2, rng)
        assert check_commutant_cancellation(u_r, v_r, rho, rho_t) <= 1e-9

    def test_phase_only(self):
        rng = np.random.default_rng(18)
        rho, rho_t = random_density(2, rng), random_density(2, rng)
        u_r = np.diag(np.exp(1j * np.array([0.2, 1.7])))
        v_r = np.diag(np.exp(1j * np.array([-0.5, 0.9])))
        assert check_commutant_cancellation(u_r, v_r, rho, rho_t) <= 1e-10


class TestTheoremBounds:
    def test_trivial_case_both_zero(self):
        rng = np.random.default_rng(19)
        rho_ab = random_density(4, rng)
        eye2, eye4 = np.eye(2), np.eye(4)
        upper, lower = theorem_entropy_bounds(rho_ab, (2, 2), eye4, eye4, eye2, eye2,
                                              tol=suites.THEOREM_MARGIN_TOL)
        assert abs(upper.lhs) <= 1e-9 and abs(upper.rhs) <= 1e-9
        assert upper.passed and lower.passed

    def test_random_trials(self):
        rng = np.random.default_rng(20)
        for k in range(50):
            rho_ab = random_density(4, rng)
            u, v = random_unitary(4, rng), random_unitary(4, rng)
            u_b, v_b = random_unitary(2, rng), random_unitary(2, rng)
            upper, lower = theorem_entropy_bounds(rho_ab, (2, 2), u, v, u_b, v_b,
                                                  trial_seed=k, tol=suites.THEOREM_MARGIN_TOL)
            assert upper.passed, f"upper bound failed: {upper}"
            assert lower.passed, f"lower bound failed: {lower}"

    def test_local_a_unitary(self):
        rng = np.random.default_rng(21)
        rho_ab = random_density(4, rng)
        u = kron(random_unitary(2, rng), np.eye(2))
        upper, lower = theorem_entropy_bounds(rho_ab, (2, 2), u, np.eye(4), np.eye(2),
                                              np.eye(2), tol=suites.THEOREM_MARGIN_TOL)
        assert upper.passed and lower.passed

    def test_report_serializes(self):
        rng = np.random.default_rng(22)
        rho_ab = random_density(4, rng)
        upper, _ = theorem_entropy_bounds(rho_ab, (2, 2), np.eye(4), np.eye(4), np.eye(2),
                                          np.eye(2), tol=suites.THEOREM_MARGIN_TOL)
        assert upper.passed


class TestReferenceGenerator:
    """The upper form's rhs is <X, K_Omega X> with K_Omega X = X log rho - log rho X,
    the modular generator of rho_AB in closed form (Ohya and Petz, Quantum
    Entropy and Its Use, 1993), for X = u^dag v sqrt(rho_AB)."""

    SEED = 20260810

    def trial(self, t):
        """Theorem trial t of the acceptance seed, drawn as the suite draws it."""
        rng = np.random.default_rng(self.SEED + t)
        rho_ab = random_density(4, rng)
        u, v = random_unitary(4, rng), random_unitary(4, rng)
        return rho_ab, u, v, random_unitary(2, rng), random_unitary(2, rng)

    # the two trials with the smallest p_min at the acceptance seed (5.2e-5 and
    # 1.2e-4), where K from Delta's eigh is off by 6.6e-10 and 4.1e-10
    @pytest.mark.parametrize("t", [403, 141])
    def test_matches_a_schur_logm_oracle(self, t):
        rho_ab, u, v, u_b, v_b = self.trial(t)
        upper, _ = theorem_entropy_bounds(rho_ab, (2, 2), u, v, u_b, v_b,
                                          tol=suites.THEOREM_MARGIN_TOL)
        # Schur-based logm and sqrtm, no eigh
        log_rho = logm(rho_ab.matrix)
        x = dagger(u) @ v @ sqrtm(rho_ab.matrix)
        oracle = np.real(np.trace(dagger(x) @ (x @ log_rho - log_rho @ x)))
        assert abs(upper.rhs - oracle) <= 1e-11

    def test_matches_the_tomita_generator_on_well_conditioned_states(self):
        checked = 0
        for k in range(200):
            rng = np.random.default_rng(k)
            rho_ab = random_density(4, rng)
            if rho_ab.min_eigenvalue < 1e-2:
                continue
            u, v = random_unitary(4, rng), random_unitary(4, rng)
            upper, _ = theorem_entropy_bounds(rho_ab, (2, 2), u, v, np.eye(2), np.eye(2),
                                              tol=suites.THEOREM_MARGIN_TOL)
            k_omega = modular_data(rho_ab, rho_ab).K
            want = modular._quadratic_form(k_omega, dagger(u) @ v @ rho_ab.sqrt())
            assert abs(upper.rhs - want) <= 1e-12
            checked += 1
        assert checked >= 50

    def test_stacked_call_is_the_per_trial_call(self):
        trials = range(32)
        rngs = [np.random.default_rng(self.SEED + t) for t in trials]
        rho_ab = random_density(4, rngs)
        u, v = random_unitary(4, rngs), random_unitary(4, rngs)
        u_b, v_b = random_unitary(2, rngs), random_unitary(2, rngs)
        stacked = theorem_entropy_bounds(rho_ab, (2, 2), u, v, u_b, v_b,
                                         trial_seed=np.arange(32), tol=suites.THEOREM_MARGIN_TOL)
        for t in trials:
            rho_t, u_t, v_t, u_bt, v_bt = self.trial(t)
            single = theorem_entropy_bounds(rho_t, (2, 2), u_t, v_t, u_bt, v_bt,
                                            trial_seed=t, tol=suites.THEOREM_MARGIN_TOL)
            for got, want in zip(stacked, single):
                assert (got.lhs[t], got.rhs[t], got.passed[t]) == (want.lhs, want.rhs, want.passed)


class TestMonotonicity:
    def test_product_states_equality(self):
        rng = np.random.default_rng(23)
        rho_a, rho_ta = random_density(2, rng), random_density(2, rng)
        sigma = random_density(2, rng)
        rep = monotonicity_check(DensityMatrix(kron(rho_a.matrix, sigma.matrix)),
                                 DensityMatrix(kron(rho_ta.matrix, sigma.matrix)),
                                 (2, 2), tol=suites.THEOREM_MARGIN_TOL)
        assert rep.passed
        assert abs(rep.margin) <= 1e-9

    def test_random_trials(self):
        rng = np.random.default_rng(24)
        for k in range(100):
            rep = monotonicity_check(random_density(4, rng), random_density(4, rng),
                                     (2, 2), trial_seed=k, tol=suites.THEOREM_MARGIN_TOL)
            assert rep.passed, f"monotonicity failed: {rep}"

    def test_equal_states(self):
        rng = np.random.default_rng(25)
        rho = random_density(4, rng)
        rep = monotonicity_check(rho, rho, (2, 2), tol=suites.THEOREM_MARGIN_TOL)
        assert rep.passed and abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10


class TestDomainTypes:
    def test_density_matrix_validation(self):
        with pytest.raises(RankDeficient):
            DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(RankDeficient):
            DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(NonHermitian):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_full_rank_flag(self):
        assert diag_state(0.5, 0.5).full_rank
        assert not diag_state(1.0, 0.0).full_rank

    def test_purified_bipartite_invariants(self):
        rng = np.random.default_rng(30)
        rho_ab = random_density(4, rng)
        omega = rho_ab.sqrt()
        # the purification Omega = sqrt(rho_AB): unit HS norm, exact reduction back to rho_AB
        assert abs(np.vdot(hs_vec(omega), hs_vec(omega)) - 1.0) <= 1e-12
        assert np.linalg.norm(omega @ dagger(omega) - rho_ab.matrix) <= 1e-12

    def test_purified_bipartite_requires_full_rank(self):
        # a zero eigenvalue, and one of 1e-12 that the closed-form generator's
        # log would take without complaint
        eye2, eye4 = np.eye(2), np.eye(4)
        for rho_ab in (diag_state(0.5, 0.5, 0.0, 0.0), diag_state(0.4, 0.3, 0.3 - 1e-12, 1e-12)):
            with pytest.raises(RankDeficient):
                theorem_entropy_bounds(rho_ab, (2, 2), eye4, eye4, eye2, eye2,
                                       tol=suites.THEOREM_MARGIN_TOL)


class TestAntilinearPlumbing:
    def test_hs_vec_axb_identity(self):
        # row-major flattening: X -> A X B has matrix kron(A, B^T)
        rng = np.random.default_rng(4)
        a, x, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        lhs = hs_vec(a @ x @ b)
        rhs = kron(a, b.T) @ hs_vec(x)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


class TestWorkCounts:
    """Each matrix is decomposed once, and no SVD guards what full rank implies."""

    @staticmethod
    def spy(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_random_density_one_eigh_per_draw_round(self, monkeypatch, stacked):
        # a floor this high redraws about 4 in 10 states, so some take several rounds
        monkeypatch.setattr(modular, "WELL_CONDITIONED_EIG", 0.02)
        calls = []
        for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (modular, "_gaussians")):
            self.spy(monkeypatch, owner, name, calls)
        rng = [np.random.default_rng(k) for k in range(8)] if stacked else np.random.default_rng(3)
        state = random_density(3, rng)
        rounds = calls.count("_gaussians")
        assert rounds > 1
        assert calls == ["_gaussians", "eigh"] * rounds
        assert np.all(state.min_eigenvalue > 0.02)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_random_density_keeps_the_eigh_of_its_matrix(self, stacked):
        rng = [np.random.default_rng(k) for k in range(5)] if stacked else np.random.default_rng(4)
        state = random_density(4, rng)
        w, v = np.linalg.eigh(state.matrix)
        assert np.array_equal(state.eig.eigenvalues, w)
        assert np.array_equal(state.eig.eigenvectors, v)
        assert np.array_equal(state.matrix, (state.matrix + dagger(state.matrix)) / 2.0)

    def test_commutant_cancellation_takes_no_svd(self, monkeypatch):
        rng = np.random.default_rng(32)
        rngs = [np.random.default_rng(k) for k in range(4)]
        calls = []
        self.spy(monkeypatch, np.linalg, "svd", calls)
        check_commutant_cancellation(random_unitary(3, rng), random_unitary(3, rng),
                                     random_density(3, rng), random_density(3, rng))
        check_commutant_cancellation(random_unitary(3, rngs), random_unitary(3, rngs),
                                     random_density(3, rngs), random_density(3, rngs))
        assert calls == []

    @pytest.mark.parametrize("stacked", [False, True])
    def test_commutant_cancellation_builds_k_alone(self, monkeypatch, stacked):
        # the cancellation takes K from `_modular_operator`, the one path `_polar`
        # takes too, and builds no J: its K is the polar data's bit for bit
        rng = [np.random.default_rng(k) for k in range(4)] if stacked else np.random.default_rng(34)
        rho, rho_t = random_density(3, rng), random_density(3, rng)
        u_r, v_r = random_unitary(3, rng), random_unitary(3, rng)
        forms, calls = [], []
        quadratic_form = modular._quadratic_form

        def form_spy(k, x):
            forms.append(k)
            return quadratic_form(k, x)

        monkeypatch.setattr(modular, "_quadratic_form", form_spy)
        self.spy(monkeypatch, modular, "_polar", calls)
        check_commutant_cancellation(u_r, v_r, rho, rho_t)
        monkeypatch.undo()
        assert calls == [] and len(forms) == 1
        md = modular._polar(modular._tomita_map(rho.sqrt() @ v_r, rho_t.sqrt() @ u_r))
        assert np.array_equal(forms[0], md.K)

    def test_floor_redraws_states_below_eigh_resolution(self):
        # theorem trial 0 of `findim suite seed=222137` first draws a d = 4 state with
        # p_min = 6.8e-8, whose Delta = kron(rho, (rho^-1)^T) spreads by (p_min /
        # p_max)^2 = 1.6e-14, under the 10 d^2 u = 1.8e-14 that eigh resolves: the
        # floor redraws it, and the kept state's Delta spreads far above that
        resolution = 10 * 4 ** 2 * 2.0 ** -53
        rng = np.random.default_rng(222137)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        first = g @ dagger(g)
        p = np.linalg.eigvalsh(first / np.trace(first).real)
        assert 6.8e-8 < p[0] < 6.9e-8 and (p[0] / p[-1]) ** 2 < resolution
        assert modular.WELL_CONDITIONED_EIG == pytest.approx(math.sqrt(resolution))
        rho = random_density(4, np.random.default_rng(222137))
        assert rho.min_eigenvalue > modular.WELL_CONDITIONED_EIG
        w = modular_data(rho, rho).delta_eig.eigenvalues
        assert w[0] / w[-1] > resolution

    def test_theorem_suite_builds_no_tomita_map(self, monkeypatch):
        calls = []
        for name in ("modular_data", "rel_tomita", "_polar"):
            self.spy(monkeypatch, modular, name, calls)
        suites.run_theorem_suite(seed=3, theorem_trials=40, monotonicity_trials=0)
        assert calls == []

    def test_commutant_cancellation_requires_full_rank(self):
        # the Tomita map of this pair is far from singular, but rho is not full rank
        rng = np.random.default_rng(33)
        rho = diag_state(0.6, 0.4 - 1e-12, 1e-12)
        rho_t = random_density(3, rng)
        u_r, v_r = random_unitary(3, rng), random_unitary(3, rng)
        with pytest.raises(RankDeficient):
            check_commutant_cancellation(u_r, v_r, rho, rho_t)
        with pytest.raises(RankDeficient):
            check_commutant_cancellation(u_r, v_r, rho_t, rho)
