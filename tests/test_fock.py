"""Tests for the truncated Fock space and the coherent-state identities."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from modlab import fock
from modlab.errors import DimensionMismatch, NonHermitian, TruncationBudgetExceeded
from modlab.fock import (
    StandardSubspaceData,
    TruncatedFock,
    coherent_entropy_check,
    create,
    dgamma,
    gamma,
    gamma_adjoint_check,
    number_estimate_check,
    segal_field,
    weyl,
    weyl_derivative_check,
    weyl_relation_residual,
    wdgamma_identity_check,
)
from modlab.linalg import dagger, hermitian_eig
from modlab.modular import random_unitary
from modlab.suites import run_fock_suite


@pytest.fixture(scope="module")
def tf():
    return TruncatedFock(2, 12)


@pytest.fixture(scope="module")
def tf_small():
    return TruncatedFock(2, 8)


def number_op(tf):
    """The total particle number, diagonal in the occupation basis."""
    return np.diag([complex(sum(occ)) for occ in tf.basis])


def basis_vector(tf, occ):
    v = np.zeros(tf.dim, dtype=complex)
    v[tf.index[occ]] = 1.0
    return v


def low_projector(tf, max_particles):
    """Projector onto the sectors with at most `max_particles`, read off the basis."""
    return np.diag([complex(sum(occ) <= max_particles) for occ in tf.basis])


def sector_indices(tf, total):
    """Indices of the basis states with exactly `total` particles."""
    return np.array([k for k, occ in enumerate(tf.basis) if sum(occ) == total])


class TestSpace:
    def test_dimension(self, tf):
        # sum_{k=0}^{12} (k+1) states for two modes
        assert tf.dim == sum(k + 1 for k in range(13))

    def test_vacuum_annihilated(self, tf):
        for m in range(tf.modes):
            assert np.linalg.norm(tf.lower[m] @ tf.vacuum) == 0.0

    def test_ccr_below_cutoff(self, tf):
        p = low_projector(tf, tf.cutoff - 1)
        for i in range(2):
            for j in range(2):
                comm = tf.lower[i] @ tf.raise_op(j) - tf.raise_op(j) @ tf.lower[i]
                expected = np.eye(tf.dim) if i == j else np.zeros((tf.dim, tf.dim))
                assert np.linalg.norm(p @ (comm - expected) @ p, 2) <= 1e-14

    def test_particle_degree(self, tf):
        v = basis_vector(tf, (2, 1)) + 0.3 * basis_vector(tf, (0, 1))
        assert tf.particle_degree(v) == 3

    def test_particle_degree_checks_size(self, tf):
        with pytest.raises(DimensionMismatch):
            tf.particle_degree(np.ones(tf.dim - 1))

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_totals_never_decrease(self, modes):
        # the low sectors are a leading block of the basis only in this order
        for cutoff in range(1, 13):
            space = TruncatedFock(modes, cutoff)
            assert space.totals.tolist() == [sum(occ) for occ in space.basis]
            assert np.all(np.diff(space.totals) >= 0)


class TestSegalField:
    def test_zero(self, tf):
        assert np.linalg.norm(segal_field(tf, np.zeros(2))) == 0.0

    def test_vacuum_two_point_function(self, tf):
        rng = np.random.default_rng(0)
        for _ in range(5):
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = segal_field(tf, chi)
            got = np.vdot(tf.vacuum, phi @ phi @ tf.vacuum)
            assert abs(got - np.linalg.norm(chi) ** 2 / 2.0) <= 1e-13 * np.linalg.norm(chi) ** 2

    def test_hermitian(self, tf):
        rng = np.random.default_rng(1)
        chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = segal_field(tf, chi)
        assert np.linalg.norm(phi - dagger(phi)) <= 1e-14 * np.linalg.norm(phi)

    def test_real_linearity(self, tf):
        chi, xi = np.array([0.3, -0.1j]), np.array([0.2j, 0.5])
        lhs = segal_field(tf, 2.0 * chi + 3.0 * xi)
        rhs = 2.0 * segal_field(tf, chi) + 3.0 * segal_field(tf, xi)
        assert np.allclose(lhs, rhs)


class TestWeyl:
    def test_w0_is_identity(self, tf):
        assert np.allclose(weyl(tf, np.zeros(2)), np.eye(tf.dim))

    def test_guard(self, tf):
        with pytest.raises(TruncationBudgetExceeded):
            weyl(tf, np.array([0.6, 0.0]))

    def test_weyl_relation(self, tf):
        pairs = [
            (np.array([0.5, 0.0]), np.array([0.0 + 0.5j, 0.0])),
            (np.array([0.5, 0.0]), np.array([0.35, 0.35j])),
        ]
        rng = np.random.default_rng(2)
        for _ in range(5):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pairs.append((0.5 * c / np.linalg.norm(c), 0.5 * x / np.linalg.norm(x)))
        for chi, xi in pairs:
            assert weyl_relation_residual(tf, chi, xi) <= 1e-6

    def test_weyl_inverse_on_low_sectors(self, tf):
        chi = np.array([0.5, 0.0])
        p = low_projector(tf, 4)
        prod = weyl(tf, chi) @ weyl(tf, -chi) - np.eye(tf.dim)
        assert np.linalg.norm(p @ prod @ p, 2) <= 1e-8

    def test_unitarity_on_low_sectors(self, tf):
        # W = exp(i phi) of a Hermitian phi on the truncated space is unitary up
        # to rounding, so the gate is a rounding bound, not a truncation bound
        chi = np.array([0.3, 0.4j])
        w = weyl(tf, chi)
        p = low_projector(tf, tf.cutoff // 2)
        defect = np.linalg.norm(p @ (dagger(w) @ w - np.eye(tf.dim)) @ p, 2)
        assert defect <= 1e-12

    def test_phase_antisymmetry_via_commutator(self, tf):
        # W(chi) W(xi) W(chi)^-1 W(xi)^-1 = exp(-i Im<chi, xi>) on low sectors
        chi, xi = np.array([0.4, 0.0]), np.array([0.2j, 0.3])
        comm = (weyl(tf, chi) @ weyl(tf, xi) @ weyl(tf, -chi) @ weyl(tf, -xi))
        phase = np.exp(-1j * np.imag(np.vdot(chi, xi)))
        p = low_projector(tf, 4)
        assert np.linalg.norm(p @ (comm - phase * np.eye(tf.dim)) @ p, 2) <= 1e-6


class TestDisplacement:
    """W(chi) = D exp(i phi(|chi|)) D^dag with D = exp(i arg(chi) N) and
    W(-chi) = (-1)^N W(chi) (-1)^N; the exponential's oracle is scipy's Pade
    `expm`, which takes no eigh."""

    # a zero component, purely imaginary and negative ones, |chi| = 0.5
    AMPLITUDES = [np.array([0.0, 0.5j]), np.array([0.3 - 0.4j, 0.0]),
                  np.array([-0.3, 0.4j]), np.array([0.1 + 0.2j, -0.4 - 0.2j]),
                  np.array([0.2, 0.1])]

    @pytest.mark.parametrize("cutoff", [11, 12, 16])
    def test_matches_pade_exponential(self, cutoff):
        tf = TruncatedFock(2, cutoff)
        for chi in self.AMPLITUDES:
            oracle = expm(1j * segal_field(tf, chi))
            assert np.max(np.abs(fock._displacement(tf, chi) - oracle)) <= 1e-13

    def test_phase_gauge_of_the_field(self, tf):
        # each phase e^{i n theta} rounds by about n |theta| u, 4e-15 at n = 12
        # and |theta| near pi, so the gate is 1e-14 on entries of size about 1
        for chi in self.AMPLITUDES:
            # D from the basis: D a_m^dag D^dag = e^{i arg chi_m} a_m^dag
            d = np.array([np.exp(1j * sum(n * np.angle(c) for n, c in zip(occ, chi)))
                          for occ in tf.basis])
            gauged = d[:, None] * segal_field(tf, np.abs(chi)) * d.conj()
            assert np.max(np.abs(gauged - segal_field(tf, chi))) <= 1e-14

    def test_reflection_is_the_opposite_displacement(self, tf):
        for chi in self.AMPLITUDES:
            got = fock._reflect(tf, weyl(tf, chi))
            assert np.max(np.abs(got - fock._displacement(tf, -chi))) <= 1e-14

    def test_suite_takes_49_real_decompositions(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        run_fock_suite(20260810, 12)
        full = [dtype for shape, dtype in calls if shape == (91, 91)]
        assert full == [np.dtype(np.float64)] * 49


class TestDGamma:
    def test_number_operator(self, tf):
        assert np.allclose(dgamma(tf, np.eye(2)), number_op(tf))

    def test_one_particle_block(self, tf):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + dagger(g)) / 2
        idx = sector_indices(tf, 1)
        block = dgamma(tf, h)[np.ix_(idx, idx)]
        # basis order within the sector is lexicographic in occupations:
        # (0,1) carries mode-1, (1,0) carries mode-0
        perm = [0, 1] if tf.basis[idx[0]] == (0, 1) else [1, 0]
        hp = h[np.ix_([1, 0], [1, 0])] if perm == [0, 1] else h
        assert np.allclose(block, hp)

    def test_kills_vacuum(self, tf):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + dagger(g)) / 2
        assert np.linalg.norm(dgamma(tf, h) @ tf.vacuum) == 0.0

    def test_exponentiation_matches_gamma(self, tf):
        # exp(i t dGamma(h)) against the ladder-built Gamma(exp(i t h));
        # both are sector-exact so they must agree to rounding
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + dagger(g)) / 2
        t = 0.7
        lhs = hermitian_eig(t * dgamma(tf, h)).apply(lambda w: np.exp(1j * w))
        rhs = gamma(tf, hermitian_eig(t * h).apply(lambda w: np.exp(1j * w)))
        p = low_projector(tf, tf.cutoff - 2)
        assert np.linalg.norm(p @ (lhs - rhs) @ p, 2) <= 1e-8

    def test_additive_on_product_sectors(self, tf):
        h = np.diag([1.0, 2.0]).astype(complex)
        dg = dgamma(tf, h)
        v = basis_vector(tf, (2, 3))
        assert np.linalg.norm(dg @ v - (2 * 1.0 + 3 * 2.0) * v) <= 1e-13


class TestGammaAdjoint:
    def test_identity(self, tf):
        assert gamma_adjoint_check(tf, np.eye(2), np.array([0.3, 0.1])) <= 1e-12

    def test_single_mode_phase(self):
        tf1 = TruncatedFock(1, 12)
        u = np.array([[np.exp(0.7j)]])
        assert gamma_adjoint_check(tf1, u, np.array([0.4])) <= 1e-8

    def test_random_unitary(self, tf):
        rng = np.random.default_rng(6)
        u = random_unitary(2, rng)
        assert gamma_adjoint_check(tf, u, np.array([0.5, 0.0])) <= 1e-6


class TestNumberEstimate:
    def test_vacuum_one_point(self, tf):
        chi = np.array([0.3, 0.4])
        rep = number_estimate_check(tf, chi, tf.vacuum, 1)
        assert abs(rep["lhs"] - np.linalg.norm(chi) / math.sqrt(2)) <= 1e-13
        assert rep["pass"]

    def test_zero_amplitude(self, tf):
        rep = number_estimate_check(tf, np.zeros(2), tf.vacuum, 2)
        assert rep["lhs"] == 0.0 and rep["pass"]

    def test_random_degree_three(self, tf):
        rng = np.random.default_rng(7)
        idx3 = sector_indices(tf, 3)
        for k in range(100):
            v = np.zeros(tf.dim, dtype=complex)
            v[idx3] = rng.standard_normal(idx3.size) + 1j * rng.standard_normal(idx3.size)
            v[tf.index[(0, 0)]] = 0.2
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            n_pow = 1 + k % 4
            rep = number_estimate_check(tf, chi, v, n_pow)
            assert rep["pass"] and rep["margin"] > 0.0

    def test_budget_guard(self, tf):
        with pytest.raises(TruncationBudgetExceeded):
            number_estimate_check(tf, np.array([0.1, 0.0]), basis_vector(tf, (6, 5)), 3)


class TestWeylDerivative:
    def test_linear_path_from_vacuum(self, tf):
        chi = np.array([0.3, 0.2j])
        res = weyl_derivative_check(tf, lambda t: t * chi, chi, tf.vacuum)
        assert res <= 1e-6 * (1 + np.linalg.norm(tf.vacuum))
        # the derivative itself is i a*(chi) vacuum / sqrt(2)
        analytic = 1j * create(tf, chi) @ tf.vacuum / math.sqrt(2)
        w_plus = weyl(tf, 1e-4 * chi) @ tf.vacuum
        w_minus = weyl(tf, -1e-4 * chi) @ tf.vacuum
        assert np.linalg.norm((w_plus - w_minus) / 2e-4 - analytic) <= 1e-6

    def test_constant_path(self, tf):
        res = weyl_derivative_check(tf, lambda t: np.zeros(2), np.zeros(2), tf.vacuum)
        assert res == 0.0

    def test_exponential_path(self, tf):
        psi = basis_vector(tf, (1, 1))
        xi = np.array([0.2, 0.1])
        k = 1.3
        res = weyl_derivative_check(tf, lambda t: (np.exp(1j * t * k) - 1.0) * xi,
                                    1j * k * xi, psi)
        assert res <= 1e-6 * (1 + np.linalg.norm(psi))


class TestWDGamma:
    def test_zero_displacement(self, tf):
        assert wdgamma_identity_check(tf, np.eye(2), np.zeros(2)) <= 1e-14

    def test_unit_k_small_xi(self, tf):
        xi = np.array([0.1, 0.0])
        assert 0.5 * np.vdot(xi, xi).real == pytest.approx(0.005)
        assert wdgamma_identity_check(tf, np.eye(2), xi) <= 1e-6

    def test_random_k(self, tf):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            k = (g + dagger(g)) / 2
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xi = 0.3 * xi / np.linalg.norm(xi)
            assert wdgamma_identity_check(tf, k, xi) <= 1e-5


class TestCoherentEntropy:
    def test_equal_states_zero(self, tf):
        ssd = StandardSubspaceData.two_mode(2.0)
        rep = coherent_entropy_check(tf, ssd, np.zeros(2), np.array([0.3, 0.1j]))
        assert abs(rep["matrix_value"]) <= 1e-8

    def test_spectral_closed_form(self, tf):
        # displacement along the eigenvector with modular weight +log(2)
        ssd = StandardSubspaceData.two_mode(2.0)
        rep = coherent_entropy_check(tf, ssd, np.array([0.0, 0.2]), np.array([0.3, 0.1j]))
        assert rep["analytic"] == pytest.approx(0.5 * math.log(2.0) * 0.04)
        assert rep["analytic"] == pytest.approx(0.013863, abs=5e-7)
        assert rep["relative_deviation"] <= 1e-4
        assert rep["operator_residual"] <= 1e-5

    def test_random_subspaces(self, tf):
        rng = np.random.default_rng(9)
        for _ in range(5):
            lam = rng.uniform(1.2, 3.0)
            ssd = StandardSubspaceData.two_mode(lam)
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h = 0.2 * h / np.linalg.norm(h)
            chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            chi = 0.3 * chi / np.linalg.norm(chi)
            rep = coherent_entropy_check(tf, ssd, h, chi)
            assert rep["relative_deviation"] <= 1e-4

    def test_amplitude_guard(self, tf):
        ssd = StandardSubspaceData.two_mode(2.0)
        with pytest.raises(TruncationBudgetExceeded):
            coherent_entropy_check(tf, ssd, np.array([0.6, 0.0]), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            coherent_entropy_check(tf, ssd, np.zeros(3), np.zeros(2))

    def test_modular_relation_enforced(self):
        from modlab.modular import AntilinearMap
        swap = AntilinearMap(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(DimensionMismatch):
            StandardSubspaceData(np.diag([2.0, 2.0]).astype(complex), swap)
        # a rotation meets the modular relation, and its lower triangle is positive
        # definite, but it is not Hermitian
        rotation = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex)
        with pytest.raises(NonHermitian):
            StandardSubspaceData(rotation, swap)


class TestLeadingBlock:
    """The identity checks compress onto low sectors through the leading block
    of the basis; each must equal the projector form ||P X P||_2, bit for bit
    at the default cutoff 12 and within n u of it past that."""

    # cutoff 16 has 153 states, past the size where the bare block's SVD rounds
    # differently from the full-size one
    @pytest.mark.parametrize("cutoff", [12, 16])
    @pytest.mark.parametrize("max_particles", [3, 6, None])
    def test_matches_projector_form(self, cutoff, max_particles):
        tf = TruncatedFock(2, cutoff)
        p = low_projector(tf, tf.cutoff // 2 if max_particles is None else max_particles)
        rel = 0.0 if cutoff == 12 else tf.dim * np.finfo(float).eps

        def projected(x):
            return pytest.approx(float(np.linalg.norm(p @ x @ p, 2)), rel=rel, abs=0.0)

        rng = np.random.default_rng(12)
        for _ in range(2):
            chi, xi = (0.5 * v / np.linalg.norm(v) for v in
                       rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            phase = np.exp(-0.5j * np.imag(np.vdot(chi, xi)))
            x = weyl(tf, chi) @ weyl(tf, xi) - phase * fock._displacement(tf, chi + xi)
            assert weyl_relation_residual(tf, chi, xi, max_particles) == projected(x)

            u = random_unitary(2, rng)
            g = gamma(tf, u)
            x = g @ weyl(tf, chi) @ dagger(g) - weyl(tf, u @ chi)
            assert gamma_adjoint_check(tf, u, chi, max_particles) == projected(x)

            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            k_one = (h + dagger(h)) / 2
            dg = dgamma(tf, k_one)
            w = weyl(tf, xi)
            x = (fock._reflect(tf, w) @ dg @ w - dg
                 - (0.5 * np.real(np.vdot(xi, k_one @ xi)) * np.eye(tf.dim)
                    + segal_field(tf, 1j * (k_one @ xi))))
            assert wdgamma_identity_check(tf, k_one, xi, max_particles) == projected(x)


class TestTruncationMonotonicity:
    def test_weyl_relation_improves_with_cutoff(self):
        chi, xi = np.array([0.5, 0.0]), np.array([0.0 + 0.5j, 0.0])
        res = []
        for n in (6, 8, 10):
            tfn = TruncatedFock(2, n)
            res.append(weyl_relation_residual(tfn, chi, xi, max_particles=3))
        assert res[1] <= res[0] and res[2] <= res[1]

    def test_wdgamma_improves_with_cutoff(self):
        xi = np.array([0.45, 0.2])
        res = []
        for n in (6, 8, 10):
            tfn = TruncatedFock(2, n)
            res.append(wdgamma_identity_check(tfn, np.eye(2), xi, max_particles=3))
        assert res[1] <= res[0] and res[2] <= res[1]


class TestGammaConstruction:
    def test_gamma_unitary_sectorwise(self, tf_small):
        rng = np.random.default_rng(10)
        u = random_unitary(2, rng)
        g = gamma(tf_small, u)
        assert np.linalg.norm(dagger(g) @ g - np.eye(tf_small.dim), 2) <= 1e-12

    def test_gamma_preserves_sectors(self, tf_small):
        rng = np.random.default_rng(11)
        u = random_unitary(2, rng)
        g = gamma(tf_small, u)
        n_op = number_op(tf_small)
        assert np.linalg.norm(g @ n_op - n_op @ g, 2) <= 1e-12
