"""Contract tests for the dense linear algebra substrate."""

import numpy as np
import pytest

from modlab.errors import DimensionMismatch, NonHermitian
from modlab.linalg import dagger, hermitian_eig, kron, partial_trace


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2.0


def random_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestHermitianEig:
    def test_identity(self):
        eig = hermitian_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_reflection(self):
        eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(6, rng)
        eig = hermitian_eig(a)
        assert np.linalg.norm(a - eig.apply(lambda w: w)) <= 1e-12 * np.linalg.norm(a)

    def test_ascending_and_unitary(self):
        rng = np.random.default_rng(12)
        for dim in (2, 5, 16, 64):
            a = random_hermitian(dim, rng)
            eig = hermitian_eig(a)
            assert np.all(np.diff(eig.eigenvalues) >= -1e-13)
            v = eig.eigenvectors
            assert np.linalg.norm(dagger(v) @ v - np.eye(dim)) <= 1e-12 * dim
            assert np.linalg.norm(a - eig.apply(lambda w: w)) <= 1e-12 * max(np.linalg.norm(a), 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))


class TestMatrixFunction:
    """The spectral calculus f(A) = V f(Lambda) V^dag of `HermitianEig.apply`."""

    def test_log_diagonal(self):
        a = np.diag([1.0, np.e])
        assert np.allclose(hermitian_eig(a).apply(np.log), np.diag([0.0, 1.0]), atol=1e-14)

    def test_sqrt_diagonal(self):
        out = hermitian_eig(np.diag([4.0, 9.0])).apply(np.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(7)
        g = random_matrix(4, rng)
        a = g @ dagger(g) + 0.5 * np.eye(4)
        back = hermitian_eig(hermitian_eig(a).apply(np.log)).apply(np.exp)
        assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    def test_spectral_calculus_multiplicativity(self):
        rng = np.random.default_rng(21)
        eig = hermitian_eig(random_hermitian(5, rng))
        lhs = eig.apply(np.exp) @ eig.apply(np.sin)
        rhs = eig.apply(lambda w: np.exp(w) * np.sin(w))
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(np.linalg.norm(rhs), 1.0)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        out = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert np.allclose(out, np.diag([10.0, 14.0, 15.0, 21.0]))

    def test_mixed_product(self):
        rng = np.random.default_rng(3)
        a, b, c, d = (random_matrix(2, rng) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        ga, gb = random_matrix(2, rng), random_matrix(3, rng)
        rho_a = ga @ dagger(ga)
        rho_a /= np.trace(rho_a)
        rho_b = gb @ dagger(gb)
        rho_b /= np.trace(rho_b)
        out = partial_trace(kron(rho_a, rho_b), (2, 3))
        assert np.linalg.norm(out - rho_a) <= 1e-13

    def test_maximally_entangled(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        proj = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(proj, (2, 2)), np.eye(2) / 2.0)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        x = random_matrix(4, rng)
        assert abs(np.trace(partial_trace(x, (2, 2))) - np.trace(x)) <= 1e-13

    def test_positivity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_matrix(6, rng)
            rho = g @ dagger(g)
            rho /= np.trace(rho)
            red = partial_trace(rho, (2, 3))
            assert np.linalg.eigvalsh(red).min() >= -1e-12

    def test_linearity(self):
        rng = np.random.default_rng(17)
        x, y = random_matrix(6, rng), random_matrix(6, rng)
        lhs = partial_trace(2.0 * x + 3.0j * y, (2, 3))
        rhs = 2.0 * partial_trace(x, (2, 3)) + 3.0j * partial_trace(y, (2, 3))
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), (2, 3))

