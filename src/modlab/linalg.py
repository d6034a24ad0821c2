"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, spectral matrix functions, Kronecker products
and partial traces.  Operators on H become Hilbert-Schmidt vectors through the
row-major `modular.hs_vec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainViolation, NonConvergence, NonHermitian

TOL_HERM = 1e-10
SUPPORT_CUT_REL = 1e-12


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainViolation("matrix contains NaN or Inf entries")
    return a


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = V diag(w) V^dag with w ascending and V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        v = self.eigenvectors
        return (v * f(self.eigenvalues)) @ dagger(v)


def hermitian_eig(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NonHermitian when ||A - A^dag||_F > TOL_HERM * ||A||_F and
    NonConvergence when the LAPACK iteration fails.
    """
    a = _as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {a.shape}")
    scale = max(frob(a), 1.0)
    if frob(a - dagger(a)) > TOL_HERM * scale:
        raise NonHermitian(
            f"symmetry residual {frob(a - dagger(a)) / scale:.3e} exceeds {TOL_HERM:.1e}"
        )
    try:
        w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NonConvergence(str(exc)) from exc
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray],
                    positive_domain: bool = False) -> np.ndarray:
    """Spectral calculus f(A) = V f(Lambda) V^dag for Hermitian A.

    With positive_domain=True (log, inverse, negative powers) eigenvalues must
    exceed SUPPORT_CUT_REL times the largest eigenvalue, else DomainViolation.
    """
    eig = hermitian_eig(a)
    if positive_domain:
        cut = SUPPORT_CUT_REL * max(float(eig.eigenvalues.max()), 0.0)
        if float(eig.eigenvalues.min()) <= cut:
            raise DomainViolation(
                f"eigenvalue {eig.eigenvalues.min():.3e} at or below support cut {cut:.3e}"
            )
    return eig.apply(f)


def matrix_log(a) -> np.ndarray:
    return matrix_function(a, np.log, positive_domain=True)


def matrix_sqrt(a) -> np.ndarray:
    return matrix_function(a, np.sqrt, positive_domain=False)


def matrix_exp_hermitian(a) -> np.ndarray:
    return matrix_function(a, np.exp)


def matrix_inv_positive(a) -> np.ndarray:
    return matrix_function(a, lambda w: 1.0 / w, positive_domain=True)


def matrix_power_positive(a, p: float) -> np.ndarray:
    return matrix_function(a, lambda w: w ** p, positive_domain=(p < 0))


def expi_hermitian(a) -> np.ndarray:
    """Unitary exp(iA) for Hermitian A, exactly unitary up to eigensolver error."""
    eig = hermitian_eig(a)
    return eig.apply(lambda w: np.exp(1j * w))


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block convention of numpy."""
    return np.kron(_as_complex_matrix(a), _as_complex_matrix(b))


def partial_trace(x, which: str, dims: tuple[int, int]) -> np.ndarray:
    """Partial trace of x on H_A (x) H_B over the factor not kept.

    which='A' keeps subsystem A (traces out B), which='B' keeps B.
    """
    d_a, d_b = dims
    x = _as_complex_matrix(x)
    if x.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"matrix shape {x.shape} does not match dims {dims}")
    t = x.reshape(d_a, d_b, d_a, d_b)
    if which == "A":
        return np.einsum("ijkj->ik", t)
    if which == "B":
        return np.einsum("ijil->jl", t)
    raise DimensionMismatch(f"which must be 'A' or 'B', got {which!r}")

