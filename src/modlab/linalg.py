"""Dense complex linear algebra substrate.

Hermitian eigendecomposition, Kronecker products and partial traces.  The one
spectral calculus is `HermitianEig.apply`: f(A) = V f(Lambda) V^dag from a
decomposition that its owner keeps, and every Hermitian decomposition is
`_eigh`'s, of a matrix symmetrised once.  `_svd` decomposes a Fock displacement's
odd-even block.  Both turn a LAPACK failure into NonConvergence.  Operators on H become Hilbert-Schmidt vectors
through the row-major `modular.hs_vec`.

Each function also takes a stack (..., n, n) and acts on every matrix of it, as
LAPACK and matmul do, so a stacked result does not depend on the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainViolation, NonConvergence, NonHermitian

TOL_HERM = 1e-10


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainViolation("matrix contains NaN or Inf entries")
    return a


def dagger(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a) -> np.ndarray:
    """(A + A^dag) / 2; NonHermitian when ||A - A^dag||_F > TOL_HERM * max(||A||_F, 1)."""
    a = _as_complex_matrix(a)
    if a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"matrix is not square: {a.shape}")
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)
    asym = np.linalg.norm(a - dagger(a), axis=(-2, -1))
    if np.any(asym > TOL_HERM * scale):
        raise NonHermitian(f"symmetry residual {np.max(asym / scale):.3e} exceeds {TOL_HERM:.1e}")
    return (a + dagger(a)) / 2.0


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = V diag(w) V^dag with w ascending and V unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        v = self.eigenvectors
        return (v * f(self.eigenvalues)[..., None, :]) @ dagger(v)


def hermitian_eig(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NonHermitian as `hermitian_part` does and NonConvergence when the
    LAPACK iteration fails.
    """
    return _eigh(hermitian_part(a))


def _eigh(a: np.ndarray) -> HermitianEig:
    """`eigh` of an exactly Hermitian matrix, as `hermitian_part` returns it; a
    second symmetrisation would give it back bit for bit."""
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NonConvergence(str(exc)) from exc
    return HermitianEig(eigenvalues=w, eigenvectors=v)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full `svd` a = U diag(s) V^dag, returned as (U, s, V^dag)."""
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def kron(a, b) -> np.ndarray:
    """Kronecker product (np.kron's convention and products) of broadcast stacks."""
    a, b = _as_complex_matrix(a), _as_complex_matrix(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def partial_trace(x, dims: tuple[int, int]) -> np.ndarray:
    """Partial trace of x on H_A (x) H_B over B: the reduced operator on A."""
    d_a, d_b = dims
    x = _as_complex_matrix(x)
    if x.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"matrix shape {x.shape} does not match dims {dims}")
    t = x.reshape(x.shape[:-2] + (d_a, d_b, d_a, d_b))
    return np.einsum("...ijkj->...ik", t)

