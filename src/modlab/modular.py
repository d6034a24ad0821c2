"""Relative modular theory over density matrices.

States are density matrices rho on H; vectors live in the Hilbert-Schmidt
space HS(H) on which the algebra B(H) acts by left multiplication and its
commutant by right multiplication.  HS vectors are flattened row-major, so an
operator X -> A X B has matrix kron(A, B^T) and the relative modular operator
of a pair (rho, rho_t) takes the closed form kron(rho_t, (rho^{-1})^T).

The relative Tomita map sends a*sqrt(rho) to a^dag*sqrt(rho_t); its polar
decomposition yields the modular conjugation, the modular operator and the
modular generator whose expectation in sqrt(rho) is the relative entropy
tr rho (log rho - log rho_t).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NonHermitian, NonUnitary, RankDeficient, SingularS
from .linalg import TOL_HERM, dagger, frob, hermitian_eig, kron, matrix_sqrt, partial_trace

FULL_RANK_TOL = 1e-10
UNITARY_TOL = 1e-10
SUPPORT_TOL = 1e-11
WELL_CONDITIONED_EIG = 1e-8


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace matrix with support metadata."""

    matrix: np.ndarray
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        if frob(m - dagger(m)) > TOL_HERM * max(frob(m), 1.0):
            raise NonHermitian("density matrix is not Hermitian within tolerance")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
        if w.min() < -1e-12:
            raise RankDeficient(f"negative eigenvalue {w.min():.3e}")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise RankDeficient(f"trace deviates from 1 by {abs(np.trace(m).real - 1.0):.3e}")
        object.__setattr__(self, "matrix", (m + dagger(m)) / 2.0)
        object.__setattr__(self, "min_eigenvalue", float(w.min()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.min_eigenvalue > FULL_RANK_TOL

    def sqrt(self) -> np.ndarray:
        return matrix_sqrt(self.matrix)


@dataclass(frozen=True)
class AntilinearMap:
    """Antilinear map x -> M conj(x) represented by its linear part M."""

    linear_part: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.linear_part @ np.conj(x)

    def compose(self, other: "AntilinearMap") -> np.ndarray:
        """Linear part of self o other (two antilinear maps compose to a linear one)."""
        return self.linear_part @ np.conj(other.linear_part)

    def adjoint(self) -> "AntilinearMap":
        return AntilinearMap(self.linear_part.T)

    def antiunitarity_defect(self) -> float:
        m = self.linear_part
        return float(np.linalg.norm(dagger(m) @ m - np.eye(m.shape[0]), 2))


@dataclass(frozen=True)
class ModularData:
    """Polar data of a relative Tomita map: S = J Delta^{1/2}, K = -log Delta."""

    S: AntilinearMap
    J: AntilinearMap
    Delta: np.ndarray
    K: np.ndarray

    def s_reconstruction_residual(self) -> float:
        delta_sqrt = linalg.matrix_power_positive(self.Delta, 0.5)
        rebuilt = self.J.linear_part @ np.conj(delta_sqrt)
        return float(np.linalg.norm(rebuilt - self.S.linear_part, 2))


@dataclass(frozen=True)
class PurifiedBipartite:
    """Full-rank bipartite state with its canonical HS purification sqrt(rho_AB)."""

    d_a: int
    d_b: int
    rho_ab: DensityMatrix

    def __post_init__(self):
        if self.rho_ab.dim != self.d_a * self.d_b:
            raise DimensionMismatch("rho_AB dimension does not factor as d_A * d_B")
        if not self.rho_ab.full_rank:
            raise RankDeficient("purified bipartite state must be full rank")

    @property
    def omega(self) -> np.ndarray:
        return self.rho_ab.sqrt()


@dataclass(frozen=True)
class InequalityReport:
    trial_seed: int
    lhs: float
    rhs: float
    margin: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps({"trial_seed": self.trial_seed, "lhs": self.lhs,
                           "rhs": self.rhs, "margin": self.margin, "pass": self.passed})


# --------------------------------------------------------------------------
# HS-space helpers (row-major flattening)
# --------------------------------------------------------------------------

def hs_vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).ravel()


def sandwich_op(u: np.ndarray) -> np.ndarray:
    """Matrix of the induced HS unitary X -> u X u^dag."""
    return kron(u, u.conj())


def transpose_perm(dim: int) -> np.ndarray:
    """Permutation matrix T with T hs_vec(X) = hs_vec(X^T)."""
    t = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            t[i * dim + j, j * dim + i] = 1.0
    return t


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    defect = np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0]), 2)
    if defect > UNITARY_TOL:
        raise NonUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")
    return u


# --------------------------------------------------------------------------
# relative entropy and Tomita construction
# --------------------------------------------------------------------------

def rel_entropy_dm(rho: DensityMatrix, rho_t: DensityMatrix) -> float:
    """tr rho (log rho - log rho_t) on the support of rho; +inf if the support
    of rho is not contained in the support of rho_t."""
    if rho.dim != rho_t.dim:
        raise DimensionMismatch("states have different dimensions")
    ep = hermitian_eig(rho.matrix)
    eq = hermitian_eig(rho_t.matrix)
    p, vp = ep.eigenvalues, ep.eigenvectors
    q, vq = eq.eigenvalues, eq.eigenvectors
    cut_p = SUPPORT_TOL * max(p.max(), 1e-300)
    cut_q = SUPPORT_TOL * max(q.max(), 1e-300)
    sup_p = p > cut_p
    overlap = np.abs(dagger(vp) @ vq) ** 2  # overlap[i, j] = |<v_i, w_j>|^2
    # support condition: rho must not weigh the null space of rho_t
    bad_mass = overlap[np.ix_(sup_p, q <= cut_q)]
    if bad_mass.size and float((p[sup_p, None] * bad_mass).sum()) > 1e-12:
        return math.inf
    h = float(np.sum(p[sup_p] * np.log(p[sup_p])))
    cross = overlap[np.ix_(sup_p, q > cut_q)]
    h -= float(np.sum(p[sup_p, None] * cross * np.log(q[None, q > cut_q])))
    return h


def tomita_pair(psi: np.ndarray, phi: np.ndarray) -> AntilinearMap:
    """Relative Tomita map for standard HS vectors given as full-rank matrices.

    Sends a*Psi to a^dag*Phi, i.e. X -> (Psi^dag)^{-1} X^dag Phi on matrices.
    """
    d = psi.shape[0]
    if psi.shape != (d, d) or phi.shape != (d, d):
        raise DimensionMismatch("vectors must be square matrices of equal size")
    sv = np.linalg.svd(psi, compute_uv=False)
    if sv.min() < FULL_RANK_TOL * sv.max():
        raise RankDeficient("reference vector is not separating (rank deficient)")
    m = kron(np.linalg.inv(dagger(psi)), phi.T) @ transpose_perm(d)
    return AntilinearMap(m)


def rel_tomita(rho: DensityMatrix, rho_t: DensityMatrix) -> AntilinearMap:
    """Relative Tomita map of a pair of full-rank density matrices."""
    if rho.dim != rho_t.dim:
        raise DimensionMismatch("states have different dimensions")
    if not (rho.full_rank and rho_t.full_rank):
        raise RankDeficient(
            f"full rank required (min eigenvalues {rho.min_eigenvalue:.2e}, "
            f"{rho_t.min_eigenvalue:.2e})"
        )
    return tomita_pair(rho.sqrt(), rho_t.sqrt())


def polar_modular(s: AntilinearMap) -> ModularData:
    """Polar decomposition S = J Delta^{1/2} with Delta = S*S and K = -log Delta."""
    m = s.linear_part
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.min() <= max(1e-13 * sv.max(), 1e-300):
        raise SingularS("Tomita map numerically singular")
    delta = m.T @ np.conj(m)
    delta = (delta + dagger(delta)) / 2.0
    eig = hermitian_eig(delta)
    k = -eig.apply(np.log)
    k = (k + dagger(k)) / 2.0
    inv_sqrt = eig.apply(lambda w: w ** -0.5)
    j = AntilinearMap(m @ np.conj(inv_sqrt))
    return ModularData(S=s, J=j, Delta=delta, K=k)


def modular_data(rho: DensityMatrix, rho_t: DensityMatrix) -> ModularData:
    return polar_modular(rel_tomita(rho, rho_t))


def delta_closed_form(rho: DensityMatrix, rho_t: DensityMatrix) -> np.ndarray:
    """kron(rho_t, (rho^{-1})^T), the relative modular operator on HS vectors."""
    rho_inv = linalg.matrix_inv_positive(rho.matrix)
    return kron(rho_t.matrix, rho_inv.T)


def entropy_from_modular(md: ModularData, rho: DensityMatrix) -> float:
    """<Omega, K Omega> with Omega = sqrt(rho) as an HS vector."""
    omega = hs_vec(rho.sqrt())
    return float(np.real(np.vdot(omega, md.K @ omega)))


# --------------------------------------------------------------------------
# covariance and cancellation checks
# --------------------------------------------------------------------------

def check_unitary_covariance(u: np.ndarray, rho: DensityMatrix,
                             rho_t: DensityMatrix) -> float:
    """Residual of K_{u., u.} = U K U^dag for the induced HS unitary U: X -> uXu^dag."""
    u = _check_unitary(u)
    md = modular_data(rho, rho_t)
    rho_u = DensityMatrix(u @ rho.matrix @ dagger(u))
    rho_tu = DensityMatrix(u @ rho_t.matrix @ dagger(u))
    md_u = modular_data(rho_u, rho_tu)
    uu = sandwich_op(u)
    return float(np.linalg.norm(md_u.K - uu @ md.K @ dagger(uu), 2))


def check_commutant_cancellation(u_r: np.ndarray, v_r: np.ndarray,
                                 rho: DensityMatrix, rho_t: DensityMatrix) -> float:
    """|H(v'Omega, u'Omega_t) - H(Omega, Omega_t)| for right-multiplication
    unitaries v', u'; commutant dressings must cancel."""
    u_r = _check_unitary(u_r)
    v_r = _check_unitary(v_r)
    psi = rho.sqrt() @ v_r
    phi = rho_t.sqrt() @ u_r
    md = polar_modular(tomita_pair(psi, phi))
    h_dressed = float(np.real(np.vdot(hs_vec(psi), md.K @ hs_vec(psi))))
    h_plain = rel_entropy_dm(rho, rho_t)
    return abs(h_dressed - h_plain)


def theorem_entropy_bounds(pb: PurifiedBipartite,
                           u: np.ndarray, v: np.ndarray,
                           u_b: np.ndarray, v_b: np.ndarray,
                           trial_seed: int = 0,
                           tol: float = 1e-8) -> tuple[InequalityReport, InequalityReport]:
    """Entropy-level inequalities for nested algebras A subset AB.

    Upper form: the relative entropy of the A-reductions of (v'v Omega, u'u Omega)
    is bounded by <u^dag v Omega, K_Omega u^dag v Omega> for the AB modular
    generator of rho_AB.  Lower form: the AB-level relative entropy of
    (v v'Omega, u u'Omega) dominates the relative entropy of its A-reductions.
    """
    for w in (u, v):
        if w.shape != (pb.rho_ab.dim, pb.rho_ab.dim):
            raise DimensionMismatch("u, v must act on H_A (x) H_B")
    for w in (u_b, v_b):
        if w.shape != (pb.d_b, pb.d_b):
            raise DimensionMismatch("u_B, v_B must act on H_B")
    u = _check_unitary(u)
    v = _check_unitary(v)
    ub_full = kron(np.eye(pb.d_a), _check_unitary(u_b))
    vb_full = kron(np.eye(pb.d_a), _check_unitary(v_b))
    rho = pb.rho_ab.matrix
    dims = (pb.d_a, pb.d_b)

    # upper form: A-entropy of (v'v Omega, u'u Omega) vs the AB quadratic form
    rho_v = vb_full @ v @ rho @ dagger(v) @ dagger(vb_full)
    rho_u = ub_full @ u @ rho @ dagger(u) @ dagger(ub_full)
    lhs_a = rel_entropy_dm(DensityMatrix(partial_trace(rho_v, "A", dims)),
                           DensityMatrix(partial_trace(rho_u, "A", dims)))
    md = modular_data(pb.rho_ab, pb.rho_ab)
    moved = hs_vec(dagger(u) @ v @ pb.omega)
    rhs_ab = float(np.real(np.vdot(moved, md.K @ moved)))
    upper = InequalityReport(trial_seed, lhs_a, rhs_ab,
                             rhs_ab - lhs_a, lhs_a <= rhs_ab + tol)

    # lower form: AB-entropy of (v v'Omega, u u'Omega) vs its A-reduction
    rho_v2 = v @ vb_full @ rho @ dagger(vb_full) @ dagger(v)
    rho_u2 = u @ ub_full @ rho @ dagger(ub_full) @ dagger(u)
    lhs_ab = rel_entropy_dm(DensityMatrix(rho_v2), DensityMatrix(rho_u2))
    rhs_a = rel_entropy_dm(DensityMatrix(partial_trace(rho_v2, "A", dims)),
                           DensityMatrix(partial_trace(rho_u2, "A", dims)))
    lower = InequalityReport(trial_seed, lhs_ab, rhs_a,
                             lhs_ab - rhs_a, lhs_ab >= rhs_a - tol)
    return upper, lower


def monotonicity_check(rho_ab: DensityMatrix, rho_t_ab: DensityMatrix,
                       dims: tuple[int, int], trial_seed: int = 0,
                       tol: float = 1e-8) -> InequalityReport:
    """Relative entropy does not increase under the partial trace over B."""
    if rho_ab.dim != rho_t_ab.dim or rho_ab.dim != dims[0] * dims[1]:
        raise DimensionMismatch("bipartite dimensions inconsistent")
    lhs = rel_entropy_dm(DensityMatrix(partial_trace(rho_ab.matrix, "A", dims)),
                         DensityMatrix(partial_trace(rho_t_ab.matrix, "A", dims)))
    rhs = rel_entropy_dm(rho_ab, rho_t_ab)
    return InequalityReport(trial_seed, lhs, rhs, rhs - lhs, lhs <= rhs + tol)


# --------------------------------------------------------------------------
# random ensembles
# --------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """rho = G G^dag / tr(G G^dag) with complex Gaussian G; redraws the rare
    near-singular samples so Tomita constructions stay well conditioned."""
    for _ in range(64):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ dagger(g)
        m = m / np.trace(m).real
        if np.linalg.eigvalsh(m).min() > WELL_CONDITIONED_EIG:
            return DensityMatrix(m)
    raise RankDeficient("could not draw a well-conditioned state")  # pragma: no cover


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with phase-fixed diagonal."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
