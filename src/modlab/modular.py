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

For the reference state itself the modular generator has a closed form,
K_Omega X = X log rho - log rho X (Ohya and Petz, Quantum Entropy and Its Use,
1993): the nested-algebra bounds read it from the state's own decomposition
and build no Tomita map.

Every function also takes stacks (..., d, d) of states, unitaries or maps and
then returns arrays over the leading axes: one pair is the unstacked view of
the same formula that the seeded suites run on blocks of trials.

Each state and each Delta is symmetrised once and decomposed once, by
`linalg._eigh`; no SVD guard is taken: full rank bounds a Tomita map's.  The
polar residual is a Frobenius norm, an upper bound on the spectral norm that
needs no SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonUnitary, ParameterViolation, RankDeficient
from .linalg import HermitianEig, _eigh, dagger, hermitian_part, kron, partial_trace

FULL_RANK_TOL = 1e-10
UNITARY_TOL = 1e-10
SUPPORT_TOL = 1e-11
# random_density's redraw floor.  `eigh` resolves Delta = kron(rho_t, (rho^-1)^T)
# of a d x d pair only to about n u w_max for n = d^2 (u = 2^-53), and Delta's
# spread w_min / w_max = (q_min / q_max)(p_min / p_max) is at least q_min p_min,
# which reaches (p_min / p_max)^2 at rho_t = rho.  Keeping it above 10 d^2 u needs
# p_min > sqrt(10 d^2 u), 1.33e-7 at the suites' largest d = 4.
WELL_CONDITIONED_EIG = math.sqrt(10 * 4 ** 2 * 2.0 ** -53)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive unit-trace matrix (or stack) with its eigendecomposition,
    computed once: every spectral function of the state reads `eig`.  Only a
    caller that has decomposed the `hermitian_part` itself passes `eig`."""

    matrix: np.ndarray
    eig: HermitianEig | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self.eig is None:
            m = hermitian_part(self.matrix)
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "eig", _eigh(m))
        w = self.eig.eigenvalues[..., 0]
        if np.any(w < -1e-12):
            raise RankDeficient(f"negative eigenvalue {np.min(w):.3e}")
        trace_dev = np.abs(np.trace(self.matrix, axis1=-2, axis2=-1).real - 1.0)
        if np.any(trace_dev > 1e-12):
            raise RankDeficient(f"trace deviates from 1 by {np.max(trace_dev):.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def min_eigenvalue(self) -> float | np.ndarray:
        return _scalar(self.eig.eigenvalues[..., 0])

    @property
    def full_rank(self) -> bool:
        return self.min_eigenvalue > FULL_RANK_TOL

    def sqrt(self) -> np.ndarray:
        return self.eig.apply(np.sqrt)


@dataclass(frozen=True)
class AntilinearMap:
    """Antilinear map x -> M conj(x) represented by its linear part M."""

    linear_part: np.ndarray

    def antiunitarity_defect(self) -> float:
        m = self.linear_part
        return float(np.linalg.norm(dagger(m) @ m - np.eye(m.shape[0]), 2))


@dataclass(frozen=True)
class ModularData:
    """Polar data of a relative Tomita map: S = J Delta^{1/2}, K = -log Delta,
    with the eigendecomposition of Delta that built them.  The reconstruction
    residual ||J Delta^{1/2} - S||_F bounds the spectral one from above, with
    no SVD."""

    S: AntilinearMap
    J: AntilinearMap
    Delta: np.ndarray
    K: np.ndarray
    delta_eig: HermitianEig = field(repr=False, compare=False)

    def s_reconstruction_residual(self) -> float | np.ndarray:
        delta_sqrt = self.delta_eig.apply(np.sqrt)
        rebuilt = self.J.linear_part @ np.conj(delta_sqrt)
        return _scalar(np.linalg.norm(rebuilt - self.S.linear_part, axis=(-2, -1)))


@dataclass(frozen=True)
class InequalityReport:
    """One inequality check; for stacked inputs every field is an array."""

    trial_seed: int | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    margin: float | np.ndarray
    passed: bool | np.ndarray


# --------------------------------------------------------------------------
# HS-space helpers (row-major flattening)
# --------------------------------------------------------------------------

def _scalar(x):
    """A 0-d result as a Python float, a stacked one as it is."""
    return float(x) if np.ndim(x) == 0 else x


def hs_vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(np.shape(x)[:-2] + (-1,))


def _hs_inner(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Re <hs_vec(x), hs_vec(y)> = Re tr(x^dag y)."""
    v = hs_vec(x)[..., None, :]
    return _scalar(np.real(np.conj(v) @ hs_vec(y)[..., :, None])[..., 0, 0])


def _quadratic_form(k: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Re <hs_vec(x), K hs_vec(x)>."""
    v = hs_vec(x)[..., :, None]
    return _scalar(np.real(dagger(v) @ (k @ v))[..., 0, 0])


def sandwich_op(u: np.ndarray) -> np.ndarray:
    """Matrix of the induced HS unitary X -> u X u^dag."""
    return kron(u, u.conj())


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    # the Frobenius norm bounds the spectral norm from above, with no SVD
    defect = np.linalg.norm(dagger(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    if np.any(defect > UNITARY_TOL):
        raise NonUnitary(f"unitarity defect {np.max(defect):.3e} exceeds {UNITARY_TOL:.1e}")
    return u


# --------------------------------------------------------------------------
# relative entropy and Tomita construction
# --------------------------------------------------------------------------

def rel_entropy_dm(rho: DensityMatrix, rho_t: DensityMatrix) -> float | np.ndarray:
    """tr rho (log rho - log rho_t) on the support of rho; +inf if the support
    of rho is not contained in the support of rho_t."""
    if rho.dim != rho_t.dim:
        raise DimensionMismatch("states have different dimensions")
    p, vp = rho.eig.eigenvalues, rho.eig.eigenvectors
    q, vq = rho_t.eig.eigenvalues, rho_t.eig.eigenvectors
    sup_p = p > SUPPORT_TOL * np.maximum(p[..., -1:], 1e-300)
    sup_q = q > SUPPORT_TOL * np.maximum(q[..., -1:], 1e-300)
    p = np.where(sup_p, p, 0.0)
    # weight[i, j] = p_i |<v_i, w_j>|^2 over the support of rho
    weight = p[..., :, None] * np.abs(dagger(vp) @ vq) ** 2
    # support condition: rho must not weigh the null space of rho_t
    bad_mass = np.where(sup_q[..., None, :], 0.0, weight).sum(axis=(-2, -1))
    h = (np.sum(p * np.log(np.where(sup_p, p, 1.0)), axis=-1)
         - np.sum(weight * np.log(np.where(sup_q, q, 1.0))[..., None, :], axis=(-2, -1)))
    return _scalar(np.where(bad_mass > 1e-12, math.inf, h))


def _tomita_map(psi: np.ndarray, phi: np.ndarray) -> AntilinearMap:
    """Tomita map a*Psi -> a^dag*Phi: X -> (Psi^dag)^{-1} X^dag Phi for an invertible Psi."""
    d = psi.shape[-1]
    # hs_vec(X^T) = hs_vec(X)[perm], so X -> X^T composed on the right permutes columns
    perm = np.arange(d * d).reshape(d, d).T.ravel()
    return AntilinearMap(kron(np.linalg.inv(dagger(psi)), phi.swapaxes(-1, -2))[..., perm])


def _require_full_rank(rho: DensityMatrix, rho_t: DensityMatrix) -> None:
    """The one guard of a Tomita map: with both spectra in (FULL_RANK_TOL, 1] its
    singular values sqrt(q_j / p_i) spread by less than 1 / FULL_RANK_TOL."""
    if rho.dim != rho_t.dim:
        raise DimensionMismatch("states have different dimensions")
    if not (np.all(rho.full_rank) and np.all(rho_t.full_rank)):
        raise RankDeficient(
            f"full rank required (min eigenvalues {np.min(rho.min_eigenvalue):.2e}, "
            f"{np.min(rho_t.min_eigenvalue):.2e})"
        )


def rel_tomita(rho: DensityMatrix, rho_t: DensityMatrix) -> AntilinearMap:
    """Relative Tomita map of a pair of full-rank density matrices."""
    _require_full_rank(rho, rho_t)
    return _tomita_map(rho.sqrt(), rho_t.sqrt())


def _modular_operator(s: AntilinearMap) -> tuple[np.ndarray, HermitianEig, np.ndarray]:
    """Delta = S*S, its eigendecomposition and K = -log Delta, for the Tomita map
    of a pair that passed `_require_full_rank`.  No cut on Delta's spectrum: `eigh`
    resolves it only to about n u w_max, which `WELL_CONDITIONED_EIG` keeps
    below the spread of every drawn pair."""
    m = s.linear_part
    delta = m.swapaxes(-1, -2) @ np.conj(m)
    delta = (delta + dagger(delta)) / 2.0
    eig = _eigh(delta)
    k = -eig.apply(np.log)
    return delta, eig, (k + dagger(k)) / 2.0


def _polar(s: AntilinearMap) -> ModularData:
    """S = J Delta^{1/2}: `_modular_operator` with J = S Delta^{-1/2} on top.
    `ModularData.s_reconstruction_residual` checks the product in the Frobenius
    norm, an upper bound on the spectral norm, so no SVD is taken."""
    delta, eig, k = _modular_operator(s)
    j = AntilinearMap(s.linear_part @ np.conj(eig.apply(lambda w: w ** -0.5)))
    return ModularData(S=s, J=j, Delta=delta, K=k, delta_eig=eig)


def modular_data(rho: DensityMatrix, rho_t: DensityMatrix) -> ModularData:
    return _polar(rel_tomita(rho, rho_t))


def delta_closed_form(rho: DensityMatrix, rho_t: DensityMatrix) -> np.ndarray:
    """kron(rho_t, (rho^{-1})^T), the relative modular operator on HS vectors;
    rho must be full rank, as in `rel_tomita`."""
    if not np.all(rho.full_rank):
        raise RankDeficient(f"full rank required (min eigenvalue {np.min(rho.min_eigenvalue):.2e})")
    rho_inv = rho.eig.apply(lambda w: 1.0 / w)
    return kron(rho_t.matrix, rho_inv.swapaxes(-1, -2))


def entropy_from_modular(md: ModularData, rho: DensityMatrix) -> float | np.ndarray:
    """<Omega, K Omega> with Omega = sqrt(rho) as an HS vector."""
    return _quadratic_form(md.K, rho.sqrt())


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
                                 rho: DensityMatrix, rho_t: DensityMatrix) -> float | np.ndarray:
    """|H(v'Omega, u'Omega_t) - H(Omega, Omega_t)| for right-multiplication
    unitaries v', u'; commutant dressings must cancel."""
    u_r = _check_unitary(u_r)
    v_r = _check_unitary(v_r)
    # near-unitary right factors move the singular values of sqrt(rho) and
    # sqrt(rho_t) by 1 +- UNITARY_TOL, so full rank still bounds those of S
    _require_full_rank(rho, rho_t)
    psi = rho.sqrt() @ v_r
    phi = rho_t.sqrt() @ u_r
    _, _, k = _modular_operator(_tomita_map(psi, phi))
    return abs(_quadratic_form(k, psi) - rel_entropy_dm(rho, rho_t))


def theorem_entropy_bounds(rho_ab: DensityMatrix, dims: tuple[int, int],
                           u: np.ndarray, v: np.ndarray,
                           u_b: np.ndarray, v_b: np.ndarray,
                           trial_seed: int = 0, *,
                           tol: float) -> tuple[InequalityReport, InequalityReport]:
    """Entropy-level inequalities for nested algebras A subset AB, on a full-rank
    rho_AB over H_A (x) H_B of dims (d_A, d_B), purified by Omega = sqrt(rho_AB).

    Upper form: the relative entropy of the A-reductions of (v'v Omega, u'u Omega)
    is bounded by <u^dag v Omega, K_Omega u^dag v Omega> for the AB modular
    generator of rho_AB, taken in closed form: with X = u^dag v sqrt(rho_AB) and
    L = log rho_AB from the decomposition the state keeps, the form is
    Re tr(X^dag (X L - L X)).  Lower form: the AB-level relative entropy of
    (v v'Omega, u u'Omega) dominates the relative entropy of its A-reductions.
    """
    d_a, d_b = dims
    for w in (rho_ab.matrix, u, v):
        if w.shape[-2:] != (d_a * d_b, d_a * d_b):
            raise DimensionMismatch("rho_AB, u and v must act on H_A (x) H_B")
    for w in (u_b, v_b):
        if w.shape[-2:] != (d_b, d_b):
            raise DimensionMismatch("u_B, v_B must act on H_B")
    _require_full_rank(rho_ab, rho_ab)  # log rho_AB needs a full-rank state
    u = _check_unitary(u)
    v = _check_unitary(v)
    ub_full = kron(np.eye(d_a), _check_unitary(u_b))
    vb_full = kron(np.eye(d_a), _check_unitary(v_b))
    rho = rho_ab.matrix

    # upper form: A-entropy of (v'v Omega, u'u Omega) vs the AB quadratic form
    rho_v = vb_full @ v @ rho @ dagger(v) @ dagger(vb_full)
    rho_u = ub_full @ u @ rho @ dagger(u) @ dagger(ub_full)
    lhs_a = rel_entropy_dm(DensityMatrix(partial_trace(rho_v, dims)),
                           DensityMatrix(partial_trace(rho_u, dims)))
    x = dagger(u) @ v @ rho_ab.sqrt()
    log_rho = rho_ab.eig.apply(np.log)
    rhs_ab = _hs_inner(x, x @ log_rho - log_rho @ x)
    upper = InequalityReport(trial_seed, lhs_a, rhs_ab,
                             rhs_ab - lhs_a, lhs_a <= rhs_ab + tol)

    # lower form: AB-entropy of (v v'Omega, u u'Omega) vs its A-reduction
    rho_v2 = v @ vb_full @ rho @ dagger(vb_full) @ dagger(v)
    rho_u2 = u @ ub_full @ rho @ dagger(ub_full) @ dagger(u)
    lhs_ab = rel_entropy_dm(DensityMatrix(rho_v2), DensityMatrix(rho_u2))
    rhs_a = rel_entropy_dm(DensityMatrix(partial_trace(rho_v2, dims)),
                           DensityMatrix(partial_trace(rho_u2, dims)))
    lower = InequalityReport(trial_seed, lhs_ab, rhs_a,
                             lhs_ab - rhs_a, lhs_ab >= rhs_a - tol)
    return upper, lower


def monotonicity_check(rho_ab: DensityMatrix, rho_t_ab: DensityMatrix,
                       dims: tuple[int, int], trial_seed: int = 0, *,
                       tol: float) -> InequalityReport:
    """Relative entropy does not increase under the partial trace over B."""
    if rho_ab.dim != rho_t_ab.dim or rho_ab.dim != dims[0] * dims[1]:
        raise DimensionMismatch("bipartite dimensions inconsistent")
    lhs = rel_entropy_dm(DensityMatrix(partial_trace(rho_ab.matrix, dims)),
                         DensityMatrix(partial_trace(rho_t_ab.matrix, dims)))
    rhs = rel_entropy_dm(rho_ab, rho_t_ab)
    return InequalityReport(trial_seed, lhs, rhs, rhs - lhs, lhs <= rhs + tol)


# --------------------------------------------------------------------------
# random ensembles
# --------------------------------------------------------------------------

def random_density(dim: int, rng: np.random.Generator | list) -> DensityMatrix:
    """rho = G G^dag / tr(G G^dag) with complex Gaussian G; redraws the rare
    near-singular samples so Tomita constructions stay well conditioned. A list
    of generators draws a stack, each state redrawn from its own generator."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    out = np.empty((len(rngs), dim, dim), dtype=complex)
    w, v = np.empty((len(rngs), dim)), np.empty_like(out)
    todo = np.arange(len(rngs))
    for _ in range(64):
        g = _gaussians(dim, [rngs[k] for k in todo])
        m = g @ dagger(g)
        m = hermitian_part(m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])
        eig = _eigh(m)  # the rejection test reads what the kept state keeps
        ok = eig.eigenvalues[:, 0] > WELL_CONDITIONED_EIG
        done = todo[ok]
        out[done], w[done], v[done] = m[ok], eig.eigenvalues[ok], eig.eigenvectors[ok]
        todo = todo[~ok]
        if not todo.size:
            k = slice(None) if rngs is rng else 0
            return DensityMatrix(out[k], eig=HermitianEig(w[k], v[k]))
    raise RankDeficient("could not draw a well-conditioned state")  # pragma: no cover


def random_unitary(dim: int, rng: np.random.Generator | list,
                   columns: int | None = None) -> np.ndarray:
    """Haar unitary via QR of a complex Gaussian with phase-fixed diagonal; a
    list of generators draws a stack, one unitary per generator.

    With `columns = k` only the first k columns are returned, as the QR of the
    Gaussian's first k columns (Mezzadri, Notices AMS 54, 2007): the same bits
    as `random_unitary(dim, rng)[..., :k]`, and each generator still advances
    by the 2 dim^2 normals of a full unitary.
    """
    if columns is not None and not 1 <= columns <= dim:
        raise ParameterViolation(f"columns must lie in 1..{dim}, got {columns}")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    q, r = np.linalg.qr(_gaussians(dim, rngs, columns))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    return u if rngs is rng else u[0]


def _gaussians(dim: int, rngs: list, columns: int | None = None) -> np.ndarray:
    """One complex Gaussian dim x dim matrix per generator, real part drawn
    first; only its first `columns` columns are formed, but every generator
    draws all 2 dim^2 normals."""
    x = np.empty((len(rngs), 2, dim, dim))
    for r, out in zip(rngs, x):
        r.standard_normal(out=out)
    return x[:, 0, :, :columns] + 1j * x[:, 1, :, :columns]
