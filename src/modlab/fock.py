"""Truncated bosonic Fock space over n modes with a total-particle cutoff.

Ladder operators are exact below the cutoff sector; displacement unitaries,
second quantization and the coherent-state identities are verified as matrix
identities compressed onto low particle sectors, where truncation defects are
factorially suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch, TruncationBudgetExceeded
from .linalg import HermitianEig, _eigh, dagger, hermitian_eig
from .modular import AntilinearMap

CHI_MAX = 0.5  # guard on |chi| for displacements built on the truncated space
OCCUPIED_REL = 1e-13  # coefficients below this share of the norm count as empty
DERIVATIVE_STEP = 1e-4


def _basis(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Occupation tuples with total <= cutoff, ordered by total then lexicographically."""
    states = []
    for total in range(cutoff + 1):
        sector = sorted({tuple(combo.count(m) for m in range(modes))
                         for combo in combinations_with_replacement(range(modes), total)})
        states.extend(sector)
    return states


@dataclass(frozen=True)
class TruncatedFock:
    """n-mode bosonic Fock space truncated at `cutoff` total particles.

    The basis is ordered by particle total (`totals`), so the sectors up to m
    are its first count(totals <= m) states; `occupations` holds it as a
    (dim, modes) array."""

    modes: int
    cutoff: int
    basis: list = field(init=False, repr=False)
    index: dict = field(init=False, repr=False)
    totals: np.ndarray = field(init=False, repr=False)
    occupations: np.ndarray = field(init=False, repr=False)
    lower: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise DimensionMismatch("need at least one mode and one particle")
        basis = _basis(self.modes, self.cutoff)
        index = {occ: k for k, occ in enumerate(basis)}
        dim = len(basis)
        lower = []
        for m in range(self.modes):
            a = np.zeros((dim, dim), dtype=complex)
            for k, occ in enumerate(basis):
                if occ[m] > 0:
                    target = list(occ)
                    target[m] -= 1
                    a[index[tuple(target)], k] = math.sqrt(occ[m])
            lower.append(a)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "occupations", np.array(basis))
        object.__setattr__(self, "totals", self.occupations.sum(axis=1))
        object.__setattr__(self, "lower", lower)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def raise_op(self, mode: int) -> np.ndarray:
        return dagger(self.lower[mode])

    def particle_degree(self, psi: np.ndarray) -> int:
        psi = np.asarray(psi)
        if psi.size != self.dim:
            raise DimensionMismatch("coefficient vector does not match the space")
        occupied = np.abs(psi) > OCCUPIED_REL * max(np.linalg.norm(psi), 1e-300)
        return int(self.totals[occupied].max()) if occupied.any() else 0

    def _guard(self, chi: np.ndarray) -> np.ndarray:
        chi = np.asarray(chi, dtype=complex).reshape(-1)
        if chi.size != self.modes:
            raise DimensionMismatch(f"expected {self.modes} mode amplitudes, got {chi.size}")
        if np.linalg.norm(chi) > CHI_MAX + 1e-12:
            raise TruncationBudgetExceeded(
                f"amplitude norm {np.linalg.norm(chi):.4f} exceeds guard {CHI_MAX}")
        return chi


@dataclass(frozen=True)
class StandardSubspaceData:
    """One-particle modular data (Delta_H, J_H) with J Delta J^{-1} = Delta^{-1}."""

    delta_h: np.ndarray
    j_h: AntilinearMap
    eig: HermitianEig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.delta_h, dtype=complex)
        object.__setattr__(self, "eig", hermitian_eig(d))
        if self.eig.eigenvalues[0] <= 0:
            raise DimensionMismatch("Delta_H must be positive")
        if self.j_h.antiunitarity_defect() > 1e-10:
            raise DimensionMismatch("J_H must be antiunitary")
        # for antiunitary J with linear part P, J Delta J^{-1} has matrix P conj(Delta) P^dag
        mj = self.j_h.linear_part
        conj_delta = mj @ np.conj(d) @ dagger(mj)
        inv = np.linalg.inv(d)
        if np.linalg.norm(conj_delta - inv, 2) > 1e-10 * np.linalg.norm(inv, 2):
            raise DimensionMismatch("modular relation J Delta J^{-1} = Delta^{-1} violated")

    @property
    def k_h(self) -> np.ndarray:
        return -self.eig.apply(np.log)

    @classmethod
    def two_mode(cls, lam: float) -> "StandardSubspaceData":
        """Delta_H = diag(lam, 1/lam) with J_H = coordinate swap composed with conjugation."""
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return cls(np.diag([lam, 1.0 / lam]).astype(complex), AntilinearMap(swap))


# --------------------------------------------------------------------------
# field, displacement and second quantization
# --------------------------------------------------------------------------

def create(tf: TruncatedFock, chi) -> np.ndarray:
    """a*(chi) = sum_i chi_i a_i^dag (linear in chi)."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    out = np.zeros((tf.dim, tf.dim), dtype=complex)
    for m in range(tf.modes):
        if chi[m] != 0:
            out += chi[m] * tf.raise_op(m)
    return out


def segal_field(tf: TruncatedFock, chi) -> np.ndarray:
    """phi(chi) = (a*(chi) + a(chi)) / sqrt(2); Hermitian."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.size != tf.modes:
        raise DimensionMismatch(f"expected {tf.modes} mode amplitudes, got {chi.size}")
    c = create(tf, chi)
    return (c + dagger(c)) / math.sqrt(2.0)


def weyl(tf: TruncatedFock, chi) -> np.ndarray:
    """Displacement unitary W(chi) = exp(i phi(chi)), |chi| guarded by CHI_MAX."""
    return _displacement(tf, tf._guard(chi))


def _displacement(tf: TruncatedFock, chi: np.ndarray) -> np.ndarray:
    """Unguarded W(chi) = D exp(i phi(|chi|)) D^dag with D = exp(i arg(chi) N):
    D a_m^dag D^dag = e^{i arg chi_m} a_m^dag, and phi(|chi|) is real symmetric."""
    c = create(tf, np.abs(chi)).real
    d = np.exp(1j * (tf.occupations @ np.angle(chi)))
    w = _eigh((c + c.T) / math.sqrt(2.0)).apply(lambda x: np.exp(1j * x))
    return d[:, None] * w * d.conj()


def _reflect(tf: TruncatedFock, w: np.ndarray) -> np.ndarray:
    """W(-chi) from W(chi): the parity (-1)^N anticommutes with phi(chi)."""
    parity = 1 - 2 * (tf.totals % 2)
    return parity[:, None] * w * parity


def dgamma(tf: TruncatedFock, h) -> np.ndarray:
    """Second-quantized generator sum_ij h_ij a_i^dag a_j; kills the vacuum."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (tf.modes, tf.modes):
        raise DimensionMismatch(f"one-particle operator must be {tf.modes}x{tf.modes}")
    out = np.zeros((tf.dim, tf.dim), dtype=complex)
    for i in range(tf.modes):
        for j in range(tf.modes):
            if h[i, j] != 0:
                out += h[i, j] * (tf.raise_op(i) @ tf.lower[j])
    return out


def gamma(tf: TruncatedFock, u) -> np.ndarray:
    """Multiplicative second quantization of a one-particle unitary.

    Built sector by sector from the recursion
    Gamma(u)|m> = a*(u e_i) Gamma(u)|m - e_i> / sqrt(m_i),
    which only uses ladder operators and is exact on every sector <= cutoff.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (tf.modes, tf.modes):
        raise DimensionMismatch(f"one-particle unitary must be {tf.modes}x{tf.modes}")
    lifted = [create(tf, u[:, i]) for i in range(tf.modes)]
    out = np.zeros((tf.dim, tf.dim), dtype=complex)
    out[:, 0] = tf.vacuum
    for k, occ in enumerate(tf.basis):
        if k == 0:
            continue
        i = next(m for m in range(tf.modes) if occ[m] > 0)
        parent = list(occ)
        parent[i] -= 1
        out[:, k] = (lifted[i] @ out[:, tf.index[tuple(parent)]]) / math.sqrt(occ[i])
    return out


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def _compressed_norm(tf: TruncatedFock, op: np.ndarray,
                     max_particles: int | None = None) -> float:
    """||P op P||_2 for P onto the sectors up to `max_particles` (default
    cutoff // 2): the spectral norm of the leading k x k block of `op`, since
    the basis is ordered by particle total."""
    cut = tf.cutoff // 2 if max_particles is None else max_particles
    k = int(np.count_nonzero(tf.totals <= cut))
    return float(np.linalg.norm(op[:k, :k], 2))


def weyl_relation_residual(tf: TruncatedFock, chi, xi,
                           max_particles: int | None = None) -> float:
    """|| W(chi) W(xi) - exp(-i Im<chi, xi>/2) W(chi + xi) || on low sectors."""
    chi = tf._guard(chi)
    xi = tf._guard(xi)
    phase = np.exp(-0.5j * np.imag(np.vdot(chi, xi)))
    lhs = weyl(tf, chi) @ weyl(tf, xi)
    # |chi + xi| may pass the guard, so W(chi + xi) is built unguarded
    rhs = phase * _displacement(tf, chi + xi)
    return _compressed_norm(tf, lhs - rhs, max_particles)


def gamma_adjoint_check(tf: TruncatedFock, u, chi,
                        max_particles: int | None = None) -> float:
    """Residual of Gamma(u) W(chi) Gamma(u)^dag = W(u chi) on low sectors."""
    chi = tf._guard(chi)
    u = np.asarray(u, dtype=complex)
    g = gamma(tf, u)
    lhs = g @ weyl(tf, chi) @ dagger(g)
    rhs = weyl(tf, u @ chi)
    return _compressed_norm(tf, lhs - rhs, max_particles)


def number_estimate_check(tf: TruncatedFock, chi, psi: np.ndarray,
                          n_pow: int) -> dict:
    """Margin report for ||phi(chi)^n psi|| <= (2(deg+1))^{n/2} |chi|^n sqrt(n!) ||psi||."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    degree = tf.particle_degree(psi)
    if degree + n_pow > tf.cutoff:
        raise TruncationBudgetExceeded(
            f"degree {degree} + power {n_pow} exceeds cutoff {tf.cutoff}")
    phi = segal_field(tf, chi)
    vec = psi
    for _ in range(n_pow):
        vec = phi @ vec
    lhs = float(np.linalg.norm(vec))
    bound = ((2.0 * (degree + 1)) ** (n_pow / 2.0)
             * np.linalg.norm(chi) ** n_pow * math.sqrt(math.factorial(n_pow))
             * np.linalg.norm(psi))
    return {"lhs": lhs, "bound": float(bound), "margin": float(bound - lhs),
            "pass": bool(lhs <= bound + 1e-12)}


def weyl_derivative_check(tf: TruncatedFock, path, dpath0, psi: np.ndarray) -> float:
    """Central-difference residual of d/dt W(h(t)) psi at t=0 against i phi(h'(0)) psi.

    `path` maps t to a mode-amplitude vector with path(0) = 0; `dpath0` is the
    analytic derivative at t = 0.
    """
    plus = weyl(tf, path(DERIVATIVE_STEP)) @ psi
    minus = weyl(tf, path(-DERIVATIVE_STEP)) @ psi
    numeric = (plus - minus) / (2.0 * DERIVATIVE_STEP)
    analytic = 1j * (segal_field(tf, dpath0) @ psi)
    return float(np.linalg.norm(numeric - analytic))


def wdgamma_identity_check(tf: TruncatedFock, k_one, xi,
                           max_particles: int | None = None) -> float:
    """Residual of W(-xi) dGamma(K) W(xi) - dGamma(K) = <xi, K xi>/2 + phi(i K xi)."""
    xi = tf._guard(xi)
    k_one = np.asarray(k_one, dtype=complex)
    dg = dgamma(tf, k_one)
    w = weyl(tf, xi)
    lhs = _reflect(tf, w) @ dg @ w - dg
    const = 0.5 * np.real(np.vdot(xi, k_one @ xi))
    rhs = const * np.eye(tf.dim) + segal_field(tf, 1j * (k_one @ xi))
    return _compressed_norm(tf, lhs - rhs, max_particles)


def coherent_entropy_check(tf: TruncatedFock, ssd: StandardSubspaceData,
                           h, chi) -> dict:
    """Compare the assembled relative modular generator between the coherent
    states W(chi) vacuum and W(chi - h) vacuum against the closed form.

    The expectation of
        dGamma(K_H) + <chi-h, K_H (chi-h)>/2 - phi(i K_H (chi-h))
    in W(chi) vacuum must equal <h, K_H h>/2; the assembled operator must also
    match the conjugated generator W(chi-h) dGamma(K_H) W(-(chi-h)) on low
    sectors.
    """
    chi = tf._guard(chi)
    h = tf._guard(h)
    k_h = ssd.k_h
    shift = chi - h
    dg = dgamma(tf, k_h)
    const = 0.5 * np.real(np.vdot(shift, k_h @ shift))
    assembled = dg + const * np.eye(tf.dim) - segal_field(tf, 1j * (k_h @ shift))
    omega = weyl(tf, chi) @ tf.vacuum
    matrix_value = float(np.real(np.vdot(omega, assembled @ omega)))
    analytic = 0.5 * float(np.real(np.vdot(h, k_h @ h)))
    deviation = abs(matrix_value - analytic) / max(abs(analytic), 1e-10)
    # |chi - h| may pass the guard, so W(+-(chi - h)) are built unguarded
    w = _displacement(tf, shift)
    conjugated = w @ dg @ _reflect(tf, w)
    operator_residual = _compressed_norm(tf, assembled - conjugated)
    return {"matrix_value": matrix_value, "analytic": analytic,
            "relative_deviation": float(deviation),
            "operator_residual": operator_residual}
