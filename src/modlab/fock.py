"""Truncated bosonic Fock space over n modes with a total-particle cutoff.

Ladder operators are exact below the cutoff sector; displacement unitaries,
second quantization and the coherent-state identities are verified as matrix
identities compressed onto low particle sectors, where truncation defects are
factorially suppressed.

Each mode's raising operator a_m^dag is held as one index map: arrays
(source, target, weight) with a_m^dag |source> = weight |target>, weight
sqrt(n_m + 1).  Every ladder-built operator, dGamma's products too, is scattered
from these maps one term per matrix entry, so it equals the dense ladder sum bit
for bit; the particle-number bound gathers phi(chi) psi through them with no
matrix formed, for a whole stack of (chi, psi, n) trials at once.

A displacement is exp(i phi) of a real symmetric field that is odd under the
parity (-1)^N, so it takes one real SVD of the field's odd-even block and no
eigendecomposition; its opposite is a parity sign pattern of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch, TruncationBudgetExceeded
from .linalg import HermitianEig, _svd, dagger, hermitian_eig
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
    (dim, modes) array, and `even` and `odd` index its states of even and of
    odd total.  `raising[m]` is the (source, target, weight) index map of
    a_m^dag over the states below the cutoff; `lower[m]` is a_m as a dense
    matrix, built from the same map."""

    modes: int
    cutoff: int
    basis: list = field(init=False, repr=False)
    index: dict = field(init=False, repr=False)
    totals: np.ndarray = field(init=False, repr=False)
    occupations: np.ndarray = field(init=False, repr=False)
    even: np.ndarray = field(init=False, repr=False)
    odd: np.ndarray = field(init=False, repr=False)
    raising: tuple = field(init=False, repr=False)
    lower: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise DimensionMismatch("need at least one mode and one particle")
        basis = _basis(self.modes, self.cutoff)
        index = {occ: k for k, occ in enumerate(basis)}
        occupations = np.array(basis)
        totals = occupations.sum(axis=1)
        # the basis is ordered by total, so the states a_m^dag keeps inside the
        # space are its leading ones
        source = np.flatnonzero(totals < self.cutoff)
        raising = tuple(
            (source,
             np.array([index[occ[:m] + (occ[m] + 1,) + occ[m + 1:]]
                       for occ in basis[:source.size]]),
             np.sqrt(occupations[source, m] + 1.0))
            for m in range(self.modes))
        lower = []
        for src, tgt, weight in raising:
            a = np.zeros((len(basis), len(basis)), dtype=complex)
            a[src, tgt] = weight
            lower.append(a)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "occupations", occupations)
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "even", np.flatnonzero(totals % 2 == 0))
        object.__setattr__(self, "odd", np.flatnonzero(totals % 2 == 1))
        object.__setattr__(self, "raising", raising)
        object.__setattr__(self, "lower", lower)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def particle_degree(self, psi: np.ndarray):
        """The highest particle total psi occupies; over the last axis of a
        stack of states, an integer array."""
        psi = np.asarray(psi)
        if psi.shape[-1:] != (self.dim,):
            raise DimensionMismatch("coefficient vector does not match the space")
        norm = np.linalg.norm(psi, axis=-1, keepdims=True)
        occupied = np.abs(psi) > OCCUPIED_REL * np.maximum(norm, 1e-300)
        degree = np.where(occupied, self.totals, 0).max(axis=-1)
        return int(degree) if psi.ndim == 1 else degree

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
    for c, (src, tgt, weight) in zip(chi, tf.raising):
        out[tgt, src] += c * weight
    return out


def segal_field(tf: TruncatedFock, chi) -> np.ndarray:
    """phi(chi) = (a*(chi) + a(chi)) / sqrt(2); Hermitian."""
    chi = np.asarray(chi, dtype=complex).reshape(-1)
    if chi.size != tf.modes:
        raise DimensionMismatch(f"expected {tf.modes} mode amplitudes, got {chi.size}")
    out = create(tf, chi)
    # a(chi) fills the mirrored entries, which a*(chi) leaves zero
    for src, tgt, _ in tf.raising:
        out[src, tgt] += out[tgt, src].conj()
    return out / math.sqrt(2.0)


def _apply_field(tf: TruncatedFock, chi: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """phi(chi_k) vecs_k for every row k of the stacks chi (k, modes) and vecs
    (k, dim), gathered through the ladder maps with no matrix formed."""
    out = np.zeros_like(vecs)
    for c, (src, tgt, weight) in zip(chi.T, tf.raising):
        up = c[:, None] * weight
        out[:, tgt] += up * vecs[:, src]
        out[:, src] += up.conj() * vecs[:, tgt]
    return out / math.sqrt(2.0)


def weyl(tf: TruncatedFock, chi) -> np.ndarray:
    """Displacement unitary W(chi) = exp(i phi(chi)), |chi| guarded by CHI_MAX."""
    return _displacement(tf, tf._guard(chi))


def _displacement(tf: TruncatedFock, chi: np.ndarray) -> np.ndarray:
    """Unguarded W(chi) = D exp(i phi(|chi|)) D^dag with D = exp(i arg(chi) N):
    D a_m^dag D^dag = e^{i arg chi_m} a_m^dag, and phi(|chi|) is real symmetric.

    phi(|chi|) changes the particle total by one, so it maps even states to odd
    ones and back: it is [[0, B^T], [B, 0]] over (even, odd) states.  With
    B = U S V^T, exp(i phi) has even block V cos S V^T, odd block U cos S U^T
    (cos S padded with 1 past the smaller side) and odd-even block i U sin S V^T."""
    even, odd = tf.even, tf.odd
    u, s, vt = _svd(_odd_even_block(tf, np.abs(chi)))
    off = 1j * ((u[:, :s.size] * np.sin(s)) @ vt[:s.size])
    w = np.empty((tf.dim, tf.dim), dtype=complex)
    # the longer side has null directions past s: singular value 0, cos 0 = 1
    cos = np.ones(max(even.size, odd.size))
    cos[:s.size] = np.cos(s)
    w[np.ix_(even, even)] = (vt.T * cos[:even.size]) @ vt
    w[np.ix_(odd, odd)] = (u * cos[:odd.size]) @ u.T
    w[np.ix_(odd, even)] = off
    w[np.ix_(even, odd)] = off.T
    d = np.exp(1j * (tf.occupations @ np.angle(chi)))
    return d[:, None] * w * d.conj()


def _odd_even_block(tf: TruncatedFock, amplitudes: np.ndarray) -> np.ndarray:
    """B = phi(amplitudes)[odd, even] for real amplitudes, scattered from the
    ladder maps: a_m^dag takes even states to odd ones and odd states to even
    ones, and each map entry lands in B once, on its odd state's row."""
    slot = np.empty(tf.dim, dtype=int)
    slot[tf.even] = np.arange(tf.even.size)
    slot[tf.odd] = np.arange(tf.odd.size)
    b = np.zeros((tf.odd.size, tf.even.size))
    for a, (src, tgt, weight) in zip(amplitudes, tf.raising):
        odd_source = tf.totals[src] % 2 == 1
        rows, cols = np.where(odd_source, src, tgt), np.where(odd_source, tgt, src)
        b[slot[rows], slot[cols]] = a * weight
    return b / math.sqrt(2.0)


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
    # a_j lowers tgt to src, the leading states, which a_i^dag's map raises at entry src
    for (_, up, w_up), h_row in zip(tf.raising, h):
        for (src, tgt, w_down), h_ij in zip(tf.raising, h_row):
            if h_ij != 0:
                out[up[src], tgt] += h_ij * (w_up[src] * w_down)
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


def number_estimate_check(tf: TruncatedFock, chi, psi: np.ndarray, n_pow) -> dict:
    """Margin report for ||phi(chi)^n psi|| <= (2(deg+1))^{n/2} |chi|^n sqrt(n!) ||psi||.

    One trial gives floats and a bool.  A stack of trials, chi of shape
    (k, modes), psi of shape (k, dim) and n_pow of shape (k,), gives arrays;
    phi(chi) psi is gathered through the ladder maps in either case."""
    psi, chi = np.asarray(psi, dtype=complex), np.asarray(chi, dtype=complex)
    n_pow = np.asarray(n_pow)
    stacked = psi.ndim == 2
    if not stacked:
        psi, chi, n_pow = psi.reshape(1, -1), chi.reshape(1, -1), n_pow.reshape(1)
    trials = psi.shape[0]
    if chi.shape != (trials, tf.modes):
        raise DimensionMismatch(
            f"expected {tf.modes} mode amplitudes per trial, got {chi.shape}")
    if n_pow.shape != (trials,):
        raise DimensionMismatch(f"expected {trials} powers, got {n_pow.shape}")
    degree = tf.particle_degree(psi)
    over = np.flatnonzero(degree + n_pow > tf.cutoff)
    if over.size:
        k = over[0]
        raise TruncationBudgetExceeded(
            f"degree {degree[k]} + power {n_pow[k]} exceeds cutoff {tf.cutoff}")
    psi_norm = np.linalg.norm(psi, axis=1)
    lhs = psi_norm.copy()
    vec = psi
    for power in range(1, int(n_pow.max(initial=0)) + 1):
        vec = _apply_field(tf, chi, vec)
        done = n_pow == power
        lhs[done] = np.linalg.norm(vec[done], axis=1)
    bound = ((2.0 * (degree + 1)) ** (n_pow / 2.0)
             * np.linalg.norm(chi, axis=1) ** n_pow
             * np.sqrt([float(math.factorial(n)) for n in n_pow]) * psi_norm)
    # the 1e-12 absolute slack absorbs rounding in lhs: the gathers sum each
    # entry of phi psi in another order than a dense product does (3.5e-16
    # relative apart on 100 trials).  No trial leans on it: in the Fock suite
    # at seed 20260810 the smallest margin is 36% of its bound (38% at seed 0).
    report = {"lhs": lhs, "bound": bound, "margin": bound - lhs,
              "pass": lhs <= bound + 1e-12}
    return report if stacked else {key: value[0].item() for key, value in report.items()}


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
