"""Truncated shift families and non-signalling unitaries.

A branching-n family of shift isometries S_j e_k = e_{nk+j} realizes the
orthogonal-range relations exactly on a defect-free compression of a
D-dimensional space.  Sums w = sum_i u_i' u_i over two commuting factors are
non-signalling by construction but provably far from any product unitary
u' (x) u on a suitable reference vector; with an independent middle family the
product form is restored exactly.

Composite operators are sparse Kronecker products, and each compressed norm
||P X P||_2 is the norm of the block `defect_free_index` selects.  scipy.sparse
is imported where it is used, so `import modlab` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooSmall, ParameterViolation, TruncationBudgetExceeded
from .linalg import dagger, kron
from .modular import random_unitary

DEFECT_FREE_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedCuntz:
    """Shift matrices S_j e_k = e_{nk+j} (zero when nk+j >= D) with the
    subspace where the orthogonal-isometry relations hold exactly."""

    branching: int
    dim: int
    shifts: list = field(init=False, repr=False)

    def __post_init__(self):
        n, d = self.branching, self.dim
        if n < 1:
            raise DimensionTooSmall(f"branching {n} must be at least 1")
        if d < n * n:
            raise DimensionTooSmall(f"dim {d} must be at least n^2 = {n * n}")
        shifts = []
        for j in range(n):
            s = np.zeros((d, d))
            for k in range(d):
                if n * k + j < d:
                    s[n * k + j, k] = 1.0
            shifts.append(s)
        object.__setattr__(self, "shifts", shifts)

    @property
    def defect_free_dim(self) -> int:
        return (self.dim - self.branching) // self.branching

    def relation_report(self) -> dict:
        """Exactness of S_i^dag S_j = delta_ij on the defect-free compression,
        the range-sum projection, and the defect norms on the complement."""
        n, d, q = self.branching, self.dim, self.defect_free_dim
        worst_good, worst_defect = 0.0, 0.0
        for i in range(n):
            for j in range(n):
                prod = self.shifts[i].T @ self.shifts[j]
                target = np.eye(d) if i == j else np.zeros((d, d))
                worst_good = max(worst_good, support_norm((prod - target)[:q, :q]))
                worst_defect = max(worst_defect, support_norm((prod - target)[:, q:]))
        range_sum = sum(s @ s.T for s in self.shifts)
        reachable = np.diag([1.0 if (k % n) + n * (k // n) == k else 0.0
                             for k in range(d)])
        range_residual = support_norm(range_sum - reachable)
        return {"defect_free_residual": float(worst_good),
                "top_sector_defect": float(worst_defect),
                "range_sum_residual": range_residual}


def defect_free_index(*families: TruncatedCuntz) -> np.ndarray:
    """Indices kept by the defect-free compression P of the composite space
    families[0] (x) families[1] (x) ..., in the row-major order of `kron`.

    Each factor's projector keeps its first defect_free_dim coordinates, so P
    is the coordinate projector onto these indices and
    ||P X P||_2 = ||X[idx][:, idx]||_2 exactly.
    """
    idx = np.zeros(1, dtype=np.intp)
    for fam in families:
        idx = (idx[:, None] * fam.dim + np.arange(fam.defect_free_dim)).ravel()
    return idx


def support_norm(x) -> float:
    """Spectral norm of a dense or scipy.sparse matrix, taken over its nonzero
    rows and columns only.

    Zero rows and columns carry no singular value, so this is exact; an
    all-zero matrix gives 0.0 without an SVD.
    """
    import scipy.sparse as sp
    x = sp.coo_array(x)
    nonzero = x.data != 0
    rows, cols = np.unique(x.row[nonzero]), np.unique(x.col[nonzero])
    if rows.size == 0:
        return 0.0
    return float(np.linalg.norm(x.tocsr()[rows][:, cols].toarray(), 2))


# --------------------------------------------------------------------------
# non-signalling scenarios on a two-factor space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SignallingScenario:
    """Alice acts on the first factor, Charlie inside the defect-free zone of
    the second; w is the candidate non-signalling unitary on the pair."""

    alice_family: TruncatedCuntz
    charlie_family: TruncatedCuntz
    alice_generators: list
    charlie_generators: list
    w: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.alice_family.dim, self.charlie_family.dim

    def composite_generators(self) -> tuple[list, list]:
        """Sparse a (x) I for Alice's generators and I (x) c for Charlie's."""
        import scipy.sparse as sp
        d1, d2 = self.dims
        return ([sp.kron(a, sp.eye_array(d2), format="csr") for a in self.alice_generators],
                [sp.kron(sp.eye_array(d1), c, format="csr")
                 for c in self.charlie_generators])

    def commutation_defect(self) -> float:
        """Alice and Charlie generators must commute on the composite space."""
        alice, charlie = self.composite_generators()
        return max((support_norm(a @ c - c @ a) for a in alice for c in charlie),
                   default=0.0)


def cuntz_sum_unitary(fam1: TruncatedCuntz, fam2: TruncatedCuntz) -> np.ndarray:
    """w = sum_i T_i (x) S_i^dag built from the two shift families."""
    if fam1.branching != fam2.branching:
        raise DimensionTooSmall(f"branchings {fam1.branching} and {fam2.branching} differ")
    return sum(kron(t, s.T) for t, s in zip(fam1.shifts, fam2.shifts))


def make_scenario(n: int, d1: int, d2: int, seed: int = 0,
                  w: np.ndarray | None = None) -> SignallingScenario:
    """Three random Hermitian generators on each side; Charlie's are
    compressed into the defect-free zone of his factor."""
    fam1 = TruncatedCuntz(n, d1)
    fam2 = TruncatedCuntz(n, d2)
    rng = np.random.default_rng(seed)
    alice = []
    charlie = []
    q2 = fam2.defect_free_dim
    for _ in range(3):
        g = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        alice.append((g + dagger(g)) / 2.0)
        g = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        c = np.zeros((d2, d2), dtype=complex)
        c[:q2, :q2] = ((g + dagger(g)) / 2.0)[:q2, :q2]
        charlie.append(c)
    if w is None:
        w = cuntz_sum_unitary(fam1, fam2)
    return SignallingScenario(fam1, fam2, alice, charlie, w)


def nonsignalling_check(scenario: SignallingScenario) -> dict:
    """max_a,c || P [w a w^dag, c] P || over Alice/Charlie generator pairs,
    with P the defect-free compression of both factors.

    P [m, c] P is the idx-block m[idx, :] c[:, idx] - c[idx, :] m[:, idx], so
    only the rows and the columns idx of m = w a w^dag are formed.
    """
    import scipy.sparse as sp
    idx = defect_free_index(scenario.alice_family, scenario.charlie_family)
    w = sp.csr_array(scenario.w)
    w_rows = w[idx]
    alice, charlie = scenario.composite_generators()
    worst = 0.0
    for a in alice:
        moved_rows = w_rows @ a @ dagger(w)
        moved_cols = w @ a @ dagger(w_rows)
        for c in charlie:
            worst = max(worst, support_norm(moved_rows @ c[:, idx] - c[idx] @ moved_cols))
    return {"max_commutator": float(worst),
            "tolerance": DEFECT_FREE_TOL,
            "pass": bool(worst <= DEFECT_FREE_TOL),
            "commutation_defect": scenario.commutation_defect()}


# --------------------------------------------------------------------------
# the norm-gap experiment
# --------------------------------------------------------------------------

def gap_floor(epsilon: float) -> float:
    """(1 - eps) sqrt(2 - sqrt 2) - 2 sqrt(2 eps), positive for small eps."""
    return (1.0 - epsilon) * math.sqrt(2.0 - math.sqrt(2.0)) - 2.0 * math.sqrt(2.0 * epsilon)


def _reference_state(fam: TruncatedCuntz, epsilon: float,
                     i_max: int) -> tuple[np.ndarray, float]:
    """Entangled reference matrix Omega = sum_i c_i psi_i' psi_i^T and the
    dropped ideal tail mass.

    psi_1 = (S_0 e_0 + S_1 e_1)/sqrt 2; the remaining psi_i complete it to an
    orthonormal family; psi_i' are standard basis vectors inside the
    defect-free zone of the primed factor.  c_1 = 1 - eps and the remaining
    mass follows a geometric profile c_i ~ q^i (q = 1/2) truncated at i_max.
    """
    d = fam.dim
    n = fam.branching
    if n < 2:
        raise DimensionTooSmall(f"branching {n}: the reference state needs branching >= 2")
    if i_max > fam.defect_free_dim:
        raise TruncationBudgetExceeded(
            "reference-state tail does not fit the defect-free zone")
    psi1 = (fam.shifts[0][:, 0] + fam.shifts[1][:, 1]) / math.sqrt(2.0)
    basis = [psi1]
    k = 0
    while len(basis) < i_max and k < d:
        cand = np.zeros(d)
        cand[k] = 1.0
        for b in basis:
            cand = cand - np.dot(b, cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
        k += 1
    if len(basis) < i_max:
        raise TruncationBudgetExceeded("factor too small for the requested tail")
    tail_target = 1.0 - (1.0 - epsilon) ** 2
    q = 0.5
    geo = np.array([q ** i for i in range(2, i_max + 1)])
    infinite_mass = q ** 4 / (1.0 - q * q)  # sum_{i >= 2} q^{2i}
    kept_mass = float(np.sum(geo * geo))
    slack = tail_target * (1.0 - kept_mass / infinite_mass)
    coeffs = np.concatenate(([1.0 - epsilon],
                             geo * math.sqrt(tail_target / infinite_mass)))
    omega = np.zeros((d, d))
    for i, c in enumerate(coeffs):
        prime = np.zeros(d)
        prime[i] = 1.0
        omega += c * np.outer(prime, basis[i])
    omega /= np.linalg.norm(omega)
    return omega, slack


def _apply_w(omega: np.ndarray, fam: TruncatedCuntz) -> np.ndarray:
    """Matrix form of (sum_j T_j (x) S_j^dag) acting on the reference state."""
    return sum(t @ omega @ s for t, s in zip(fam.shifts, fam.shifts))


def _product_gap(omega: np.ndarray, target: np.ndarray,
                 u_prime: np.ndarray, u: np.ndarray) -> float:
    return float(np.linalg.norm(u_prime @ omega @ u.T - target))


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    uu, _, vv = np.linalg.svd(a)
    return uu @ vv


def align_product(omega: np.ndarray, target: np.ndarray, rng: np.random.Generator,
                  iters: int = 60, restarts: int = 4) -> float:
    """Alternating polar alignment minimizing ||(u' (x) u) Omega - target||
    over product unitaries; returns the best gap found."""
    d = omega.shape[0]
    best = math.inf
    for _ in range(restarts):
        u = random_unitary(d, rng)
        u_prime = random_unitary(d, rng)
        for _ in range(iters):
            # optimal u' for fixed u maximizes Re tr(u'^dag A'), A' = target conj(u) omega^dag
            a_prime = target @ np.conj(u) @ dagger(omega)
            u_prime = _polar_unitary(a_prime)
            # optimal u for fixed u' maximizes Re tr(u C), C = conj(omega^dag u'^dag target)
            c = np.conj(dagger(omega) @ dagger(u_prime) @ target)
            uu, _, vv = np.linalg.svd(c)
            u = dagger(vv) @ dagger(uu)
        best = min(best, _product_gap(omega, target, u_prime, u))
    return best


def norm_gap_experiment(epsilon: float, samples: int, d_factor: int = 32,
                        seed: int = 0, adversarial: bool = True) -> dict:
    """Sample product unitaries against the shift-sum unitary on the reference
    state and verify the gap never falls below the analytic floor.

    epsilon is capped at 0.05; beyond ~0.068 the floor changes sign and the
    experiment is vacuous.
    """
    if not 0.0 < epsilon <= 0.05:
        raise ParameterViolation(f"epsilon must lie in (0, 0.05], got {epsilon}")
    fam = TruncatedCuntz(2, d_factor)
    omega, slack = _reference_state(fam, epsilon, i_max=12)
    target = _apply_w(omega, fam)
    floor = gap_floor(epsilon)
    rng = np.random.default_rng(seed)
    min_gap = math.inf
    for _ in range(samples):
        u = random_unitary(d_factor, rng)
        u_prime = random_unitary(d_factor, rng)
        min_gap = min(min_gap, _product_gap(omega, target, u_prime, u))
    if adversarial:
        min_gap = min(min_gap, align_product(omega, target, rng))
    return {"epsilon": epsilon, "samples": samples, "floor": floor,
            "min_gap": float(min_gap), "slack": float(slack),
            "pass": bool(min_gap >= floor - slack)}


# --------------------------------------------------------------------------
# product reconstruction through a middle family
# --------------------------------------------------------------------------

def product_reconstruction(n: int, outer_dim: int, middle_dim: int) -> dict:
    """Rebuild w = sum_i u_i' u_i as a product u' u using an independent shift
    family on a middle factor: u' = sum_i u_i' c_i^dag, u = sum_i c_i u_i.

    On the defect-free compression the factorization and the unitarity of
    both factors are exact.
    """
    import scipy.sparse as sp
    fam1 = TruncatedCuntz(n, outer_dim)
    fam_mid = TruncatedCuntz(n, middle_dim)
    fam3 = TruncatedCuntz(n, outer_dim)
    eye1, eyem, eye3 = (sp.eye_array(d) for d in (outer_dim, middle_dim, outer_dim))

    def kron3(a, b, c):
        return sp.kron(sp.kron(a, b), c, format="csr")

    w = sum(kron3(t, eyem, s.T) for t, s in zip(fam1.shifts, fam3.shifts))
    u_prime = sum(kron3(t, c.T, eye3) for t, c in zip(fam1.shifts, fam_mid.shifts))
    u = sum(kron3(eye1, c, s.T) for c, s in zip(fam_mid.shifts, fam3.shifts))
    idx = defect_free_index(fam1, fam_mid, fam3)
    eye = sp.eye_array(w.shape[0], format="csr")

    def compressed_norm(x) -> float:
        return support_norm(x[idx][:, idx])

    residual = compressed_norm(u_prime @ u - w)
    unit_u = compressed_norm(dagger(u) @ u - eye)
    unit_up = compressed_norm(dagger(u_prime) @ u_prime - eye)
    return {"branching": n, "outer_dim": outer_dim, "middle_dim": middle_dim,
            "factorization_residual": residual,
            "u_unitarity_defect": unit_u, "u_prime_unitarity_defect": unit_up,
            "pass": bool(max(residual, unit_u, unit_up) <= DEFECT_FREE_TOL)}


def certify_no_product_form(epsilon: float = 0.01, d_factor: int = 16,
                            seed: int = 0) -> dict:
    """Without a middle family the shift-sum unitary stays provably far from
    every product: the floor bounds the alignment gap from below, so the best
    product alignment certifies a gap > 0.1."""
    fam = TruncatedCuntz(2, d_factor)
    omega, slack = _reference_state(fam, epsilon, i_max=6)
    target = _apply_w(omega, fam)
    rng = np.random.default_rng(seed)
    best = align_product(omega, target, rng, iters=80, restarts=6)
    floor = gap_floor(epsilon)
    certified = floor - slack
    return {"epsilon": epsilon, "best_alignment_gap": float(best),
            "certified_floor": float(certified),
            "pass": bool(best >= certified > 0.1)}
