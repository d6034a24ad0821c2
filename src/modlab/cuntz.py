"""Truncated shift families and non-signalling unitaries.

A branching-n family of shift isometries S_j e_k = e_{nk+j} realizes the
orthogonal-range relations exactly on a defect-free compression of a
D-dimensional space.  Sums w = sum_i u_i' u_i over two commuting factors are
non-signalling by construction but provably far from any product unitary
u' (x) u on a suitable reference vector; with an independent middle family the
product form is restored exactly.

Shifts, their transposes, identities and their Kronecker products and sums are
column maps: index arrays with the row of each column, -1 where it has none.
Each compressed norm ||P X P||_2 is the norm of the block `defect_free_index`
selects.  Likewise the norm-gap alignment reads only the block where its
reference state and its target are nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DimensionTooSmall, ParameterViolation, TruncationBudgetExceeded
from .linalg import dagger, kron
from .modular import random_unitary
from .quadrature import blocks

DEFECT_FREE_TOL = 1e-12


def _shift_maps(n: int, d: int) -> np.ndarray:
    """Column maps of S_0 .. S_{n-1}: row nk+j of column k, -1 when nk+j >= d."""
    rows = n * np.arange(d) + np.arange(n)[:, None]
    return np.where(rows < d, rows, -1)


def _dense(column_map: np.ndarray, dtype=float) -> np.ndarray:
    """The 0/1 matrix of a column map; columns of no row set a spare last row."""
    x = np.zeros((column_map.size + 1, column_map.size), dtype)
    x[column_map, np.arange(column_map.size)] = 1.0
    return x[:-1]


def _transpose(column_map: np.ndarray) -> np.ndarray:
    """Column map of the transpose of an injective column map."""
    out = np.full(column_map.size + 1, -1)  # columns of no row set the spare last slot
    out[column_map] = np.arange(column_map.size)
    return out[:-1]


def _kron_map(*maps: np.ndarray) -> np.ndarray:
    """Column map of the Kronecker product of column maps, in `kron`'s order."""
    out = np.zeros(1, dtype=np.intp)
    for m in maps:
        out = np.where((out[:, None] < 0) | (m < 0), -1, out[:, None] * m.size + m).ravel()
    return out


def _sum_map(terms) -> np.ndarray:
    """Column map of a sum of terms with different S_i^T, which reach disjoint columns."""
    return reduce(np.maximum, terms)


@dataclass(frozen=True)
class TruncatedCuntz:
    """Shift matrices S_j e_k = e_{nk+j} (zero when nk+j >= D) with the
    subspace where the orthogonal-isometry relations hold exactly; the
    matrices are scattered from their column maps on first use."""

    branching: int
    dim: int
    maps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, d = self.branching, self.dim
        if n < 1:
            raise DimensionTooSmall(f"branching {n} must be at least 1")
        if d < n * n:
            raise DimensionTooSmall(f"dim {d} must be at least n^2 = {n * n}")
        object.__setattr__(self, "maps", _shift_maps(n, d))

    @cached_property
    def shifts(self) -> list:
        return [_dense(m) for m in self.maps]

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
        # every index k = n (k // n) + (k % n) is in the range of S_{k % n}
        range_residual = support_norm(sum(s @ s.T for s in self.shifts) - np.eye(d))
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


def support_norm(x: np.ndarray) -> float:
    """Spectral norm of a matrix, taken over its nonzero rows and columns only.

    Zero rows and columns carry no singular value, so this is exact; an
    all-zero matrix gives 0.0 without an SVD.
    """
    rows, cols = x.any(axis=1), x.any(axis=0)
    if not rows.any():
        return 0.0
    return float(np.linalg.norm(x[np.ix_(rows, cols)], 2))


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


def cuntz_sum_unitary(fam1: TruncatedCuntz, fam2: TruncatedCuntz) -> np.ndarray:
    """w = sum_i T_i (x) S_i^dag built from the two shift families."""
    if fam1.branching != fam2.branching:
        raise DimensionTooSmall(f"branchings {fam1.branching} and {fam2.branching} differ")
    w = _sum_map(_kron_map(t, _transpose(s)) for t, s in zip(fam1.maps, fam2.maps))
    return _dense(w, complex)


def make_scenario(n: int, d1: int, d2: int, seed: int = 0) -> SignallingScenario:
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
    return SignallingScenario(fam1, fam2, alice, charlie, cuntz_sum_unitary(fam1, fam2))


def _real_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y from real products, which round alike in either order (complex ones
    do not): where each sum has one term, x @ y and y @ x agree bit for bit."""
    return (x.real @ y.real - x.imag @ y.imag) + 1j * (x.real @ y.imag + x.imag @ y.real)


def nonsignalling_check(scenario: SignallingScenario) -> dict:
    """max_a,c || P [w (a (x) I) w^dag, I (x) c] P || over Alice/Charlie
    generator pairs, with P the defect-free compression of both factors.

    c is zero outside Charlie's zone, so this is M C - C M on the kept block, for
    C = I_q1 (x) c[:q2, :q2] and M = w[idx, J] (a (x) I)[J, J] w[idx, J]^dag, J the
    nonzero columns of w[idx], found in blocks of `quadrature.blocks(|idx|, d1 d2)`
    rows.  M is built once per Alice generator and each commutator is one kept
    block, one pair at a time.  On a shift sum M = A' (x) I, so each entry of M C
    and C M is one product, and they cancel exactly.  The commutation defect
    (a I) (x) (I c) - (I a) (x) (c I) is formed only where the factors differ.
    """
    fam1, fam2 = scenario.alice_family, scenario.charlie_family
    (d1, d2), q1, q2 = scenario.dims, fam1.defect_free_dim, fam2.defect_free_dim
    idx = defect_free_index(fam1, fam2)
    reached = np.zeros(d1 * d2, dtype=bool)
    for block in blocks(idx.size, d1 * d2):
        reached |= scenario.w[idx[block]].any(axis=0)
    cols = np.flatnonzero(reached)
    rows = scenario.w[np.ix_(idx, cols)]
    same = cols[:, None] % d2 == cols % d2  # where (a (x) I)[J, J] may be nonzero
    norms, defects = [], []
    for a in scenario.alice_generators:
        m = rows @ np.where(same, a[cols[:, None] // d2, cols // d2], 0) @ dagger(rows)
        a_i, i_a = a @ np.eye(d1), np.eye(d1) @ a
        for g in scenario.charlie_generators:
            c, i_c, c_i = g[:q2, :q2], np.eye(d2) @ g, g @ np.eye(d2)
            norms.append(support_norm(
                _real_product(m.reshape(idx.size * q1, q2), c).reshape(m.shape)
                - _real_product(c, m.reshape(q1, q2, idx.size)).reshape(m.shape)))
            if not (np.array_equal(a_i, i_a) and np.array_equal(i_c, c_i)):
                defects.append(support_norm(kron(a_i, i_c) - kron(i_a, c_i)))
        del m  # so that the next M is not built beside this one
    worst = max(norms)
    return {"max_commutator": float(worst),
            "tolerance": DEFECT_FREE_TOL,
            "pass": bool(worst <= DEFECT_FREE_TOL),
            "commutation_defect": max(defects, default=0.0)}


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
    if i_max > fam.defect_free_dim:
        raise TruncationBudgetExceeded(
            "reference-state tail does not fit the defect-free zone")
    psi1 = (fam.shifts[0][:, 0] + fam.shifts[1][:, 1]) / math.sqrt(2.0)
    basis = [psi1]
    k = 0
    # e_0 .. e_{d-1} span the factor, so they fill i_max <= defect_free_dim < d slots
    while len(basis) < i_max:
        cand = np.zeros(d)
        cand[k] = 1.0
        for b in basis:
            cand = cand - np.dot(b, cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
        k += 1
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


def _leading_block(omega: np.ndarray) -> int:
    """k = 1 + the last nonzero row or column of Omega: u' Omega u^T reads only
    the first k columns of u' and of u, through Omega[:k, :k]."""
    rows, cols = np.nonzero(omega)
    return 1 + int(max(rows.max(), cols.max()))


def _support(target: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows R and columns C outside which the target is zero.  R takes the
    first k rows too when it holds fewer than k, so that a thin polar factor
    on the rows R is an isometry of k columns."""
    rows, cols = target.any(axis=1), target.any(axis=0)
    if rows.sum() < k:
        rows[:k] = True
    return np.flatnonzero(rows), np.flatnonzero(cols)


def _min_product_gap(omega: np.ndarray, target: np.ndarray,
                     u_prime: np.ndarray, u: np.ndarray) -> float:
    """min over a stack of ||u' Omega u^T - target||_F; each norm is taken
    matrix by matrix, because a stacked norm rounds differently.  Omega is the
    leading k x k block of the reference state (`_leading_block`), and u' and
    u are (..., d, k) stacks of isometries, such as the first k columns of
    unitaries: the image is the same d x d matrix as from the full ones."""
    images = u_prime @ omega @ u.swapaxes(-1, -2)
    return min(float(np.linalg.norm(m - target)) for m in images)


def align_product(omega: np.ndarray, target: np.ndarray, rng: np.random.Generator,
                  iters: int = 60, restarts: int = 4) -> float:
    """Alternating polar alignment minimizing ||(u' (x) u) Omega - target||
    over product unitaries (Higham's alternating polar steps, SIAM J. Sci.
    Stat. Comput. 7, 1986); returns the best gap found after iters >= 1 steps.

    Only the first k columns of u' and u enter u' Omega u^T, with k from
    `_leading_block`, and the target is zero outside its rows R and columns C
    (`_support`), so each step is one thin SVD of a block:
    - u' is the polar factor of the |R| x k block target[R, C] conj(u[C])
      Omega^dag, and zero outside R;
    - u[C] is the adjoint of the polar factor of the k x |C| block
      conj(Omega^dag u'[R]^dag target[R, C]).
    What this drops is each polar factor's completion.  It is orthogonal to
    range(target), so it never enters the next step when target[R, C] has
    full column rank; every `_apply_w` target does.  The last u step takes
    the whole k x d matrix, whose polar factor completes u to an isometry, so
    the gap is that of a product of isometries.  When Omega has full rank and
    the target no zero row or column, this is the full iteration.

    The restarts run together on (restarts, |R| or |C|, k) stacks.  Their
    starting points are drawn first, u then u' for each restart in turn, as
    the first k columns of Haar unitaries (`random_unitary(d, rng,
    columns=k)`, 2 d k normals each), so rng gives each restart the bits it
    would give one run after another.
    """
    k = _leading_block(omega)
    omega = omega[:k, :k]
    rows, cols = _support(target, k)
    block = target[np.ix_(rows, cols)]
    starts = random_unitary(target.shape[0], [rng] * (2 * restarts), columns=k)
    u = starts[::2, cols]
    for step in range(iters):
        # optimal u' for fixed u maximizes Re tr(u'^dag A'), A' = target conj(u) omega^dag:
        # the polar factor of A', whose rows outside R are zero
        uu, _, vv = np.linalg.svd(block @ np.conj(u) @ dagger(omega), full_matrices=False)
        u_prime = uu @ vv
        # optimal u for fixed u' maximizes Re tr(u C), C = conj(omega^dag u'^dag target):
        # the adjoint of C's polar factor, on the columns C until the last step
        c = target[rows] if step == iters - 1 else block
        uu, _, vv = np.linalg.svd(np.conj(dagger(omega) @ dagger(u_prime) @ c),
                                  full_matrices=False)
        u = dagger(vv) @ dagger(uu)
    full_u_prime = np.zeros(u.shape, dtype=u_prime.dtype)  # zero outside R
    full_u_prime[:, rows] = u_prime
    return _min_product_gap(omega, target, full_u_prime, u)


# At small eps the gap's pass margin over floor - slack is 2 sqrt(2 eps): 2.8e-12 at
# 1e-24, far above the rounding of min_gap (a few 1e-16).  It vanishes as eps -> 0,
# where the alignment attains the floor, so at eps = 1e-300 the verdict turns on
# the last bit of min_gap.
EPSILON_FLOOR = 1e-24


def norm_gap_experiment(epsilon: float, samples: int, d_factor: int = 32,
                        seed: int = 0, adversarial: bool = True) -> dict:
    """Sample product unitaries against the shift-sum unitary on the reference
    state and verify the gap never falls below the analytic floor.

    Each sample draws u, then u', from the one generator.  Omega is zero
    outside its leading k x k block (`_leading_block`), so each sample keeps
    only the first k columns of its unitaries (`random_unitary(...,
    columns=k)`), which are all that u' Omega u^T reads, and draws only
    their 2 d k normals.  The samples are stacked in blocks of
    `quadrature.blocks(samples, 2 d k)`, so no stack draws more than 2
    BLOCK_ELEMENTS floats (or one sample's two unitaries).  The alignment
    (`align_product`) takes its polar steps on the 14 rows and 6 columns
    where the target is nonzero, at every d_factor.

    epsilon lies in [EPSILON_FLOOR, 0.05]: beyond ~0.068 the floor changes
    sign and the experiment is vacuous, and below EPSILON_FLOOR the verdict
    rests on rounding.
    """
    if not EPSILON_FLOOR <= epsilon <= 0.05:
        raise ParameterViolation(f"epsilon must lie in [{EPSILON_FLOOR:g}, 0.05], "
                                 f"got {epsilon!r}")
    fam = TruncatedCuntz(2, d_factor)
    omega, slack = _reference_state(fam, epsilon, i_max=12)
    target = _apply_w(omega, fam)
    floor = gap_floor(epsilon)
    k = _leading_block(omega)
    rng = np.random.default_rng(seed)
    min_gap = math.inf
    for block in blocks(samples, 2 * d_factor * k):
        pairs = random_unitary(d_factor, [rng] * (2 * len(range(samples)[block])), columns=k)
        min_gap = min(min_gap, _min_product_gap(omega[:k, :k], target,
                                                pairs[1::2], pairs[::2]))
    if adversarial:
        min_gap = min(min_gap, align_product(omega, target, rng))
    return {"epsilon": epsilon, "samples": samples, "floor": floor,
            "min_gap": float(min_gap), "slack": float(slack),
            "pass": bool(min_gap >= floor - slack)}


# --------------------------------------------------------------------------
# product reconstruction through a middle family
# --------------------------------------------------------------------------

def _unitarity_defect(u: np.ndarray, idx: np.ndarray) -> float:
    """||P (U^dag U - I) P||_2 for a column map U: g > 1 kept columns that reach
    one row give a block J_g - I_g of norm g - 1, and one that reaches none -1."""
    rows = u[idx]
    shared = np.unique(rows[rows >= 0], return_counts=True)[1].max(initial=1) - 1
    return float(max(shared, np.any(rows < 0)))


def product_reconstruction(n: int, outer_dim: int, middle_dim: int) -> dict:
    """Rebuild w = sum_i u_i' u_i as a product u' u using an independent shift
    family on a middle factor: u' = sum_i u_i' c_i^dag, u = sum_i c_i u_i.

    On the defect-free compression the factorization and the unitarity of
    both factors are exact.  w, u' and u are column maps and u' u is one gather;
    the residual's norm is taken over the nonzero rows and columns of its kept
    block, and each unitarity defect is `_unitarity_defect`'s closed form.
    """
    fam1, fam_mid, fam3 = (TruncatedCuntz(n, d) for d in (outer_dim, middle_dim, outer_dim))
    eye1, eyem, eye3 = (np.arange(fam.dim) for fam in (fam1, fam_mid, fam3))
    w = _sum_map(_kron_map(t, eyem, _transpose(s)) for t, s in zip(fam1.maps, fam3.maps))
    u_prime = _sum_map(_kron_map(t, _transpose(c), eye3)
                       for t, c in zip(fam1.maps, fam_mid.maps))
    u = _sum_map(_kron_map(eye1, c, _transpose(s)) for c, s in zip(fam_mid.maps, fam3.maps))
    idx = defect_free_index(fam1, fam_mid, fam3)
    kept = np.full(w.size + 1, -1)  # the place of each row in idx; -1 reads the spare slot
    kept[idx] = np.arange(idx.size)
    # column j of P (u' u - w) P: +1 in the kept row u' u reaches, -1 in the one w reaches
    plus, minus = kept[np.append(u_prime, -1)[u[idx]]], kept[w[idx]]
    cols = np.flatnonzero(plus != minus)
    rows = np.setdiff1d(np.union1d(plus[cols], minus[cols]), -1)
    residual = support_norm(np.subtract(plus[cols] == rows[:, None],
                                        minus[cols] == rows[:, None], dtype=float))
    unit_u = _unitarity_defect(u, idx)
    unit_up = _unitarity_defect(u_prime, idx)
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
