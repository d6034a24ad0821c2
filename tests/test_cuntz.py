"""Tests for truncated shift families, non-signalling sums and the norm gap."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import modlab
from modlab import cuntz
from modlab.cuntz import (
    TruncatedCuntz,
    align_product,
    certify_no_product_form,
    cuntz_sum_unitary,
    defect_free_index,
    gap_floor,
    make_scenario,
    nonsignalling_check,
    norm_gap_experiment,
    product_reconstruction,
    support_norm,
)
from modlab.errors import DimensionTooSmall, ParameterViolation
from modlab.linalg import dagger, kron
from modlab.modular import random_unitary
from modlab.quadrature import BLOCK_ELEMENTS
from oracles import padded_unitary

# the generator that pads a thin draw to the full unitary of the references
PAD_SEED = 99


class TestTruncatedCuntz:
    def test_disjoint_ranges_exact(self):
        tc = TruncatedCuntz(2, 8)
        assert np.linalg.norm(tc.shifts[0].T @ tc.shifts[1]) == 0.0

    def test_defect_free_dimension(self):
        assert TruncatedCuntz(2, 64).defect_free_dim == 31

    def test_relations_on_compression(self):
        rep = TruncatedCuntz(3, 81).relation_report()
        assert rep["defect_free_residual"] == 0.0
        assert rep["range_sum_residual"] == 0.0
        assert rep["top_sector_defect"] > 0.0  # reported, never asserted small

    def test_range_sum_on_reachable_index(self):
        tc = TruncatedCuntz(2, 8)
        range_sum = sum(s @ s.T for s in tc.shifts)
        e5 = np.zeros(8)
        e5[5] = 1.0  # 5 = 2*2 + 1
        assert np.linalg.norm(range_sum @ e5 - e5) == 0.0

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            TruncatedCuntz(3, 8)


def _projector(fam):
    return np.diag((np.arange(fam.dim) < fam.defect_free_dim).astype(float))


class TestBlockNorms:
    def test_block_norm_equals_compressed_norm(self):
        fams = (TruncatedCuntz(2, 6), TruncatedCuntz(2, 8))
        p = np.kron(_projector(fams[0]), _projector(fams[1]))
        idx = defect_free_index(*fams)
        rng = np.random.default_rng(5)
        for zero_rows, zero_cols in (([], []), ([0, 9], []), ([], [1, 10, 11]),
                                     ([8, 17], [0, 2, 16]), (slice(None), [])):
            x = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
            x[zero_rows, :] = 0.0
            x[:, zero_cols] = 0.0
            reference = np.linalg.norm(p @ x @ p, 2)
            assert support_norm(x[np.ix_(idx, idx)]) == pytest.approx(reference, rel=1e-13,
                                                                       abs=0.0)

    def test_support_norm_ignores_stored_zeros(self, monkeypatch):
        # the zero rows and columns of a dense matrix are skipped: the SVD sees
        # only the 2 x 1 block, and an all-zero matrix takes none
        shapes = []
        norm = np.linalg.norm

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return norm(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        x = np.zeros((4, 3))
        x[0, 2], x[3, 2] = 3.0, 4.0
        assert support_norm(x) == 5.0
        assert support_norm(np.zeros((3, 3), dtype=complex)) == 0.0
        assert shapes == [(2, 1)]

    def test_import_leaves_scipy_sparse_unloaded(self):
        src = str(Path(modlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, modlab; print('scipy.sparse' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


def _dense_commutator(sc):
    """max || P [w (a x I) w^dag, I x c] P ||_2 with every operator dense."""
    d1, d2 = sc.dims
    p = np.kron(_projector(sc.alice_family), _projector(sc.charlie_family))
    worst = 0.0
    for a in sc.alice_generators:
        moved = sc.w @ np.kron(a, np.eye(d2)) @ sc.w.conj().T
        for c in sc.charlie_generators:
            c_full = np.kron(np.eye(d1), c)
            worst = max(worst, np.linalg.norm(p @ (moved @ c_full - c_full @ moved) @ p, 2))
    return worst


class TestNonSignalling:
    # at branching 3, q1 = 2 and q2 = 8, so the reshapes of M into (q1, q2, |idx|)
    # are checked where the two kept dimensions differ
    @pytest.mark.parametrize("kind, n, d1, d2, seed", [
        *(pytest.param(kind, 2, 8, 16, 4, id=kind) for kind in ("haar", "product", "cuntz_sum")),
        *(pytest.param(kind, 3, 9, 27, 5, id=f"{kind}-branching3")
          for kind in ("haar", "product", "cuntz_sum"))])
    def test_matches_dense_reference(self, kind, n, d1, d2, seed):
        rng = np.random.default_rng(17)
        sc = make_scenario(n, d1, d2, seed=seed)  # w is the shift-sum unitary
        if kind == "haar":
            sc = dataclasses.replace(sc, w=random_unitary(d1 * d2, rng))
        elif kind == "product":
            sc = dataclasses.replace(sc, w=kron(random_unitary(d1, rng), random_unitary(d2, rng)))
        reference = _dense_commutator(sc)
        assert abs(nonsignalling_check(sc)["max_commutator"] - reference) <= 1e-12
        if kind == "haar":
            assert reference > 1e-3  # a generic unitary signals

    def test_identity_w(self):
        sc = dataclasses.replace(make_scenario(2, 16, 32, seed=1),
                                 w=np.eye(16 * 32, dtype=complex))
        assert nonsignalling_check(sc)["max_commutator"] == 0.0

    def test_product_w(self):
        rng = np.random.default_rng(3)
        w = kron(random_unitary(16, rng), random_unitary(32, rng))
        sc = dataclasses.replace(make_scenario(2, 16, 32, seed=1), w=w)
        assert nonsignalling_check(sc)["max_commutator"] <= 1e-13

    def test_cuntz_sum_w(self):
        sc = make_scenario(2, 16, 32, seed=1)
        rep = nonsignalling_check(sc)
        assert rep["max_commutator"] == 0.0
        assert rep["pass"]
        assert rep["commutation_defect"] == 0.0

    @pytest.mark.parametrize("n, d1, d2, seed", [(2, 16, 32, s) for s in (20260810, 0, 1, 2, 3, 4)]
                             + [(3, 9, 27, 1), (1, 4, 8, 2)])
    def test_cuntz_sum_commutes_exactly(self, n, d1, d2, seed):
        # every entry of M C and C M is one real product in either order
        rep = nonsignalling_check(make_scenario(n, d1, d2, seed))
        assert rep["max_commutator"] == 0.0
        assert rep["commutation_defect"] == 0.0

    def test_traced_peak_is_a_few_kept_blocks(self):
        # one generator pair at a time on the kept block: a warm check holds at
        # most 12 complex |idx| x |idx| blocks (2,067 KiB); stacking the
        # commutators of all 3 x 3 pairs takes about 6.3 MiB
        sc = make_scenario(2, 16, 32, seed=20260810)
        kept = defect_free_index(sc.alice_family, sc.charlie_family).size
        nonsignalling_check(sc)
        tracemalloc.start()
        try:
            nonsignalling_check(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == 105
        assert peak <= 12 * kept * kept * np.dtype(complex).itemsize

    def test_sum_is_isometric_on_good_states(self):
        fam = TruncatedCuntz(2, 32)
        w = cuntz_sum_unitary(fam, fam)
        # vector supported deep inside both defect-free zones
        v = np.zeros(32 * 32)
        v[(32 * 2) + 3] = 1.0
        assert abs(np.linalg.norm(w @ v) - 1.0) <= 1e-14


class TestNormGap:
    def test_floor_arithmetic(self):
        assert gap_floor(0.01) == pytest.approx(
            0.99 * math.sqrt(2.0 - math.sqrt(2.0)) - 2.0 * math.sqrt(0.02))
        assert gap_floor(0.01) == pytest.approx(0.4749, abs=5e-5)

    def test_floor_monotone_and_sign_change(self):
        vals = [gap_floor(e) for e in (0.001, 0.005, 0.01)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert gap_floor(0.07) < 0.0  # past the root near 0.068

    def test_epsilon_window_enforced(self):
        with pytest.raises(ParameterViolation):
            norm_gap_experiment(0.06, samples=1)
        with pytest.raises(ParameterViolation):
            norm_gap_experiment(0.0, samples=1)

    def test_tail_must_fit_defect_free_zone(self):
        from modlab.errors import TruncationBudgetExceeded
        with pytest.raises(TruncationBudgetExceeded):
            norm_gap_experiment(0.01, samples=1, d_factor=8)

    @pytest.mark.parametrize("d, i_max", [(16, 6)] + [(d, i_max) for d in (26, 32, 64, 256)
                                                     for i_max in (6, 12)])
    def test_reference_state_lives_in_leading_block(self, d, i_max):
        # the samples keep the first k columns, k = 1 + the last nonzero row or
        # column of Omega; that is i_max at every size
        omega, _ = cuntz._reference_state(TruncatedCuntz(2, d), 0.01, i_max=i_max)
        outside = omega.copy()
        outside[:i_max, :i_max] = 0.0
        assert not outside.any()
        assert omega[i_max - 1].any() and omega[:, i_max - 1].any()

    def test_sampled_gaps_respect_floor(self):
        for eps in (0.001, 0.005, 0.01):
            rep = norm_gap_experiment(eps, samples=25, d_factor=32, seed=11)
            assert rep["pass"], rep
            assert rep["min_gap"] >= rep["floor"] - rep["slack"]

    def test_adversarial_alignment_respects_floor(self):
        rep = norm_gap_experiment(0.01, samples=5, d_factor=32, seed=2,
                                  adversarial=True)
        assert rep["min_gap"] >= rep["floor"] - rep["slack"]

    def test_haar_samples_are_unitary(self):
        rng = np.random.default_rng(7)
        for dim in (8, 32):
            u = random_unitary(dim, rng)
            assert np.linalg.norm(dagger(u) @ u - np.eye(dim), 2) <= 1e-12

    def test_alignment_finds_exact_product_target(self):
        # sanity for the heuristic: when the target is itself a product state
        # image, the alignment drives the gap to ~0
        rng = np.random.default_rng(9)
        d = 8
        omega = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        omega /= np.linalg.norm(omega)
        u_true = random_unitary(d, rng)
        up_true = random_unitary(d, rng)
        target = up_true @ omega @ u_true.T
        assert align_product(omega, target, rng, iters=300, restarts=6) <= 1e-3


class TestProductReconstruction:
    def test_trivial_single_branch(self):
        rep = product_reconstruction(1, 4, 8)
        assert rep["factorization_residual"] == 0.0
        assert rep["pass"]

    def test_middle_family_restores_product(self):
        rep = product_reconstruction(2, 8, 16)
        assert rep["factorization_residual"] <= 1e-12
        assert rep["u_unitarity_defect"] <= 1e-12
        assert rep["u_prime_unitarity_defect"] <= 1e-12
        assert rep["pass"]

    def test_reads_only_the_column_maps(self, monkeypatch):
        # the dense shifts are scattered on first use, and this never uses them
        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was scattered")

        monkeypatch.setattr(cuntz, "_dense", refuse)
        rep = product_reconstruction(2, 8, 16)
        assert rep["factorization_residual"] == 0.0
        assert rep["pass"]

    def test_largest_factorize_space(self):
        # outer_dim^2 middle_dim = 2^20, the CLI's limit: |idx| = 127 * 7 * 127
        rep = product_reconstruction(2, 256, 16)
        assert rep["factorization_residual"] == 0.0
        assert rep["u_unitarity_defect"] == 0.0
        assert rep["u_prime_unitarity_defect"] == 0.0

    def test_branching_three(self):
        rep = product_reconstruction(3, 12, 18)
        assert rep["factorization_residual"] == 0.0
        assert rep["u_unitarity_defect"] == 0.0
        assert rep["u_prime_unitarity_defect"] == 0.0
        assert rep["pass"]

    def test_without_middle_family_fails_with_certified_gap(self):
        rep = certify_no_product_form(epsilon=0.01, d_factor=16, seed=0)
        assert rep["certified_floor"] > 0.1
        assert rep["best_alignment_gap"] >= rep["certified_floor"]
        assert rep["pass"]


def _oracle_shifts(maps):
    """Dense shifts from column maps, one entry at a time."""
    shifts = []
    for column_map in maps:
        s = np.zeros((column_map.size, column_map.size))
        for k, row in enumerate(column_map):
            if row >= 0:
                s[row, k] = 1.0
        shifts.append(s)
    return shifts


def _sparse_reconstruction(n, outer_dim, middle_dim):
    """The three compressed norms of product_reconstruction from scipy.sparse
    Kronecker products of the shifts that `cuntz._shift_maps` gives."""
    fams = [_oracle_shifts(cuntz._shift_maps(n, d)) for d in (outer_dim, middle_dim, outer_dim)]
    eye1, eyem, eye3 = (sp.eye_array(d) for d in (outer_dim, middle_dim, outer_dim))

    def kron3(a, b, c):
        return sp.kron(sp.kron(a, b), c, format="csr")

    w = sum(kron3(t, eyem, s.T) for t, s in zip(fams[0], fams[2]))
    u_prime = sum(kron3(t, c.T, eye3) for t, c in zip(fams[0], fams[1]))
    u = sum(kron3(eye1, c, s.T) for c, s in zip(fams[1], fams[2]))
    idx = defect_free_index(*(TruncatedCuntz(n, d) for d in (outer_dim, middle_dim, outer_dim)))
    eye = sp.eye_array(w.shape[0], format="csr")
    return [np.linalg.norm(x[idx][:, idx].toarray(), 2)
            for x in (u_prime @ u - w, u.T @ u - eye, u_prime.T @ u_prime - eye)]


class TestColumnMaps:
    """Shifts, their transposes and their Kronecker products and sums as column
    maps, against dense matrices built one entry at a time."""

    def test_maps_scatter_the_shifts(self):
        for n, d in ((1, 4), (2, 8), (3, 10)):
            fam = TruncatedCuntz(n, d)
            reference = [np.array([[1.0 if row == n * k + j else 0.0 for k in range(d)]
                                   for row in range(d)]) for j in range(n)]
            assert all(np.array_equal(s, r) for s, r in zip(fam.shifts, reference))
            assert all(np.array_equal(cuntz._dense(cuntz._transpose(m)), s.T)
                       for m, s in zip(fam.maps, fam.shifts))

    def test_kron_map_is_kron(self):
        rng = np.random.default_rng(2)
        maps = [rng.integers(-1, d, size=d) for d in (3, 4, 5)]  # -1: a zero column
        dense = _oracle_shifts(maps)
        assert np.array_equal(cuntz._dense(cuntz._kron_map(*maps)),
                              np.kron(np.kron(dense[0], dense[1]), dense[2]))

    def test_unitarity_defect_is_the_kept_gram_norm(self):
        # maps with shared rows (up to 4 columns on one row) and columns of no row
        rng = np.random.default_rng(8)
        for _ in range(20):
            column_map = rng.integers(-1, 9, size=12)
            idx = np.sort(rng.choice(12, size=rng.integers(1, 13), replace=False))
            dense = _oracle_shifts([column_map])[0]
            reference = np.linalg.norm((dense.T @ dense - np.eye(12))[np.ix_(idx, idx)], 2)
            assert cuntz._unitarity_defect(column_map, idx) == pytest.approx(
                reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n, d1, d2", [(2, 8, 16), (3, 9, 12), (1, 4, 5)])
    def test_sum_unitary_is_the_dense_sum(self, n, d1, d2):
        fam1, fam2 = TruncatedCuntz(n, d1), TruncatedCuntz(n, d2)
        reference = sum(np.kron(t, s.T) for t, s in zip(_oracle_shifts(fam1.maps),
                                                         _oracle_shifts(fam2.maps)))
        w = cuntz_sum_unitary(fam1, fam2)
        assert w.dtype == complex and np.array_equal(w, reference)


def _swap_into_a_zero_column(monkeypatch):
    """Make every family's S_0 send its column 0 to no row and the first column
    that had none to row 0.  A swap of two rows that S_0 reaches only relabels
    the family, and the relations, and so both checks, stay exact."""
    shift_maps = cuntz._shift_maps

    def swapped(n, d):
        maps = shift_maps(n, d)
        k = np.flatnonzero(maps[0] < 0)[0]
        maps[0, [0, k]] = maps[0, [k, 0]]
        return maps

    monkeypatch.setattr(cuntz, "_shift_maps", swapped)


class TestMutatedShifts:
    def test_nonsignalling_sees_the_swap(self, monkeypatch):
        _swap_into_a_zero_column(monkeypatch)
        assert nonsignalling_check(make_scenario(2, 16, 32, seed=20260810))["max_commutator"] > 0.1
        sc = make_scenario(2, 8, 16, seed=4)
        assert nonsignalling_check(sc)["max_commutator"] == pytest.approx(
            _dense_commutator(sc), rel=1e-13, abs=0.0)

    def test_reconstruction_sees_the_swap(self, monkeypatch):
        _swap_into_a_zero_column(monkeypatch)
        rep = product_reconstruction(2, 8, 16)
        assert max(rep["factorization_residual"], rep["u_unitarity_defect"]) > 0.5
        assert not rep["pass"]

    @pytest.mark.parametrize("n, outer_dim, middle_dim", [(2, 8, 16), (2, 16, 8), (3, 9, 18)])
    def test_reconstruction_matches_sparse_oracle(self, monkeypatch, n, outer_dim, middle_dim):
        assert _sparse_reconstruction(n, outer_dim, middle_dim) == [0.0, 0.0, 0.0]
        _swap_into_a_zero_column(monkeypatch)
        rep = product_reconstruction(n, outer_dim, middle_dim)
        values = [rep[key] for key in ("factorization_residual", "u_unitarity_defect",
                                       "u_prime_unitarity_defect")]
        assert values == pytest.approx(_sparse_reconstruction(n, outer_dim, middle_dim),
                                       rel=1e-13, abs=0.0)
        assert max(values) >= 1.0


def _sequential_alignment(omega, target, rng, iters, restarts):
    """align_product written out one restart after another, on the k columns
    of u' and u that u' Omega u^T reads and the rows R and columns C where the
    target is nonzero."""
    k = cuntz._leading_block(omega)
    omega = omega[:k, :k]
    rows, cols = cuntz._support(target, k)
    block = target[np.ix_(rows, cols)]
    d = target.shape[0]
    best = math.inf
    for _ in range(restarts):
        u = random_unitary(d, rng, columns=k)[cols]
        u_prime = random_unitary(d, rng, columns=k)
        for step in range(iters):
            uu, _, vv = np.linalg.svd(block @ np.conj(u) @ dagger(omega),
                                      full_matrices=False)
            u_prime = uu @ vv
            c = target[rows] if step == iters - 1 else block
            uu, _, vv = np.linalg.svd(np.conj(dagger(omega) @ dagger(u_prime) @ c),
                                      full_matrices=False)
            u = dagger(vv) @ dagger(uu)
        full_u_prime = np.zeros((d, k), dtype=complex)  # zero outside R
        full_u_prime[rows] = u_prime
        best = min(best, float(np.linalg.norm(full_u_prime @ omega @ u.T - target)))
    return best


def _full_alignment(omega, target, rng, iters, restarts):
    """The alternating polar alignment on full d x d unitaries, each step a
    full SVD of a d x d matrix.  Each start is the full unitary whose first k
    columns are align_product's thin start (`padded_unitary`)."""
    d, k = omega.shape[0], cuntz._leading_block(omega)
    pad = np.random.default_rng(PAD_SEED)
    starts = np.array([padded_unitary(d, rng, k, pad) for _ in range(2 * restarts)])
    u, u_prime = starts[::2], starts[1::2]
    for _ in range(iters):
        uu, _, vv = np.linalg.svd(target @ np.conj(u) @ dagger(omega))
        u_prime = uu @ vv
        uu, _, vv = np.linalg.svd(np.conj(dagger(omega) @ dagger(u_prime) @ target))
        u = dagger(vv) @ dagger(uu)
    return min(float(np.linalg.norm(m - target)) for m in u_prime @ omega @ u.swapaxes(-1, -2))


def _sequential_norm_gap(epsilon, samples, d_factor, seed):
    """The min_gap of norm_gap_experiment, drawing one sample after another,
    each of its unitaries the full one whose first k columns are the sample's
    thin draw (`padded_unitary`)."""
    fam = TruncatedCuntz(2, d_factor)
    omega, _ = cuntz._reference_state(fam, epsilon, i_max=12)
    target = cuntz._apply_w(omega, fam)
    k = cuntz._leading_block(omega)
    rng, pad = np.random.default_rng(seed), np.random.default_rng(PAD_SEED)
    gap = math.inf
    for _ in range(samples):
        u = padded_unitary(d_factor, rng, k, pad)
        u_prime = padded_unitary(d_factor, rng, k, pad)
        gap = min(gap, float(np.linalg.norm(u_prime @ omega @ u.T - target)))
    return min(gap, _sequential_alignment(omega, target, rng, 60, 4))


class TestStackedSampling:
    """The stacked restarts and the blocked samples give the bits of the
    one-at-a-time loops they replace."""

    @pytest.mark.parametrize("seed", [20260810, 0])
    def test_acceptance_gap_equals_sequential(self, seed):
        # criterion 6's configuration: thin samples against full unitaries
        rep = norm_gap_experiment(0.01, samples=200, d_factor=32, seed=seed)
        assert rep["min_gap"] == _sequential_norm_gap(0.01, 200, 32, seed)

    @pytest.mark.parametrize("d_factor", [26, 32, 64])
    def test_norm_gap_equals_sequential(self, d_factor):
        # 25 samples: blocks of 13 at d = 26, 10 at d = 32 (the last one short), 5 at d = 64
        rep = norm_gap_experiment(0.01, samples=25, d_factor=d_factor, seed=5)
        assert rep["min_gap"] == _sequential_norm_gap(0.01, 25, d_factor, seed=5)

    @pytest.mark.parametrize("d_factor", [26, 32, 64])
    def test_alignment_equals_sequential(self, d_factor):
        fam = TruncatedCuntz(2, d_factor)
        omega, _ = cuntz._reference_state(fam, 0.01, i_max=6)
        target = cuntz._apply_w(omega, fam)
        stacked = align_product(omega, target, np.random.default_rng(3), iters=12, restarts=5)
        reference = _sequential_alignment(omega, target, np.random.default_rng(3), 12, 5)
        assert stacked == reference


# 126 configurations: d_factor 16 (i_max 6 only: 12 does not fit its defect-free
# zone) and 26, 32, 64 at i_max 6 and 12, seeds 0-5, three (iters, restarts)
THIN_CONFIGS = [(16, 6)] + [(d, i_max) for d in (26, 32, 64) for i_max in (6, 12)]


class TestThinAlignment:
    """The alignment on the k columns Omega reaches against the full one."""

    @pytest.mark.parametrize("d_factor, i_max", THIN_CONFIGS)
    def test_thin_equals_full_alignment(self, d_factor, i_max):
        fam = TruncatedCuntz(2, d_factor)
        omega, _ = cuntz._reference_state(fam, 0.01, i_max=i_max)
        target = cuntz._apply_w(omega, fam)
        for seed in range(6):
            for iters, restarts in ((12, 5), (60, 4), (80, 6)):
                thin = align_product(omega, target, np.random.default_rng(seed),
                                     iters=iters, restarts=restarts)
                full = _full_alignment(omega, target, np.random.default_rng(seed),
                                       iters, restarts)
                assert thin == pytest.approx(full, rel=1e-14, abs=0.0), (seed, iters)

    def test_full_rank_omega_runs_the_full_iteration(self):
        # k = d: the thin SVDs are the full ones
        rng = np.random.default_rng(9)
        omega = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        target = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert (align_product(omega, target, np.random.default_rng(4), iters=20, restarts=3)
                == _full_alignment(omega, target, np.random.default_rng(4), 20, 3))


class TestTargetSupport:
    """The polar steps on the rows R and columns C where the target is nonzero
    (`cuntz._support`) against the full alignment."""

    @pytest.mark.parametrize("d_factor, i_max",
                             THIN_CONFIGS + [(d, i_max) for d in (128, 256) for i_max in (6, 12)])
    def test_every_target_has_a_full_rank_block(self, d_factor, i_max):
        # the condition under which the dropped completions never enter a step
        fam = TruncatedCuntz(2, d_factor)
        omega, _ = cuntz._reference_state(fam, 0.01, i_max=i_max)
        target = cuntz._apply_w(omega, fam)
        rows, cols = cuntz._support(target, i_max)
        assert (rows.size, cols.size) == {6: (8, 3), 12: (14, 6)}[i_max]
        assert np.linalg.matrix_rank(target[np.ix_(rows, cols)]) == cols.size

    # (rows, columns) kept nonzero, against k = 6: fewer columns than k, more,
    # and fewer rows than k, where R takes the first k rows too
    @pytest.mark.parametrize("n_rows, n_cols", [(11, 4), (12, 9), (4, 3)])
    def test_scattered_support_equals_full_alignment(self, n_rows, n_cols):
        d, k = 16, 6
        for seed in range(4):
            rng = np.random.default_rng(seed)
            omega = np.zeros((d, d), dtype=complex)
            omega[:k, :k] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            target = np.zeros((d, d), dtype=complex)
            rows = rng.choice(d, n_rows, replace=False)
            cols = rng.choice(d, n_cols, replace=False)
            target[np.ix_(rows, cols)] = (rng.standard_normal((n_rows, n_cols))
                                          + 1j * rng.standard_normal((n_rows, n_cols)))
            assert np.linalg.matrix_rank(target) == n_cols
            thin = align_product(omega, target, np.random.default_rng(seed), iters=60, restarts=4)
            full = _full_alignment(omega, target, np.random.default_rng(seed), 60, 4)
            assert thin == pytest.approx(full, rel=1e-14, abs=0.0), seed


class TestDecompositionCounts:
    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    def test_norm_gap_svds(self, svd_calls):
        # two stacked thin SVDs per alignment step, on the 14 rows and 6 columns
        # where the target is nonzero and the k = 12 columns Omega reaches, 60
        # steps; the last u step takes all 32 columns.  The samples need none
        norm_gap_experiment(0.01, samples=200, d_factor=32, seed=20260810)
        assert svd_calls == [(4, 14, 12), (4, 12, 6)] * 59 + [(4, 14, 12), (4, 12, 32)]

    def test_norm_gap_svds_at_the_largest_factor(self, svd_calls):
        # the blocks do not grow with d_factor; only the last u step does
        norm_gap_experiment(0.01, samples=1, d_factor=256, seed=20260810)
        assert svd_calls == [(4, 14, 12), (4, 12, 6)] * 59 + [(4, 14, 12), (4, 12, 256)]

    def test_certificate_svds(self, svd_calls):
        # i_max = 6: the alignment keeps 6 of the 16 columns, and the target
        # is nonzero on 8 rows and 3 columns
        certify_no_product_form()
        assert svd_calls == [(6, 8, 6), (6, 6, 3)] * 79 + [(6, 8, 6), (6, 6, 16)]

    def test_sample_stacks_are_capped(self, monkeypatch):
        sizes, kept, drawn = [], [], []

        def spy(dim, rng, columns=None):
            u = random_unitary(dim, rng, columns=columns)
            sizes.append(u.size)
            kept.append(columns)
            drawn.append(2 * dim * columns * len(rng))  # each unitary draws 2 dim k normals
            return u

        monkeypatch.setattr(cuntz, "random_unitary", spy)
        for d_factor in (26, 32, 64):
            norm_gap_experiment(0.01, samples=25, d_factor=d_factor, adversarial=False)
        assert kept == [12] * len(sizes)
        assert max(drawn) <= 2 * BLOCK_ELEMENTS
        assert sizes == ([26 * 26 * 12, 24 * 26 * 12] + [20 * 32 * 12] * 2 + [10 * 32 * 12]
                         + [10 * 64 * 12] * 5)

    def test_qr_calls(self, monkeypatch):
        # the 200 samples QR only the 12 columns Omega reaches, in 20 stacks of
        # 10 pairs; the alignment's 4 restarts start from one stack of 4 pairs
        calls = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        norm_gap_experiment(0.01, samples=200, d_factor=32, seed=20260810)
        assert calls == [(20, 32, 12)] * 20 + [(8, 32, 12)]
