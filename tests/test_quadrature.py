"""Tests for the round-wise batched adaptive quadrature driver."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlab import field as field_module
from modlab import quadrature
from modlab.cli import preset_data
from modlab.cutoff import _CONVOLVE_WIDTH, ChiKernel, eta_st
from modlab.errors import QuadratureBudgetExceeded
from modlab.field import (Ball, BumpFunction, FieldQuad, InitialData, Wedge, entropy_bound,
                          exact_entropy, squeeze_sweep)
from modlab.quadrature import BLOCK_ELEMENTS, gauss_rule, integrate_1d, kronrod_rule


def recording(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def kinked(x):
    return np.abs(x - 0.3) ** 1.5


KINKED_EXACT = (0.3 ** 2.5 + 0.7 ** 2.5) / 2.5


def panel_widths(x, order):
    """Widths of the panels whose 2n+1 Kronrod nodes (n = order) make up x."""
    rows = x.reshape(-1, 2 * order + 1)
    x_k = kronrod_rule(order)[0]
    return (rows[:, -1] - rows[:, 0]) * 2.0 / (x_k[-1] - x_k[0])


# QUADPACK's QK15 table (Piessens et al., 1983): the 15-node Kronrod extension
# of the 7-point Gauss rule, nodes x >= 0 from the outside in
QK15_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0)
QK15_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714)


def legendre(k, x):
    """P_k(x), with P_k(1) = 1."""
    return np.polynomial.legendre.legval(x, np.eye(k + 1)[k])


class TestKronrodRule:
    @pytest.mark.parametrize("n", [4, 7, 12, 14, 24, 40])
    def test_exact_through_degree_3n_plus_1_and_no_further(self, n):
        # Legendre polynomials, not monomials: the top Legendre part of x^k is
        # too small to show that a rule is inexact.  The sum's own rounding is
        # at most gamma_{2n+1} sum |w_k P(x_k)|; eight times that leaves room
        # for the rounding of the nodes, weights and P_k (the worst seen is
        # 2.2 (2n+1) u times the sum), and a 1e-12 change of one weight, which
        # moves the k = 0 sum by 1e-12, still fails it (1.4e-13 at n = 40)
        x, w = kronrod_rule(n)
        u = 0.5 * np.finfo(float).eps
        for k in range(3 * n + 2):
            p = legendre(k, x)
            exact = 2.0 if k == 0 else 0.0
            assert abs(w @ p - exact) <= 8 * (2 * n + 1) * u * (w @ np.abs(p)), k
        # a symmetric rule integrates every odd P_k; the first even degree past
        # 3n + 1 is far off (2.5e-2 at n = 4 down to 3.3e-5 at n = 40)
        k = 3 * n + 2 + n % 2
        assert abs(w @ legendre(k, x)) > 1e-5

    @pytest.mark.parametrize("n", [4, 7, 12, 14, 24, 40])
    def test_gauss_nodes_embedded_and_interlaced(self, n):
        x, w = kronrod_rule(n)
        assert x.shape == w.shape == (2 * n + 1,)
        assert np.array_equal(x[1::2], gauss_rule(n)[0])
        assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0.0)
        assert np.all(w > 0.0)

    def test_matches_quadpack_qk15(self):
        x, w = kronrod_rule(7)
        assert np.allclose(-x[:8], QK15_NODES, rtol=0.0, atol=1e-15)
        assert np.allclose(x[7:], QK15_NODES[::-1], rtol=0.0, atol=1e-15)
        assert np.allclose(w[:8], QK15_WEIGHTS, rtol=0.0, atol=1e-15)
        assert np.allclose(w[7:], QK15_WEIGHTS[::-1], rtol=0.0, atol=1e-15)

    def test_built_on_first_use_not_at_import(self):
        # in a fresh interpreter: in this one another test may have built it
        src = str(Path(quadrature.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import modlab; "
                "print(modlab.quadrature.kronrod_rule.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"


class TestBatches:
    @pytest.mark.parametrize("order", [4, 12, 24, 40])
    def test_one_call_per_round_while_a_round_fits(self, order):
        # without splits, round k evaluates panels of width 2^-k and nothing else
        calls = []
        integrate_1d(lambda x: calls.append(x.copy()) or kinked(x), 0.0, 1.0,
                     order=order, rel_tol=1e-13)
        assert len(calls) > 5
        assert max(x.size for x in calls) <= BLOCK_ELEMENTS
        for k, x in enumerate(calls):
            assert np.allclose(panel_widths(x, order), 2.0 ** -k, rtol=1e-10, atol=0.0)

    def test_a_round_past_the_cap_is_cut_at_the_cap(self):
        # a chirped sawtooth: no panel converges, so round k holds 2^k panels of
        # 2 * 12 + 1 nodes, 2^11 panels at most under the budget; a round within
        # the cap is one call, a larger one calls of BLOCK_ELEMENTS nodes and the rest
        sizes = []
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(recording(lambda x: np.modf(1e7 * x * x)[0], sizes), 0.0, 1.0,
                         order=12, max_panels=5000)
        rounds = [(2 * 12 + 1) * 2 ** k for k in range(12)]
        # some rounds are cut, and some of those leave a partial last call
        assert rounds[-1] > BLOCK_ELEMENTS
        assert any(n > BLOCK_ELEMENTS and n % BLOCK_ELEMENTS for n in rounds)
        assert sizes == [min(BLOCK_ELEMENTS, n - i) for n in rounds
                         for i in range(0, n, BLOCK_ELEMENTS)]

    def test_identical_calls_are_bitwise_equal(self):
        first = integrate_1d(kinked, 0.0, 1.0, splits=[0.3, 0.6], rel_tol=1e-12)
        assert integrate_1d(kinked, 0.0, 1.0, splits=[0.3, 0.6], rel_tol=1e-12) == first
        g = preset_data("cone", 3, 0.0, "interior")
        prof = eta_st(1.5, 200.0)
        bound = entropy_bound(g, Ball(1.0), "upper", prof, 1e-3)
        assert entropy_bound(g, Ball(1.0), "upper", prof, 1e-3) == bound

    def test_seeded_kinks_land_within_reported_error(self):
        res = integrate_1d(kinked, 0.0, 1.0, splits=[0.3])
        assert abs(res.value - KINKED_EXACT) <= res.error
        # |sin 5x| over [0, pi] has kinks at k pi / 5 and integral 2
        res = integrate_1d(lambda x: np.abs(np.sin(5.0 * x)), 0.0, math.pi,
                           splits=[k * math.pi / 5 for k in range(1, 5)])
        assert abs(res.value - 2.0) <= res.error

    def test_budget_bounds_the_panels_evaluated(self):
        # 1/|x - 0.3| never converges; no more than max_panels + 1 panels run
        sizes = []
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(recording(lambda x: 1.0 / np.abs(x - 0.3), sizes),
                         0.0, 1.0, order=12, max_panels=50)
        assert sum(sizes) <= 51 * (2 * 12 + 1)


def smooth(x):
    return np.exp(-x) * np.cos(3.0 * x)


SMOOTH_EXACT = (1.0 - math.exp(-1.0) * (math.cos(3.0) - 3.0 * math.sin(3.0))) / 10.0


class TestLanes:
    @pytest.mark.parametrize("f, splits", [(kinked, [0.3]), (kinked, []), (smooth, [0.5])])
    def test_one_lane_is_bitwise_the_scalar_rule(self, f, splits):
        scalar = integrate_1d(f, 0.0, 1.0, splits=splits, rel_tol=1e-12)
        assert integrate_1d(lambda x: f(x)[None], 0.0, 1.0, splits=splits,
                            rel_tol=1e-12, lanes=1) == [scalar]

    def test_each_lane_within_its_error_of_its_scalar_integral(self):
        # the kinked lanes refine towards their seeded kinks at 0.3 and 0.6, the
        # smooth one stops early; on their shared panels each keeps its own
        # value and error
        lanes = (smooth, kinked, lambda x: 1e3 * np.abs(x - 0.6) ** 1.5)
        exacts = (SMOOTH_EXACT, KINKED_EXACT, 1e3 * (0.6 ** 2.5 + 0.4 ** 2.5) / 2.5)
        stacked = integrate_1d(lambda x: np.stack([f(x) for f in lanes]), 0.0, 1.0,
                               splits=[0.3, 0.6], rel_tol=1e-11, lanes=3)
        for f, exact, res in zip(lanes, exacts, stacked):
            scalar = integrate_1d(f, 0.0, 1.0, splits=[0.3, 0.6], rel_tol=1e-11)
            rounding = 4.0 * np.finfo(float).eps * abs(exact)
            assert abs(res.value - scalar.value) <= res.error + scalar.error + rounding
            assert abs(res.value - exact) <= res.error + rounding

    @pytest.mark.parametrize("lanes", [2, 5, 17])
    def test_calls_take_at_most_the_cap_over_the_lanes(self, lanes):
        # the chirped sawtooth never converges, so its rounds pass the cap
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.stack([np.modf(1e7 * x * x)[0]] * lanes)
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(f, 0.0, 1.0, order=12, max_panels=2000, lanes=lanes)
        assert max(sizes) == BLOCK_ELEMENTS // lanes

    def test_budget_counts_panels_not_lanes(self):
        # one lane that never converges stops the call before more than
        # max_panels + 1 panels run, whatever the other lanes do
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.stack([smooth(x), 1.0 / np.abs(x - 0.3), kinked(x)])
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(f, 0.0, 1.0, order=12, max_panels=50, lanes=3)
        assert 50 * (2 * 12 + 1) < sum(sizes) <= 51 * (2 * 12 + 1)

    @pytest.mark.parametrize("entries", [1, 8, 9])
    def test_a_fused_call_has_the_sum_of_its_lanes_budgets(self, monkeypatch, entries):
        # the sweep's exact entropy and first 8 entries take one call of 17
        # lanes, each later 8 entries one call of 16; each call may evaluate
        # the budget of all its lanes, and every call here evaluates more
        # panels (27 to 146) than one lane's budget of 25 would allow
        g = preset_data("wedge", 1, 0.0, "boundary")
        schedule = [(1e-2 * 0.8 ** k, 1.5, 200.0) for k in range(entries)]
        quad, calls, integrate = FieldQuad(max_panels=25), [], field_module.integrate_1d

        def spy(f, *args, **kw):
            nodes = []
            res = integrate(recording(f, nodes), *args, **kw)
            calls.append((kw["lanes"], kw["max_panels"], sum(nodes) // (2 * quad.outer_order + 1)))
            return res
        monkeypatch.setattr(field_module, "integrate_1d", spy)
        squeeze_sweep(g, Wedge(), schedule, quad)
        lanes = [1 + 2 * min(entries, 8)] + [2 * min(entries - k, 8) for k in range(8, entries, 8)]
        assert [(k, m) for k, m, _ in calls] == [(k, k * quad.max_panels) for k in lanes]
        assert all(quad.max_panels + 1 < panels for *_, panels in calls)
        with pytest.raises(QuadratureBudgetExceeded):
            squeeze_sweep(g, Wedge(), schedule, FieldQuad(max_panels=2))


# ---------------------------------------------------------------------------
# arrays built where a node expands: field cross-sections and the convolution
# ---------------------------------------------------------------------------

WEDGE_3D = InitialData((BumpFunction((0.0, 0.3, -0.2), (0.8, 0.9, 0.7)),),
                       (BumpFunction((0.1, 0.0, 0.1), (0.6, 0.7, 0.8), 0.5),), 3)
# 4 panels of order 8 per perpendicular axis: 1024 floats per d = 3 wedge node
COARSE = FieldQuad(cross_order=8, rel_tol=1e-8)

# data that straddles the collar, so the bounds reach the convolution bands;
# the radial cone preset takes one ray per radius
BOUNDS = {
    "wedge d=1": (preset_data("wedge", 1, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=2": (preset_data("wedge", 2, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=3": (WEDGE_3D, Wedge(), COARSE),
    "cone d=3": (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0), FieldQuad()),
}


def expanded_arrays(run, cap=BLOCK_ELEMENTS):
    """run() with BLOCK_ELEMENTS set to cap, and the sizes of the arrays that
    nodes expand into: the bump profile runs on every slice grid or ray array
    of the cross-sections, and the kernel on the window nodes of every block of
    band points, each of which expands into _CONVOLVE_WIDTH floats (window and
    tail); its 1-D calls are the middle piece's series, one float a point."""
    sizes = {"sections": [], "convolution": []}

    def profile(self, s2, _f=BumpFunction.profile):
        sizes["sections"].append(np.size(s2))
        return _f(self, s2)

    def in_window(self, z, _f=ChiKernel.in_window):
        if np.ndim(z) == 2:
            sizes["convolution"].append(len(z) * _CONVOLVE_WIDTH)
        return _f(self, z)

    # from an empty section memo, so every node reaches the spied profile
    field_module._reset_section_memo()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "BLOCK_ELEMENTS", cap)
        mp.setattr(BumpFunction, "profile", profile)
        mp.setattr(ChiKernel, "in_window", in_window)
        return run(), sizes


def bound(case, side="upper"):
    g, region, quad = BOUNDS[case]
    return lambda: entropy_bound(g, region, side, eta_st(1.5, 200.0), 1e-3, quad)


class TestElementCap:
    @pytest.mark.parametrize("case", list(BOUNDS))
    def test_no_array_built_exceeds_the_cap(self, case):
        _, sizes = expanded_arrays(bound(case))
        assert sizes["sections"] and sizes["convolution"]
        assert max(sizes["sections"]) <= BLOCK_ELEMENTS
        assert max(sizes["convolution"]) <= BLOCK_ELEMENTS
        # and some block is full, within one row of the cap: 73 band points of
        # 112 floats (8176), or exactly 128 slices of 64 or 8 slices of 32^2; no
        # round of the radial cone holds 8192 radii of one ray, so its full
        # blocks are the band's, as are the d = 1 wedge's
        assert (BLOCK_ELEMENTS in sizes["sections"]
                or max(sizes["convolution"]) > BLOCK_ELEMENTS - _CONVOLVE_WIDTH)

    @pytest.mark.parametrize("case", ["wedge d=1", "wedge d=2", "wedge d=3"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_wedge_bounds_do_not_depend_on_the_cap(self, case, side):
        # a cap of 1500 cuts rounds, slices and band points into blocks that
        # divide none of the default ones
        default, _ = expanded_arrays(bound(case, side))
        capped, sizes = expanded_arrays(bound(case, side), cap=1500)
        assert max(sizes["sections"] + sizes["convolution"]) <= 1500
        assert capped == default

    @pytest.mark.parametrize("g", [preset_data("cone", 3, 0.0, "interior"),
                                   preset_data("cone", 3, 0.0, "boundary")],
                             ids=["interior", "boundary"])
    def test_cone_values_do_not_depend_on_the_cap(self, g):
        # under a cap of 1500 the one-ray rule takes at most 1500 radii a call;
        # each radius is its own element, so no bit moves
        def values():
            return [exact_entropy(g, Ball(1.0))] + [
                entropy_bound(g, Ball(1.0), side, eta_st(1.5, 200.0), 1e-3)
                for side in ("upper", "lower")]
        default, _ = expanded_arrays(values)
        capped, sizes = expanded_arrays(values, cap=1500)
        assert max(sizes["sections"]) <= 1500
        assert capped == default

    def test_eta_does_not_depend_on_the_cap(self):
        # a fresh profile each time, or its band memo would serve the capped call
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 5000) * eta_st(1.5, 200.0).support_halfwidth
        default, _ = expanded_arrays(lambda: eta_st(1.5, 200.0).eta_and_prime(x))
        capped, sizes = expanded_arrays(lambda: eta_st(1.5, 200.0).eta_and_prime(x), cap=300)
        assert max(sizes["convolution"]) <= 300
        for a, b in zip(default, capped):
            assert np.array_equal(a, b)
