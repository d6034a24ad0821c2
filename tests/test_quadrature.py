"""Tests for the round-wise batched adaptive quadrature driver."""

import math

import numpy as np
import pytest

from modlab import quadrature
from modlab.cli import preset_data
from modlab.cutoff import _CONVOLVE_WIDTH, ChiKernel, eta_st
from modlab.errors import QuadratureBudgetExceeded
from modlab.field import (Ball, BumpFunction, FieldQuad, InitialData, Wedge, entropy_bound,
                          exact_entropy)
from modlab.quadrature import BLOCK_ELEMENTS, gauss_rule, integrate_1d
from test_field import off_centre_data


def recording(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def kinked(x):
    return np.abs(x - 0.3) ** 1.5


KINKED_EXACT = (0.3 ** 2.5 + 0.7 ** 2.5) / 2.5


def panel_widths(x, order):
    """Widths of the panels whose order-p and order-(p+4) nodes make up x."""
    rows = x.reshape(-1, 2 * order + 4)
    x_c = gauss_rule(order)[0]
    return (rows[:, order - 1] - rows[:, 0]) * 2.0 / (x_c[-1] - x_c[0])


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
        # 12 + 16 nodes, 2^11 panels at most under the budget; a round within the
        # cap is one call, a larger one calls of BLOCK_ELEMENTS nodes and the rest
        sizes = []
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(recording(lambda x: np.modf(1e7 * x * x)[0], sizes), 0.0, 1.0,
                         order=12, max_panels=5000)
        rounds = [28 * 2 ** k for k in range(12)]
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
        assert sum(sizes) <= 51 * (12 + 16)


# ---------------------------------------------------------------------------
# arrays built where a node expands: field cross-sections and the convolution
# ---------------------------------------------------------------------------

WEDGE_3D = InitialData((BumpFunction((0.0, 0.3, -0.2), (0.8, 0.9, 0.7)),),
                       (BumpFunction((0.1, 0.0, 0.1), (0.6, 0.7, 0.8), 0.5),), 3)
# 4 panels of order 8 per perpendicular axis: 1024 floats per d = 3 wedge node
COARSE = FieldQuad(cross_order=8, rel_tol=1e-8)

# data that straddles the collar, so the bounds reach the convolution bands;
# the radial cone preset takes one ray per radius, the off-centre ball data
# the 512 directions of the sphere rule
OFF_CENTRE_3D = off_centre_data(3)
BOUNDS = {
    "wedge d=1": (preset_data("wedge", 1, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=2": (preset_data("wedge", 2, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=3": (WEDGE_3D, Wedge(), COARSE),
    "cone d=3": (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0), FieldQuad()),
    "off-centre ball d=3": (OFF_CENTRE_3D, Ball(1.0), FieldQuad()),
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
        # 112 floats (8176), or exactly 128 slices of 64, 8 slices of 32^2 or 16
        # radii of 512 rays; no round of the radial cone holds 8192 radii of one
        # ray, so its full blocks are the band's, as are the d = 1 wedge's
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
                                   preset_data("cone", 3, 0.0, "boundary"), OFF_CENTRE_3D],
                             ids=["interior", "boundary", "off-centre"])
    def test_cone_values_do_not_depend_on_the_cap(self, g):
        # under a cap of 1500 the sphere rule takes its radii 2 at a time and
        # the one-ray rule 1500 at a time; each radius is summed over its
        # directions on its own row, so no bit moves
        def values():
            return [exact_entropy(g, Ball(1.0))] + [
                entropy_bound(g, Ball(1.0), side, eta_st(1.5, 200.0), 1e-3)
                for side in ("upper", "lower")]
        default, _ = expanded_arrays(values)
        capped, sizes = expanded_arrays(values, cap=1500)
        assert max(sizes["sections"]) <= 1500
        assert capped == default

    def test_eta_does_not_depend_on_the_cap(self):
        prof = eta_st(1.5, 200.0)
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 5000) * prof.support_halfwidth
        default, _ = expanded_arrays(lambda: prof.eta_and_prime(x))
        capped, sizes = expanded_arrays(lambda: prof.eta_and_prime(x), cap=300)
        assert max(sizes["convolution"]) <= 300
        for a, b in zip(default, capped):
            assert np.array_equal(a, b)
