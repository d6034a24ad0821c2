"""Tests for the round-wise batched adaptive quadrature driver."""

import math

import numpy as np
import pytest

from modlab import quadrature
from modlab.cli import preset_data
from modlab.cutoff import ChiKernel, eta_st
from modlab.errors import QuadratureBudgetExceeded
from modlab.field import Ball, BumpFunction, FieldQuad, InitialData, Wedge, entropy_bound
from modlab.quadrature import BLOCK_ELEMENTS, gauss_rule, integrate_1d


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
        # 12 + 16 nodes; the round of 1024 fills the cap, that of 2048 takes two calls
        sizes = []
        with pytest.raises(QuadratureBudgetExceeded):
            integrate_1d(recording(lambda x: np.modf(1e7 * x * x)[0], sizes), 0.0, 1.0,
                         order=12, max_panels=5000)
        assert 28 * 2 ** 10 == BLOCK_ELEMENTS
        assert sizes == [28 * 2 ** k for k in range(11)] + [BLOCK_ELEMENTS] * 2

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

# data that straddles the collar, so the bounds reach the convolution bands
BOUNDS = {
    "wedge d=1": (preset_data("wedge", 1, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=2": (preset_data("wedge", 2, 0.0, "boundary"), Wedge(), FieldQuad()),
    "wedge d=3": (WEDGE_3D, Wedge(), COARSE),
    "cone d=3": (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0), FieldQuad()),
}


def expanded_arrays(run, cap=BLOCK_ELEMENTS):
    """run() with BLOCK_ELEMENTS set to cap, and the sizes of the arrays that
    nodes expand into: the bump profile runs on every slice grid or ray array
    of the cross-sections, the kernel on every y-grid of the convolution."""
    sizes = {"sections": [], "convolution": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "BLOCK_ELEMENTS", cap)
        for owner, name, key in ((BumpFunction, "profile", "sections"),
                                 (ChiKernel, "value_and_antiderivative", "convolution")):
            def spy(self, x, _f=getattr(owner, name), _key=key):
                sizes[_key].append(np.size(x))
                return _f(self, x)
            mp.setattr(owner, name, spy)
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
        # and some block is full: 224 band points of 128 floats, 448 slices of
        # 64, 28 slices of 32^2 or 56 rays of 512
        assert BLOCK_ELEMENTS in sizes["sections"] + sizes["convolution"]

    @pytest.mark.parametrize("case", ["wedge d=1", "wedge d=2", "wedge d=3"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_wedge_bounds_do_not_depend_on_the_cap(self, case, side):
        # a cap of 1500 cuts rounds, slices and band points into blocks that
        # divide none of the default ones.  The cone is left out: BLAS gemv sums
        # some rows of its (rays, 512) @ 512 products differently when the row
        # blocks change (4 of 56 rows measured), so its bits may move.
        default, _ = expanded_arrays(bound(case, side))
        capped, sizes = expanded_arrays(bound(case, side), cap=1500)
        assert max(sizes["sections"] + sizes["convolution"]) <= 1500
        assert capped == default

    def test_eta_does_not_depend_on_the_cap(self):
        prof = eta_st(1.5, 200.0)
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 5000) * prof.support_halfwidth
        default, _ = expanded_arrays(lambda: prof.eta_and_prime(x))
        capped, sizes = expanded_arrays(lambda: prof.eta_and_prime(x), cap=300)
        assert max(sizes["convolution"]) <= 300
        for a, b in zip(default, capped):
            assert np.array_equal(a, b)
