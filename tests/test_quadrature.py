"""Tests for the round-wise batched adaptive quadrature driver."""

import math

import numpy as np
import pytest

from modlab.cli import preset_data
from modlab.cutoff import eta_st
from modlab.errors import QuadratureBudgetExceeded
from modlab.field import Ball, entropy_bound
from modlab.quadrature import MAX_BATCH_NODES, integrate_1d


def recording(f, sizes):
    def g(x):
        sizes.append(x.size)
        return f(x)
    return g


def kinked(x):
    return np.abs(x - 0.3) ** 1.5


KINKED_EXACT = (0.3 ** 2.5 + 0.7 ** 2.5) / 2.5


class TestBatches:
    @pytest.mark.parametrize("order", [4, 12, 24, 40])
    def test_no_call_exceeds_the_node_cap(self, order):
        # order 40 puts 84 nodes in one panel, more than the cap
        sizes = []
        integrate_1d(recording(kinked, sizes), 0.0, 1.0, order=order, rel_tol=1e-13)
        assert sizes and max(sizes) <= MAX_BATCH_NODES
        assert sum(sizes) % (2 * order + 4) == 0

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
