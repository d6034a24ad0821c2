"""Tests for the transition-energy functional, its analytic family and the
discrete minimizer."""

import math

import numpy as np
import pytest

from modlab.cutoff import (
    MAX_SHARPNESS,
    AnalyticCutoff,
    ChiKernel,
    DiscreteCutoff,
    discrete_energy,
    discrete_minimum_closed_form,
    energy,
    energy_dominating_bound,
    energy_limit,
    eta_st,
    minimize_discrete,
    reflected_energy,
    standard_mollifier,
)
from modlab.errors import ParameterViolation
from modlab.quadrature import integrate_1d


class TestChiKernel:
    def test_normalized(self):
        for s in (1.2, 1.5, 3.0):
            k = ChiKernel(s)
            res = integrate_1d(k, -1.0, 1.0, splits=[-1 / s, 1 / s], order=16)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_antiderivative_consistency(self):
        k = ChiKernel(1.5)
        xs = np.linspace(-0.9, 0.9, 7)
        for x in xs:
            res = integrate_1d(k, -1.0, x, splits=[-1 / 1.5, 1 / 1.5], order=16)
            assert res.value == pytest.approx(k.antiderivative(np.array([x]))[0], abs=1e-12)

    def test_nonnegative(self):
        k = ChiKernel(2.0)
        assert np.all(k(np.linspace(-1, 1, 101)) >= 0.0)

    def test_invalid_s(self):
        with pytest.raises(ParameterViolation):
            ChiKernel(1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_refused(self, s):
        with pytest.raises(ParameterViolation):
            ChiKernel(s)


class TestMollifier:
    def test_unit_mass(self):
        f = standard_mollifier()
        assert integrate_1d(f, -1.0, 1.0, order=24).value == pytest.approx(1.0, abs=1e-12)

    def test_compact_support(self):
        f = standard_mollifier()
        assert np.all(f(np.array([-1.0, 1.0, 1.5])) == 0.0)

    def test_scaled_family_keeps_unit_mass(self):
        # eta' rescaled by eps stays normalized with support shrinking as eps
        eta = eta_st(1.5, 10)
        for eps in (1.0, 0.5, 0.25):
            val = integrate_1d(lambda x: eta.eta_prime(x / eps) / eps,
                               -eps, eps, order=16,
                               splits=[p * eps for p in eta.feature_points()]).value
            assert val == pytest.approx(1.0, abs=1e-9)
            assert eta.eta_prime(np.array([1.05 / eps]))[0] == 0.0


class TestEtaSt:
    def test_endpoints_exact(self):
        eta = eta_st(1.5, 200)
        assert eta.eta(np.array([-1.0]))[0] == 0.0
        assert eta.eta(np.array([1.0]))[0] == 1.0

    def test_parameter_guard(self):
        with pytest.raises(ParameterViolation):
            eta_st(1.5, 2.0)  # below s/(s-1) = 3
        with pytest.raises(ParameterViolation):
            eta_st(0.9, 100)

    # NaN fails every comparison, so the guards are written to refuse it
    @pytest.mark.parametrize("s, t", [(math.nan, 200.0), (1.5, math.nan), (math.inf, 200.0),
                                      (1.5, math.inf), (-math.inf, 200.0)])
    def test_non_finite_parameters_refused(self, s, t):
        with pytest.raises(ParameterViolation):
            eta_st(s, t)

    def test_sharpness_cap(self):
        # past the cap the kernel's support |x| < 1/s drowns in the rounding
        # of x; up to it eta' tends to the mollifier t f(t x), of energy t int f^2
        with pytest.raises(ParameterViolation):
            eta_st(1e15, 1e3)
        f = standard_mollifier()
        f_sq = integrate_1d(lambda y: f(y) ** 2, -1.0, 1.0, order=24).value
        assert energy(eta_st(MAX_SHARPNESS, 1e3)) == pytest.approx(1e3 * f_sq, rel=1e-5)

    def test_monotone(self):
        eta = eta_st(1.5, 50)
        assert np.all(eta.eta_prime(np.linspace(-1, 1, 201)) >= -1e-15)

    def test_energy_near_limit_at_acceptance_point(self):
        eta = eta_st(1.5, 200)
        assert abs(energy(eta) - 1.0 / math.log(5.0)) <= 0.01

    def test_energy_convergence_on_grid(self):
        for s in (1.5, 2.0, 3.0):
            t = 200.0 * s / (s - 1.0)
            assert abs(energy(eta_st(s, t)) - energy_limit(s)) <= 0.01

    def test_dominated_bound(self):
        for s, t in ((1.5, 3.1), (1.5, 50), (2.0, 2.5), (3.0, 1.6)):
            assert energy(eta_st(s, t)) <= energy_dominating_bound(s)

    def test_energy_nonnegative(self):
        assert energy(eta_st(2.0, 40)) >= 0.0


class TestEnergyLimit:
    def test_known_values(self):
        assert energy_limit(3.0) == pytest.approx(1.0 / math.log(2.0))
        assert energy_limit(3.0) == pytest.approx(1.4427, abs=1e-4)
        assert energy_limit(1.01) == pytest.approx(1.0 / math.log(201.0))
        assert energy_limit(1.01) == pytest.approx(0.1886, abs=1e-4)

    def test_monotone_growth_in_s(self):
        grid = [1.05, 1.2, 1.5, 2.0, 3.0, 10.0]
        vals = [energy_limit(s) for s in grid]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ParameterViolation):
            energy_limit(1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, s):
        with pytest.raises(ParameterViolation):
            energy_limit(s)


class TestReflection:
    def test_substitution_identity(self):
        # int (y+1) eta_-'(-y)^2 dy with eta_-(x) = 1 - eta(-x) equals E[eta]
        eta = eta_st(1.5, 80)
        assert reflected_energy(eta.reflected()) == pytest.approx(energy(eta), rel=1e-7)

    def test_reflected_is_transition(self):
        eta = eta_st(2.0, 30).reflected()
        assert eta.eta(np.array([-1.0]))[0] == 0.0
        assert eta.eta(np.array([1.0]))[0] == 1.0


def loop_convolution(prof, x, kernel_fn):
    """int kernel(x - y/t) f(y) dy as twelve separate 16-point panel sums,
    one kernel at a time: the reference for the fused (n, 192) evaluation."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    t, s = prof.t, prof.s
    edges = [np.full_like(x, -1.0), np.clip(t * (x - 1 / s), -1.0, 1.0),
             np.clip(t * (x + 1 / s), -1.0, 1.0), np.full_like(x, 1.0)]
    out = np.zeros_like(x)
    for lo, hi in zip(edges[:-1], edges[1:]):
        for k in range(4):
            a = lo + (hi - lo) * (k / 4)
            b = lo + (hi - lo) * ((k + 1) / 4)
            half = 0.5 * (b - a)
            y = a[:, None] + half[:, None] * (nodes + 1.0)
            out += half * ((kernel_fn(x[:, None] - y / t) * prof.mollifier(y)) @ weights)
    return out


class TestFusedEvaluation:
    def test_eta_and_prime_equals_the_views(self):
        base = eta_st(1.6, 100.0)
        hw = base.support_halfwidth
        edge_pts = np.array([-hw, hw, -1.0, 1.0, np.nextafter(hw, 0.0), -1.3, 1.3, 0.0])
        for prof, pts in ((base, edge_pts), (base.reflected(), edge_pts),
                          (DiscreteCutoff(base.eta(np.linspace(-1.0, 1.0, 41))),
                           np.array([-1.0, 1.0, -1.3, 1.3, 0.05, 0.0]))):
            x = np.concatenate([pts, np.linspace(-1.2, 1.2, 97)])
            eta, prime = prof.eta_and_prime(x)
            assert np.array_equal(eta, prof.eta(x))
            assert np.array_equal(prime, prof.eta_prime(x))
        eta, prime = base.eta_and_prime(np.array([-hw, hw]))
        assert eta.tolist() == [0.0, 1.0] and prime.tolist() == [0.0, 0.0]

    def test_fused_convolution_matches_the_loop_reference(self):
        # the fused sum reorders 192 products of size <= 2: a few ulp, far below 1e-14
        for s, t in ((1.5, 200.0), (1.8, 40.0), (3.0, 1.5)):
            prof = eta_st(s, t)
            hw = prof.support_halfwidth
            x = np.linspace(-hw, hw, 403)[1:-1]
            eta, prime = prof.eta_and_prime(x)
            assert np.max(np.abs(eta - loop_convolution(prof, x, prof.kernel.antiderivative))) <= 1e-14
            assert np.max(np.abs(prime - loop_convolution(prof, x, prof.kernel))) <= 1e-14


class TestDiscreteMinimizer:
    def test_three_points_closed_form(self):
        _, val = minimize_discrete(3)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_three_points_brute_force(self):
        grid = np.linspace(0.0, 1.0, 20001)
        brute = min(discrete_energy(np.array([0.0, g, 1.0])) for g in grid)
        _, val = minimize_discrete(3)
        assert val <= brute + 1e-8

    def test_harmonic_sum_oracle(self):
        for n in (3, 11, 101, 20000):
            _, val = minimize_discrete(n)
            assert val == pytest.approx(discrete_minimum_closed_form(n), rel=1e-10)

    def test_acceptance_scale_value(self):
        _, val = minimize_discrete(20000)
        assert abs(val - 0.10) <= 0.01

    def test_doubling_strictly_decreases(self):
        _, v1 = minimize_discrete(5000)
        _, v2 = minimize_discrete(10000)
        _, v3 = minimize_discrete(20000)
        assert v3 < v2 < v1

    def test_euler_lagrange_relation(self):
        prof, _ = minimize_discrete(64)
        d = np.diff(prof.values)
        w = np.linspace(-1.0, 1.0, 64)[1:] + 1.0
        ratio = d * w
        assert np.ptp(ratio) <= 1e-10 * np.abs(ratio).max()

    def test_analytic_family_dominates_discrete_minimum(self):
        eta = eta_st(1.5, 200)
        n = 2001
        _, minimum = minimize_discrete(n)
        sampled = DiscreteCutoff(eta.eta(np.linspace(-1.0, 1.0, n)))
        assert energy(eta) >= minimum
        assert discrete_energy(sampled.values) >= minimum

    def test_too_few_points(self):
        with pytest.raises(ParameterViolation):
            minimize_discrete(2)


class TestRampEnergy:
    def test_linear_ramp_energy_limit(self):
        # eta'(x) = 1/2 gives E = int (x+1)/4 dx = 1/2; the pinned discrete
        # ramp converges to that value as the mesh refines
        for n, tol in ((101, 2e-2), (1001, 2e-3), (10001, 2e-4)):
            xs = np.linspace(-1.0, 1.0, n)
            ramp = DiscreteCutoff((xs + 1.0) / 2.0)
            assert abs(discrete_energy(ramp.values) - 0.5) <= tol

    def test_any_transition_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = np.sort(rng.uniform(0, 1, 21))
            v[0], v[-1] = 0.0, 1.0
            assert discrete_energy(v) >= 0.0
