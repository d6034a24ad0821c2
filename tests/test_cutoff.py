"""Tests for the transition-energy functional, its analytic family and the
discrete minimizer."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from modlab.cutoff import (
    MAX_SHARPNESS,
    AnalyticCutoff,
    ChiKernel,
    DiscreteCutoff,
    discrete_energy,
    energy,
    energy_dominating_bound,
    energy_limit,
    eta_st,
    minimize_discrete,
    standard_mollifier,
    t_threshold,
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
        _, anti = k.value_and_antiderivative(xs)
        for x, expected in zip(xs, anti):
            res = integrate_1d(k, -1.0, x, splits=[-1 / 1.5, 1 / 1.5], order=16)
            assert res.value == pytest.approx(expected, abs=1e-12)

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

    @pytest.mark.parametrize("s", [1.5, 1e3, 1e6])
    def test_antiderivative_keeps_its_digits_as_s_grows(self, s):
        # log((x+1)/(1-1/s)) / c_s with c_s ~ 2/s, against 40-digit decimals
        x = np.linspace(-0.9, 0.9, 7) / s
        with localcontext() as ctx:
            ctx.prec = 40
            edge = 1 / Decimal(s)
            c_s = ((1 + edge) / (1 - edge)).ln()
            ref = [float(((Decimal(xi) + 1) / (1 - edge)).ln() / c_s) for xi in x.tolist()]
        assert ChiKernel(s).value_and_antiderivative(x)[1] == pytest.approx(ref, rel=1e-14)

    def test_huge_s_stays_finite(self):
        # c_s = log1p(2/(s-1)) stays positive where log((s+1)/(s-1)) rounds to 0
        s = 1e17
        k = ChiKernel(s)
        assert k.c_s == pytest.approx(2.0 / s, rel=1e-15)
        value, anti = k.value_and_antiderivative(np.array([-0.5, 0.0, 0.5]))
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(anti))
        assert math.isfinite(energy_dominating_bound(s))
        assert energy_limit(s) == pytest.approx(s / 2.0, rel=1e-15)


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

    @pytest.mark.parametrize("s", [1.01, 1.5, 3.0, MAX_SHARPNESS])
    def test_energy_reaches_its_limit_as_t_grows(self, s):
        # as t -> inf, eta' -> chi_s and E -> 1/c_s exactly; r^2 underflows silently
        assert energy(eta_st(s, 1e300)) == pytest.approx(energy_limit(s), rel=1e-12)

    def test_energy_convergence_on_grid(self):
        for s in (1.5, 2.0, 3.0):
            t = 200.0 * s / (s - 1.0)
            assert abs(energy(eta_st(s, t)) - energy_limit(s)) <= 0.01

    def test_dominated_bound(self):
        for s, t in ((1.5, 3.1), (1.5, 50), (2.0, 2.5), (3.0, 1.6)):
            assert energy(eta_st(s, t)) <= energy_dominating_bound(s)

    @pytest.mark.parametrize("s", [0.5, math.nan, math.inf])
    def test_dominated_bound_refuses_bad_sharpness(self, s):
        with pytest.raises(ParameterViolation):
            energy_dominating_bound(s)

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


def quad_oracle(s, t):
    """eta_{s,t} and eta'_{s,t} at a scalar x as scipy quad integrals of the
    mollified kernel, split only at the images a, b of the clip edges; the
    mollifier and kernel are written here, not taken from modlab."""
    def bump(y):
        return math.exp(1.0 - 1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0

    opts = dict(epsabs=1e-16, epsrel=1e-13, limit=200)
    norm = quad(bump, -1.0, 1.0, **opts)[0]
    c_s = math.log1p(2.0 / (s - 1.0))

    def anti(u):
        if abs(u) < 1.0 / s:
            return math.log1p((u + 1.0 / s) / (1.0 - 1.0 / s)) / c_s
        return 1.0 if u >= 1.0 / s else 0.0

    def chi(u):
        return 1.0 / (c_s * (u + 1.0)) if abs(u) < 1.0 / s else 0.0

    def at(x):
        cuts = sorted({-1.0, 1.0} | {min(max(t * (x + e), -1.0), 1.0) for e in (-1 / s, 1 / s)})
        return [sum(quad(lambda y: k(x - y / t) * bump(y), lo, hi, **opts)[0]
                    for lo, hi in zip(cuts[:-1], cuts[1:])) / norm for k in (anti, chi)]
    return at


# the series is tested hardest at t = s/(s-1), where its ratio r reaches 1/2
ORACLE_CASES = [(1.5, 200.0), (1.8, 40.0), (1.6, 100.0), (3.0, 1.5), (1.01, 101.0),
                (MAX_SHARPNESS, MAX_SHARPNESS + 10.0), (1.2, t_threshold(1.2))]


class TestFusedEvaluation:
    def test_eta_and_prime_equals_the_views(self):
        base = eta_st(1.6, 100.0)
        hw = base.support_halfwidth
        edge_pts = np.array([-hw, hw, -1.0, 1.0, np.nextafter(hw, 0.0), -1.3, 1.3, 0.0])
        x = np.concatenate([edge_pts, np.linspace(-1.2, 1.2, 97)])
        eta, prime = base.eta_and_prime(x)
        assert np.array_equal(eta, base.eta(x))
        assert np.array_equal(prime, base.eta_prime(x))
        eta, prime = base.eta_and_prime(np.array([-hw, hw]))
        assert eta.tolist() == [0.0, 1.0] and prime.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("s, t", [(1.5, 200.0), (1.01, 101.0), (1.2, t_threshold(1.2))])
    def test_a_value_does_not_depend_on_the_points_beside_it(self, s, t):
        # 20,000 random points over the support, at once and in blocks of 7
        prof = eta_st(s, t)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, 20000) * prof.support_halfwidth
        blocks = [prof.eta_and_prime(x[i:i + 7]) for i in range(0, x.size, 7)]
        for whole, parts in zip(prof.eta_and_prime(x), zip(*blocks)):
            assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("s, t", ORACLE_CASES)
    def test_profile_matches_the_quad_oracle(self, s, t):
        # 200 random points on the middle piece (where it exists) and on each band
        prof, at = eta_st(s, t), quad_oracle(s, t)
        inner, hw = 1.0 / s - 1.0 / t, prof.support_halfwidth
        rng = np.random.default_rng(11)
        pieces = [(-inner, inner)] if inner > 0 else []
        pieces += [(-hw, -abs(inner)), (abs(inner), hw)]
        x = np.concatenate([rng.uniform(lo, hi, 200) for lo, hi in pieces])
        eta, prime = prof.eta_and_prime(x)
        ref = np.array([at(xi) for xi in x])
        assert np.max(np.abs(eta - ref[:, 0])) <= 1e-13
        assert np.max(np.abs(prime - ref[:, 1])) <= 1e-13 * np.max(np.abs(ref[:, 1]))

    @pytest.mark.parametrize("s, t", [(1.5, 200.0), (1.01, 101.0), (1.2, t_threshold(1.2)),
                                      (MAX_SHARPNESS, MAX_SHARPNESS + 10.0)])
    def test_continuous_at_the_seams(self, s, t):
        # the series meets the band rule at +-(1/s - 1/t); the bands meet the
        # exact 0, 1 and eta' = 0 at +-(1/s + 1/t)
        prof = eta_st(s, t)
        scale = np.max(prof.eta_prime(np.linspace(-1.0, 1.0, 2001)))
        for edge in (1.0 / s - 1.0 / t, -(1.0 / s - 1.0 / t)):
            eta, prime = prof.eta_and_prime(np.array([np.nextafter(edge, -np.inf),
                                                      np.nextafter(edge, np.inf)]))
            assert abs(eta[1] - eta[0]) <= 1e-13
            assert abs(prime[1] - prime[0]) <= 1e-13 * scale
        hw = prof.support_halfwidth
        eta, prime = prof.eta_and_prime(np.array([np.nextafter(-hw, 0.0), np.nextafter(hw, 0.0)]))
        assert abs(eta[0]) <= 1e-13 and abs(eta[1] - 1.0) <= 1e-13
        assert np.max(np.abs(prime)) <= 1e-13 * scale


class TestDiscreteMinimizer:
    def test_three_points_closed_form(self):
        _, val = minimize_discrete(3)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_three_points_brute_force(self):
        grid = np.linspace(0.0, 1.0, 20001)
        brute = min(discrete_energy(np.array([0.0, g, 1.0])) for g in grid)
        _, val = minimize_discrete(3)
        assert val <= brute + 1e-8

    @staticmethod
    def weights(n):
        """Cell weights x_{i+1} + 1 = (i + 1) h of the uniform grid on [-1, 1]."""
        h = 2.0 / (n - 1)
        return h * np.arange(1, n), h

    def test_harmonic_sum_oracle(self):
        # the profile against a dense solve of the normal equations
        # (w_{j-1} + w_j) v_j - w_{j-1} v_{j-1} - w_j v_{j+1} = 0, v_0 = 0, v_{n-1} = 1,
        # and the minimum against the Cauchy-Schwarz value 1 / sum_i h/w_i
        for n in (3, 4, 11, 101):
            w, h = self.weights(n)
            normal = np.diag(w[:-1] + w[1:]) - np.diag(w[1:-1], 1) - np.diag(w[1:-1], -1)
            rhs = np.zeros(n - 2)
            rhs[-1] = w[-1]
            prof, val = minimize_discrete(n)
            assert np.max(np.abs(prof.values[1:-1] - np.linalg.solve(normal, rhs))) <= 1e-13
            assert val == pytest.approx(1.0 / np.sum(h / w), rel=1e-12)
        w, h = self.weights(20000)
        _, val = minimize_discrete(20000)
        assert val == pytest.approx(1.0 / np.sum(h / w), rel=1e-10)

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
