"""Tests for the transition-energy functional, its analytic family and the
discrete minimizer."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from modlab import cutoff, quadrature
from modlab.cutoff import (
    MAX_SHARPNESS,
    AnalyticCutoff,
    ChiKernel,
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
    # in_window is the kernel on its clip window |z| < 1/s, the only place any
    # profile evaluates it; outside it is 0, and its antiderivative 0 or 1
    def test_normalized(self):
        for s in (1.2, 1.5, 3.0):
            k = ChiKernel(s)
            res = integrate_1d(lambda z: k.in_window(z)[0], -1 / s, 1 / s, order=16)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_antiderivative_consistency(self):
        k = ChiKernel(1.5)
        zs = np.linspace(-0.9, 0.9, 7) / 1.5
        _, anti = k.in_window(zs)
        for z, expected in zip(zs, anti):
            res = integrate_1d(lambda y: k.in_window(y)[0], -1 / 1.5, z, order=16)
            assert res.value == pytest.approx(expected, abs=1e-12)

    def test_meets_the_clip_values_at_the_window_ends(self):
        # K runs from 0 to 1 across the window, so the clipped kernel's
        # antiderivative is continuous at both ends
        for s in (1.01, 1.5, 3.0, MAX_SHARPNESS):
            _, anti = ChiKernel(s).in_window(np.array([-1 / s, 1 / s]))
            assert anti[0] == 0.0 and anti[1] == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative(self):
        k = ChiKernel(2.0)
        value, anti = k.in_window(np.linspace(-0.5, 0.5, 101))
        assert np.all(value >= 0.0) and np.all(anti >= 0.0) and np.all(anti <= 1.0 + 1e-15)

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
        assert ChiKernel(s).in_window(x)[1] == pytest.approx(ref, rel=1e-14)

    def test_huge_s_stays_finite(self):
        # c_s = log1p(2/(s-1)) stays positive where log((s+1)/(s-1)) rounds to 0
        s = 1e17
        k = ChiKernel(s)
        assert k.c_s == pytest.approx(2.0 / s, rel=1e-15)
        value, anti = k.in_window(np.array([-0.5, 0.0, 0.5]) / s)
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

    def test_floored_bump_equals_the_masked_formula_bitwise(self):
        # exp(1 - 1/max(1 - y^2, 1/800)) against the masked exp(1 - 1/(1 - y^2)):
        # below q = 1/800 both are exp of less than -798, which underflows to 0
        edge = math.sqrt(1.0 - 1.0 / 800.0)
        y = np.concatenate([[0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
                             np.nextafter(1.0, 2.0), -1.5, 2.0, 1e150, -1e150, edge,
                             np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)],
                            np.linspace(-1.2, 1.2, 2401), 1.0 - np.logspace(-17, -1, 200)])
        inside = np.abs(y) < 1.0
        masked = np.zeros_like(y)
        masked[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
        assert np.array_equal(cutoff._bump_raw(y), masked)
        assert np.array_equal(cutoff._bump_raw(-y), masked)

    def test_cumulative_table_matches_quad(self):
        # F(E_k) = int_{-1}^{E_k} f at the fixed panel edges, against quad of
        # the bump written here
        def bump(y):
            return math.exp(1.0 - 1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0

        edges = cutoff._MOLLIFIER_EDGES.tolist()
        pieces = [quad(bump, a, b, epsabs=1e-16, epsrel=1e-13)[0]
                  for a, b in zip(edges[:-1], edges[1:])]
        ref = np.concatenate(([0.0], np.cumsum(pieces))) / sum(pieces)
        table = cutoff._convolve_rules()[-1]
        assert table.shape == (len(edges),) and table[0] == 0.0
        assert np.max(np.abs(table - ref)) <= 1e-15

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
        # on two profiles, so the band memo of the one serves nothing to the other
        prof = eta_st(s, t)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, 20000) * prof.support_halfwidth
        blocks = [prof.eta_and_prime(x[i:i + 7]) for i in range(0, x.size, 7)]
        for whole, parts in zip(eta_st(s, t).eta_and_prime(x), zip(*blocks)):
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

    @pytest.mark.parametrize("s, t", [(1.6, 256.0), (2.0, 4.0)])
    def test_window_ends_on_the_panel_edges_match_the_quad_oracle(self, s, t):
        # 1/s and t are binary, so t(x - 1/s) lands exactly on the edges 0 and
        # +-3/4, where the tail's table lookup switches panels, and t(x + 1/s)
        # does for the mirrored points; with their neighbours one ulp away, and
        # the support's ends +-(1/s + 1/t) one ulp inside
        prof, at = eta_st(s, t), quad_oracle(s, t)
        on_edge = np.array([e / t + sign / s for e in (-0.75, 0.0, 0.75) for sign in (1.0, -1.0)])
        ends = np.where(on_edge > 0, t * (on_edge - 1.0 / s), t * (on_edge + 1.0 / s))
        assert ends.tolist() == [-0.75, -0.75, 0.0, 0.0, 0.75, 0.75]
        hw = prof.support_halfwidth
        x = np.concatenate([on_edge, np.nextafter(on_edge, -1.0), np.nextafter(on_edge, 1.0),
                            np.nextafter([-hw, hw], 0.0)])
        eta, prime = prof.eta_and_prime(x)
        ref = np.array([at(xi) for xi in x])
        assert np.max(np.abs(eta - ref[:, 0])) <= 1e-13
        assert np.max(np.abs(prime - ref[:, 1])) <= 1e-13 * np.max(np.abs(ref[:, 1]))
        # and no step where the lookup switches: a step would survive the second
        # difference over the one-ulp neighbours, which cancels the slope
        n = on_edge.size
        for values in (eta, prime):
            assert np.max(np.abs(values[n:2 * n] + values[2 * n:3 * n] - 2 * values[:n])) <= 1e-14

    # the criteria's schedule, the least t, the largest s, and a t so large
    # that the series keeps one term
    @pytest.mark.parametrize("s, t", [(1.8, 40.0), (1.6, 100.0), (1.5, 200.0),
                                      (1.2, t_threshold(1.2)),
                                      (MAX_SHARPNESS, MAX_SHARPNESS + 10.0), (1.5, 1e17)])
    def test_series_is_bitwise_the_polyval_formula(self, s, t):
        # the moment series of the class docstring, written out with np.polyval
        prof, m = eta_st(s, t), cutoff._even_moments()
        q = (1.0 / (t * (1.0 - 1.0 / s) + 1.0)) ** 2
        n = np.count_nonzero(m * q ** np.arange(m.size) / (1.0 - q)
                             > 1e-17 * min(1.0, prof.kernel.c_s))
        prime_coeffs = m[:n][::-1]
        eta_coeffs = np.concatenate(([0.0], m[1:n] / (2.0 * np.arange(1, n))))[::-1]
        inner = 1.0 / s - 1.0 / t
        x = np.concatenate([np.linspace(-inner, inner, 203)[1:-1],
                            np.nextafter([-inner, inner], 0.0)])
        chi, anti = prof.kernel.in_window(x)
        rr = (1.0 / t / (x + 1.0)) ** 2
        eta, prime = prof.eta_and_prime(x)
        assert np.array_equal(eta, anti - np.polyval(eta_coeffs, rr) / prof.kernel.c_s)
        assert np.array_equal(prime, chi * np.polyval(prime_coeffs, rr))
        assert (n == 1) == (t == 1e17)

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


@pytest.fixture
def convolved(monkeypatch):
    """The band points of every convolution that follows."""
    calls = []
    convolve = AnalyticCutoff._convolve

    def spy(self, x):
        calls.append(np.array(x))
        return convolve(self, x)
    monkeypatch.setattr(AnalyticCutoff, "_convolve", spy)
    return calls


class TestBandMemo:
    """Each profile serves a band point's values from the call that first
    convolved it; that moves no bit only because no band point's row depends
    on the other points of its call."""

    @staticmethod
    def band_points(prof, n, seed):
        inner, hw = 1.0 / prof.s - 1.0 / prof.t, prof.support_halfwidth
        x = np.random.default_rng(seed).uniform(inner, hw, n)
        return np.where(np.arange(n) % 2, x, -x)

    @staticmethod
    def bits(values):
        return [v.tobytes() for v in values]

    @pytest.mark.parametrize("s, t", [(1.5, 200.0), (1.01, 101.0), (1.2, t_threshold(1.2))])
    def test_a_band_point_is_bit_equal_alone_in_a_batch_and_through_the_memo(self, s, t):
        x = self.band_points(eta_st(s, t), 64, 33)
        together = eta_st(s, t).eta_and_prime(x)
        alone = [eta_st(s, t).eta_and_prime(x[i:i + 1]) for i in range(x.size)]
        assert self.bits(np.concatenate(v) for v in zip(*alone)) == self.bits(together)
        # and through the memo: half the points first, then all of them shuffled
        order = np.random.default_rng(34).permutation(x.size)
        prof = eta_st(s, t)
        prof.eta_and_prime(x[:32])
        assert self.bits(prof.eta_and_prime(x[order])) == self.bits(v[order] for v in together)

    def test_each_band_point_is_convolved_once(self, convolved):
        prof = eta_st(1.5, 200.0)
        x = self.band_points(prof, 300, 35)
        # repeats within a call are convolved once too
        first = prof.eta_and_prime(np.concatenate([x[:200], x[:50]]))
        assert sum(c.size for c in convolved) == 200
        assert np.all(np.diff(np.concatenate(convolved)) > 0)
        prof.eta_and_prime(x)
        assert sum(c.size for c in convolved) == 300
        assert self.bits(prof.eta_and_prime(x[:200])) == self.bits(v[:200] for v in first)
        assert sum(c.size for c in convolved) == 300

    def test_a_fresh_profile_convolves_again(self, convolved):
        x = self.band_points(eta_st(1.5, 200.0), 100, 36)
        values = []
        for _ in range(2):
            values.append(self.bits(eta_st(1.5, 200.0).eta_and_prime(x)))
            assert sum(c.size for c in convolved) == 100
            convolved.clear()
        assert values[0] == values[1]

    def test_the_memo_starts_afresh_past_its_cap(self, monkeypatch, convolved):
        x = self.band_points(eta_st(1.5, 200.0), 500, 37)
        expected = self.bits(eta_st(1.5, 200.0).eta_and_prime(x))
        monkeypatch.setattr(quadrature, "MEMO_POINTS", 120)
        prof, held, values = eta_st(1.5, 200.0), [], []
        for i in range(0, x.size, 50):
            values.append(prof.eta_and_prime(x[i:i + 50]))
            held.append(prof._band[0].size)
        assert self.bits(np.concatenate(v) for v in zip(*values)) == expected
        assert held == [50, 100, 50, 100, 50, 100, 50, 100, 50, 100]
        # a call past the cap alone is convolved whole, and held
        convolved.clear()
        prof.eta_and_prime(x)
        assert sum(c.size for c in convolved) == x.size == prof._band[0].size


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
            values, val = minimize_discrete(n)
            assert np.max(np.abs(values[1:-1] - np.linalg.solve(normal, rhs))) <= 1e-13
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
        values, _ = minimize_discrete(64)
        d = np.diff(values)
        w = np.linspace(-1.0, 1.0, 64)[1:] + 1.0
        ratio = d * w
        assert np.ptp(ratio) <= 1e-10 * np.abs(ratio).max()

    def test_analytic_family_dominates_discrete_minimum(self):
        eta = eta_st(1.5, 200)
        n = 2001
        _, minimum = minimize_discrete(n)
        sampled = eta.eta(np.linspace(-1.0, 1.0, n))
        assert energy(eta) >= minimum
        assert discrete_energy(sampled) >= minimum

    def test_too_few_points(self):
        with pytest.raises(ParameterViolation):
            minimize_discrete(2)


class TestRampEnergy:
    def test_linear_ramp_energy_limit(self):
        # eta'(x) = 1/2 gives E = int (x+1)/4 dx = 1/2; the pinned discrete
        # ramp converges to that value as the mesh refines
        for n, tol in ((101, 2e-2), (1001, 2e-3), (10001, 2e-4)):
            xs = np.linspace(-1.0, 1.0, n)
            assert abs(discrete_energy((xs + 1.0) / 2.0) - 0.5) <= tol

    def test_any_transition_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = np.sort(rng.uniform(0, 1, 21))
            v[0], v[-1] = 0.0, 1.0
            assert discrete_energy(v) >= 0.0
