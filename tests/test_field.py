"""Tests for the scalar-field entropy integrals, squeezed bounds and flows."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from modlab import cutoff, field, quadrature
from modlab.cli import preset_data, preset_region
from modlab.cutoff import eta_st
from modlab.errors import (
    DimensionMismatch,
    FlowSingularity,
    GeometryViolation,
    MassNotZero,
    ScheduleViolation,
)
from modlab.field import (
    Ball,
    BoundSweepRecord,
    BumpFunction,
    DEFAULT_QUAD,
    InitialData,
    Wedge,
    boundary_term_prediction,
    entropy_bound,
    exact_entropy,
    modular_flow_point,
    squeeze_sweep,
    tau0,
)
from modlab.quadrature import integrate_1d
from oracles import box_integral, bump_sum


def interior_wedge_data(mass):
    """Interior d = 1 wedge data.  Not the CLI's preset: its g1 bump is 0.8
    wide, where the preset's is 0.6."""
    return InitialData((BumpFunction((2.0,), (1.0,)),),
                       (BumpFunction((1.8,), (0.8,), 0.5),), 1, mass)


def boundary_wedge_data(mass):
    """Boundary d = 1 wedge data.  Not the CLI's preset: its g1 bump is centred
    at +0.2, where the preset's is at -0.2."""
    return InitialData((BumpFunction((0.0,), (1.0,)),),
                       (BumpFunction((0.2,), (0.6,), 0.5),), 1, mass)


def off_centre_data(d, shift=0.0, mass=0.0):
    """Two overlapping off-centre anisotropic g0 bumps of opposite sign and an
    off-centre g1 bump, inside Ball(1.0) up to 0.86 from the origin, moved by
    `shift` along x^1.  Unlike the one-bump presets they reach every term of
    the cross-sections: offset centres, unequal widths and g0 cross terms."""
    centers = [(0.25, -0.1, 0.15), (-0.2, 0.2, -0.1), (0.1, 0.15, -0.2)]
    widths = [(0.4, 0.55, 0.35), (0.5, 0.3, 0.45), (0.45, 0.4, 0.5)]
    bumps = [BumpFunction((c[0] + shift,) + c[1:d], w[:d], a)
             for c, w, a in zip(centers, widths, (1.0, -0.8, 0.6))]
    return InitialData(tuple(bumps[:2]), (bumps[2],), d, mass)


def radial_data(d, shift=0.0, last_width=0.5):
    """Two centred isotropic g0 bumps of opposite sign and unequal widths and a
    centred g1 bump; `shift` moves the first bump's centre along x^1 and
    `last_width` replaces its last width, either of which makes it non-radial."""
    zero = (0.0,) * d
    first = BumpFunction((shift,) + zero[1:], (0.5,) * (d - 1) + (last_width,))
    return InitialData((first, BumpFunction(zero, (0.8,) * d, -0.7)),
                       (BumpFunction(zero, (0.6,) * d, 0.5),), d)


def radial_sections(g, rho):
    """A, B, C and Q of radially symmetric data in closed form: |S^{d-1}| times
    v^2, v v', v'^2 and v1^2, where v = sum_k a_k exp(1 - 1/q_k), q_k = 1 - rho^2/w_k^2,
    and v' = sum_k -2 rho v_k/(w_k^2 q_k^2), all 0 from rho = w_k on."""
    def profile(bumps):
        v, dv = 0.0, 0.0
        for b in bumps:
            w = b.width[0]
            q = 1.0 - (rho / w) ** 2
            safe = np.where(q > 0.0, q, 1.0)
            vk = np.where(q > 0.0, b.amplitude * np.exp(1.0 - 1.0 / safe), 0.0)
            v, dv = v + vk, dv - 2.0 * rho * vk / (w * w * safe * safe)
        return v, dv

    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[g.dimension]
    (v, dv), (v1, _) = profile(g.g0), profile(g.g1)
    return {"A": area * v * v, "B": area * v * dv, "C": area * dv * dv, "Q": area * v1 * v1}


# (panels per axis, Gauss order) per dimension; on the wedge presets the d = 1
# and d = 2 rules reach 1e-11 relative against refined rules, far inside the
# tolerances below, and the d = 1 rule resolves a t = 3 transition across the
# off-centre data to 3e-11 (32 panels reach only 2e-8 there); the d = 3 rule
# (373,248 points) reaches about 1e-5 on the off-centre data, inside the 1e-4
# it is used with
TENSOR_RULE = {1: (128, 16), 2: (16, 16), 3: (6, 12)}


def weighted_energy(g, weight):
    """int weight(x) (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x."""
    m2 = g.mass ** 2
    return (box_integral(g.g0, lambda x, v, gr: weight(x) * (np.sum(gr * gr, axis=1)
                                                            + m2 * v * v), TENSOR_RULE)
            + box_integral(g.g1, lambda x, v, gr: weight(x) * v * v, TENSOR_RULE))


def field_energy(g):
    """int |grad g0|^2 + m^2 g0^2 + g1^2 over R^d."""
    return weighted_energy(g, lambda x: 1.0)


def profile_at(b, pts):
    """BumpFunction.profile at points (n, d): value v and gradient f (x - c)/w^2."""
    c, w = np.array(b.center), np.array(b.width)
    v, f = b.profile(np.sum(((pts - c) / w) ** 2, axis=1))
    return v, f[:, None] * (pts - c) / w ** 2


class TestBumpFunction:
    def test_peak_and_support(self):
        b = BumpFunction((1.0, 0.0), (0.5, 2.0), amplitude=3.0)
        # s^2 = 0 at the centre, 1 on the boundary, 1.44 outside
        value, f = b.profile(np.array([0.0, 1.0, 1.44]))
        assert value[0] == pytest.approx(3.0)
        assert value[1] == 0.0 and value[2] == 0.0
        assert f[1] == 0.0 and f[2] == 0.0
        assert np.array_equal(profile_at(b, np.array([[1.0, 0.0], [1.5, 0.0], [1.6, 0.0]]))[0],
                              value)

    @pytest.mark.parametrize("amplitude", [3.0, -1.7])
    def test_floored_profile_is_the_masked_formula(self, amplitude):
        # the masked formula: v = a exp(1 - 1/q) and f = -2 v/q^2 with q = 1 - s^2
        # inside s^2 < 1, and v = a * 0 outside, where q is taken as 1
        b = BumpFunction((0.0,), (1.0,), amplitude)
        edge = 1.0 - 1.0 / 800.0
        s2 = np.concatenate([np.linspace(0.0, 1.5, 301),
                             np.linspace(edge - 1e-4, edge + 1e-4, 201),
                             [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0),
                              1.0 - 1.0 / 744.0, np.nextafter(1.0, 0.0), 1.0,
                              np.nextafter(1.0, 2.0), 1e300]])
        inside = s2 < 1.0
        q = np.where(inside, 1.0 - s2, 1.0)
        value = amplitude * inside * np.exp(1.0 - 1.0 / q)
        v, f = b.profile(s2)
        assert np.array_equal(v, value) and np.array_equal(f, -2.0 * value / (q * q))
        assert np.array_equal(np.signbit(v), np.signbit(value))
        assert np.array_equal(np.signbit(f), np.signbit(-2.0 * value / (q * q)))
        # above the floor q = 1/744 still gives a nonzero (subnormal) value
        assert v[s2 == 1.0 - 1.0 / 744.0][0] != 0.0

    def test_gradient_matches_finite_differences(self):
        b = BumpFunction((0.5, -0.3), (0.8, 1.1), amplitude=-1.7)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-0.2, 1.2, 40), rng.uniform(-1.3, 0.7, 40)])
        value, grad = profile_at(b, pts)
        ref_value, ref_grad = bump_sum([b], pts)
        assert np.allclose(value, ref_value, rtol=1e-14, atol=0.0)
        assert np.allclose(grad, ref_grad, rtol=1e-13, atol=0.0)
        eps = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (profile_at(b, pts + shift)[0] - profile_at(b, pts - shift)[0]) / (2 * eps)
            assert np.max(np.abs(fd - grad[:, axis])) <= 1e-6

    def test_invalid_width(self):
        with pytest.raises(DimensionMismatch):
            BumpFunction((0.0,), (0.0,))


class TestExactWedge:
    def test_zero_data(self):
        assert exact_entropy(InitialData((), (), 1, 0.0), Wedge()).value == 0.0

    def test_refined_quadrature_oracle_d1(self):
        g = InitialData((BumpFunction((2.0,), (1.0,)),), (), 1, 0.0)
        h = exact_entropy(g, Wedge())
        h_ref = exact_entropy(g, Wedge(), DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-8 * h_ref.value
        assert h.value > 0.0

    def test_refined_quadrature_oracle_d2(self):
        g = preset_data("wedge", 2, 1.0, "interior")
        h = exact_entropy(g, Wedge())
        h_ref = exact_entropy(g, Wedge(), DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-6 * h_ref.value

    def test_translation_invariance_perpendicular(self):
        g = preset_data("wedge", 2, 1.0, "interior")
        shifted = InitialData(
            tuple(BumpFunction((b.center[0], b.center[1] + 5.0), b.width, b.amplitude)
                  for b in g.g0),
            tuple(BumpFunction((b.center[0], b.center[1] + 5.0), b.width, b.amplitude)
                  for b in g.g1),
            2, g.mass)
        h0 = exact_entropy(g, Wedge())
        h1 = exact_entropy(shifted, Wedge())
        assert abs(h0.value - h1.value) <= 1e-9 * h0.value

    def test_only_positive_half_space_counts(self):
        # data strictly in the left half space contributes nothing
        g = InitialData((BumpFunction((-3.0,), (1.0,)),), (), 1, 0.0)
        assert exact_entropy(g, Wedge()).value == 0.0


class TestExactCone:
    def test_zero_data(self):
        assert exact_entropy(InitialData((), (), 3, 0.0), Ball(1.0)).value == 0.0

    def test_mass_rejected(self):
        g = InitialData((BumpFunction((0.0,), (0.5,)),), (), 1, 0.5)
        with pytest.raises(MassNotZero):
            exact_entropy(g, Ball(1.0))

    def test_d1_has_no_curvature_term(self):
        # in one dimension the exact value is the pure weighted energy integral
        g = InitialData((BumpFunction((0.0,), (0.4,)),), (), 1, 0.0)
        r = 1.0
        h = exact_entropy(g, Ball(r))

        def weighted(x):
            grad = bump_sum(g.g0, x[:, None])[1][:, 0]
            return (r * r - x * x) / (2 * r) * grad * grad

        ref = integrate_1d(weighted, -0.7, 0.7, splits=[-0.4, 0.0, 0.4], order=16,
                           rel_tol=1e-12).value
        assert h.value == pytest.approx(0.5 * math.pi * ref, rel=1e-9)

    def test_refined_quadrature_oracle_d3(self):
        # ball data take one exact ray under both rules, so this compares the
        # outer rules only
        g = preset_data("cone", 3, 0.0, "interior")
        h = exact_entropy(g, Ball(1.0))
        h_ref = exact_entropy(g, Ball(1.0), DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-7 * h_ref.value
        assert h.value > 0.0


class TestConeSections:
    # up to and past every support edge; near an edge v is ill-conditioned in
    # rho, so values are compared relative to each section's largest value
    RHO = np.linspace(0.0, 0.9, 91)

    @staticmethod
    def deviation(sections, reference):
        return {key: float(np.max(np.abs(sections[key] - reference[key]))
                           / np.max(np.abs(reference[key]))) for key in "ABCQ"}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_radial_data_match_the_closed_forms(self, d):
        g = radial_data(d)
        sections = field._cone_sections(g, self.RHO, DEFAULT_QUAD)
        assert max(self.deviation(sections, radial_sections(g, self.RHO)).values()) <= 1e-14

    # a centre 1e-9 off the origin, one width one ulp wide, or off-centre data
    @pytest.mark.parametrize("g", [
        radial_data(1, 1e-9), radial_data(2, 1e-9), radial_data(3, 1e-9),
        radial_data(2, 0.0, np.nextafter(0.5, 1.0)), radial_data(3, 0.0, np.nextafter(0.5, 1.0)),
        off_centre_data(3)],
        ids=["shift d=1", "shift d=2", "shift d=3", "width d=2", "width d=3", "off-centre d=3"])
    def test_non_radial_data_are_refused(self, g):
        ball, prof = Ball(1.0), eta_st(1.5, 200.0)
        for run in (lambda: exact_entropy(g, ball),
                    lambda: entropy_bound(g, ball, "upper", prof, 1e-2),
                    lambda: squeeze_sweep(g, ball, [(1e-2, 1.5, 200.0)]),
                    lambda: tau0(g, ball)(0.5)):
            with pytest.raises(GeometryViolation, match="radial"):
                run()


class TestOffCentreData:
    def test_wedge_exact_matches_tensor_rule_d3(self):
        # moved into x^1 > 0.25, so the wedge integral is the box integral
        g = off_centre_data(3, shift=0.95, mass=0.7)
        ref = 0.5 * math.pi * weighted_energy(g, lambda x: x[:, 0])
        assert exact_entropy(g, Wedge()).value == pytest.approx(ref, rel=1e-4)

    def test_wedge_exact_matches_tensor_rule_d1(self):
        g = off_centre_data(1, shift=0.95, mass=0.7)
        ref = 0.5 * math.pi * weighted_energy(g, lambda x: x[:, 0])
        assert exact_entropy(g, Wedge()).value == pytest.approx(ref, rel=1e-9)

    def test_wedge_lower_bound_across_the_data_matches_tensor_rule_d1(self):
        # with eps = 0.2 the lower collar 0 < x < 0.4 cuts through the data,
        # so eta' meets g0 g0'; eta_-(x) = 1 - eta(1 - x/eps) on the
        # half-space x > 2 eps, with weight x - 2 eps
        eps, mass = 0.2, 0.7
        g, prof = off_centre_data(1, mass=mass), eta_st(1.5, 3.0)

        def cutoff_and_weight(x):
            eta, prime = prof.eta_and_prime(1.0 - x[:, 0] / eps)
            return 1.0 - eta, prime / eps, x[:, 0] - 2.0 * eps

        def g0_density(x, v, gr):
            eta, eta_prime, beta = cutoff_and_weight(x)
            grad = eta * gr[:, 0] + v * eta_prime
            return beta * (grad * grad + mass ** 2 * (eta * v) ** 2)

        def g1_density(x, v, gr):
            eta, _, beta = cutoff_and_weight(x)
            return beta * (eta * v) ** 2

        ref = 0.5 * math.pi * (box_integral(g.g0, g0_density, TENSOR_RULE)
                               + box_integral(g.g1, g1_density, TENSOR_RULE))
        assert entropy_bound(g, Wedge(), "lower", prof, eps).value == pytest.approx(ref, rel=1e-9)


class TestEntropyBound:
    def test_zero_data(self):
        g = InitialData((), (), 1, 0.0)
        prof = eta_st(1.5, 20)
        assert entropy_bound(g, Wedge(), "upper", prof, 0.01).value == 0.0
        assert entropy_bound(g, Wedge(), "lower", prof, 0.01).value == 0.0

    def test_interior_closed_form_and_gap(self):
        # with the cutoff identically 1 on the support, the bounds are the
        # exact integrals with shifted weights and the gap is linear in eps
        g = interior_wedge_data(1.0)
        prof = eta_st(1.5, 200)
        eps = 0.01
        h = exact_entropy(g, Wedge())
        hp = entropy_bound(g, Wedge(), "upper", prof, eps)
        hm = entropy_bound(g, Wedge(), "lower", prof, eps)
        gap = hp.value - hm.value
        expected = 4.0 * eps * 0.5 * math.pi * field_energy(g)
        assert abs(gap - expected) <= 1e-6 * expected
        assert hm.value <= h.value <= hp.value

    def test_interior_bounds_equal_shifted_weight_integrals(self):
        # cutoff consistency: with eta = 1 on supp g the bound is the exact
        # integral with the shifted weight x^1 +- 2 eps in place of x^1
        g = interior_wedge_data(1.0)
        prof = eta_st(1.5, 200)
        eps = 0.01

        def weighted(sign):
            return 0.5 * math.pi * weighted_energy(g, lambda x: x[:, 0] + sign * 2 * eps)

        hp = entropy_bound(g, Wedge(), "upper", prof, eps)
        hm = entropy_bound(g, Wedge(), "lower", prof, eps)
        assert hp.value == pytest.approx(weighted(+1.0), rel=1e-9)
        assert hm.value == pytest.approx(weighted(-1.0), rel=1e-9)

    def test_interior_cone_bounds_equal_shifted_weight_integrals(self):
        # with eta = 1 on supp g0 the cone bound is the exact integral over the
        # ball of radius R = r +- 2 eps: weight (R^2 - rho^2)/(2R) and curvature
        # term (d-1)/(2R) g0^2; the radial bump is written out here
        width, r, eps = 0.5, 1.0, 0.01
        g = preset_data("cone", 3, 0.0, "interior")  # one isotropic bump of this width
        prof = eta_st(1.5, 200)

        def weighted(big_r):
            def integ(rho):
                q = np.maximum(1.0 - (rho / width) ** 2, 1e-300)
                g0 = np.exp(1.0 - 1.0 / q) * (rho < width)
                dg0 = g0 * (-2.0 * rho / width ** 2) / (q * q)
                beta = (big_r * big_r - rho * rho) / (2.0 * big_r)
                return 4.0 * math.pi * rho ** 2 * (beta * dg0 * dg0
                                                   + 2.0 / (2.0 * big_r) * g0 * g0)
            return 0.5 * math.pi * integrate_1d(integ, 0.0, width, order=16,
                                                rel_tol=1e-12).value

        hp = entropy_bound(g, Ball(r), "upper", prof, eps)
        hm = entropy_bound(g, Ball(r), "lower", prof, eps)
        assert hp.value == pytest.approx(weighted(r + 2 * eps), rel=1e-9)
        assert hm.value == pytest.approx(weighted(r - 2 * eps), rel=1e-9)

    def test_cone_lower_bound_across_the_data_matches_tensor_rule(self):
        # with eps = 0.2 the lower collar 0.6 < |x| < 1 cuts through the data,
        # so eta' meets g0 x.grad g0; eta_-(x) = 1 - eta((|x| - r)/eps + 1)
        # on the ball of radius R = r - 2 eps, with weight (R^2 - |x|^2)/(2R);
        # the two g0 bumps reach the cross term of grad g0 . grad g0; the
        # tensor rule agrees to 1.5e-10
        d, r, eps = 2, 1.0, 0.2
        g, big_r, prof = radial_data(d), r - 2.0 * eps, eta_st(1.5, 3.0)

        def cutoff_and_weight(x):
            rho = np.sqrt(np.sum(x * x, axis=1))
            u = (rho - r) / eps + 1.0
            # eta is 0 or 1 outside (-1, 1); inside, evaluate it in small blocks
            eta, prime = (u >= 1.0).astype(float), np.zeros_like(u)
            inside = np.flatnonzero(np.abs(u) < 1.0)
            for block in np.array_split(inside, inside.size // 2048 + 1):
                eta[block], prime[block] = prof.eta_and_prime(u[block])
            grad_eta = -(prime / eps)[:, None] * x / rho[:, None]
            return 1.0 - eta, grad_eta, (big_r ** 2 - rho ** 2) / (2.0 * big_r)

        def g0_density(x, v, gr):
            eta, grad_eta, beta = cutoff_and_weight(x)
            grad = eta[:, None] * gr + v[:, None] * grad_eta
            return (beta * np.sum(grad * grad, axis=1)
                    + (d - 1) / (2.0 * big_r) * eta * eta * v * v)

        def g1_density(x, v, gr):
            eta, _, beta = cutoff_and_weight(x)
            return beta * eta * eta * v * v

        ref = 0.5 * math.pi * (box_integral(g.g0, g0_density, TENSOR_RULE)
                               + box_integral(g.g1, g1_density, TENSOR_RULE))
        assert entropy_bound(g, Ball(r), "lower", prof, eps).value == pytest.approx(ref, rel=1e-8)

    def test_positivity_up_to_quadrature_error(self):
        prof = eta_st(1.5, 80)
        for g, reg in ((interior_wedge_data(0.0), Wedge()),
                       (preset_data("wedge", 2, 1.0, "boundary"), Wedge()),
                       (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0))):
            h = exact_entropy(g, reg)
            assert h.value >= -h.error
            for side in ("upper", "lower"):
                b = entropy_bound(g, reg, side, prof, 0.02)
                # lower bounds may dip below zero only through the negative
                # collar of the signed weight, never below -H_exact scale
                if side == "upper":
                    assert b.value >= -b.error

    def test_interior_gap_linearity_grid(self):
        g = preset_data("wedge", 2, 1.0, "interior")
        prof = eta_st(1.5, 200)
        expected_slope = 2.0 * math.pi * field_energy(g)
        for eps in (4e-3, 2e-3, 1e-3):
            hp = entropy_bound(g, Wedge(), "upper", prof, eps)
            hm = entropy_bound(g, Wedge(), "lower", prof, eps)
            slope = (hp.value - hm.value) / eps
            assert abs(slope - expected_slope) <= 1e-4 * expected_slope

    def test_ordering_all_configs(self):
        prof = eta_st(1.6, 60)
        cases = [
            (interior_wedge_data(0.0), Wedge()),
            (boundary_wedge_data(1.0), Wedge()),
            (preset_data("wedge", 2, 0.0, "boundary"), Wedge()),
            (preset_data("cone", 3, 0.0, "interior"), Ball(1.0)),
            (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0)),
        ]
        for g, reg in cases:
            h = exact_entropy(g, reg)
            for eps in (0.05, 0.02):
                hp = entropy_bound(g, reg, "upper", prof, eps)
                hm = entropy_bound(g, reg, "lower", prof, eps)
                slack = hp.error + hm.error + h.error
                assert hm.value <= h.value + slack
                assert h.value <= hp.value + slack

    def test_cone_epsilon_guard(self):
        g = preset_data("cone", 3, 0.0, "interior")
        with pytest.raises(GeometryViolation):
            entropy_bound(g, Ball(1.0), "upper", eta_st(1.5, 20), 0.6)

    # NaN and infinite collars are refused before any quadrature runs
    @pytest.mark.parametrize("epsilon", [0.0, -0.01, math.nan, math.inf])
    @pytest.mark.parametrize("d", [1, 2])
    def test_wedge_epsilon_guard(self, d, epsilon):
        g = interior_wedge_data(0.0) if d == 1 else preset_data("wedge", 2, 0.0, "interior")
        with pytest.raises(GeometryViolation):
            entropy_bound(g, Wedge(), "upper", eta_st(1.5, 20), epsilon)

    def test_cone_collar_checked_before_the_exact_entropy(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("integral computed for a refused schedule")

        # the sweep integrates its exact entropy together with its bounds
        monkeypatch.setattr(field, "integrate_1d", unexpected)
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(preset_data("cone", 3, 0.0, "interior"), Ball(1.0), [(0.6, 1.8, 40.0)])

    def test_bad_side(self):
        g = interior_wedge_data(0.0)
        with pytest.raises(GeometryViolation):
            entropy_bound(g, Wedge(), "above", eta_st(1.5, 20), 0.01)

    def test_guards_precede_zero_data_shortcut(self):
        massive = InitialData((), (), 3, 1.0)
        with pytest.raises(MassNotZero):
            exact_entropy(massive, Ball(1.0))
        with pytest.raises(MassNotZero):
            entropy_bound(massive, Ball(1.0), "upper", eta_st(1.5, 20), 0.01)
        with pytest.raises(GeometryViolation):
            entropy_bound(InitialData((), (), 1, 0.0), Wedge(), "above",
                          eta_st(1.5, 20), 0.01)


# (epsilon, s, t) from a squeezed collar to a wide one: tiny epsilon, s near 1
# with t far above its s/(s-1) threshold, a wide collar at small t, and a
# near step at s = 1e6
OUTER_CASES = [(1e-2, 1.5, 200.0), (1e-6, 1.5, 200.0), (1e-3, 1.001, 1e5),
               (1e-4, 1.05, 1e6), (0.2, 3.0, 2.0), (1e-2, 1e6, 1.5)]


class TestOuterRule:
    """The adaptive outer rule of the d = 1 wedge bounds, which have no cross
    section, against scipy's QUADPACK integral of an integrand built here."""

    @staticmethod
    def oracle(g, side, prof, eps):
        """(pi/2) int (y - shift) [((eta g0)')^2 + m^2 (eta g0)^2 + (eta g1)^2] dy
        over y > min(0, shift), shift = -+2 eps, with eta(y) = eta_{s,t}(y/eps + 1)
        on the upper side and 1 - eta_{s,t}(1 - y/eps) on the lower side; quad
        runs piecewise between the transition's feature images and the bumps'
        support ends and centres.  Returns the value and quad's error sum."""
        sign = 1.0 if side == "upper" else -1.0
        shift, m2 = -sign * 2.0 * eps, g.mass ** 2

        def density(y):
            (eta,), (prime,) = prof.eta_and_prime(sign * (y / eps + sign))
            eta = eta if sign > 0 else 1.0 - eta
            (v0,), ((d0,),) = bump_sum(g.g0, np.array([[y]]))
            (v1,), _ = bump_sum(g.g1, np.array([[y]]))
            grad = prime / eps * v0 + eta * d0
            return (y - shift) * (grad * grad + eta * eta * (m2 * v0 * v0 + v1 * v1))

        lo = max(min(b.center[0] - b.width[0] for b in g.g0 + g.g1), min(0.0, shift))
        hi = max(b.center[0] + b.width[0] for b in g.g0 + g.g1)
        points = {eps * (sign * p - sign) for p in prof.feature_points()}
        points |= {b.center[0] + k * b.width[0] for b in g.g0 + g.g1 for k in (-1, 0, 1)}
        edges = [lo] + sorted(p for p in points if lo < p < hi) + [hi]
        pieces = [quad(density, a, b, epsabs=1e-15, epsrel=1e-12, limit=200)
                  for a, b in zip(edges, edges[1:])]
        return (0.5 * math.pi * sum(v for v, _ in pieces),
                0.5 * math.pi * sum(e for _, e in pieces))

    @pytest.mark.parametrize("eps, s, t", OUTER_CASES)
    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("data", [interior_wedge_data, boundary_wedge_data])
    def test_d1_wedge_bound_matches_quad(self, data, side, eps, s, t):
        g, prof = data(1.0), eta_st(s, t)
        res = entropy_bound(g, Wedge(), side, prof, eps)
        value, error = self.oracle(g, side, prof, eps)
        assert abs(res.value - value) <= res.error + error + 1e-14 * abs(value)

    @pytest.mark.parametrize("g, region", [
        (boundary_wedge_data(0.0), Wedge()),
        (preset_data("wedge", 2, 0.0, "boundary"), Wedge()),
        (preset_data("cone", 3, 0.0, "boundary"), Ball(1.0))], ids=["wedge-d1", "wedge-d2", "cone-d3"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_boundary_bound_work(self, monkeypatch, g, region, side):
        # seeded only at the transition's feature images, each boundary preset
        # bound takes 297-528 integrand points at (1e-2, 1.5, 200); a ladder of
        # hand-graded splits around each image took 1,764-2,184 under the
        # earlier Gauss 12/16 pair
        points, integrate = [], field.integrate_1d

        def counted(f, *args, **kwargs):
            return integrate(lambda y: points.append(y.size) or f(y), *args, **kwargs)

        monkeypatch.setattr(field, "integrate_1d", counted)
        entropy_bound(g, region, side, eta_st(1.5, 200.0), 1e-2)
        assert 0 < sum(points) <= 528


class TestRegions:
    def test_ball_weight_positive_inside(self):
        ball = Ball(1.0)
        rng = np.random.default_rng(5)
        inside = rng.uniform(-0.5, 0.5, (50, 3))
        assert np.all(ball.weight(inside) > 0.0)
        boundary = np.array([[1.0, 0.0, 0.0]])
        assert ball.weight(boundary)[0] == 0.0

    def test_ball_radius_guard(self):
        with pytest.raises(GeometryViolation):
            Ball(0.0)
        assert Ball(1e-100).radius == 1e-100 and Ball(1e100).radius == 1e100

    # past [1e-100, 1e100], r^2 or 1/(2r) leaves double precision
    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf,
                                        1.01e100, 1e155, 0.99e-100, 1e-310, 5e-324])
    def test_ball_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(GeometryViolation):
            Ball(radius)


class TestQuadBudget:
    def test_budget_exceeded(self):
        from modlab.errors import QuadratureBudgetExceeded
        from modlab.field import FieldQuad
        g = preset_data("wedge", 2, 1.0, "interior")
        tiny = FieldQuad(rel_tol=1e-15, max_panels=2)
        with pytest.raises(QuadratureBudgetExceeded):
            exact_entropy(g, Wedge(), tiny)


class TestTau0:
    def test_zero_data(self):
        g = InitialData((), (), 2, 0.0)
        assert tau0(g, Wedge())(0.3) == 0.0

    def test_d1_wedge_pointwise(self):
        g = InitialData((BumpFunction((0.5,), (1.0,)),), (), 1, 0.0)
        prof = tau0(g, Wedge())
        for x in (0.0, 0.4, 1.2):
            assert prof(x) == pytest.approx(bump_sum(g.g0, np.array([[x]]))[0][0] ** 2,
                                            abs=1e-14)

    def test_fubini_normalization(self):
        g = preset_data("wedge", 2, 0.0, "interior")
        prof = tau0(g, Wedge())
        lhs = integrate_1d(lambda xs: np.array([prof(x) for x in np.atleast_1d(xs)]),
                           0.7, 2.3, order=16, rel_tol=1e-11).value
        # the strip 0.7 <= x^1 <= 2.3 is the x^1-range of supp g0, so the strip
        # integral of g0^2 is its integral over the support box
        assert g.support_box()[0] == pytest.approx((0.7, 2.3))
        rhs = box_integral(g.g0, lambda x, v, gr: v * v, TENSOR_RULE)
        assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_cone_radial_normalization(self):
        # int tau0(rho) rho^{d-1} drho recovers int g0^2 over R^3
        g = preset_data("cone", 3, 0.0, "interior")
        prof = tau0(g, Ball(1.0))
        lhs = integrate_1d(lambda rs: np.array([prof(r) * r ** 2 for r in np.atleast_1d(rs)]),
                           0.0, 0.5, order=16, rel_tol=1e-11).value
        width = 0.5
        rhs = integrate_1d(
            lambda rs: 4.0 * math.pi * rs ** 2
            * np.exp(2.0 - 2.0 / np.maximum(1.0 - (rs / width) ** 2, 1e-300))
            * (rs < width),
            0.0, width, order=16, rel_tol=1e-11).value
        assert abs(lhs - rhs) <= 1e-8 * rhs


class TestBoundaryPrediction:
    def test_interior_data_predicts_zero(self):
        g = interior_wedge_data(0.0)
        assert boundary_term_prediction(g, Wedge(), eta_st(1.5, 40), "upper") == 0.0

    def test_wedge_extrapolation_matches(self):
        g = boundary_wedge_data(0.0)
        prof = eta_st(1.5, 200)
        h = exact_entropy(g, Wedge())
        for side in ("upper", "lower"):
            pred = boundary_term_prediction(g, Wedge(), prof, side)
            epss = [0.02, 0.01, 0.005]
            diffs = [entropy_bound(g, Wedge(), side, prof, e).value - h.value
                     for e in epss]
            a = np.vstack([np.ones(3), epss]).T
            coef, *_ = np.linalg.lstsq(a, np.array(diffs), rcond=None)
            assert abs(coef[0] - pred) <= 0.05 * abs(pred)

    def test_one_energy_integral_per_profile(self, monkeypatch):
        # criterion 5 makes 10 predictions with one profile; E[eta] is
        # integrated on the first and kept, and every value stays the same
        g = boundary_wedge_data(0.0)
        cases = [(Wedge(), side) for side in ("upper", "lower")] * 5
        fresh = [boundary_term_prediction(g, region, eta_st(1.5, 200.0), side)
                 for region, side in cases]
        calls = []

        def spy(*args, **kw):
            calls.append(args)
            return integrate_1d(*args, **kw)
        monkeypatch.setattr(cutoff, "integrate_1d", spy)
        prof = eta_st(1.5, 200.0)
        kept = [boundary_term_prediction(g, region, prof, side) for region, side in cases]
        assert kept == fresh and len(calls) == 1
        assert cutoff.energy(prof) == prof.energy and len(calls) == 1

    def test_prediction_vanishes_as_s_to_one(self):
        # tracks the limit energy 1/log((s+1)/(s-1)), which decays to 0 as s -> 1+
        g = boundary_wedge_data(0.0)
        preds = []
        for s in (2.0, 1.5, 1.2, 1.05):
            t = 300.0 * s / (s - 1.0)
            preds.append(boundary_term_prediction(g, Wedge(), eta_st(s, t), "upper"))
        assert all(b < a for a, b in zip(preds, preds[1:]))
        assert preds[-1] < preds[0] / 3.0


class TestSqueezeSweep:
    def test_empty_schedule(self):
        g = interior_wedge_data(0.0)
        assert squeeze_sweep(g, Wedge(), []) == []

    def test_interior_reaches_small_gap(self):
        g = interior_wedge_data(0.0)
        sched = [(1e-2, 1.8, 40.0), (3e-3, 1.6, 100.0), (1e-3, 1.5, 200.0)]
        recs = squeeze_sweep(g, Wedge(), sched)
        assert all(r.ordering_ok() for r in recs)
        gaps = [r.relative_gap() for r in recs]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02

    def test_boundary_gap_matches_prediction(self):
        g = boundary_wedge_data(0.0)
        prof = eta_st(1.5, 200.0)
        sched = [(0.02, 1.5, 200.0), (0.01, 1.5, 200.0), (0.005, 1.5, 200.0)]
        recs = squeeze_sweep(g, Wedge(), sched)
        assert all(r.ordering_ok() for r in recs)
        pred_gap = (boundary_term_prediction(g, Wedge(), prof, "upper")
                    - boundary_term_prediction(g, Wedge(), prof, "lower"))
        epss = [r.epsilon for r in recs]
        gaps = [r.gap for r in recs]
        a = np.vstack([np.ones(3), epss]).T
        coef, *_ = np.linalg.lstsq(a, np.array(gaps), rcond=None)
        assert abs(coef[0] - pred_gap) <= 0.05 * pred_gap

    def test_schedule_violations(self):
        g = interior_wedge_data(0.0)
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.5, 2.0)])  # t below s/(s-1)
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-3, 1.5, 200.0), (1e-2, 1.5, 200.0)])
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.5, 200.0), (1e-3, 1.8, 200.0)])
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.8, 200.0), (1e-3, 1.5, 100.0)])
        for entry in ((1e-2, 1.0, 40.0), (0.0, 1.8, 40.0), (1e-2, 1.8, math.nan),
                      (math.inf, 1.8, 40.0), (1e-2, math.nan, 40.0), (1e-2, 1.8, math.inf)):
            with pytest.raises(ScheduleViolation):
                squeeze_sweep(g, Wedge(), [entry])


INTERIOR_SCHEDULE = [(1e-2, 1.8, 40.0), (3e-3, 1.6, 100.0), (1e-3, 1.5, 200.0)]
BOUNDARY_SCHEDULE = [(0.02, 1.5, 200.0), (0.01, 1.5, 200.0), (0.005, 1.5, 200.0)]


class TestFusedSweep:
    """A sweep integrates its exact entropy and bounds on one panel set; each
    record must agree with separate `exact_entropy` and `entropy_bound` calls."""

    @staticmethod
    def separate(g, region, schedule):
        h = exact_entropy(g, region)
        return h, [(entropy_bound(g, region, "lower", eta_st(s, t), eps),
                    entropy_bound(g, region, "upper", eta_st(s, t), eps))
                   for eps, s, t in schedule]

    # the ten acceptance presets, on criterion 5's schedules
    @pytest.mark.parametrize("data, schedule", [("interior", INTERIOR_SCHEDULE),
                                                ("boundary", BOUNDARY_SCHEDULE)],
                             ids=["interior", "boundary"])
    @pytest.mark.parametrize("geometry, d, mass", [
        ("wedge", 1, 0.0), ("wedge", 1, 1.0), ("wedge", 2, 0.0), ("wedge", 2, 1.0),
        ("cone", 3, 0.0)])
    def test_records_match_separate_integrals(self, geometry, d, mass, data, schedule):
        g, region = preset_data(geometry, d, mass, data), preset_region(geometry, 1.0)
        recs = squeeze_sweep(g, region, schedule)
        h, bounds = self.separate(g, region, schedule)
        for rec, (lower, upper) in zip(recs, bounds, strict=True):
            pairs = [(rec.h_minus, lower), (rec.h_exact, h), (rec.h_plus, upper)]
            if data == "interior":
                # every lane covers the data's support and needs the same
                # panels, so fused and separate integrals agree bit for bit
                assert [fused for fused, _ in pairs] == [res.value for _, res in pairs]
                assert rec.quad_error_estimate == h.error + lower.error + upper.error
            for fused, res in pairs:
                assert abs(fused - res.value) <= rec.quad_error_estimate + res.error
            assert rec.quad_error_estimate < 1e-9 * abs(rec.h_exact)

    @pytest.mark.parametrize("geometry, d", [("wedge", 2), ("cone", 3)])
    def test_long_schedule_runs_in_groups(self, monkeypatch, geometry, d):
        # 100 entries: the exact entropy and 8 entries (17 lanes), then eleven
        # calls of 8 entries and one of the last 4
        g, region = preset_data(geometry, d, 0.0, "boundary"), preset_region(geometry, 1.0)
        schedule = [(float(eps), 1.5, 200.0) for eps in np.geomspace(1e-2, 1e-4, 100)]
        lanes, integrate = [], field.integrate_1d

        def spy(*args, **kwargs):
            lanes.append(kwargs["lanes"])
            return integrate(*args, **kwargs)
        monkeypatch.setattr(field, "integrate_1d", spy)
        recs = squeeze_sweep(g, region, schedule)
        assert lanes == [17] + [16] * 11 + [8]
        h, bounds = self.separate(g, region, schedule)
        for rec, (lower, upper) in zip(recs, bounds, strict=True):
            assert rec.ordering_ok()
            for fused, res in ((rec.h_minus, lower), (rec.h_exact, h), (rec.h_plus, upper)):
                assert abs(fused - res.value) <= rec.quad_error_estimate + res.error


CRITERION_5_CONFIGS = [("wedge", 1, 0.0), ("wedge", 1, 1.0), ("wedge", 2, 0.0),
                       ("wedge", 2, 1.0), ("cone", 3, 0.0)]


@pytest.fixture
def section_calls(monkeypatch):
    """(data, nodes) of every cross-section evaluation that follows, from an
    empty section memo; the memo keys on the spies, as it would on the sections."""
    field._reset_section_memo()
    calls = []
    for name in ("_wedge_sections", "_cone_sections"):
        def spy(g, y, quad, _sections=getattr(field, name)):
            calls.append((g, np.array(y)))
            return _sections(g, y, quad)
        monkeypatch.setattr(field, name, spy)
    return calls


def evaluated(calls):
    return sum(y.size for _, y in calls)


class TestSectionMemo:
    """The memo serves each node's cross-sections from the call that first
    evaluated it; that moves no bit only because no node's sections depend on
    the other nodes of its call."""

    @staticmethod
    def bits(sections):
        return {key: np.asarray(v).tobytes() for key, v in sections.items()}

    # off-centre bumps of opposite sign reach every term of the wedge slices,
    # and the radial data's two g0 bumps every term of the cone's one ray
    @pytest.mark.parametrize("g, sections, lo, hi", [
        (off_centre_data(1), field._wedge_sections, -0.8, 0.8),
        (off_centre_data(2), field._wedge_sections, -0.8, 0.8),
        (off_centre_data(3), field._wedge_sections, -0.8, 0.8),
        (radial_data(3), field._cone_sections, 0.0, 0.9)],
        ids=["wedge d=1", "wedge d=2", "wedge d=3", "radial cone"])
    def test_a_node_does_not_depend_on_its_call(self, g, sections, lo, hi):
        rng = np.random.default_rng(29)
        y = rng.uniform(lo, hi, 64)
        together = sections(g, y, DEFAULT_QUAD)
        alone = [sections(g, y[i:i + 1], DEFAULT_QUAD) for i in range(y.size)]
        assert self.bits({k: np.concatenate([a[k] for a in alone]) for k in together}) \
            == self.bits(together)
        order = rng.permutation(y.size)
        expected = self.bits({k: v[order] for k, v in together.items()})
        assert self.bits(sections(g, y[order], DEFAULT_QUAD)) == expected
        # and through the memo: half the nodes first, then all of them shuffled
        field._reset_section_memo()
        field._memo_sections(sections, g, y[:32], DEFAULT_QUAD)
        assert self.bits(field._memo_sections(sections, g, y[order], DEFAULT_QUAD)) == expected

    def test_a_new_rule_or_new_data_is_evaluated_afresh(self):
        y, coarse = np.linspace(-0.5, 0.5, 9), field.FieldQuad(cross_order=8)
        field._reset_section_memo()
        for g, quad in ((off_centre_data(2), DEFAULT_QUAD), (off_centre_data(2), coarse),
                        (off_centre_data(2, shift=0.1), coarse)):
            assert self.bits(field._memo_sections(field._wedge_sections, g, y, quad)) \
                == self.bits(field._wedge_sections(g, y, quad))

    @pytest.mark.parametrize("data", ["interior", "boundary"])
    @pytest.mark.parametrize("geometry, d, mass", CRITERION_5_CONFIGS)
    def test_values_after_a_sweep_match_an_empty_memo(self, section_calls,
                                                      geometry, d, mass, data):
        g, region = preset_data(geometry, d, mass, data), preset_region(geometry, 1.0)
        schedule = INTERIOR_SCHEDULE if data == "interior" else BOUNDARY_SCHEDULE
        prof = eta_st(1.5, 200.0)

        def values():
            out = [*exact_entropy(g, region)]
            for side in ("upper", "lower"):
                out += [*entropy_bound(g, region, side, prof, schedule[-1][0]),
                        boundary_term_prediction(g, region, prof, side)]
            return np.array(out).tobytes()
        cold = values()
        cold_nodes = evaluated(section_calls)
        field._reset_section_memo()
        squeeze_sweep(g, region, schedule)
        swept = evaluated(section_calls)
        assert values() == cold
        # the sweep's nodes serve part of them
        assert evaluated(section_calls) - swept < cold_nodes

    @pytest.mark.parametrize("geometry, d, mass", CRITERION_5_CONFIGS)
    def test_criterion_5_evaluates_each_node_once_per_data_object(self, section_calls,
                                                                  geometry, d, mass):
        region = preset_region(geometry, 1.0)
        interior = preset_data(geometry, d, mass, "interior")
        boundary = preset_data(geometry, d, mass, "boundary")
        prof = eta_st(1.5, 200.0)

        def criterion_5():
            squeeze_sweep(interior, region, INTERIOR_SCHEDULE)
            for eps in (4e-3, 2e-3, 1e-3):
                for side in ("upper", "lower"):
                    entropy_bound(interior, region, side, prof, eps)
            exact_entropy(boundary, region)
            squeeze_sweep(boundary, region, BOUNDARY_SCHEDULE)
            for side in ("upper", "lower"):
                boundary_term_prediction(boundary, region, prof, side)
                for eps, _, _ in BOUNDARY_SCHEDULE:
                    entropy_bound(boundary, region, side, prof, eps)
        criterion_5()
        first = list(section_calls)
        criterion_5()
        # the second run starts on other data, so it evaluates the same nodes
        assert evaluated(section_calls[len(first):]) == evaluated(first) > 0
        for g in (interior, boundary):
            nodes = np.concatenate([y for h, y in first if h is g])
            assert np.unique(nodes).size == nodes.size

    def test_the_memo_empties_past_its_cap(self, monkeypatch):
        g, region = preset_data("wedge", 2, 0.0, "boundary"), Wedge()
        field._reset_section_memo()
        expected = squeeze_sweep(g, region, BOUNDARY_SCHEDULE)
        held = []
        memo_sections = field._memo_sections

        def spy(*args):
            out = memo_sections(*args)
            held.append(field._memo[1].size)
            return out
        monkeypatch.setattr(field, "_memo_sections", spy)
        monkeypatch.setattr(quadrature, "MEMO_POINTS", 1000)
        field._reset_section_memo()
        assert squeeze_sweep(g, region, BOUNDARY_SCHEDULE) == expected
        assert max(held) <= 1000 and any(b < a for a, b in zip(held, held[1:]))


@pytest.fixture
def band_rows(monkeypatch):
    """(profile, band points) of every convolution that follows."""
    calls = []
    convolve = cutoff.AnalyticCutoff._convolve

    def spy(self, x):
        calls.append((self, np.array(x)))
        return convolve(self, x)
    monkeypatch.setattr(cutoff.AnalyticCutoff, "_convolve", spy)
    return calls


def test_criterion_5_convolves_each_band_point_once_per_profile(band_rows):
    # one squeeze benchmark pass: criterion 5 on every preset, then criterion
    # 4's energy; each builds its own profiles, so a second pass convolves as
    # many rows as the first, and no profile convolves a point twice
    def criterion_5():
        prof = eta_st(1.5, 200.0)
        for geometry, d, mass in CRITERION_5_CONFIGS:
            region = preset_region(geometry, 1.0)
            interior = preset_data(geometry, d, mass, "interior")
            boundary = preset_data(geometry, d, mass, "boundary")
            squeeze_sweep(interior, region, INTERIOR_SCHEDULE)
            for eps in (4e-3, 2e-3, 1e-3):
                for side in ("upper", "lower"):
                    entropy_bound(interior, region, side, prof, eps)
            exact_entropy(boundary, region)
            squeeze_sweep(boundary, region, BOUNDARY_SCHEDULE)
            for side in ("upper", "lower"):
                boundary_term_prediction(boundary, region, prof, side)
                for eps, _, _ in BOUNDARY_SCHEDULE:
                    entropy_bound(boundary, region, side, prof, eps)
        cutoff.energy(eta_st(1.5, 200.0))

    criterion_5()
    first = list(band_rows)
    criterion_5()
    rows = [sum(x.size for _, x in calls) for calls in (first, band_rows[len(first):])]
    # 12,180 rows a pass before the band memo
    assert rows == [2332, 2332]
    for prof in {id(p): p for p, _ in first}.values():
        x = np.concatenate([x for p, x in first if p is prof])
        assert np.unique(x).size == x.size


class TestModularFlow:
    def test_identity_at_zero(self):
        x = np.array([0.1, 0.4, -0.2, 0.3])
        for geom in (Wedge(), Ball(1.0)):
            p, f = modular_flow_point(geom, 0.0, x)
            assert np.allclose(p, x) and f == 1.0

    def test_cone_boundary_fixed_point(self):
        x = np.array([0.0, 0.6, 0.8, 0.0])
        p, f = modular_flow_point(Ball(1.0), 3.0, x)
        assert np.linalg.norm(p - x) <= 1e-12
        assert f == pytest.approx(1.0)

    def test_wedge_interval_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-2, 2, 4)
            s = rng.uniform(-2, 2)
            p, _ = modular_flow_point(Wedge(), s, x)
            lhs = p[1] ** 2 - p[0] ** 2
            rhs = x[1] ** 2 - x[0] ** 2
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_group_law_both_geometries(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = np.concatenate([[rng.uniform(-0.2, 0.2)], rng.uniform(-0.4, 0.4, 3)])
            s1, s2 = rng.uniform(-1, 1, 2)
            for geom in (Wedge(), Ball(1.0)):
                p1, f1 = modular_flow_point(geom, s1, x)
                p2, f2 = modular_flow_point(geom, s2, p1)
                p12, f12 = modular_flow_point(geom, s1 + s2, x)
                assert np.linalg.norm(p2 - p12) <= 1e-10
                assert abs(f1 * f2 - f12) <= 1e-10

    def test_flow_singularity(self):
        with pytest.raises(FlowSingularity):
            modular_flow_point(Ball(1.0), 2.0, np.array([0.0, 2.0, 0.0, 0.0]))

    def test_nan_cone_flow_refused(self):
        with pytest.raises(FlowSingularity):
            modular_flow_point(Ball(1.0), math.nan, np.array([0.0, 0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("geom", [Wedge(), Ball(1.0)], ids=["wedge", "cone"])
    def test_non_finite_input_refused_before_arithmetic(self, geom):
        # refused before cosh, sinh or N see it, so no RuntimeWarning either
        x = np.array([0.0, 0.5, 0.0, 0.0])
        for s in (math.inf, -math.inf, math.nan):
            with pytest.raises(FlowSingularity):
                modular_flow_point(geom, s, x)
        with pytest.raises(FlowSingularity):
            modular_flow_point(geom, 0.5, np.array([0.0, math.nan, 0.0, 0.0]))


class TestRecords:
    def test_ordering_flag(self):
        rec = BoundSweepRecord(0.01, 1.5, 200.0, 1.0, 1.1, 1.2, 1e-9)
        assert rec.ordering_ok()
        assert rec.gap == pytest.approx(0.2)
        bad = BoundSweepRecord(0.01, 1.5, 200.0, 1.2, 1.1, 1.0, 1e-9)
        assert not bad.ordering_ok()
