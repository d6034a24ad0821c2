"""Tests for the scalar-field entropy integrals, squeezed bounds and flows."""

import math

import numpy as np
import pytest

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
    exact_entropy_cone,
    exact_entropy_wedge,
    modular_flow_point,
    squeeze_sweep,
    tau0,
)
from modlab.quadrature import integrate_1d


def interior_wedge_data(d, mass):
    if d == 1:
        return InitialData((BumpFunction((2.0,), (1.0,)),),
                           (BumpFunction((1.8,), (0.8,), 0.5),), 1, mass)
    return InitialData((BumpFunction((1.5, 0.3), (0.8, 0.9)),),
                       (BumpFunction((1.4, -0.2), (0.7, 0.8), 0.7),), 2, mass)


def boundary_wedge_data(d, mass):
    if d == 1:
        return InitialData((BumpFunction((0.0,), (1.0,)),),
                           (BumpFunction((0.2,), (0.6,), 0.5),), 1, mass)
    return InitialData((BumpFunction((0.0, 0.0), (0.9, 1.0)),), (), 2, mass)


def central_cone_data(width):
    return InitialData((BumpFunction((0.0, 0.0, 0.0), (width,) * 3),), (), 3, 0.0)


def field_energy(g):
    """int |grad g0|^2 + m^2 g0^2 + g1^2 over R^d via the section machinery."""
    from modlab.field import _data_splits, _wedge_sections

    def integ(x1):
        s = _wedge_sections(g, x1, DEFAULT_QUAD)
        return s["C"] + s["P"] + g.mass ** 2 * s["A"] + s["Q"]

    box = g.support_box()
    return integrate_1d(integ, box[0][0], box[0][1], splits=_data_splits(g),
                        order=12, rel_tol=1e-10).value


class TestBumpFunction:
    def test_peak_and_support(self):
        b = BumpFunction((1.0, 0.0), (0.5, 2.0), amplitude=3.0)
        pts = np.array([[1.0, 0.0], [1.5, 0.0], [1.6, 0.0]])
        vals = b.value(pts)
        assert vals[0] == pytest.approx(3.0)
        assert vals[1] == 0.0 and vals[2] == 0.0

    def test_gradient_matches_finite_differences(self):
        b = BumpFunction((0.5, -0.3), (0.8, 1.1), amplitude=-1.7)
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-0.2, 1.2, 40), rng.uniform(-1.3, 0.7, 40)])
        grad = b.gradient(pts)
        eps = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (b.value(pts + shift) - b.value(pts - shift)) / (2 * eps)
            assert np.max(np.abs(fd - grad[:, axis])) <= 1e-6

    def test_fused_value_and_gradient(self):
        b = BumpFunction((0.5, -0.25, 1.0), (0.5, 1.0, 2.0), amplitude=-1.7)
        boundary = np.array([[1.0, -0.25, 1.0], [0.5, 0.75, 1.0], [0.5, -0.25, -1.0]])
        inside = np.array([[0.5, -0.25, 1.0], [0.7, 0.1, 0.2], [0.3, -0.5, 1.5]])
        outside = np.array([[1.2, -0.25, 1.0], [3.0, 3.0, 3.0]])
        pts = np.concatenate([boundary, inside, outside])
        value, grad = b.value_and_gradient(pts)
        assert np.array_equal(value, b.value(pts))
        assert np.array_equal(grad, b.gradient(pts))
        assert np.all(value[[0, 1, 2, 6, 7]] == 0.0) and np.all(grad[[0, 1, 2, 6, 7]] == 0.0)
        # the written-out formula, per point
        for p, v, gr in zip(pts[3:6], value[3:6], grad[3:6]):
            z = (p - np.array(b.center)) / np.array(b.width)
            q = 1.0 - float(z @ z)
            ref = -1.7 * math.exp(1.0 - 1.0 / q)
            assert v == pytest.approx(ref, rel=1e-14)
            assert gr == pytest.approx(-2.0 * ref / q ** 2 * z / np.array(b.width), rel=1e-13)

    def test_invalid_width(self):
        with pytest.raises(DimensionMismatch):
            BumpFunction((0.0,), (0.0,))


class TestExactWedge:
    def test_zero_data(self):
        assert exact_entropy_wedge(InitialData((), (), 1, 0.0)).value == 0.0

    def test_refined_quadrature_oracle_d1(self):
        g = InitialData((BumpFunction((2.0,), (1.0,)),), (), 1, 0.0)
        h = exact_entropy_wedge(g)
        h_ref = exact_entropy_wedge(g, DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-8 * h_ref.value
        assert h.value > 0.0

    def test_refined_quadrature_oracle_d2(self):
        g = interior_wedge_data(2, 1.0)
        h = exact_entropy_wedge(g)
        h_ref = exact_entropy_wedge(g, DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-6 * h_ref.value

    def test_translation_invariance_perpendicular(self):
        g = interior_wedge_data(2, 1.0)
        shifted = InitialData(
            tuple(BumpFunction((b.center[0], b.center[1] + 5.0), b.width, b.amplitude)
                  for b in g.g0),
            tuple(BumpFunction((b.center[0], b.center[1] + 5.0), b.width, b.amplitude)
                  for b in g.g1),
            2, g.mass)
        h0 = exact_entropy_wedge(g)
        h1 = exact_entropy_wedge(shifted)
        assert abs(h0.value - h1.value) <= 1e-9 * h0.value

    def test_only_positive_half_space_counts(self):
        # data strictly in the left half space contributes nothing
        g = InitialData((BumpFunction((-3.0,), (1.0,)),), (), 1, 0.0)
        assert exact_entropy_wedge(g).value == 0.0


class TestExactCone:
    def test_zero_data(self):
        assert exact_entropy_cone(InitialData((), (), 3, 0.0), 1.0).value == 0.0

    def test_mass_rejected(self):
        g = InitialData((BumpFunction((0.0,), (0.5,)),), (), 1, 0.5)
        with pytest.raises(MassNotZero):
            exact_entropy_cone(g, 1.0)

    def test_d1_has_no_curvature_term(self):
        # in one dimension the exact value is the pure weighted energy integral
        g = InitialData((BumpFunction((0.3,), (0.4,)),), (), 1, 0.0)
        r = 1.0
        h = exact_entropy_cone(g, r)

        def weighted(x):
            pts = x[:, None]
            grad = g.g0_value_and_gradient(pts)[1][:, 0]
            return (r * r - x * x) / (2 * r) * grad * grad

        ref = integrate_1d(weighted, -0.7, 0.7, splits=[-0.1, 0.3], order=16,
                           rel_tol=1e-12).value
        assert h.value == pytest.approx(0.5 * math.pi * ref, rel=1e-9)

    def test_refined_quadrature_oracle_d3(self):
        g = central_cone_data(0.5)
        h = exact_entropy_cone(g, 1.0)
        h_ref = exact_entropy_cone(g, 1.0, DEFAULT_QUAD.refined())
        assert abs(h.value - h_ref.value) <= 1e-7 * h_ref.value
        assert h.value > 0.0


class TestEntropyBound:
    def test_zero_data(self):
        g = InitialData((), (), 1, 0.0)
        prof = eta_st(1.5, 20)
        assert entropy_bound(g, Wedge(), "upper", prof, 0.01).value == 0.0
        assert entropy_bound(g, Wedge(), "lower", prof, 0.01).value == 0.0

    def test_interior_closed_form_and_gap(self):
        # with the cutoff identically 1 on the support, the bounds are the
        # exact integrals with shifted weights and the gap is linear in eps
        g = interior_wedge_data(1, 1.0)
        prof = eta_st(1.5, 200)
        eps = 0.01
        h = exact_entropy_wedge(g)
        hp = entropy_bound(g, Wedge(), "upper", prof, eps)
        hm = entropy_bound(g, Wedge(), "lower", prof, eps)
        gap = hp.value - hm.value
        expected = 4.0 * eps * 0.5 * math.pi * field_energy(g)
        assert abs(gap - expected) <= 1e-6 * expected
        assert hm.value <= h.value <= hp.value

    def test_interior_bounds_equal_shifted_weight_integrals(self):
        # cutoff consistency: with eta = 1 on supp g the bound is the exact
        # integral with the shifted weight x^1 +- 2 eps in place of x^1
        g = interior_wedge_data(1, 1.0)
        prof = eta_st(1.5, 200)
        eps = 0.01
        from modlab.field import _data_splits, _wedge_sections

        def weighted(sign):
            def integ(x1):
                s = _wedge_sections(g, x1, DEFAULT_QUAD)
                return (x1 + sign * 2 * eps) * (s["C"] + s["P"] + s["A"] + s["Q"])
            box = g.support_box()
            return 0.5 * math.pi * integrate_1d(integ, box[0][0], box[0][1],
                                                splits=_data_splits(g), order=12,
                                                rel_tol=1e-11).value

        hp = entropy_bound(g, Wedge(), "upper", prof, eps)
        hm = entropy_bound(g, Wedge(), "lower", prof, eps)
        assert hp.value == pytest.approx(weighted(+1.0), rel=1e-9)
        assert hm.value == pytest.approx(weighted(-1.0), rel=1e-9)

    def test_positivity_up_to_quadrature_error(self):
        prof = eta_st(1.5, 80)
        for g, reg in ((interior_wedge_data(1, 0.0), Wedge()),
                       (boundary_wedge_data(2, 1.0), Wedge()),
                       (central_cone_data(1.3), Ball(1.0))):
            h = exact_entropy(g, reg)
            assert h.value >= -h.error
            for side in ("upper", "lower"):
                b = entropy_bound(g, reg, side, prof, 0.02)
                # lower bounds may dip below zero only through the negative
                # collar of the signed weight, never below -H_exact scale
                if side == "upper":
                    assert b.value >= -b.error

    def test_interior_gap_linearity_grid(self):
        g = interior_wedge_data(2, 1.0)
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
            (interior_wedge_data(1, 0.0), Wedge()),
            (boundary_wedge_data(1, 1.0), Wedge()),
            (boundary_wedge_data(2, 0.0), Wedge()),
            (central_cone_data(0.5), Ball(1.0)),
            (central_cone_data(1.3), Ball(1.0)),
        ]
        for g, reg in cases:
            h = exact_entropy(g, reg)
            for eps in (0.05, 0.02):
                hp = entropy_bound(g, reg, "upper", prof, eps)
                hm = entropy_bound(g, reg, "lower", prof, eps)
                slack = hp.error + hm.error + h.error
                assert hm.value <= h.value + slack
                assert h.value <= hp.value + slack

    def test_discrete_profile_bounds(self):
        # grid-sampled transitions drive both sides of the squeeze as well
        from modlab.cutoff import DiscreteCutoff
        ref = eta_st(1.5, 50)
        disc = DiscreteCutoff(ref.eta(np.linspace(-1.0, 1.0, 4001)))
        g = interior_wedge_data(1, 0.0)
        h = exact_entropy_wedge(g)
        hp = entropy_bound(g, Wedge(), "upper", disc, 0.01)
        hm = entropy_bound(g, Wedge(), "lower", disc, 0.01)
        assert hm.value <= h.value <= hp.value

    def test_cone_epsilon_guard(self):
        g = central_cone_data(0.5)
        with pytest.raises(GeometryViolation):
            entropy_bound(g, Ball(1.0), "upper", eta_st(1.5, 20), 0.6)

    def test_bad_side(self):
        g = interior_wedge_data(1, 0.0)
        with pytest.raises(GeometryViolation):
            entropy_bound(g, Wedge(), "above", eta_st(1.5, 20), 0.01)


class TestRegions:
    def test_wedge_weight(self):
        pts = np.array([[1.5, 0.0], [-0.2, 3.0]])
        assert np.allclose(Wedge().weight(pts), [1.5, -0.2])
        assert np.allclose(Wedge(offset=1.0).weight(pts), [0.5, -1.2])

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


class TestQuadBudget:
    def test_budget_exceeded(self):
        from modlab.errors import QuadratureBudgetExceeded
        from modlab.field import FieldQuad
        g = interior_wedge_data(2, 1.0)
        tiny = FieldQuad(rel_tol=1e-15, max_panels=2)
        with pytest.raises(QuadratureBudgetExceeded):
            exact_entropy_wedge(g, tiny)


class TestTau0:
    def test_zero_data(self):
        g = InitialData((), (), 2, 0.0)
        assert tau0(g, Wedge())(0.3) == 0.0

    def test_d1_wedge_pointwise(self):
        g = InitialData((BumpFunction((0.5,), (1.0,)),), (), 1, 0.0)
        prof = tau0(g, Wedge())
        for x in (0.0, 0.4, 1.2):
            assert prof(x) == pytest.approx(g.g0_value(np.array([[x]]))[0] ** 2, abs=1e-14)

    def test_fubini_normalization(self):
        g = interior_wedge_data(2, 0.0)
        prof = tau0(g, Wedge())
        lhs = integrate_1d(lambda xs: np.array([prof(x) for x in np.atleast_1d(xs)]),
                           0.7, 2.3, order=16, rel_tol=1e-11).value
        from modlab.field import _data_splits, _wedge_sections
        rhs = integrate_1d(lambda xs: _wedge_sections(g, np.atleast_1d(xs), DEFAULT_QUAD)["A"],
                           0.7, 2.3, splits=_data_splits(g), order=16, rel_tol=1e-11).value
        assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_cone_radial_normalization(self):
        # int tau0(rho) rho^{d-1} drho recovers int g0^2 over R^3
        g = central_cone_data(0.5)
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
        g = interior_wedge_data(1, 0.0)
        assert boundary_term_prediction(g, Wedge(), eta_st(1.5, 40), "upper") == 0.0

    def test_wedge_extrapolation_matches(self):
        g = boundary_wedge_data(1, 0.0)
        prof = eta_st(1.5, 200)
        h = exact_entropy_wedge(g)
        for side in ("upper", "lower"):
            pred = boundary_term_prediction(g, Wedge(), prof, side)
            epss = [0.02, 0.01, 0.005]
            diffs = [entropy_bound(g, Wedge(), side, prof, e).value - h.value
                     for e in epss]
            a = np.vstack([np.ones(3), epss]).T
            coef, *_ = np.linalg.lstsq(a, np.array(diffs), rcond=None)
            assert abs(coef[0] - pred) <= 0.05 * abs(pred)

    def test_prediction_vanishes_as_s_to_one(self):
        # tracks the limit energy 1/log((s+1)/(s-1)), which decays to 0 as s -> 1+
        g = boundary_wedge_data(1, 0.0)
        preds = []
        for s in (2.0, 1.5, 1.2, 1.05):
            t = 300.0 * s / (s - 1.0)
            preds.append(boundary_term_prediction(g, Wedge(), eta_st(s, t), "upper"))
        assert all(b < a for a, b in zip(preds, preds[1:]))
        assert preds[-1] < preds[0] / 3.0


class TestSqueezeSweep:
    def test_empty_schedule(self):
        g = interior_wedge_data(1, 0.0)
        assert squeeze_sweep(g, Wedge(), []) == []

    def test_interior_reaches_small_gap(self):
        g = interior_wedge_data(1, 0.0)
        sched = [(1e-2, 1.8, 40.0), (3e-3, 1.6, 100.0), (1e-3, 1.5, 200.0)]
        recs = squeeze_sweep(g, Wedge(), sched)
        assert all(r.ordering_ok() for r in recs)
        gaps = [r.relative_gap() for r in recs]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02

    def test_boundary_gap_matches_prediction(self):
        g = boundary_wedge_data(1, 0.0)
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
        g = interior_wedge_data(1, 0.0)
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.5, 2.0)])  # t below s/(s-1)
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-3, 1.5, 200.0), (1e-2, 1.5, 200.0)])
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.5, 200.0), (1e-3, 1.8, 200.0)])
        with pytest.raises(ScheduleViolation):
            squeeze_sweep(g, Wedge(), [(1e-2, 1.8, 200.0), (1e-3, 1.5, 100.0)])
        for entry in ((1e-2, 1.0, 40.0), (0.0, 1.8, 40.0), (1e-2, 1.8, math.nan)):
            with pytest.raises(ScheduleViolation):
                squeeze_sweep(g, Wedge(), [entry])


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


class TestRecords:
    def test_ordering_flag(self):
        rec = BoundSweepRecord(0.01, 1.5, 200.0, 1.0, 1.1, 1.2, 1e-9)
        assert rec.ordering_ok()
        assert rec.gap == pytest.approx(0.2)
        bad = BoundSweepRecord(0.01, 1.5, 200.0, 1.2, 1.1, 1.0, 1e-9)
        assert not bad.ordering_ok()
