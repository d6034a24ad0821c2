"""Free scalar field entropy integrals for wedges and double cones.

Exact relative-entropy integrals between displaced vacua, the squeezed
upper/lower bounds built from transition functions on slightly larger and
smaller regions, the boundary-term limits of those bounds, and the geometric
point flows of both regions.

All spatial integrals reduce to a one-dimensional adaptive integral in the
coordinate the weights and cutoffs depend on (the first axis for wedges, the
radius for balls) times smooth cross-section quadratures, with panel splits
seeded at the cutoff's sharp features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cutoff import AnalyticCutoff, energy as cutoff_energy
from .errors import (
    DimensionMismatch,
    FlowSingularity,
    GeometryViolation,
    MassNotZero,
    ScheduleViolation,
)
from .quadrature import QuadResult, gauss_rule, integrate_1d


# --------------------------------------------------------------------------
# smooth compactly supported data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFunction:
    """amplitude * exp(1 - 1/(1 - s^2)) inside the axis-aligned ellipsoid
    s^2 = sum_i ((x_i - c_i)/w_i)^2 < 1, identically zero outside."""

    center: tuple
    width: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        if len(self.center) != len(self.width):
            raise DimensionMismatch("center and width must have equal length")
        if any(w <= 0 for w in self.width):
            raise DimensionMismatch("widths must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "width", tuple(float(w) for w in self.width))

    @property
    def dim(self) -> int:
        return len(self.center)

    def value_and_gradient(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value (...,) and gradient (..., d) at pts (..., d) from one scaled
        radius and one exp; both are exactly zero on and outside s^2 = 1."""
        width = np.array(self.width)
        z = (pts - np.array(self.center)) / width
        s2 = np.einsum("...i,...i->...", z, z)
        inside = s2 < 1.0
        q = np.where(inside, 1.0 - s2, 1.0)
        value = self.amplitude * inside * np.exp(1.0 - 1.0 / q)
        z /= width
        z *= (-2.0 * value / (q * q))[..., None]
        return value, z

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(pts)[0]

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(pts)[1]

    def support_box(self) -> list[tuple[float, float]]:
        return [(c - w, c + w) for c, w in zip(self.center, self.width)]


def _union_box(bumps: Sequence[BumpFunction], dim: int) -> list[tuple[float, float]]:
    if not bumps:
        return [(0.0, 0.0)] * dim
    los = [min(b.support_box()[i][0] for b in bumps) for i in range(dim)]
    his = [max(b.support_box()[i][1] for b in bumps) for i in range(dim)]
    return list(zip(los, his))


@dataclass(frozen=True)
class InitialData:
    """Pair (g0, g1) of bump sums on R^d with the field mass."""

    g0: tuple
    g1: tuple
    dimension: int
    mass: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise DimensionMismatch("dimension must be 1, 2 or 3")
        if self.mass < 0:
            raise DimensionMismatch("mass must be nonnegative")
        for b in tuple(self.g0) + tuple(self.g1):
            if b.dim != self.dimension:
                raise DimensionMismatch("bump dimension does not match the data")
        object.__setattr__(self, "g0", tuple(self.g0))
        object.__setattr__(self, "g1", tuple(self.g1))

    def g0_value(self, pts):
        return sum((b.value(pts) for b in self.g0), np.zeros(pts.shape[:-1]))

    def g0_value_and_gradient(self, pts):
        value, grad = np.zeros(pts.shape[:-1]), np.zeros_like(pts)
        for b in self.g0:
            v, gr = b.value_and_gradient(pts)
            value += v
            grad += gr
        return value, grad

    def g1_value(self, pts):
        return sum((b.value(pts) for b in self.g1), np.zeros(pts.shape[:-1]))

    def support_box(self) -> list[tuple[float, float]]:
        return _union_box(self.g0 + self.g1, self.dimension)

    def is_zero(self) -> bool:
        return not (self.g0 or self.g1)


# --------------------------------------------------------------------------
# regions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """Half-space base {x^1 > offset}; weight x^1 - offset."""

    offset: float = 0.0

    def weight(self, pts: np.ndarray) -> np.ndarray:
        return pts[..., 0] - self.offset


@dataclass(frozen=True)
class Ball:
    """Ball base of the double cone; weight (r^2 - |x|^2)/(2r), positive inside."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryViolation("ball radius must be positive")

    def weight(self, pts: np.ndarray) -> np.ndarray:
        return (self.radius ** 2 - np.sum(pts * pts, axis=-1)) / (2.0 * self.radius)


Region = Wedge | Ball


@dataclass(frozen=True)
class FieldQuad:
    """Resolution knobs for the field integrals."""

    outer_order: int = 12
    cross_order: int = 24
    n_phi: int = 32
    n_mu: int = 16
    rel_tol: float = 1e-10
    max_panels: int = 20000

    def refined(self, factor: int = 2) -> "FieldQuad":
        return FieldQuad(self.outer_order + 4, self.cross_order * factor,
                         self.n_phi * factor, self.n_mu * factor,
                         self.rel_tol * 1e-2, self.max_panels * 2)


DEFAULT_QUAD = FieldQuad()


# --------------------------------------------------------------------------
# cross-section machinery
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _composite01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [0, 1]: 4 panels of the given order."""
    nodes, weights = gauss_rule(order)
    xs, ws = [], []
    for k in range(4):
        xs.append((k + 0.5 * (nodes + 1.0)) / 4)
        ws.append(0.5 * weights / 4)
    return np.concatenate(xs), np.concatenate(ws)


def _slice_bounds(bumps: Sequence[BumpFunction], x1: np.ndarray,
                  axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Support interval of a bump sum on a perpendicular axis at each x1 slice."""
    lo = np.full(x1.shape, np.inf)
    hi = np.full(x1.shape, -np.inf)
    for b in bumps:
        q = ((x1 - b.center[0]) / b.width[0]) ** 2
        active = q < 1.0
        half = np.zeros_like(x1)
        half[active] = b.width[axis] * np.sqrt(1.0 - q[active])
        lo[active] = np.minimum(lo[active], b.center[axis] - half[active])
        hi[active] = np.maximum(hi[active], b.center[axis] + half[active])
    empty = ~(hi > lo)
    lo[empty], hi[empty] = 0.0, 0.0
    return lo, hi


def _slice_grid(bumps: Sequence[BumpFunction], x1: np.ndarray, d: int,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice quadrature points (n_x, n_p, d) and weights (n_x, n_p) over
    the bump sum's own perpendicular support, composite Gauss per axis."""
    nodes01, w01 = _composite01(order // 2 + 4)
    n_x, k = x1.size, nodes01.size
    per_axis_pts, per_axis_w = [], []
    for axis in range(1, d):
        lo, hi = _slice_bounds(bumps, x1, axis)
        span = (hi - lo)[:, None]
        per_axis_pts.append(lo[:, None] + span * nodes01)
        per_axis_w.append(span * w01)
    if d == 2:
        pts = np.empty((n_x, k, 2))
        pts[:, :, 0] = x1[:, None]
        pts[:, :, 1] = per_axis_pts[0]
        return pts, per_axis_w[0]
    pts = np.empty((n_x, k * k, 3))
    pts[:, :, 0] = x1[:, None]
    pts[:, :, 1] = np.repeat(per_axis_pts[0], k, axis=1)
    pts[:, :, 2] = np.tile(per_axis_pts[1], (1, k))
    w = np.repeat(per_axis_w[0], k, axis=1) * np.tile(per_axis_w[1], (1, k))
    return pts, w


def _wedge_sections(g: InitialData, x1: np.ndarray, quad: FieldQuad) -> dict:
    """Cross-section integrals over the perpendicular coordinates at each x1.

    Returns A = int g0^2, B = int g0 d1g0, C = int (d1 g0)^2,
    P = int |grad_perp g0|^2, Q = int g1^2.  The g0 terms and the g1 term are
    integrated over their own per-slice supports so neither sees the other's
    dead zone.
    """
    d = g.dimension
    x1 = np.asarray(x1, dtype=float)
    n_x = x1.size
    if d == 1:
        pts = x1[:, None]
        g0, grad = g.g0_value_and_gradient(pts)
        d1 = grad[:, 0]
        g1 = g.g1_value(pts)
        return {"A": g0 * g0, "B": g0 * d1, "C": d1 * d1,
                "P": np.zeros_like(g0), "Q": g1 * g1}
    zeros = np.zeros(n_x)
    out = {"A": zeros.copy(), "B": zeros.copy(), "C": zeros.copy(),
           "P": zeros.copy(), "Q": zeros.copy()}
    if g.g0:
        pts, w = _slice_grid(g.g0, x1, d, quad.cross_order)
        flat = pts.reshape(-1, d)
        n_p = w.shape[1]
        g0, grad = g.g0_value_and_gradient(flat)
        g0 = g0.reshape(n_x, n_p)
        grad = grad.reshape(n_x, n_p, d)
        d1 = grad[:, :, 0]
        perp = grad[:, :, 1:]
        perp_sq = np.einsum("xpi,xpi->xp", perp, perp)
        out["A"] = np.sum(g0 * g0 * w, axis=1)
        out["B"] = np.sum(g0 * d1 * w, axis=1)
        out["C"] = np.sum(d1 * d1 * w, axis=1)
        out["P"] = np.sum(perp_sq * w, axis=1)
    if g.g1:
        pts, w = _slice_grid(g.g1, x1, d, quad.cross_order)
        flat = pts.reshape(-1, d)
        n_p = w.shape[1]
        g1 = g.g1_value(flat).reshape(n_x, n_p)
        out["Q"] = np.sum(g1 * g1 * w, axis=1)
    return out


@lru_cache(maxsize=None)
def _sphere_rule(d: int, n_mu: int, n_phi: int):
    """Quadrature (directions, weights) for the unit sphere S^{d-1}."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        ang = 2.0 * math.pi * np.arange(n_phi) / n_phi
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return dirs, np.full(n_phi, 2.0 * math.pi / n_phi)
    if d == 3:
        mu, w_mu = gauss_rule(n_mu)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        mu_g, phi_g = np.meshgrid(mu, phi, indexing="ij")
        sin_t = np.sqrt(1.0 - mu_g ** 2)
        dirs = np.stack([sin_t * np.cos(phi_g), sin_t * np.sin(phi_g), mu_g],
                        axis=-1).reshape(-1, 3)
        w = (w_mu[:, None] * np.full((n_mu, n_phi), 2.0 * math.pi / n_phi)).ravel()
        return dirs, w
    raise DimensionMismatch(f"no sphere rule for dimension {d}")


def _cone_sections(g: InitialData, rho: np.ndarray, quad: FieldQuad) -> dict:
    """Angular integrals over S^{d-1} at each radius.

    Returns A = int g0^2, B = int g0 (xhat . grad g0), C = int |grad g0|^2,
    Q = int g1^2 (surface measure, no rho^{d-1} factor).
    """
    dirs, w = _sphere_rule(g.dimension, quad.n_mu, quad.n_phi)
    pts = rho[:, None, None] * dirs[None, :, :]
    flat = pts.reshape(-1, g.dimension)
    n_r, n_s = rho.size, w.size
    g0, grad = g.g0_value_and_gradient(flat)
    g0 = g0.reshape(n_r, n_s)
    grad = grad.reshape(n_r, n_s, g.dimension)
    g1 = g.g1_value(flat).reshape(n_r, n_s)
    radial = np.einsum("rsi,si->rs", grad, dirs)
    return {
        "A": (g0 * g0) @ w,
        "B": (g0 * radial) @ w,
        "C": np.einsum("rsi,rsi->rs", grad, grad) @ w,
        "Q": (g1 * g1) @ w,
    }


def _data_splits(g: InitialData, axis: int = 0) -> list[float]:
    pts = []
    for b in g.g0 + g.g1:
        lo, hi = b.support_box()[axis]
        pts.extend((lo, hi, b.center[axis]))
    return pts


def _radial_splits(g: InitialData) -> list[float]:
    pts = []
    for b in g.g0 + g.g1:
        c = np.array(b.center)
        rad = np.linalg.norm(b.width)
        dist = np.linalg.norm(c)
        pts.extend((max(dist - rad, 0.0), dist, dist + rad))
    return pts


# --------------------------------------------------------------------------
# exact entropy integrals
# --------------------------------------------------------------------------

def exact_entropy_wedge(g: InitialData, quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """(pi/2) int_{x^1 > 0} x^1 (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x."""
    if g.is_zero():
        return QuadResult(0.0, 0.0)
    box = g.support_box()
    lo, hi = max(box[0][0], 0.0), box[0][1]
    if hi <= lo:
        return QuadResult(0.0, 0.0)
    m2 = g.mass ** 2

    def integrand(x1):
        s = _wedge_sections(g, x1, quad)
        return x1 * (s["C"] + s["P"] + m2 * s["A"] + s["Q"])

    res = integrate_1d(integrand, lo, hi, splits=_data_splits(g),
                       order=quad.outer_order, rel_tol=quad.rel_tol,
                       max_panels=quad.max_panels)
    return QuadResult(0.5 * math.pi * res.value, 0.5 * math.pi * res.error)


def exact_entropy_cone(g: InitialData, r: float,
                       quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """(pi/2) int_B [beta (|grad g0|^2 + g1^2) + (d-1)/(2r) g0^2] for massless data."""
    if g.mass != 0.0:
        raise MassNotZero("the ball weight only generates the massless flow")
    if r <= 0:
        raise GeometryViolation("radius must be positive")
    if g.is_zero():
        return QuadResult(0.0, 0.0)
    box = g.support_box()
    # largest radius the data can reach
    reach = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in box))
    rho_max = min(r, reach)
    if rho_max <= 0:
        return QuadResult(0.0, 0.0)
    d = g.dimension

    def integrand(rho):
        s = _cone_sections(g, rho, quad)
        beta = (r * r - rho * rho) / (2.0 * r)
        out = beta * (s["C"] + s["Q"])
        if d > 1:
            out = out + (d - 1) / (2.0 * r) * s["A"]
        return rho ** (d - 1) * out

    res = integrate_1d(integrand, 0.0, rho_max, splits=_radial_splits(g),
                       order=quad.outer_order, rel_tol=quad.rel_tol,
                       max_panels=quad.max_panels)
    return QuadResult(0.5 * math.pi * res.value, 0.5 * math.pi * res.error)


def exact_entropy(g: InitialData, region: Region,
                  quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    if isinstance(region, Wedge):
        if region.offset != 0.0:
            raise GeometryViolation("exact wedge integral is for the offset-0 wedge")
        return exact_entropy_wedge(g, quad)
    return exact_entropy_cone(g, region.radius, quad)


# --------------------------------------------------------------------------
# squeezed bounds
# --------------------------------------------------------------------------

def _cutoff_on_axis(cutoff, side: str):
    """eta and eta' as functions of the transition variable u in [-1, 1] with
    the side-dependent shift; the lower side uses the reflected profile."""
    if side == "upper":
        prof = cutoff
        shift = +1.0
    elif side == "lower":
        prof = cutoff.reflected()
        shift = -1.0
    else:
        raise GeometryViolation(f"side must be 'upper' or 'lower', got {side!r}")
    return prof, shift, prof.feature_points()


def entropy_bound(g: InitialData, region: Region, side: str, cutoff,
                  epsilon: float, quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """Upper or lower squeezed bound on the exact entropy of the middle region.

    Wedges use half-space offsets -+2*epsilon, cones radii r +- 2*epsilon; the
    transition runs inside the 2*epsilon collar, so the bound evaluates
    (pi/2) int beta_pm [ (grad(eta_pm g0))^2 + m^2 (eta_pm g0)^2 + (eta_pm g1)^2 ]
    plus the curvature term for cones.
    """
    if epsilon <= 0:
        raise GeometryViolation("epsilon must be positive")
    if g.is_zero():
        return QuadResult(0.0, 0.0)
    prof, shift, features = _cutoff_on_axis(cutoff, side)
    sign = +1.0 if side == "upper" else -1.0

    if isinstance(region, Wedge):
        if region.offset != 0.0:
            raise GeometryViolation("bounds are set up around the offset-0 wedge")
        box = g.support_box()
        lo = max(box[0][0], -2.0 * epsilon if side == "upper" else 0.0)
        hi = box[0][1]
        if hi <= lo:
            return QuadResult(0.0, 0.0)
        m2 = g.mass ** 2

        # transition variable u = x1/eps + 1 (upper) or x1/eps - 1 (lower)
        def integrand(x1):
            u = x1 / epsilon + shift
            eta, etap = prof.eta_and_prime(u)
            etap = etap / epsilon
            s = _wedge_sections(g, x1, quad)
            beta = x1 + sign * 2.0 * epsilon
            dens = (etap * etap * s["A"] + 2.0 * eta * etap * s["B"]
                    + eta * eta * (s["C"] + s["P"] + m2 * s["A"] + s["Q"]))
            return beta * dens

        splits = _data_splits(g)
        for p in features:
            x_img = epsilon * (p - shift)
            splits.extend(_graded(x_img, epsilon, cutoff))
        res = integrate_1d(integrand, lo, hi, splits=splits,
                           order=quad.outer_order, rel_tol=quad.rel_tol,
                           max_panels=quad.max_panels)
        return QuadResult(0.5 * math.pi * res.value, 0.5 * math.pi * res.error)

    # ball / double cone
    r = region.radius
    if g.mass != 0.0:
        raise MassNotZero("cone bounds require massless data")
    if not epsilon < r / 2.0:
        raise GeometryViolation("need epsilon < r/2 so the inner ball survives")
    r_pm = r + sign * 2.0 * epsilon
    box = g.support_box()
    reach = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in box))
    rho_max = min(r_pm if side == "upper" else r, reach)
    if rho_max <= 0:
        return QuadResult(0.0, 0.0)
    d = g.dimension

    def integrand(rho):
        u = (r - rho) / epsilon + shift
        eta, etap = prof.eta_and_prime(u)
        etap = -etap / epsilon  # d/drho of eta((r - rho)/eps + shift)
        s = _cone_sections(g, rho, quad)
        beta = (r_pm * r_pm - rho * rho) / (2.0 * r_pm)
        dens = (etap * etap * s["A"] + 2.0 * eta * etap * s["B"]
                + eta * eta * (s["C"] + s["Q"]))
        out = beta * dens
        if d > 1:
            out = out + (d - 1) / (2.0 * r_pm) * eta * eta * s["A"]
        return rho ** (d - 1) * out

    splits = _radial_splits(g)
    for p in features:
        rho_img = r - epsilon * (p - shift)
        splits.extend(_graded(rho_img, epsilon, cutoff))
    res = integrate_1d(integrand, 0.0, rho_max, splits=splits,
                       order=quad.outer_order, rel_tol=quad.rel_tol,
                       max_panels=quad.max_panels)
    return QuadResult(0.5 * math.pi * res.value, 0.5 * math.pi * res.error)


def _graded(center: float, epsilon: float, cutoff) -> list[float]:
    """Panel edges geometrically accumulating at a mollified jump image."""
    t = getattr(cutoff, "t", None)
    width = epsilon / t if t else epsilon / 16.0
    pts = [center]
    for k in range(7):
        h = width * 2.0 ** k
        pts.extend((center - h, center + h))
    return pts


# --------------------------------------------------------------------------
# boundary profiles and predictions
# --------------------------------------------------------------------------

def tau0(g: InitialData, geometry: Region,
         quad: FieldQuad = DEFAULT_QUAD) -> Callable[[float], float]:
    """Squared-g0 profile transverse to the region boundary.

    For wedges, x1 -> int g0^2 over the remaining coordinates; for balls,
    rho -> int_{S^{d-1}} g0^2 (surface measure, no radial Jacobian).
    """
    if isinstance(geometry, Wedge):
        def profile(x1: float) -> float:
            return float(_wedge_sections(g, np.atleast_1d(float(x1)), quad)["A"][0])
        return profile

    def profile(rho: float) -> float:
        return float(_cone_sections(g, np.atleast_1d(float(rho)), quad)["A"][0])
    return profile


def boundary_term_prediction(g: InitialData, geometry: Region, cutoff,
                             side: str, quad: FieldQuad = DEFAULT_QUAD) -> float:
    """Squeeze-limit of (bound - exact): +-(pi/2) tau0(edge) [r^{d-1}] E[cutoff].

    The lower side uses the reflected profile, whose boundary integral equals
    the energy of the base profile, so the two sides differ only in sign.
    """
    if side not in ("upper", "lower"):
        raise GeometryViolation(f"side must be 'upper' or 'lower', got {side!r}")
    sign = +1.0 if side == "upper" else -1.0
    e = cutoff_energy(cutoff)
    if isinstance(geometry, Wedge):
        tau_edge = tau0(g, geometry, quad)(0.0)
        return sign * 0.5 * math.pi * tau_edge * e
    r = geometry.radius
    tau_edge = tau0(g, geometry, quad)(r)
    return sign * 0.5 * math.pi * tau_edge * r ** (g.dimension - 1) * e


# --------------------------------------------------------------------------
# squeeze sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSweepRecord:
    epsilon: float
    s: float
    t: float
    h_minus: float
    h_exact: float
    h_plus: float
    quad_error_estimate: float

    @property
    def gap(self) -> float:
        return self.h_plus - self.h_minus

    def relative_gap(self) -> float:
        return self.gap / max(self.h_exact, 1e-12)

    def ordering_ok(self) -> bool:
        slack = self.quad_error_estimate
        return (self.h_minus <= self.h_exact + slack
                and self.h_exact <= self.h_plus + slack)


def check_schedule(schedule: Sequence[tuple[float, float, float]]) -> None:
    """Raise ScheduleViolation unless the schedule squeezes: finite entries,
    epsilon > 0 non-increasing, s > 1 non-increasing toward 1, t
    non-decreasing, and always t >= s/(s-1)."""
    for eps, s, t in schedule:
        if not all(math.isfinite(v) for v in (eps, s, t)):
            raise ScheduleViolation(f"entry ({eps}, {s}, {t}) is not finite")
        if eps <= 0.0:
            raise ScheduleViolation(f"epsilon = {eps} must be positive")
        if s <= 1.0:
            raise ScheduleViolation(f"s = {s} must exceed 1 at epsilon = {eps}")
        if t < s / (s - 1.0):
            raise ScheduleViolation(
                f"t = {t} below s/(s-1) = {s / (s - 1.0):.6g} at epsilon = {eps}")
    eps_seq = [e for e, _, _ in schedule]
    s_seq = [s for _, s, _ in schedule]
    t_seq = [t for _, _, t in schedule]
    if eps_seq != sorted(eps_seq, reverse=True):
        raise ScheduleViolation("epsilon must be non-increasing")
    if s_seq != sorted(s_seq, reverse=True):
        raise ScheduleViolation("s must be non-increasing")
    if t_seq != sorted(t_seq):
        raise ScheduleViolation("t must be non-decreasing")


def squeeze_sweep(g: InitialData, region: Region,
                  schedule: Sequence[tuple[float, float, float]],
                  quad: FieldQuad = DEFAULT_QUAD) -> list[BoundSweepRecord]:
    """Evaluate (H-, H_exact, H+) along a schedule of (epsilon, s, t) that
    passes `check_schedule`."""
    schedule = list(schedule)
    if not schedule:
        return []
    check_schedule(schedule)
    h_exact = exact_entropy(g, region, quad)
    records = []
    for eps, s, t in schedule:
        prof = AnalyticCutoff(s, t)
        h_minus = entropy_bound(g, region, "lower", prof, eps, quad)
        h_plus = entropy_bound(g, region, "upper", prof, eps, quad)
        err = h_exact.error + h_minus.error + h_plus.error
        records.append(BoundSweepRecord(eps, s, t, h_minus.value, h_exact.value,
                                        h_plus.value, err))
    return records


# --------------------------------------------------------------------------
# geometric point flows
# --------------------------------------------------------------------------

def modular_flow_point(geometry: Region, s: float, x) -> tuple[np.ndarray, float]:
    """Flow a spacetime point (x^0, vec x) by parameter s; returns the mapped
    point and the solution-scaling factor (1 for wedges, N^{(1-d)/2} for cones).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DimensionMismatch("spacetime point needs a time and >= 1 space component")
    if isinstance(geometry, Wedge):
        ch, sh = math.cosh(s), math.sinh(s)
        out = x.copy()
        out[0] = x[0] * ch + x[1] * sh
        out[1] = x[0] * sh + x[1] * ch
        return out, 1.0
    r = geometry.radius
    d = x.size - 1
    x0 = x[0]
    xsq = -x0 * x0 + float(np.sum(x[1:] ** 2))
    ch, sh = math.cosh(s), math.sinh(s)
    n = (x0 / r) * sh + (r * r - xsq) / (2.0 * r * r) * ch + (r * r + xsq) / (2.0 * r * r)
    if n <= 0.0:
        raise FlowSingularity(f"conformal factor N = {n:.3e} not positive")
    out = np.empty_like(x)
    out[0] = (x0 * ch + (r * r - xsq) / (2.0 * r) * sh) / n
    out[1:] = x[1:] / n
    return out, n ** ((1 - d) / 2.0)
