"""Free scalar field entropy integrals for wedges and double cones.

Exact relative-entropy integrals between displaced vacua, the squeezed
upper/lower bounds built from transition functions on slightly larger and
smaller regions, the boundary-term limits of those bounds, and the geometric
point flows of both regions.  Exact entropies and bounds are one weighted
integral: the exact entropy is the bound integral with eta = 1 on the region
itself.  Both bounds use one transition eta; the lower bound evaluates it at
the mirrored transition variable, eta_-(u) = 1 - eta(-u).

All spatial integrals reduce to a one-dimensional adaptive integral in the
coordinate the weights and cutoffs depend on (the first axis for wedges, the
radius for balls) times smooth cross-section quadratures, with panel splits
seeded at the cutoff's sharp features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from .cutoff import AnalyticCutoff, check_transition, energy as cutoff_energy
from .errors import (
    DimensionMismatch,
    FlowSingularity,
    GeometryViolation,
    MassNotZero,
    ParameterViolation,
    ScheduleViolation,
)
from .quadrature import QuadResult, blocks, gauss_rule, integrate_1d


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

    def profile(self, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value v = amplitude * exp(1 - 1/q) and factor f = -2 v / q^2, q = 1 - s^2,
        at scaled squared radii s2, so that grad = f (x - c)/w^2; both are
        exactly zero on and outside s^2 = 1."""
        inside = s2 < 1.0
        q = np.where(inside, 1.0 - s2, 1.0)
        value = self.amplitude * inside * np.exp(1.0 - 1.0 / q)
        return value, -2.0 * value / (q * q)

    def support_box(self) -> list[tuple[float, float]]:
        return [(c - w, c + w) for c, w in zip(self.center, self.width)]


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

    def support_box(self) -> list[tuple[float, float]]:
        """Per-axis hull of the bumps' boxes; the point box at 0 without bumps."""
        boxes = [b.support_box() for b in self.g0 + self.g1] or [[(0.0, 0.0)] * self.dimension]
        return [(min(lo for lo, _ in axis), max(hi for _, hi in axis)) for axis in zip(*boxes)]


# --------------------------------------------------------------------------
# regions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """Half-space base {x^1 > 0}; weight x^1."""

    def weight(self, pts: np.ndarray) -> np.ndarray:
        return pts[..., 0]


@dataclass(frozen=True)
class Ball:
    """Ball base of the double cone; weight (r^2 - |x|^2)/(2r), positive inside."""

    radius: float

    def __post_init__(self):
        # keeps r^2 in the weight and the curvature 1/(2r) finite
        if not 1e-100 <= self.radius <= 1e100:
            raise GeometryViolation(f"ball radius {self.radius!r} must lie in [1e-100, 1e100]")

    def weight(self, pts: np.ndarray) -> np.ndarray:
        return (self.radius * self.radius - np.sum(pts * pts, axis=-1)) / (2.0 * self.radius)


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
def _composite01(cross_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [0, 1]: 4 panels of order cross_order // 2 + 4."""
    nodes, weights = gauss_rule(cross_order // 2 + 4)
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
                cross_order: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis coordinates and the product weight of a composite Gauss rule
    over the bump sum's own perpendicular support at each x1 slice, shaped to
    broadcast: x1 (n,) and weight 1 for d = 1; x1 (n, 1) and x2 (n, k) for
    d = 2; x1 (n, 1, 1), x2 (n, k, 1) and x3 (n, 1, k) for d = 3."""
    nodes01, w01 = _composite01(cross_order)
    axes, weight = [x1.reshape((-1,) + (1,) * (d - 1))], 1.0
    for axis in range(1, d):
        lo, hi = _slice_bounds(bumps, x1, axis)
        span = (hi - lo)[:, None]
        shape = [-1] + [1] * (d - 1)
        shape[axis] = nodes01.size
        axes.append((lo[:, None] + span * nodes01).reshape(shape))
        weight = weight * (span * w01).reshape(shape)
    return axes, weight


def _on_axes(bumps: Sequence[BumpFunction], axes: list[np.ndarray]):
    """Value and per-axis gradient of a bump sum on broadcasting coordinates."""
    value, grad = 0.0, [0.0] * len(axes)
    for b in bumps:
        z = [(x - c) / w for x, c, w in zip(axes, b.center, b.width)]
        v, f = b.profile(sum(zi * zi for zi in z))
        value = value + v
        grad = [gi + zi / w * f for gi, zi, w in zip(grad, z, b.width)]
    return value, grad


def _wedge_sections(g: InitialData, x1: np.ndarray, quad: FieldQuad) -> dict:
    """Cross-section integrals over the perpendicular coordinates at each x1.

    Returns A = int g0^2, B = int g0 d1g0, C = int (d1 g0)^2,
    P = int |grad_perp g0|^2, Q = int g1^2; for d = 1 there is nothing to
    integrate over and P = 0.  The g0 terms and the g1 term are integrated
    over their own per-slice supports so neither sees the other's dead zone.
    """
    d = g.dimension
    x1 = np.asarray(x1, dtype=float)
    n_x = x1.size

    def integral(f, w):
        return np.add.reduce((f * w).reshape(n_x, -1), axis=1)
    zeros = np.zeros(n_x)
    out = {"A": zeros, "B": zeros, "C": zeros, "P": zeros, "Q": zeros}
    if g.g0:
        axes, w = _slice_grid(g.g0, x1, d, quad.cross_order)
        g0, (d1, *perp) = _on_axes(g.g0, axes)
        out.update(A=integral(g0 * g0, w), B=integral(g0 * d1, w),
                   C=integral(d1 * d1, w),
                   P=integral(sum((p * p for p in perp), np.zeros_like(d1)), w))
    if g.g1:
        axes, w = _slice_grid(g.g1, x1, d, quad.cross_order)
        g1 = _on_axes(g.g1, axes)[0]
        out["Q"] = integral(g1 * g1, w)
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
    Q = int g1^2 (surface measure, no rho^{d-1} factor).  On the ray x = rho u
    a bump's s^2 is (alpha rho - 2 beta) rho + gamma, with alpha = |u/w|^2,
    beta = u.c/w^2 and gamma = |c/w|^2; its gradient f (x - c)/w^2 has radial
    part f (alpha rho - beta), and the dot product of two such gradients is
    again a quadratic in rho, so no point arrays are built.
    """
    dirs, w = _sphere_rule(g.dimension, quad.n_mu, quad.n_phi)
    r, uu = rho[:, None], dirs * dirs

    def on_rays(bumps):
        """Per bump: c, 1/w^2, and on the rays v, f and f (alpha rho - beta)."""
        rays = []
        for b in bumps:
            c, iw2 = np.array(b.center), 1.0 / np.square(b.width)
            alpha, beta = uu @ iw2, dirs @ (c * iw2)
            v, f = b.profile((alpha * r - 2.0 * beta) * r + c @ (c * iw2))
            rays.append((c, iw2, v, f, f * (alpha * r - beta)))
        return rays

    def gradient_product(k, l):
        """grad g_k . grad g_l on the rays, f_k f_l ((a rho - b) rho + c)."""
        (ck, iwk, _, fk, _), (cl, iwl, _, fl, _) = k, l
        iw4 = iwk * iwl
        return fk * fl * (((uu @ iw4) * r - dirs @ ((ck + cl) * iw4)) * r + ck @ (cl * iw4))

    out = dict.fromkeys("ABCQ", np.zeros(rho.size))
    if g.g0:
        rays = on_rays(g.g0)
        g0 = reduce(add, (v for _, _, v, _, _ in rays))
        radial = reduce(add, (dv for *_, dv in rays))
        grad_sq = reduce(add, (gradient_product(k, l) for k in rays for l in rays))
        out.update(A=(g0 * g0) @ w, B=(g0 * radial) @ w, C=grad_sq @ w)
    if g.g1:
        g1 = reduce(add, (v for _, _, v, _, _ in on_rays(g.g1)))
        out["Q"] = (g1 * g1) @ w
    return out


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
# the weighted field integral: exact entropies and squeezed bounds
# --------------------------------------------------------------------------

def _side_sign(side: str) -> float:
    if side not in ("upper", "lower"):
        raise GeometryViolation(f"side must be 'upper' or 'lower', got {side!r}")
    return +1.0 if side == "upper" else -1.0


def _check_collar(region: Region, epsilon: float) -> None:
    """The collar half-width is positive and finite; on a ball of radius r
    the inner ball of radius r - 2 epsilon must survive, so epsilon < r/2."""
    if not 0.0 < epsilon < math.inf:
        raise GeometryViolation(f"epsilon {epsilon!r} must be positive and finite")
    if isinstance(region, Ball) and not epsilon < region.radius / 2.0:
        raise GeometryViolation(f"epsilon {epsilon!r} must be below r/2 = {region.radius / 2!r}")


def _weighted_integral(g: InitialData, region: Region, quad: FieldQuad,
                       cutoff=None, side: str = "upper",
                       epsilon: float = 0.0) -> QuadResult:
    """(pi/2) int beta_V [ (grad(eta g0))^2 + m^2 (eta g0)^2 + (eta g1)^2 ] d^d x,
    plus (d-1)/(2 R_V) (eta g0)^2 in the integrand when V is a ball of radius R_V.

    Without a cutoff, eta = 1 and V is the region itself: the exact entropy.
    With one, V is the half-space x^1 > -+2*epsilon or the radius r +- 2*epsilon
    ball, and eta makes its 0-to-1 transition across the 2*epsilon collar
    between the boundaries of V and the region, as a function of the
    transition variable u = normal (y - edge)/epsilon +- 1; the lower side
    mirrors it, eta_-(u) = 1 - eta(-u), so a feature point p of eta sits at
    u = sign * p.  The integral runs over the larger of the two regions.
    """
    if cutoff is not None:
        _check_collar(region, epsilon)
        sign = _side_sign(side)
    if isinstance(region, Ball) and g.mass != 0.0:
        raise MassNotZero(f"mass {g.mass!r} must be 0: the ball weight only "
                          f"generates the massless flow")

    # without bumps the support box is a point and the integral is exactly 0
    box = g.support_box()
    # outer coordinate y: x^1 on wedges, the radius on balls; the region's
    # boundary sits at y = edge and normal * (y - edge) grows into the region
    if isinstance(region, Wedge):
        # V = {x^1 > shift}, with weight x^1 - shift
        shift = 0.0 if cutoff is None else -sign * 2.0 * epsilon
        sections, splits, edge, normal = _wedge_sections, _data_splits(g), 0.0, 1.0
        width = _composite01(quad.cross_order)[0].size ** (g.dimension - 1)
        lo, hi = max(box[0][0], min(edge, shift)), box[0][1]
        jacobian_power, curvature = 0, 0.0

        def weight(y):
            return y - shift
    else:
        v = region if cutoff is None else Ball(region.radius + sign * 2.0 * epsilon)
        sections, splits, edge, normal = _cone_sections, _radial_splits(g), region.radius, -1.0
        width = _sphere_rule(g.dimension, quad.n_mu, quad.n_phi)[1].size
        reach = math.sqrt(sum(max(abs(a), abs(b)) ** 2 for a, b in box))
        lo, hi = 0.0, min(max(edge, v.radius), reach)
        jacobian_power = g.dimension - 1
        curvature = jacobian_power / (2.0 * v.radius)

        def weight(y):
            return v.weight(y[:, None])
    m2 = g.mass ** 2
    if cutoff is not None:
        for p in cutoff.feature_points():
            splits.extend(_graded(edge + normal * epsilon * (sign * p - sign), epsilon, cutoff))

    def integrand(y):
        if cutoff is None:
            eta, etap = 1.0, 0.0
        else:
            # transition variable u = normal (y - edge)/eps +- 1, mirrored on
            # the lower side: eta_-(u) = 1 - eta(-u), eta_-'(u) = eta'(-u)
            eta, etap = cutoff.eta_and_prime(sign * (normal * (y - edge) / epsilon + sign))
            if sign < 0:
                eta = 1.0 - eta
            etap = normal * etap / epsilon
        # each node expands into `width` floats per section array
        parts = [sections(g, y[b], quad) for b in blocks(y.size, width)]
        s = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        dens = (etap * etap * s["A"] + 2.0 * eta * etap * s["B"]
                + eta * eta * (s["C"] + s.get("P", 0.0) + m2 * s["A"] + s["Q"]))
        out = weight(y) * dens + curvature * eta * eta * s["A"]
        return y ** jacobian_power * out

    res = integrate_1d(integrand, lo, hi, splits=splits, order=quad.outer_order,
                       rel_tol=quad.rel_tol, max_panels=quad.max_panels)
    return QuadResult(0.5 * math.pi * res.value, 0.5 * math.pi * res.error)


def exact_entropy(g: InitialData, region: Region,
                  quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """Wedge: (pi/2) int_{x^1 > 0} x^1 (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x.
    Ball: (pi/2) int_B [beta (|grad g0|^2 + g1^2) + (d-1)/(2r) g0^2] for
    massless data.  Both are the bound integral with eta = 1 on the region."""
    return _weighted_integral(g, region, quad)


def entropy_bound(g: InitialData, region: Region, side: str, cutoff,
                  epsilon: float, quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """Upper or lower squeezed bound on the exact entropy of the middle region.

    Wedges use the half-spaces x^1 > -+2*epsilon, cones radii r +- 2*epsilon; the
    transition runs inside the 2*epsilon collar, so the bound evaluates
    (pi/2) int beta_pm [ (grad(eta_pm g0))^2 + m^2 (eta_pm g0)^2 + (eta_pm g1)^2 ]
    plus the curvature term for cones.
    """
    return _weighted_integral(g, region, quad, cutoff, side, epsilon)


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
    sections = _wedge_sections if isinstance(geometry, Wedge) else _cone_sections

    def profile(y: float) -> float:
        return float(sections(g, np.atleast_1d(float(y)), quad)["A"][0])
    return profile


def boundary_term_prediction(g: InitialData, geometry: Region, cutoff,
                             side: str, quad: FieldQuad = DEFAULT_QUAD) -> float:
    """Squeeze-limit of (bound - exact): +-(pi/2) tau0(edge) [r^{d-1}] E[cutoff].

    The lower side uses the mirrored transition eta_-(u) = 1 - eta(-u); in the
    mirrored variable -u its boundary integral is E[cutoff] again, so the two
    sides differ only in sign.
    """
    sign = _side_sign(side)
    e = cutoff_energy(cutoff)
    edge, scale = ((0.0, 1.0) if isinstance(geometry, Wedge)
                   else (geometry.radius, geometry.radius ** (g.dimension - 1)))
    return sign * 0.5 * math.pi * tau0(g, geometry, quad)(edge) * scale * e


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


def squeeze_sweep(g: InitialData, region: Region,
                  schedule: Sequence[tuple[float, float, float]],
                  quad: FieldQuad = DEFAULT_QUAD) -> list[BoundSweepRecord]:
    """Evaluate (H-, H_exact, H+) along a schedule of (epsilon, s, t) that
    squeezes: each entry a collar (`_check_collar`) and a transition
    (`cutoff.check_transition`) the bounds accept, epsilon and s
    non-increasing, t non-decreasing; else raise ScheduleViolation at once."""
    schedule = list(schedule)
    for eps, s, t in schedule:
        try:
            _check_collar(region, eps)
            check_transition(s, t)
        except (GeometryViolation, ParameterViolation) as exc:
            raise ScheduleViolation(f"entry {eps}:{s}:{t}: {exc}") from exc
    for (e0, s0, t0), (e1, s1, t1) in zip(schedule, schedule[1:]):
        if not (e1 <= e0 and s1 <= s0 and t1 >= t0):
            raise ScheduleViolation(f"entry {e1}:{s1}:{t1} follows {e0}:{s0}:{t0}, but "
                                    f"epsilon and s may not grow and t may not shrink")
    if not schedule:
        return []
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
    if not (math.isfinite(s) and np.all(np.isfinite(x))):
        raise FlowSingularity(f"flow parameter s = {s!r} and point {x.tolist()} must be finite")
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
    if not n > 0.0:
        raise FlowSingularity(f"point {x.tolist()} leaves the flow's domain at s = {s!r}: "
                              f"conformal factor N = {n:.3e} not positive")
    out = np.empty_like(x)
    out[0] = (x0 * ch + (r * r - xsq) / (2.0 * r) * sh) / n
    out[1:] = x[1:] / n
    return out, n ** ((1 - d) / 2.0)
