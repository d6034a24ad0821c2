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
radius for balls) times cross-section quadratures (on balls one exact ray,
since ball data must be radial), with panel splits seeded at
the data's support ends and centres and at the four images of the cutoff's
feature points; the adaptive halving grades the panels towards them.  One
adaptive rule serves a vector of these integrals ("lanes") on shared panels:
the cross-sections are evaluated once per node for all of them, and a squeeze
sweep integrates its exact entropy with the bounds of up to 8 schedule
entries in one call.  Across calls, a one-entry memo keeps the cross-sections
of the most recent data object at every node evaluated so far, so the sweep,
bounds, exact entropy and boundary profile of one workflow evaluate each node
once; each node's sections are summed on their own row, so no bit moves.
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
from .quadrature import MAX_LANES, QuadResult, blocks, gauss_rule, integrate_1d, memo_rows


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
        at scaled squared radii s2, so that grad = f (x - c)/w^2.  q is floored at
        1/800, where exp(1 - 1/q) underflows to 0: both are 0 from s^2 = 1 - 1/800 on."""
        q = np.maximum(1.0 - s2, 1.0 / 800.0)
        value = self.amplitude * np.exp(1.0 - 1.0 / q)
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


@dataclass(frozen=True)
class Ball:
    """Ball base of the double cone; weight (r^2 - |x|^2)/(2r), positive inside."""

    radius: float

    def __post_init__(self):
        # keeps r^2 in the weight and the curvature 1/(2r) finite
        if not 1e-100 <= self.radius <= 1e100:
            raise GeometryViolation(f"ball radius {self.radius!r} must lie in [1e-100, 1e100]")


def _ball_weight(radius, rho: np.ndarray) -> np.ndarray:
    """The ball weight (r^2 - rho^2)/(2r) at radii rho; r may be a column of
    radii, one row per lane."""
    return (radius * radius - rho * rho) / (2.0 * radius)


Region = Wedge | Ball


@dataclass(frozen=True)
class FieldQuad:
    """Resolution knobs for the field integrals.  outer_order is the n of the
    outer rule's G_n/K_{2n+1} panels: of 12, 14 and 16, 16 takes the fewest
    integrand points over a warm squeeze pass; cross_order sets the wedge
    slice rules (ball data take one exact ray)."""

    outer_order: int = 16
    cross_order: int = 24
    rel_tol: float = 1e-10
    max_panels: int = 20000

    def refined(self) -> "FieldQuad":
        return FieldQuad(self.outer_order + 4, self.cross_order * 2,
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
    value = grad = None
    for b in bumps:
        z = [(x - c) / w for x, c, w in zip(axes, b.center, b.width)]
        v, f = b.profile(reduce(add, (zi * zi for zi in z)))
        g = [zi / w * f for zi, w in zip(z, b.width)]
        value, grad = (v, g) if value is None else (value + v, list(map(add, grad, g)))
    return value, grad


def _wedge_sections(g: InitialData, x1: np.ndarray, quad: FieldQuad) -> dict:
    """Cross-section integrals over the perpendicular coordinates at each x1.

    Returns A = int g0^2, B = int g0 d1g0, C = int (d1 g0)^2,
    P = int |grad_perp g0|^2, Q = int g1^2; for d = 1 there is nothing to
    integrate over and P = 0.  The g0 terms and the g1 term are integrated
    over their own per-slice supports so neither sees the other's dead zone.
    Slices go in blocks of BLOCK_ELEMENTS // (nodes per slice).
    """
    d = g.dimension
    x1 = np.asarray(x1, dtype=float)

    def integral(f, w):
        return np.add.reduce((f * w).reshape(x.size, -1), axis=1)
    out = {key: np.zeros(x1.size) for key in "ABCPQ"}
    for blk in blocks(x1.size, _composite01(quad.cross_order)[0].size ** (d - 1)):
        x = x1[blk]
        if g.g0:
            axes, w = _slice_grid(g.g0, x, d, quad.cross_order)
            g0, (d1, *perp) = _on_axes(g.g0, axes)
            terms = {"A": g0 * g0, "B": g0 * d1, "C": d1 * d1}
            if perp:
                terms["P"] = reduce(add, (p * p for p in perp))
            for key, f in terms.items():
                out[key][blk] = integral(f, w)
        if g.g1:
            axes, w = _slice_grid(g.g1, x, d, quad.cross_order)
            g1 = _on_axes(g.g1, axes)[0]
            out["Q"][blk] = integral(g1 * g1, w)
    return out


def _cone_sections(g: InitialData, rho: np.ndarray, quad: FieldQuad) -> dict:
    """Angular integrals over S^{d-1} at each radius of radial data (every bump
    centred at 0 with equal widths, as every cone preset is); other data raise
    GeometryViolation.

    Returns A = int g0^2, B = int g0 (xhat . grad g0), C = int |grad g0|^2,
    Q = int g1^2 (surface measure, no rho^{d-1} factor).  Every ray carries the
    same integrands, so one ray weighted |S^{d-1}| = 2, 2 pi or 4 pi is exact:
    on it a bump of width w has s^2 = rho^2/w^2 and radial gradient f rho/w^2,
    and grad g_k . grad g_l is taken for l <= k, the pairs l < k counted twice.
    Each radius is its own element, so no value depends on the other radii.
    """
    if not all(not any(b.center) and min(b.width) == max(b.width) for b in g.g0 + g.g1):
        raise GeometryViolation("ball data must be radial: every bump centred at the "
                                "origin with equal widths")
    area = (2.0, 2.0 * math.pi, 4.0 * math.pi)[g.dimension - 1]

    def on_ray(bumps):
        """1/w^2, v and f of each bump at the radii rho."""
        iws = [1.0 / (b.width[0] * b.width[0]) for b in bumps]
        return [(iw, *b.profile(iw * rho * rho)) for b, iw in zip(bumps, iws)]

    out = {key: np.zeros(rho.size) for key in "ABCQ"}
    g0s, g1s = on_ray(g.g0), on_ray(g.g1)
    if g0s:
        v = reduce(add, (vk for _, vk, _ in g0s))
        out["A"] = v * v * area
        for k, (iwk, _, fk) in enumerate(g0s):
            out["B"] += v * fk * (area * iwk) * rho
            for l, (iwl, _, fl) in enumerate(g0s[:k + 1]):
                m = 2.0 if l < k else 1.0
                out["C"] += fk * fl * (m * area * (iwk * iwl)) * rho * rho
    if g1s:
        v1 = reduce(add, (vk for _, vk, _ in g1s))
        out["Q"] = v1 * v1 * area
    return out


# The cross-sections of the most recent (section function, data, rule) key:
# the key and its `quadrature.memo_rows` memo, one column per section.  The
# consecutive integrals of one workflow on one data object (a squeeze sweep,
# its bounds, the exact entropy, tau0) evaluate each node once; the next key
# replaces the entry, so nothing outlives the workflow, and the memo starts
# afresh past MEMO_POINTS nodes.  The entry is read and replaced whole, so
# concurrent callers never mix two.
def _reset_section_memo() -> None:
    global _memo
    _memo = (None, np.empty(0), {})


_reset_section_memo()


def _memo_sections(sections, g: InitialData, y: np.ndarray, quad: FieldQuad) -> dict:
    """sections(g, y, quad), each node's row taken from the memo when an earlier
    call with an equal key evaluated that exact float, the other nodes evaluated
    in one call.  Each section sums every node on its own row, so no value
    depends on which nodes share a call, and the memo moves no bit."""
    global _memo
    key = (sections, g, quad)
    held_key, held, columns = _memo
    if held_key != key:
        held, columns = held[:0], {}
    held, columns, at = memo_rows(held, columns, y, lambda nodes: sections(g, nodes, quad))
    _memo = (key, held, columns)
    return {k: c[at] for k, c in columns.items()}


def _data_splits(g: InitialData) -> list[float]:
    pts = []
    for b in g.g0 + g.g1:
        lo, hi = b.support_box()[0]
        pts.extend((lo, hi, b.center[0]))
    return pts


def _radial_splits(g: InitialData) -> list[float]:
    """The support ends of radial data's bumps: each bump's width."""
    return [b.width[0] for b in g.g0 + g.g1]


# --------------------------------------------------------------------------
# the weighted field integral: exact entropies and squeezed bounds
# --------------------------------------------------------------------------

def _side_sign(side: str) -> float:
    if side not in ("upper", "lower"):
        raise GeometryViolation(f"side must be 'upper' or 'lower', got {side!r}")
    return +1.0 if side == "upper" else -1.0


def _check_collar(region: Region, epsilon: float) -> None:
    """The collar half-width lies in [1e-100, 1e100], the range of Ball radii:
    the floor keeps (eta'/epsilon)^2 finite, and the cap the shift 2 epsilon and
    the weighted integrand (near 1e308 they overflowed, and the outer rule ran
    out of panels); on a ball of radius r, epsilon < r/2
    keeps the inner ball, and epsilon >= 1e-6 r the bound within its reported error:
    the rounding of the nodes near r moves it by about 1e-16 r/epsilon."""
    if not 1e-100 <= epsilon <= 1e100:
        raise GeometryViolation(f"epsilon {epsilon!r} must be at least 1e-100 and at most 1e100")
    if isinstance(region, Ball) and not 1e-6 * region.radius <= epsilon < region.radius / 2.0:
        raise GeometryViolation(f"epsilon {epsilon!r} must lie in [1e-6 r, r/2) "
                                f"for r = {region.radius!r}")


def _weighted_integral(g: InitialData, region: Region, quad: FieldQuad,
                       lanes: Sequence[tuple | None]) -> list[QuadResult]:
    """(pi/2) int beta_V [ (grad(eta g0))^2 + m^2 (eta g0)^2 + (eta g1)^2 ] d^d x,
    plus (d-1)/(2 R_V) (eta g0)^2 in the integrand when V is a ball of radius R_V,
    for each lane: None or a (cutoff, side, epsilon).

    A None lane has eta = 1 and V the region itself: the exact entropy.  With a
    cutoff, V is the half-space x^1 > -+2*epsilon or the radius r +- 2*epsilon
    ball, and eta makes its 0-to-1 transition across the 2*epsilon collar
    between the boundaries of V and the region, as a function of the
    transition variable u = normal (y - edge)/epsilon +- 1; the lower side
    mirrors it, eta_-(u) = 1 - eta(-u), so a feature point p of eta sits at
    u = sign * p.  Each lane's integral runs over the larger of its two
    regions.  All lanes share one adaptive panel set and one cross-section
    evaluation per node; each lane's integrand is zero outside its own range,
    whose ends are panel splits.
    """
    for lane in lanes:
        if lane is not None:
            _check_collar(region, lane[2])
            _side_sign(lane[1])
    if isinstance(region, Ball) and g.mass != 0.0:
        raise MassNotZero(f"mass {g.mass!r} must be 0: the ball weight only "
                          f"generates the massless flow")

    # without bumps the support box is a point and the integral is exactly 0
    box = g.support_box()
    # outer coordinate y: x^1 on wedges, the radius on balls; the region's
    # boundary sits at y = edge and normal * (y - edge) grows into the region
    wedge = isinstance(region, Wedge)
    if wedge:
        sections, splits, edge, normal = _wedge_sections, _data_splits(g), 0.0, 1.0
        jacobian_power = 0
    else:
        sections, splits, edge, normal = _cone_sections, _radial_splits(g), region.radius, -1.0
        reach = math.sqrt(sum(max(abs(a), abs(b)) ** 2 for a, b in box))
        jacobian_power = g.dimension - 1
    m2 = g.mass ** 2

    # per lane: V (the half-space x^1 > shift, or a ball), the lane's range,
    # the sign and collar of its transition (an exact lane has none: its 1.0
    # is never read); lanes that share a cutoff share its evaluation
    shifts, balls, ranges, signs, collars, by_cutoff = [], [], [], [], [], {}
    for k, (cutoff, side, epsilon) in enumerate(lane or (None, "upper", 1.0) for lane in lanes):
        sign = _side_sign(side)
        if wedge:
            shift = 0.0 if cutoff is None else -sign * 2.0 * epsilon
            shifts.append(shift)
            ranges.append((max(box[0][0], min(edge, shift)), box[0][1]))
        else:
            v = region if cutoff is None else Ball(region.radius + sign * 2.0 * epsilon)
            balls.append(v)
            ranges.append((0.0, min(max(edge, v.radius), reach)))
        splits.extend(ranges[-1])
        signs.append(sign)
        collars.append(epsilon)
        if cutoff is not None:
            by_cutoff.setdefault(cutoff, []).append(k)
            # the feature images only: integrate_1d's halving grades the
            # panels towards them, as it does towards any endpoint feature
            splits.extend(edge + normal * epsilon * (sign * p - sign)
                          for p in cutoff.feature_points())
    a, b = min(lo for lo, _ in ranges), max(hi for _, hi in ranges)
    # a lane's integrand is zero outside its range: one that covers [a, b]
    # keeps every node, and an empty one none
    lo, hi = np.array([(-math.inf, math.inf) if lo <= a and hi >= b
                       else (lo, hi) if lo < hi else (math.inf, -math.inf)
                       for lo, hi in ranges]).T[:, :, None]
    sign, collar = np.array(signs)[:, None], np.array(collars)[:, None]
    groups = [(cutoff, np.array(k)) for cutoff, k in by_cutoff.items()]
    if wedge:
        shift, curvature = np.array(shifts)[:, None], 0.0

        def weight(y):
            return y - shift
    else:
        radius = np.array([v.radius for v in balls])[:, None]
        curvature = jacobian_power / (2.0 * radius)

        def weight(y):
            return _ball_weight(radius, y)

    def integrand(y):
        eta, etap = np.ones((len(lanes), y.size)), np.zeros((len(lanes), y.size))
        for cutoff, k in groups:
            # transition variable u = normal (y - edge)/eps +- 1, mirrored on
            # the lower side: eta_-(u) = 1 - eta(-u), eta_-'(u) = eta'(-u)
            u = sign[k] * (normal * (y - edge) / collar[k] + sign[k])
            e, p = (f.reshape(u.shape) for f in cutoff.eta_and_prime(u.ravel()))
            eta[k] = np.where(sign[k] < 0, 1.0 - e, e)
            etap[k] = normal * p / collar[k]
        s = _memo_sections(sections, g, y, quad)
        dens = (etap * etap * s["A"] + 2.0 * eta * etap * s["B"]
                + eta * eta * (s["C"] + s.get("P", 0.0) + m2 * s["A"] + s["Q"]))
        out = weight(y) * dens + curvature * eta * eta * s["A"]
        if jacobian_power:  # on wedges y ** 0 is 1.0, and 1.0 * out is out
            out = y ** jacobian_power * out
        return np.where((y >= lo) & (y <= hi), out, 0.0)

    res = integrate_1d(integrand, a, b, splits=splits, order=quad.outer_order,
                       rel_tol=quad.rel_tol, max_panels=len(lanes) * quad.max_panels,
                       lanes=len(lanes))
    return [QuadResult(0.5 * math.pi * r.value, 0.5 * math.pi * r.error) for r in res]


def exact_entropy(g: InitialData, region: Region,
                  quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """Wedge: (pi/2) int_{x^1 > 0} x^1 (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x.
    Ball: (pi/2) int_B [beta (|grad g0|^2 + g1^2) + (d-1)/(2r) g0^2] for
    massless data.  Both are the bound integral with eta = 1 on the region."""
    return _weighted_integral(g, region, quad, [None])[0]


def entropy_bound(g: InitialData, region: Region, side: str, cutoff,
                  epsilon: float, quad: FieldQuad = DEFAULT_QUAD) -> QuadResult:
    """Upper or lower squeezed bound on the exact entropy of the middle region.

    Wedges use the half-spaces x^1 > -+2*epsilon, cones radii r +- 2*epsilon; the
    transition runs inside the 2*epsilon collar, so the bound evaluates
    (pi/2) int beta_pm [ (grad(eta_pm g0))^2 + m^2 (eta_pm g0)^2 + (eta_pm g1)^2 ]
    plus the curvature term for cones.
    """
    return _weighted_integral(g, region, quad, [(cutoff, side, epsilon)])[0]


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
        return float(_memo_sections(sections, g, np.atleast_1d(float(y)), quad)["A"][0])
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
    non-increasing, t non-decreasing; else raise ScheduleViolation at once.

    The exact entropy and the bounds of the first 8 entries are the 17 lanes
    of one integral on shared panels, each later 8 entries the 16 lanes of
    another (`quadrature.MAX_LANES`); entries with equal (s, t) share one
    profile.  Interior data give every lane the same panels, so each value is
    bitwise that of a separate `exact_entropy` or `entropy_bound` call; data
    that reach the collar may differ from those within the reported error."""
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
    # one call integrates the exact entropy with the bounds of the first
    # (MAX_LANES - 1) // 2 entries, and later entries go that many at a time
    profiles = {(s, t): AnalyticCutoff(s, t) for _, s, t in schedule}
    bounds = [(profiles[s, t], side, eps) for eps, s, t in schedule for side in ("lower", "upper")]
    per_call = MAX_LANES - 1
    h_exact, *results = [r for k in range(0, len(bounds), per_call)
                         for r in _weighted_integral(g, region, quad,
                                                     [None] * (k == 0) + bounds[k:k + per_call])]
    return [BoundSweepRecord(eps, s, t, h_minus.value, h_exact.value, h_plus.value,
                             h_exact.error + h_minus.error + h_plus.error)
            for (eps, s, t), h_minus, h_plus in zip(schedule, results[::2], results[1::2])]


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
