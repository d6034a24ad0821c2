"""Transition-function energy E[eta] = int (x+1) eta'(x)^2 dx and its minimizers.

The energy of a smooth 0-to-1 transition on [-1, 1] has infimum zero.  The
analytic family eta_{s,t} (a clipped 1/(x+1) profile of sharpness s mollified
at scale 1/t) realizes the limit value 1/log((s+1)/(s-1)) as t grows, which
vanishes as s -> 1+.  Each profile convolves a band point once: it keeps a
memo of its band values, of at most quadrature.MEMO_POINTS points, that dies
with the profile.  An independent discrete minimizer over pinned grid
vectors confirms the decay of the minimum with resolution; it is a closed
form in numpy alone, so neither importing modlab nor minimizing loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterViolation
from .quadrature import blocks, gauss_rule, integrate_1d, memo_rows


# --------------------------------------------------------------------------
# mollifier
# --------------------------------------------------------------------------

def _bump_raw(y: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - y^2)) with 1 - y^2 floored at 1/800, as in BumpFunction.profile:
    exp(1 - 800) underflows to 0, so this is 0 for |y| >= 1 with no mask."""
    return np.exp(1.0 - 1.0 / np.maximum(1.0 - y * y, 1.0 / 800.0))


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    return integrate_1d(_bump_raw, -1.0, 1.0, order=24, rel_tol=1e-14).value


def standard_mollifier() -> Callable[[np.ndarray], np.ndarray]:
    """Normalized smooth bump supported on [-1, 1] with unit integral."""
    c = 1.0 / _bump_norm()
    return lambda y: c * _bump_raw(y)


@lru_cache(maxsize=1)
def _even_moments() -> np.ndarray:
    """m_{2j} = int y^{2j} f(y) dy of the standard mollifier f, for j < 24:
    enough for AnalyticCutoff's series at its largest ratio r = 1/2."""
    f = standard_mollifier()
    m = np.array([integrate_1d(lambda y: y ** (2 * j) * f(y), -1.0, 1.0, order=24,
                               rel_tol=1e-14).value for j in range(24)])
    m.setflags(write=False)
    return m


# --------------------------------------------------------------------------
# clipped extremal kernel
# --------------------------------------------------------------------------

def check_sharpness(s: float) -> None:
    """chi_s, and every profile and limit built on it, needs a finite s > 1."""
    if not 1.0 < s < math.inf:
        raise ParameterViolation(f"s = {s!r} must be finite and exceed 1")


@dataclass(frozen=True)
class ChiKernel:
    """Normalized kernel 1/(c_s (x+1)) clipped to |x| < 1/s, with closed-form
    antiderivative; c_s = log((s+1)/(s-1)), written as log1p(2/(s-1)), which
    keeps its relative precision and stays positive for every finite s > 1."""

    s: float

    def __post_init__(self):
        check_sharpness(self.s)

    @property
    def c_s(self) -> float:
        return math.log1p(2.0 / (self.s - 1.0))

    def in_window(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kernel and its antiderivative at z inside the clip window |z| < 1/s
        (0 and 0 below it, 0 and 1 above), with no mask; z + 1/s, not (z + 1) -
        (1 - 1/s): as c_s ~ 2/s, the rounding of z + 1 would cost log10(s) digits."""
        edge, c_s = 1.0 / self.s, self.c_s
        return 1.0 / (c_s * (z + 1.0)), np.log1p((z + edge) / (1.0 - edge)) / c_s


# --------------------------------------------------------------------------
# cutoff profiles
# --------------------------------------------------------------------------

def t_threshold(s: float) -> float:
    """Smallest admissible mollifier scale of eta_{s,t}: s/(s-1)."""
    return s / (s - 1.0)


# the quadratures resolve chi_s's support |x| < 1/s only well above the rounding
# of x: E[eta_{s,t}] loses digits past s = 1e12 and runs out of panels by 1e15
MAX_SHARPNESS = 1e6


def check_transition(s: float, t: float) -> None:
    """eta_{s,t} is computed for 1 < s <= MAX_SHARPNESS, and stays supported
    in [-1, 1] only for a finite t >= s/(s-1)."""
    check_sharpness(s)
    if not s <= MAX_SHARPNESS:
        raise ParameterViolation(f"s = {s!r} must be at most {MAX_SHARPNESS:g} for eta_(s,t)")
    if not t_threshold(s) <= t < math.inf:
        raise ParameterViolation(f"t = {t!r} must be finite and >= s/(s-1) = {t_threshold(s)!r}")


# AnalyticCutoff._convolve's y-panels: 16 Gauss nodes on each panel between
# these edges, mapped onto a band point's clip window, and one partial panel
# below it, so each band point expands into 96 + 16 floats
_MOLLIFIER_EDGES = np.array([-1.0, -0.95, -0.75, 0.0, 0.75, 0.95, 1.0])
_CONVOLVE_ORDER = 16
_CONVOLVE_WIDTH = _MOLLIFIER_EDGES.size * _CONVOLVE_ORDER


@lru_cache(maxsize=1)
def _convolve_rules() -> tuple[np.ndarray, ...]:
    """Rules u, w on [0, 1] with int_a^b f ~ (b - a) sum w bump(a + (b - a) u) for the
    mollifier f = bump/norm: the window's, graded towards +-1 where f is only C^inf-flat,
    and the tail's one panel; and the table F(E_k) = int_{-1}^{E_k} f of the edges."""
    nodes, weights = gauss_rule(_CONVOLVE_ORDER)
    v, wv = 0.5 * (nodes + 1.0), 0.5 * weights / _bump_norm()
    start, width = _MOLLIFIER_EDGES[:-1, None], np.diff(_MOLLIFIER_EDGES)[:, None]
    panels = np.einsum("ij,ij->i", _bump_raw(start + width * v), width * wv)
    return ((0.5 * (start + 1.0 + width * v)).ravel(), (0.5 * width * wv).ravel(), v, wv,
            np.concatenate(([0.0], np.cumsum(panels))))


class AnalyticCutoff:
    """Transition eta_{s,t}: the antiderivative of chi_s mollified at scale 1/t.

    Requires t >= s/(s-1) so the mollified kernel stays supported in [-1, 1];
    then eta(-1) = 0 and eta(1) = 1 exactly by support arithmetic.

    On the middle piece |x| < 1/s - 1/t every x - y/t stays in the clip window,
    so with r = 1/(t (x+1)), the even moments m_{2j} of the mollifier f and the
    kernel chi and its antiderivative K, eta'(x) = chi(x) sum_{j>=0} m_{2j} r^{2j}
    and eta(x) = K(x) - (sum_{j>=1} m_{2j} r^{2j}/(2j)) / c_s.
    There r <= r_max = 1/(t (1 - 1/s) + 1) <= 1/2 and 1 = m_0 >= m_2 >= ...,
    so the tail after J terms is at most m_{2J} r^{2J} / (1 - r^2).  J is the
    least count that puts that bound at r_max below 1e-17 min(1, c_s): eta' is
    then off by at most 1e-17 relative, eta by at most 1e-17 absolute.  J is
    fixed per profile, so a value never depends on the points evaluated with it.
    On the bands around +-1/s the profile is the convolution itself, taken over
    each point's clip window only (`_convolve`), within 2e-15 of a quad oracle.
    Each profile keeps a memo of its band values, so it convolves each band
    point once: a point that matches a convolved one as an exact float takes
    its values, and the rest are convolved in one call.  A band point's row
    is summed on its own, so the memo moves no bit.  It holds at most
    quadrature.MEMO_POINTS points (a call that could pass that starts it
    afresh) and dies with the profile: nothing carries to a new one.
    """

    def __init__(self, s: float, t: float):
        check_transition(s, t)
        self.s = float(s)
        self.t = float(t)
        self.kernel = ChiKernel(s)
        m = _even_moments()
        q = (1.0 / (self.t * (1.0 - 1.0 / self.s) + 1.0)) ** 2
        n = np.count_nonzero(m * q ** np.arange(m.size) / (1.0 - q)
                             > 1e-17 * min(1.0, self.kernel.c_s))
        # np.polyval, highest power first: numpy.polynomial costs ~1 MB at import
        self._prime_coeffs = m[:n][::-1]
        self._eta_coeffs = np.concatenate(([0.0], m[1:n] / (2.0 * np.arange(1, n))))[::-1]
        # the band memo of `quadrature.memo_rows`, replaced whole on each miss
        self._band = (np.empty(0), {})

    @property
    def support_halfwidth(self) -> float:
        return 1.0 / self.s + 1.0 / self.t

    def feature_points(self) -> list[float]:
        """Arguments where the mollified kernel turns on/off or crosses a jump image."""
        s, t = self.s, self.t
        return sorted({-1 / s - 1 / t, -1 / s + 1 / t, 1 / s - 1 / t, 1 / s + 1 / t})

    def _series(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eta and eta' on the middle piece, from the moment series above."""
        chi, anti = self.kernel.in_window(x)
        rr = (1.0 / self.t / (x + 1.0)) ** 2
        return (anti - np.polyval(self._eta_coeffs, rr) / self.kernel.c_s,
                chi * np.polyval(self._prime_coeffs, rr))

    def _convolve(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eta and eta' on the bands: only y in the clip window (lo, hi) =
        (t(x - 1/s), t(x + 1/s)) cut to [-1, 1] sees a non-constant kernel (K = 1
        below it, K = chi = 0 above), so eta = F(lo) + int_lo^hi K(x - y/t) f(y) dy
        and eta' = int_lo^hi chi(x - y/t) f(y) dy.  The window takes the graded
        96-node rule, and F(lo) is the table's F(E_m) at the edge below lo plus
        one 16-node panel [E_m, lo]; no node needs a mask for f or the kernel."""
        t, edge = self.t, 1.0 / self.s
        u, w, v, wv, mass = _convolve_rules()
        # a band point has t(x - 1/s) < 1 and t(x + 1/s) > -1: one side each to cut
        lo, hi = np.maximum(t * (x - edge), -1.0), np.minimum(t * (x + edge), 1.0)
        width = (hi - lo)[:, None]
        y = lo[:, None] + width * u
        fw = _bump_raw(y) * (width * w)
        chi, anti = self.kernel.in_window(x[:, None] - y / t)
        m = np.searchsorted(_MOLLIFIER_EDGES[1:-1], lo, side="right")
        start = _MOLLIFIER_EDGES[m, None]
        part = lo[:, None] - start
        tail = np.einsum("ij,ij->i", _bump_raw(start + part * v), part * wv)
        return (mass[m] + tail + np.einsum("ij,ij->i", anti, fw),
                np.einsum("ij,ij->i", chi, fw))

    def _convolve_blocks(self, x: np.ndarray) -> dict:
        """_convolve of band points in blocks whose arrays stay within
        BLOCK_ELEMENTS floats."""
        parts = [self._convolve(x[b]) for b in blocks(x.size, _CONVOLVE_WIDTH)]
        return {"eta": np.concatenate([e for e, _ in parts]),
                "prime": np.concatenate([p for _, p in parts])}

    def eta_and_prime(self, x) -> tuple[np.ndarray, np.ndarray]:
        """eta(x) and eta'(x): the series on the middle piece, the convolution
        on the bands around +-1/s, served from the band memo or convolved, and
        exact 0, 1 and 0 beyond the support."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        hw = self.support_halfwidth
        eta = np.where(x >= hw, 1.0, 0.0)
        prime = np.zeros_like(x)
        smooth = np.abs(x) < 1.0 / self.s - 1.0 / self.t
        if np.any(smooth):
            eta[smooth], prime[smooth] = self._series(x[smooth])
        band = (np.abs(x) < hw) & ~smooth
        if np.any(band):
            held, columns, at = memo_rows(*self._band, x[band], self._convolve_blocks)
            self._band = (held, columns)
            eta[band], prime[band] = columns["eta"][at], columns["prime"][at]
        return eta, prime

    def eta(self, x) -> np.ndarray:
        return self.eta_and_prime(x)[0]

    def eta_prime(self, x) -> np.ndarray:
        return self.eta_and_prime(x)[1]

    @cached_property
    def energy(self) -> float:
        """E[eta] = int_{-1}^{1} (x + 1) eta'(x)^2 dx, integrated on first use."""
        splits = self.feature_points()
        return integrate_1d(lambda x: (x + 1.0) * self.eta_prime(x) ** 2,
                            max(splits[0], -1.0), min(splits[-1], 1.0),
                            splits=splits, order=12, rel_tol=1e-9,
                            max_panels=20000).value


# --------------------------------------------------------------------------
# the energy functional and its limits
# --------------------------------------------------------------------------

def eta_st(s: float, t: float) -> AnalyticCutoff:
    """The analytic near-minimizing transition with sharpness s and mollifier scale 1/t."""
    return AnalyticCutoff(s, t)


def energy(eta: AnalyticCutoff) -> float:
    """E[eta] = int_{-1}^{1} (x + 1) eta'(x)^2 dx, integrated once per profile."""
    return eta.energy


def energy_limit(s: float) -> float:
    """Large-t limit of E[eta_{s,t}]: 1/c_s = 1/log((s+1)/(s-1)), decaying as s -> 1+."""
    return 1.0 / ChiKernel(s).c_s


def energy_dominating_bound(s: float) -> float:
    """Uniform-in-t bound 2 s^2 / (c_s^2 (s-1)^2) on E[eta_{s,t}]."""
    c_s = ChiKernel(s).c_s
    return 2.0 * s * s / (c_s * c_s * (s - 1.0) * (s - 1.0))


# --------------------------------------------------------------------------
# discrete minimizer
# --------------------------------------------------------------------------

def _cell_weights(n_grid: int) -> tuple[np.ndarray, float]:
    """Transition weights (x + 1) sampled at the upper cell nodes of a uniform
    grid on [-1, 1]; keeps the discrete minimum consistent with the
    1/log(2/h) harmonic-sum scale."""
    h = 2.0 / (n_grid - 1)
    nodes = np.linspace(-1.0, 1.0, n_grid)
    return nodes[1:] + 1.0, h


def discrete_energy(values: np.ndarray) -> float:
    """Energy of a pinned grid transition with the minimizer's cell weights."""
    v = np.asarray(values, dtype=float)
    w, h = _cell_weights(v.size)
    d = np.diff(v)
    return float(np.sum(w * d * d) / h)


def minimize_discrete(n_grid: int) -> tuple[np.ndarray, float]:
    """Exact minimizer of the discrete transition energy on n_grid points: its
    values on np.linspace(-1, 1, n_grid), pinned to 0 and 1, and the minimum.

    For the quadratic form sum_i w_i (eta_{i+1} - eta_i)^2 / h with pinned
    endpoints, Cauchy-Schwarz gives the minimizer in closed form: increments
    eta_{i+1} - eta_i = (h/w_i) / sum_j h/w_j, and the minimum value
    1/(sum_i h/w_i), a truncated harmonic sum of order log(2/h).
    """
    if n_grid < 3:
        raise ParameterViolation(f"n_grid {n_grid} must be at least 3")
    w, h = _cell_weights(n_grid)
    step = h / w
    values = np.concatenate(([0.0], np.cumsum(step)[:-1] / np.sum(step), [1.0]))
    return values, discrete_energy(values)
