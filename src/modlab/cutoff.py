"""Transition-function energy E[eta] = int (x+1) eta'(x)^2 dx and its minimizers.

The energy of a smooth 0-to-1 transition on [-1, 1] has infimum zero.  The
analytic family eta_{s,t} (a clipped 1/(x+1) profile of sharpness s mollified
at scale 1/t) realizes the limit value 1/log((s+1)/(s-1)) as t grows, which
vanishes as s -> 1+.  An independent discrete minimizer over pinned grid
vectors confirms the decay of the minimum with resolution; it imports
scipy.linalg only when called, so importing modlab loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import ParameterViolation, SingularSystem
from .quadrature import gauss_rule, integrate_1d


# --------------------------------------------------------------------------
# mollifier
# --------------------------------------------------------------------------

def _bump_raw(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - yi * yi))
    return out


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    return integrate_1d(_bump_raw, -1.0, 1.0, order=24, rel_tol=1e-14).value


def standard_mollifier() -> Callable[[np.ndarray], np.ndarray]:
    """Normalized smooth bump supported on [-1, 1] with unit integral."""
    c = 1.0 / _bump_norm()
    return lambda y: c * _bump_raw(y)


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

    def value_and_antiderivative(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kernel and its antiderivative at x, from one clip mask."""
        x = np.asarray(x, dtype=float)
        edge = 1.0 / self.s
        c_s = self.c_s
        inside = np.abs(x) < edge
        x1 = np.where(inside, x + 1.0, 1.0)
        value = np.where(inside, 1.0 / (c_s * x1), 0.0)
        anti = np.where(inside, (np.log(x1) - math.log(1.0 - edge)) / c_s,
                        np.where(x >= edge, 1.0, 0.0))
        return value, anti

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_antiderivative(x)[0]

    def antiderivative(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_antiderivative(x)[1]


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


class AnalyticCutoff:
    """Transition eta_{s,t}: the antiderivative of chi_s mollified at scale 1/t.

    Requires t >= s/(s-1) so the mollified kernel stays supported in [-1, 1];
    then eta(-1) = 0 and eta(1) = 1 exactly by support arithmetic.
    """

    def __init__(self, s: float, t: float):
        check_transition(s, t)
        self.s = float(s)
        self.t = float(t)
        self.kernel = ChiKernel(s)
        self.mollifier = standard_mollifier()

    @property
    def support_halfwidth(self) -> float:
        return 1.0 / self.s + 1.0 / self.t

    def feature_points(self) -> list[float]:
        """Arguments where the mollified kernel turns on/off or crosses a jump image."""
        s, t = self.s, self.t
        return sorted({-1 / s - 1 / t, -1 / s + 1 / t, 1 / s - 1 / t, 1 / s + 1 / t})

    def _convolve(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int K(x - y/t) f(y) dy for K = antiderivative of chi (eta) and
        K = chi (eta'), vectorized over x, from one set of nodes.

        The y-integrand is smooth away from the images of the kernel clip
        edges, so a fixed high-order rule on the three kink-free pieces is
        spectrally accurate.  Each piece gets 4 composite panels because the
        mollifier is only C^inf-flat at its support edge, so one Gauss panel
        is not enough; all 3 x 4 panels are evaluated as one (n, 192) array.
        """
        t = self.t
        nodes, weights = gauss_rule(16)
        sub = np.arange(5) / 4.0
        edges = np.stack([np.full_like(x, -1.0),
                          np.clip(t * (x - 1.0 / self.s), -1.0, 1.0),
                          np.clip(t * (x + 1.0 / self.s), -1.0, 1.0),
                          np.full_like(x, 1.0)], axis=-1)
        lo, width = edges[:, :-1, None], np.diff(edges, axis=-1)[..., None]
        a = lo + width * sub[:-1]
        b = lo + width * sub[1:]
        half = 0.5 * (b - a)
        y = (a[..., None] + half[..., None] * (nodes + 1.0)).reshape(x.size, -1)
        fw = self.mollifier(y) * (half[..., None] * weights).reshape(x.size, -1)
        chi, anti = self.kernel.value_and_antiderivative(x[:, None] - y / t)
        return np.einsum("ij,ij->i", anti, fw), np.einsum("ij,ij->i", chi, fw)

    def eta_and_prime(self, x) -> tuple[np.ndarray, np.ndarray]:
        """eta(x) and eta'(x) from one convolution pass."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        hw = self.support_halfwidth
        eta = np.where(x >= hw, 1.0, 0.0)
        prime = np.zeros_like(x)
        mid = np.abs(x) < hw
        if np.any(mid):
            eta[mid], prime[mid] = self._convolve(x[mid])
        return eta, prime

    def eta(self, x) -> np.ndarray:
        return self.eta_and_prime(x)[0]

    def eta_prime(self, x) -> np.ndarray:
        return self.eta_and_prime(x)[1]

@dataclass(frozen=True)
class DiscreteCutoff:
    """Grid transition on [-1, 1], pinned to 0 and 1 at the endpoints."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ParameterViolation(f"grid of shape {v.shape} is not a vector of 3 or more")
        if abs(v[0]) > 1e-14 or abs(v[-1] - 1.0) > 1e-14:
            raise ParameterViolation(f"grid ends {v[0]!r}, {v[-1]!r} must be pinned to 0 and 1")
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.values.size)

    def eta_and_prime(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Linear interpolation and its cell slope; outside [-1, 1] the profile
        is constant 0 or 1, so its slope there is 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        h = 2.0 / (self.values.size - 1)
        cell = np.clip(((x + 1.0) / h).astype(int), 0, self.values.size - 2)
        slope = (self.values[cell + 1] - self.values[cell]) / h
        return np.interp(x, self.grid, self.values), np.where(np.abs(x) > 1.0, 0.0, slope)

    def feature_points(self) -> list[float]:
        """The kinks where the grid meets the constant ends."""
        return [-1.0, 1.0]


CutoffProfile = Union[AnalyticCutoff, DiscreteCutoff]


# --------------------------------------------------------------------------
# the energy functional and its limits
# --------------------------------------------------------------------------

def eta_st(s: float, t: float) -> AnalyticCutoff:
    """The analytic near-minimizing transition with sharpness s and mollifier scale 1/t."""
    return AnalyticCutoff(s, t)


def energy(eta: CutoffProfile) -> float:
    """E[eta] = int_{-1}^{1} (x + 1) eta'(x)^2 dx."""
    if isinstance(eta, DiscreteCutoff):
        return discrete_energy(eta.values)
    splits = eta.feature_points()
    inner = []
    for c in splits:
        inner.extend(np.linspace(c - 4e-1 / eta.t, c + 4e-1 / eta.t, 5).tolist())
    res = integrate_1d(lambda x: (x + 1.0) * eta.eta_prime(x) ** 2,
                       max(splits[0], -1.0), min(splits[-1], 1.0),
                       splits=splits + inner, order=12, rel_tol=1e-9,
                       max_panels=20000)
    return res.value


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


def minimize_discrete(n_grid: int) -> tuple[DiscreteCutoff, float]:
    """Exact minimizer of the discrete transition energy on n_grid points.

    The quadratic form sum_i w_i (eta_{i+1} - eta_i)^2 / h with pinned
    endpoints has tridiagonal normal equations; the minimizer satisfies
    (eta_{i+1} - eta_i) proportional to 1/w_i and the minimum value equals
    1/(sum_i h/w_i), a truncated harmonic sum of order log(2/h).
    """
    if n_grid < 3:
        raise ParameterViolation(f"n_grid {n_grid} must be at least 3")
    w, h = _cell_weights(n_grid)
    m = n_grid - 2  # interior unknowns
    diag = w[:-1] + w[1:]
    off = -w[1:-1]
    rhs = np.zeros(m)
    rhs[-1] = w[-1] * 1.0
    if np.any(diag <= 0):
        raise SingularSystem("non-positive cell weights")  # pragma: no cover
    if m == 1:
        interior = rhs / diag
    else:
        import scipy.linalg
        ab = np.zeros((2, m))
        ab[0, 1:] = off
        ab[1, :] = diag
        interior = scipy.linalg.solveh_banded(ab, rhs)
    values = np.concatenate(([0.0], interior, [1.0]))
    profile = DiscreteCutoff(values)
    return profile, discrete_energy(values)


def discrete_minimum_closed_form(n_grid: int) -> float:
    """1 / sum_i (h / w_i): the exact minimum by the Cauchy-Schwarz argument."""
    w, h = _cell_weights(n_grid)
    return float(1.0 / np.sum(h / w))
