"""Panel-adaptive Gauss-Legendre quadrature.

Panels are seeded from caller-supplied split points (region edges, support
boundaries, images of kernel jumps) and subdivided dyadically until the
difference between orders p and p+4 falls below the target.  Accumulation is
in fixed panel order so results are bit-stable run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureBudgetExceeded

ABS_TOL = 1e-13


class QuadResult(NamedTuple):
    value: float
    error: float


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               order: int) -> float:
    nodes, weights = gauss_rule(order)
    half = 0.5 * (b - a)
    x = a + half * (nodes + 1.0)
    return float(half * np.dot(weights, f(x)))


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 splits: tuple | list = (), order: int = 12,
                 rel_tol: float = 1e-10, max_panels: int = 4000) -> QuadResult:
    """Adaptive integral of a vectorized integrand over [a, b].

    `splits` lists interior breakpoints (points outside (a, b) are dropped).
    Raises QuadratureBudgetExceeded when the dyadic subdivision exhausts
    `max_panels` before all panels meet the target.
    """
    if b <= a:
        return QuadResult(0.0, 0.0)
    edges = [a] + sorted(s for s in set(float(s) for s in splits) if a < s < b) + [b]
    pending = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    done: list[tuple[float, float, float]] = []  # (left, value, error)
    evaluated = 0
    while pending:
        if evaluated > max_panels:
            raise QuadratureBudgetExceeded(
                f"exceeded {max_panels} panels on [{a}, {b}]")
        lo, hi = pending.pop()
        coarse = panel_quad(f, lo, hi, order)
        fine = panel_quad(f, lo, hi, order + 4)
        err = abs(fine - coarse)
        evaluated += 1
        scale = max(abs(fine), sum(abs(v) for _, v, _ in done))
        if err <= max(ABS_TOL, rel_tol * max(scale, 1e-300)) or (hi - lo) < 1e-14 * (b - a):
            done.append((lo, fine, err))
        else:
            mid = 0.5 * (lo + hi)
            pending.append((mid, hi))
            pending.append((lo, mid))
    done.sort(key=lambda t: t[0])
    value = float(np.sum(np.array([v for _, v, _ in done])))
    error = float(np.sum(np.array([e for _, _, e in done])))
    return QuadResult(value, error)

