"""Panel-adaptive Gauss-Legendre quadrature, refined in rounds.

Panels are seeded from caller-supplied split points (region edges, support
boundaries, images of kernel jumps).  Each round evaluates every pending panel
at orders p and p+4 from one concatenated node set, accepts the panels whose
two estimates agree to the target, and halves the rest for the next round.
A round's nodes go to the integrand in one call, or in calls of
`BLOCK_ELEMENTS` nodes when more.  Accumulation is in fixed panel order so
results are bit-stable run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureBudgetExceeded

ABS_TOL = 1e-13
# The most floats one array built in a call may hold: 56 radii of a d = 3 cone
# times its 512 sphere directions.  Code that expands each point into a row of
# w floats takes points in blocks of BLOCK_ELEMENTS // w.
BLOCK_ELEMENTS = 56 * 512


class QuadResult(NamedTuple):
    value: float
    error: float


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def blocks(n: int, width: int = 1) -> list[slice]:
    """Slices that cut n points into blocks of BLOCK_ELEMENTS // width points,
    at least one, for code that expands each point into `width` floats."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(i, i + step) for i in range(0, n, step)]


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 splits: tuple | list = (), order: int = 12,
                 rel_tol: float = 1e-10, max_panels: int = 4000) -> QuadResult:
    """Adaptive integral of a vectorized integrand over [a, b].

    `splits` lists interior breakpoints (points outside (a, b) are dropped).
    A panel is accepted when its order-p and order-(p+4) estimates differ by at
    most max(ABS_TOL, rel_tol * max(|fine|, sum of |accepted values|)), the sum
    taken over the panels accepted in earlier rounds, or when it is narrower
    than 1e-14 (b - a).  Raises QuadratureBudgetExceeded before more than
    `max_panels` + 1 panels would be evaluated.
    """
    if b <= a:
        return QuadResult(0.0, 0.0)
    edges = np.array([a] + sorted(s for s in set(float(s) for s in splits) if a < s < b) + [b])
    lo, hi = edges[:-1], edges[1:]
    x_c, w_c = gauss_rule(order)
    x_f, w_f = gauss_rule(order + 4)
    unit = np.concatenate([x_c, x_f]) + 1.0
    min_width = 1e-14 * (b - a)
    done_lo, done_val, done_err = [], [], []
    accepted_abs = 0.0
    evaluated = 0
    while lo.size:
        if evaluated + lo.size > max_panels + 1:
            raise QuadratureBudgetExceeded(
                f"exceeded {max_panels} panels on [{a}, {b}]")
        evaluated += lo.size
        half = 0.5 * (hi - lo)
        x = (lo[:, None] + half[:, None] * unit).ravel()
        fx = np.concatenate([np.asarray(f(x[b]), dtype=float)
                             for b in blocks(x.size)]).reshape(lo.size, -1)
        coarse = half * (fx[:, :order] @ w_c)
        fine = half * (fx[:, order:] @ w_f)
        err = np.abs(fine - coarse)
        scale = np.maximum(np.abs(fine), max(accepted_abs, 1e-300))
        ok = (err <= np.maximum(ABS_TOL, rel_tol * scale)) | (hi - lo < min_width)
        done_lo.append(lo[ok])
        done_val.append(fine[ok])
        done_err.append(err[ok])
        accepted_abs += float(np.sum(np.abs(fine[ok])))
        mid = 0.5 * (lo[~ok] + hi[~ok])
        lo = np.concatenate([lo[~ok], mid])
        hi = np.concatenate([mid, hi[~ok]])
    order_of = np.argsort(np.concatenate(done_lo), kind="stable")
    value = float(np.sum(np.concatenate(done_val)[order_of]))
    error = float(np.sum(np.concatenate(done_err)[order_of]))
    return QuadResult(value, error)
