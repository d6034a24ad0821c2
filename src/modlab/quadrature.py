"""Panel-adaptive Gauss-Legendre quadrature, refined in rounds.

Panels are seeded from caller-supplied split points (region edges, support
boundaries, images of kernel jumps).  Each round evaluates every pending panel
at orders p and p+4 from one concatenated node set, accepts the panels whose
two estimates agree to the target, and halves the rest for the next round.
One rule serves a vector of integrands ("lanes") on one shared panel set: an
integrand may return a (lanes, n) array, and a panel is accepted only when
every lane passes its own test (DCUHRE's common subdivision: Berntsen, Espelid
& Genz, ACM TOMS 17, 1991).  A round's nodes go to the integrand in one call,
or in calls of `BLOCK_ELEMENTS // lanes` nodes when more.  Accumulation is in
fixed panel order so results are bit-stable run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureBudgetExceeded

ABS_TOL = 1e-13
# The most floats one array built in a call may hold: 16 radii of off-centre
# d = 3 ball data times 512 sphere directions, 64 KiB of float64, half of
# glibc's default 128 KiB mmap threshold, so per-call temporaries come from the
# heap whatever earlier frees did to that threshold.  Code that expands each
# point into a row of w floats takes points in blocks of BLOCK_ELEMENTS // w.
BLOCK_ELEMENTS = 16 * 512
# The most lanes one call integrates: a squeeze sweep's exact entropy and the
# two bounds of 8 schedule entries.  Every lane is evaluated on the union of
# all lanes' panels, so fusing more costs time and memory: on a 100-entry
# boundary sweep (epsilon geometric from 1e-2 to 1e-4, wedge d = 2 and the
# d = 3 cone) one call of 201 lanes took 1.4 and 3.5 s and peaked at 151 MB,
# calls of 17 lanes 0.41 and 0.27 s at 37 MB, and separate integrals 0.89 and
# 0.42 s at 35 MB (2 cores, Python 3.11, numpy 2.4).
MAX_LANES = 17


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
                 rel_tol: float = 1e-10, max_panels: int = 4000,
                 lanes: int | None = None) -> QuadResult | list[QuadResult]:
    """Adaptive integral of a vectorized integrand over [a, b].

    `splits` lists interior breakpoints (points outside (a, b) are dropped).
    A panel is accepted when its order-p and order-(p+4) estimates differ by at
    most max(ABS_TOL, rel_tol * max(|fine|, sum of |accepted values|)), the sum
    taken over the panels accepted in earlier rounds, or when it is narrower
    than 1e-14 (b - a).  Raises QuadratureBudgetExceeded before more than
    `max_panels` + 1 panels would be evaluated.

    With `lanes` = k the integrand returns a (k, n) array, takes at most
    BLOCK_ELEMENTS // k nodes a call, and the result is a list of k results on
    one panel set: a panel is accepted only when every lane passes the test
    above with its own values and its own sum of accepted values.  A one-lane
    call is bitwise the scalar one.
    """
    width = 1 if lanes is None else lanes
    if b <= a:
        zero = QuadResult(0.0, 0.0)
        return zero if lanes is None else [zero] * width
    edges = np.array([a] + sorted(s for s in set(float(s) for s in splits) if a < s < b) + [b])
    lo, hi = edges[:-1], edges[1:]
    x_c, w_c = gauss_rule(order)
    x_f, w_f = gauss_rule(order + 4)
    unit = np.concatenate([x_c, x_f]) + 1.0
    min_width = 1e-14 * (b - a)
    done_lo, done_val, done_err = [], [], []
    accepted_abs = np.zeros(width)
    evaluated = 0
    while lo.size:
        if evaluated + lo.size > max_panels + 1:
            raise QuadratureBudgetExceeded(
                f"exceeded {max_panels} panels on [{a}, {b}]")
        evaluated += lo.size
        half = 0.5 * (hi - lo)
        x = (lo[:, None] + half[:, None] * unit).ravel()
        fx = np.concatenate([np.asarray(f(x[blk]), dtype=float).reshape(width, -1)
                             for blk in blocks(x.size, width)], axis=1)
        fx = fx.reshape(width, lo.size, -1)
        # lane by lane, each the matrix-vector product of the scalar rule
        coarse = np.stack([half * (fl[:, :order] @ w_c) for fl in fx])
        fine = np.stack([half * (fl[:, order:] @ w_f) for fl in fx])
        err = np.abs(fine - coarse)
        scale = np.maximum(np.abs(fine), np.maximum(accepted_abs, 1e-300)[:, None])
        passed = err <= np.maximum(ABS_TOL, rel_tol * scale)
        ok = np.all(passed, axis=0) | (hi - lo < min_width)
        done_lo.append(lo[ok])
        done_val.append(fine[:, ok])
        done_err.append(err[:, ok])
        accepted_abs += [np.sum(np.abs(v)) for v in fine[:, ok]]
        mid = 0.5 * (lo[~ok] + hi[~ok])
        lo = np.concatenate([lo[~ok], mid])
        hi = np.concatenate([mid, hi[~ok]])
    order_of = np.argsort(np.concatenate(done_lo), kind="stable")
    values = np.concatenate(done_val, axis=1)[:, order_of]
    errors = np.concatenate(done_err, axis=1)[:, order_of]
    results = [QuadResult(float(np.sum(v)), float(np.sum(e))) for v, e in zip(values, errors)]
    return results[0] if lanes is None else results
