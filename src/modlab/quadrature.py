"""Panel-adaptive Gauss-Kronrod quadrature, refined in rounds.

Panels are seeded from caller-supplied split points (region edges, support
boundaries, images of kernel jumps).  Each round evaluates every pending panel
once, at the 2n+1 nodes of the Kronrod extension K of the n-point Gauss rule G
(nested as in QUADPACK's pairs, Piessens et al., 1983), accepts the panels
whose K and G agree to the target, and halves the rest for the next round.
One rule serves a vector of integrands ("lanes") on one shared panel set: an
integrand may return a (lanes, m) array, and a panel is accepted only when
every lane passes its own test (DCUHRE's common subdivision: Berntsen, Espelid
& Genz, ACM TOMS 17, 1991).  A round's nodes go to the integrand in one call,
or in calls of `BLOCK_ELEMENTS // lanes` nodes when more.  A round is
whole-array over lanes: each rule sum is one stacked matrix-vector product on
the (lanes, panels, 2n+1) values, which gives every lane the product that a
one-lane call takes.  Accumulation is in fixed panel order so results are
bit-stable run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureBudgetExceeded

ABS_TOL = 1e-13
# The most floats one array built in a call may hold: 64 KiB of float64, half
# of glibc's default 128 KiB mmap threshold, so per-call temporaries come from
# the heap whatever earlier frees did to that threshold.  Code that expands each
# point into a row of w floats takes points in blocks of BLOCK_ELEMENTS // w.
# `suites._blocks` counts a complex entry as one element, so its complex blocks
# hold up to twice this many floats (128 KiB).
BLOCK_ELEMENTS = 8192
# The most lanes one call integrates: a squeeze sweep's exact entropy and the
# two bounds of 8 schedule entries.  Every lane is evaluated on the union of
# all lanes' panels, so fusing more costs time and memory: on a 100-entry
# boundary sweep (epsilon geometric from 1e-2 to 1e-4, wedge d = 2 and the
# d = 3 cone, the outer rule G_16/K_33) one call of 201 lanes took 1.4 and
# 3.0 s and peaked at 171 MB, calls of 17 lanes 0.45 and 0.23 s at 37 MB, and
# separate integrals 0.54 and 0.26 s at 36 MB (2 cores, Python 3.11, numpy 2.4).
MAX_LANES = 17
# The most points a memo of `memo_rows` holds: a call that could take it past
# this starts it afresh.  A field section memo's node carries at most 6
# floats, a cutoff band memo's point 2, so one memo stays within 3.5 MiB.
MEMO_POINTS = 1 << 16


class QuadResult(NamedTuple):
    value: float
    error: float


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _kronrod_recurrence(n: int) -> np.ndarray:
    """Off-diagonal squares b_0..b_2n of the Jacobi matrix of the (2n+1)-node
    Kronrod extension of the n-point Gauss-Legendre rule, by Laurie's algorithm
    (Math. Comp. 66, 1997) for the monic Legendre recurrence
    p_{k+1} = x p_k - b_k p_{k-1}, b_0 = 2 (the mass) and b_k = k^2/(4k^2 - 1).
    The first ceil(3n/2) + 1 entries are Legendre's; the rest come from the
    mixed moments s, t.  The diagonal is zero for the symmetric weight, so the
    algorithm's alpha terms drop out."""
    i = np.arange(2 * n + 1, dtype=float)
    b = i * i / (4.0 * i * i - 1.0)
    b[0] = 2.0
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()  # s_{j+1} = s_j before the second phase
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the (2n+1)-node Gauss-Kronrod rule on
    [-1, 1], exact through degree 3n+1; nodes[1::2] are gauss_rule(n)'s.

    The nodes are the eigenvalues of Laurie's Jacobi matrix, from one
    tridiagonal eigvalsh; each weight is the Christoffel number
    1 / sum_j q_j(x)^2 of that matrix's orthonormal polynomials q_j, which is
    Golub-Welsch's mass times a squared first eigenvector component, with no
    eigenvectors formed.  The rule is symmetric, so the rounding of each
    mirrored pair is averaged away, and the embedded nodes, which the
    eigenvalues reproduce to a few ulps, are replaced by gauss_rule(n)'s."""
    r = np.sqrt(_kronrod_recurrence(n))
    x = np.linalg.eigvalsh(np.diag(r[1:], 1) + np.diag(r[1:], -1))
    # q_0 = 1/sqrt(b_0), sqrt(b_{j+1}) q_{j+1} = x q_j - sqrt(b_j) q_{j-1}
    q_prev, q = np.zeros_like(x), np.full_like(x, 1.0 / r[0])
    total = q * q
    for j in range(2 * n):
        q_prev, q = q, (x * q - r[j] * q_prev) / r[j + 1]
        total += q * q
    w = 1.0 / total
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x[1::2] = gauss_rule(n)[0]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def blocks(n: int, width: int = 1) -> list[slice]:
    """Slices that cut n points into blocks of BLOCK_ELEMENTS // width points,
    at least one, for code that expands each point into `width` floats."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(i, i + step) for i in range(0, n, step)]


def memo_rows(held: np.ndarray, columns: dict, x: np.ndarray,
              evaluate: Callable[[np.ndarray], dict]) -> tuple[np.ndarray, dict, np.ndarray]:
    """The rows of x in a memo: `held`, its points sorted, and `columns`, one
    array per quantity whose row i belongs to held[i].  A point matches a held
    one as an exact float (`searchsorted`); the distinct misses go to
    `evaluate` in one call, ascending, and one stable argsort merges its
    columns in.  Returns the new memo and the row of each x in it.  A call
    that could take the memo past MEMO_POINTS starts it afresh.  The caller
    keeps the memo; no bit moves as long as `evaluate` gives each point a row
    that does not depend on the other points of its call."""
    at = np.searchsorted(held, x)
    known = (held[np.minimum(at, held.size - 1)] == x if held.size
             else np.zeros(x.shape, dtype=bool))
    if known.all():
        return held, columns, at
    miss = x[~known]
    miss = miss[np.argsort(miss, kind="stable")]
    miss = miss[np.concatenate(([True], miss[1:] != miss[:-1]))]
    if held.size and held.size + miss.size > MEMO_POINTS:
        return memo_rows(held[:0], {}, x, evaluate)
    fresh = evaluate(miss)
    points = np.concatenate([held, miss])
    order = np.argsort(points, kind="stable")
    columns = {k: np.concatenate([columns.get(k, c[:0]), c])[order]
               for k, c in fresh.items()}
    held = points[order]
    return held, columns, np.searchsorted(held, x)


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 splits: tuple | list = (), order: int = 12,
                 rel_tol: float = 1e-10, max_panels: int = 4000,
                 lanes: int | None = None) -> QuadResult | list[QuadResult]:
    """Adaptive integral of a vectorized integrand over [a, b].

    `splits` lists interior breakpoints (points outside (a, b) are dropped).
    Each panel is evaluated once at the 2n+1 nodes of `kronrod_rule(n)`, n =
    `order`, and returns the Kronrod value K.  It is accepted when K and the
    embedded n-point Gauss value G differ by at most
    max(ABS_TOL, rel_tol * max(|K|, sum of |accepted values|)), the sum taken
    over the panels accepted in earlier rounds, or when it is narrower than
    1e-14 (b - a).  Its reported error is |K - G| plus a bound on the rounding
    of K.  Raises QuadratureBudgetExceeded before more than `max_panels` + 1
    panels would be evaluated.

    With `lanes` = k the integrand returns a (k, m) array, takes at most
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
    x_k, w_k = kronrod_rule(order)
    w_g = gauss_rule(order)[1]
    unit = x_k + 1.0
    # K = half * sum_k w_k f_k is 2n+1 products summed in any order, then one
    # more product, so each term carries at most 2n+2 roundings and K's
    # rounding is at most gamma_{2n+2} half sum_k |w_k f_k|, gamma_m =
    # m u / (1 - m u) (Higham, Accuracy and Stability, 2nd ed., Sec. 3.1 and
    # Lemma 3.3); the nodes, weights and f_k are taken as given
    m_u = (2 * order + 2) * 0.5 * np.finfo(float).eps
    gamma = m_u / (1.0 - m_u)
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
        fine = half * (fx @ w_k)
        coarse = half * (fx[:, :, 1::2] @ w_g)
        err = np.abs(fine - coarse)
        scale = np.maximum(np.abs(fine), np.maximum(accepted_abs, 1e-300)[:, None])
        passed = err <= np.maximum(ABS_TOL, rel_tol * scale)
        ok = np.all(passed, axis=0) | (hi - lo < min_width)
        rounding = gamma * half[ok] * (np.abs(fx[:, ok]) @ w_k)
        done_lo.append(lo[ok])
        done_val.append(fine[:, ok])
        done_err.append(err[:, ok] + rounding)
        accepted_abs += np.abs(fine[:, ok]).sum(axis=1)
        mid = 0.5 * (lo[~ok] + hi[~ok])
        lo = np.concatenate([lo[~ok], mid])
        hi = np.concatenate([mid, hi[~ok]])
    order_of = np.argsort(np.concatenate(done_lo), kind="stable")
    values = np.concatenate(done_val, axis=1)[:, order_of]
    errors = np.concatenate(done_err, axis=1)[:, order_of]
    results = [QuadResult(float(np.sum(v)), float(np.sum(e))) for v, e in zip(values, errors)]
    return results[0] if lanes is None else results
