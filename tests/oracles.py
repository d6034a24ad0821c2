"""Reference integrals of bump-function data, shared by the field and acceptance
tests, and the full Haar unitary behind a thin draw, shared by the suite and
shift-family tests.

They share no code with modlab: from modlab this module may import only public
data classes (test_oracles checks its imports), so an error in the code they
check cannot reach the values it is checked against.
"""

import math

import numpy as np


def bump_sum(bumps, pts):
    """Value and gradient at pts (n, d) of a sum of bumps
    amplitude * exp(1 - 1/(1 - s^2)), s^2 = sum_i ((x_i - c_i)/w_i)^2 < 1."""
    val, grad = np.zeros(pts.shape[0]), np.zeros_like(pts)
    for b in bumps:
        w = np.array(b.width)
        z = (pts - np.array(b.center)) / w
        s2 = np.sum(z * z, axis=1)
        inside = s2 < 1.0
        q = 1.0 - s2[inside]
        v = b.amplitude * np.exp(1.0 - 1.0 / q)
        val[inside] += v
        grad[inside] += (-2.0 * v / q ** 2)[:, None] * z[inside] / w
    return val, grad


def box_integral(bumps, density, rule):
    """int density(x, value, grad) d^d x over the bumps' joint support box, by
    a composite tensor Gauss-Legendre rule: rule[d] is (panels per axis, Gauss
    order) in dimension d."""
    if not bumps:
        return 0.0
    d = len(bumps[0].center)
    panels, order = rule[d]
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes, wts = [], []
    for i in range(d):
        edges = np.linspace(min(b.center[i] - b.width[i] for b in bumps),
                            max(b.center[i] + b.width[i] for b in bumps), panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        axes.append((edges[:-1, None] + half * (nodes + 1.0)).ravel())
        wts.append((half * weights).ravel())
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    w = np.prod(np.meshgrid(*wts, indexing="ij"), axis=0).ravel()
    val, grad = bump_sum(bumps, pts)
    return float(w @ density(pts, val, grad))


def weighted_energy(g, weight, rule):
    """int weight(x) (|grad g0|^2 + m^2 g0^2 + g1^2) d^d x of the data g, by
    box_integral with `rule`."""
    m2 = g.mass ** 2
    return (box_integral(g.g0, lambda x, v, gr: weight(x) * (np.sum(gr * gr, axis=1)
                                                            + m2 * v * v), rule)
            + box_integral(g.g1, lambda x, v, gr: weight(x) * v * v, rule))


def cone_gap(g, r, eps, rule):
    """Weight-difference oracle for the interior cone gap: (pi/2) times the
    integral of the closed-form difference of the squeezed weights against
    the data, for data supported inside the inner ball, by box_integral with
    `rule`."""
    r_p, r_m = r + 2.0 * eps, r - 2.0 * eps
    assert all(np.linalg.norm(b.center) + max(b.width) < r_m for b in g.g0 + g.g1)
    d = g.dimension
    inv = 1.0 / r_p - 1.0 / r_m

    def dbeta(x):
        return (r_p - r_m) / 2.0 - np.sum(x * x, axis=1) * inv / 2.0

    total = box_integral(g.g0, lambda x, v, gr: dbeta(x) * np.sum(gr * gr, axis=1)
                         + (d - 1) / 2.0 * inv * v * v, rule)
    total += box_integral(g.g1, lambda x, v, gr: dbeta(x) * v * v, rule)
    return 0.5 * math.pi * total


def padded_unitary(dim, rng, columns, pad_rng):
    """A full dim x dim Haar unitary whose first `columns` columns are
    `random_unitary(dim, rng, columns=columns)`'s: the thin draw's dim x columns
    Gaussian from rng (real part, then imaginary, each row-major), padded to dim
    columns with normals from pad_rng, through a full QR and the phase fix that
    makes diag(R) positive.  Householder QR builds column j of Q from the
    Gaussian's first j + 1 columns alone, so the leading columns agree; with
    this numpy's LAPACK bit for bit at d <= 64 and at d = 256 with 12 columns,
    though not at d = 128, nor at d = 256 with 85 columns, where its blocked
    routines round in another order."""
    g = rng.standard_normal((2, dim, columns))
    pad = pad_rng.standard_normal((2, dim, dim - columns))
    x = np.concatenate([g, pad], axis=-1)
    q, r = np.linalg.qr(x[0] + 1j * x[1])
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]
