"""Reference integrals of bump-function data, shared by the field and acceptance
tests.

They share no code with modlab.field: from modlab this module may import only
public data classes (test_oracles checks its imports), so an error in the field
code cannot reach the values it is checked against.
"""

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
