"""Adaptive tensor-product quadrature and polytope integration.

Deterministic greedy refinement: every cell carries a low/high order
Gauss-Legendre pair; the worst cell is bisected along its longest axis
until the accumulated error estimate meets the absolute tolerance.
Closed-form branches handle polynomial x exp(linear) integrands on boxes
(including exponentially decaying half-infinite axes).
"""

import heapq
import math

import numpy as np

from .errors import ToleranceNotMet


_GL_CACHE = {}


def _gl(order):
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def _tensor_rule(box, order):
    pts_1d, wts_1d = [], []
    for lo, hi in box:
        x, w = _gl(order)
        mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
        pts_1d.append(mid + half * x)
        wts_1d.append(half * w)
    grids = np.meshgrid(*pts_1d, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = wts_1d[0]
    for w in wts_1d[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, wts.ravel()


def adaptive_box(fn, box, tol):
    """Integrate fn (vectorized over (m,d) points) over a float box.

    Absolute tolerance; raises ToleranceNotMet when the refinement budget
    of 20000 cells is exhausted.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    d = len(box)
    lo_order = 8 if d <= 2 else 4
    hi_order = 2 * lo_order

    def estimate(cell):
        p1, w1 = _tensor_rule(cell, lo_order)
        p2, w2 = _tensor_rule(cell, hi_order)
        i1 = float(np.dot(fn(p1), w1))
        i2 = float(np.dot(fn(p2), w2))
        return i2, abs(i2 - i1)

    val, err = estimate(box)
    heap = [(-err, 0, box, val, err)]
    total_val, total_err = val, err
    count = 1
    serial = 1
    while total_err > tol:
        if count >= 20000 or not heap:
            raise ToleranceNotMet(
                f"quadrature error {total_err:.3e} above tolerance {tol:.3e}",
                payload={"error": total_err, "cells": count})
        negerr, _, cell, cval, cerr = heapq.heappop(heap)
        total_val -= cval
        total_err -= cerr
        axis = max(range(d), key=lambda i: cell[i][1] - cell[i][0])
        lo, hi = cell[axis]
        mid = (lo + hi) / 2.0
        for piece in ((lo, mid), (mid, hi)):
            sub = list(cell)
            sub[axis] = piece
            v, e = estimate(sub)
            heapq.heappush(heap, (-e, serial, sub, v, e))
            serial += 1
            total_val += v
            total_err += e
        count += 1
    return total_val


def poly_exp_axis_integral(k, lam, lo, hi):
    """Closed form of the 1-d integral of t^k e^(lam t) over [lo, hi].

    ``hi`` may be math.inf when lam < 0 and ``lo`` may be -inf when
    lam > 0.
    """
    lam = float(lam)
    if lam == 0.0:
        if math.isinf(lo) or math.isinf(hi):
            raise ValueError("divergent: polynomial over an infinite interval")
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    def anti(t):
        # antiderivative of t^k e^(lam t): e^(lam t) sum_j (-1)^j k!/(k-j)! t^(k-j)/lam^(j+1)
        if math.isinf(t):
            if (t > 0 and lam < 0) or (t < 0 and lam > 0):
                return 0.0
            raise ValueError("divergent exponential direction")
        acc = 0.0
        coef = 1.0
        for j in range(k + 1):
            acc += ((-1) ** j) * coef * (t ** (k - j)) / (lam ** (j + 1))
            coef *= (k - j)
        return math.exp(lam * t) * acc

    return anti(hi) - anti(lo)


def poly_exp_box(poly, expo, box):
    """Exact-formula integral of poly * exp(expo) over a box.

    ``poly`` is a tropcur Poly, ``expo`` a degree <= 1 Poly; box entries
    may be infinite where the exponential decays.
    """
    if expo.degree() > 1:
        raise ValueError("closed form needs a linear exponent")
    d = poly.nvars
    lam = [0.0] * d
    const = 0.0
    for e, c in expo.exps.items():
        if sum(e) == 0:
            const = float(c)
        else:
            lam[e.index(1)] = float(c)
    total = 0.0
    for e, c in poly.exps.items():
        term = float(c) * math.exp(const)
        for i in range(d):
            lo, hi = box[i]
            lo = -math.inf if lo is None else float(lo)
            hi = math.inf if hi is None else float(hi)
            term *= poly_exp_axis_integral(e[i], lam[i], lo, hi)
        total += term
    return total


def box_integral(fn, box, tol):
    """Integral of a CoefficientFn over a bounded box: ``poly_exp_box`` for
    windowless linear exponents, else ``adaptive_box`` to ``tol``."""
    if not fn.has_windows() and fn.max_exp_degree() <= 1:
        return sum((poly_exp_box(poly, expo, box) for poly, expo, _ in fn.terms), 0.0)
    return adaptive_box(fn.eval_np, [(float(lo), float(hi)) for lo, hi in box], tol)


def _unit_simplex_map(verts):
    """Affine map from the unit Duffy box to a simplex + Jacobian factor."""
    verts = np.asarray(verts, dtype=float)
    k = len(verts) - 1
    edges = verts[1:] - verts[0]
    det = abs(np.linalg.det(edges)) if k else 1.0

    def mapper(pts):
        # Duffy transform: t in [0,1]^k -> barycentric-style coordinates
        t = np.asarray(pts)
        lam = np.zeros_like(t)
        remaining = np.ones(len(t))
        jac = np.ones(len(t))
        for j in range(k):
            lam[:, j] = remaining * t[:, j]
            jac *= remaining
            remaining = remaining * (1.0 - t[:, j])
        x = verts[0] + lam @ edges
        return x, det * jac

    return mapper


def adaptive_simplex(fn, verts, tol):
    """Integrate fn over a k-simplex with exact affine/Duffy mapping."""
    verts = np.asarray(verts, dtype=float)
    k = len(verts) - 1
    if k == 0:
        raise ValueError("0-dimensional simplex")
    mapper = _unit_simplex_map(verts)

    def g(pts):
        x, jac = mapper(pts)
        return fn(x) * jac

    return adaptive_box(g, [(0.0, 1.0)] * k, tol)


def triangulate_vertices(verts):
    """Simplices (as vertex index tuples) covering the hull of verts."""
    verts = np.asarray(verts, dtype=float)
    m, k = verts.shape
    if k == 0 or m <= k:
        return [tuple(range(m))]
    if k == 1:
        order = np.argsort(verts[:, 0])
        return [(int(order[t]), int(order[t + 1])) for t in range(m - 1)]
    from scipy.spatial import Delaunay, QhullError
    try:
        tri = Delaunay(verts)
    except QhullError:
        # degenerate hull: treat as lower-dimensional; caller parametrizes
        return [tuple(range(min(m, k + 1)))]
    return [tuple(int(i) for i in s) for s in tri.simplices]
