"""Adaptive Gauss-Legendre quadrature on boxes and polytopes.

Deterministic greedy refinement: every cell carries a low/high order
Gauss-Legendre pair; the worst cell is bisected along its longest axis
until the summed error estimate meets the absolute tolerance.  Box
integrals of separable terms run axis by axis in pure Python; numpy loads
only for the tensor rule (``adaptive_box``) and simplices.
"""

import heapq
import math

from .errors import ToleranceNotMet


_GL_CACHE, _NODES = {}, {}      # numpy and pure-Python Gauss-Legendre rules by order


def _gl(order):
    if order not in _GL_CACHE:
        import numpy as np
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _legendre(order):
    """Gauss-Legendre (node, weight) pairs on [-1, 1] in floats, by Newton's
    iteration on the three-term recurrence of P_order; once per order."""
    if order not in _NODES:
        _NODES[order] = []
        for i in range(order):
            x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
            for _ in range(8):
                p0, p1 = 1.0, x
                for j in range(2, order + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = order * (x * p1 - p0) / (x * x - 1.0)
                x -= p1 / dp
            _NODES[order].append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return _NODES[order]


def _tensor_rule(box, order):
    import numpy as np
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


def _refine(estimate, box, tol):
    """Greedy bisection of the worst cell; ``estimate(cell)`` gives (value,
    error).  Raises ToleranceNotMet once 20000 cells are spent."""
    d = len(box)
    val, err = estimate(box)
    heap = [(-err, 0, box, val, err)]
    total_val, total_err = val, err
    count = serial = 1
    while total_err > tol:
        if count >= 20000 or not heap:
            raise ToleranceNotMet(
                f"quadrature error {total_err:.3e} above tolerance {tol:.3e}",
                payload={"error": total_err, "cells": count})
        _, _, cell, cval, cerr = heapq.heappop(heap)
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


def adaptive_box(fn, box, tol):
    """Integrate fn (vectorized over (m,d) points) over a float box.

    Absolute tolerance; raises ToleranceNotMet when the refinement budget
    of 20000 cells is exhausted.
    """
    import numpy as np
    box = [(float(lo), float(hi)) for lo, hi in box]
    lo_order = 8 if len(box) <= 2 else 4

    def estimate(cell):
        p1, w1 = _tensor_rule(cell, lo_order)
        p2, w2 = _tensor_rule(cell, 2 * lo_order)
        i1 = float(np.dot(fn(p1), w1))
        i2 = float(np.dot(fn(p2), w2))
        return i2, abs(i2 - i1)

    return _refine(estimate, box, tol)


def _line(g, lo, hi, order):
    """The ``order``-point Gauss-Legendre sum of a scalar g over [lo, hi]."""
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return half * sum(w * g(mid + half * x) for x, w in _legendre(order))


def adaptive_line(g, lo, hi, tol):
    """``_refine`` with the 8/16-point pair of ``_line``: no numpy."""
    def estimate(cell):
        (a, b), = cell
        i2 = _line(g, a, b, 16)
        return i2, abs(i2 - _line(g, a, b, 8))

    return _refine(estimate, [(lo, hi)], tol)


def poly_exp_axis_integral(k, lam, lo, hi):
    """Closed form of the 1-d integral of t^k e^(lam t) over a finite [lo, hi]."""
    if lam == 0.0:
        return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)

    def anti(t):
        # antiderivative of t^k e^(lam t): e^(lam t) sum_j (-1)^j k!/(k-j)! t^(k-j)/lam^(j+1)
        acc, coef = 0.0, 1.0
        for j in range(k + 1):
            acc += ((-1) ** j) * coef * (t ** (k - j)) / (lam ** (j + 1))
            coef *= (k - j)
        return math.exp(lam * t) * acc

    return anti(hi) - anti(lo)


def _axis_fn(i, k, lam, wins, lo, hi, slab, radial):
    """g(t) = t^k e^(lam t) prod W(t) over the windows W on axis i, on
    [lo, hi] cut to their support ``slab`` (reversed where g is 0); with
    ``radial``, r -> g(-log r) / r on the matching r-interval."""
    lo = lo if slab[0] is None else max(lo, float(slab[0]))
    hi = hi if slab[1] is None else min(hi, float(slab[1]))
    wins = [(w.fn, float(w.const), float(w.lin[i])) for w in wins]

    def g(t):
        v = t ** k * math.exp(lam * t)
        for fn, c, a in wins:
            v *= fn.eval_float(c + a * t)
        return v
    if radial:
        return (lambda r: g(-math.log(r)) / r), math.exp(-hi), math.exp(-lo)
    return g, lo, hi


def box_integral(fn, box, tol, radial=False):
    """Integral of a CoefficientFn over a bounded box, axis by axis.

    A monomial of a term P(u) exp(<lam, u> + c) prod W whose windows each
    read one axis integrates to C F_1...F_n, F_i the integral of
    g_i(t) = t^k e^(lam_i t) prod_(W on axis i) W(t): the closed form
    ``poly_exp_axis_integral`` on an axis without a window, summed in its
    order, else ``adaptive_line`` (of g_i(-log r) / r over [e^-hi, e^-lo]
    with ``radial``, the route of r_i = e^(-u_i)).  Budget: A_i is |F_i|
    in closed form, else a 16-point estimate of the integral of |g_i|, and
    S sums |C| d A_1...A_n over monomials with d windowed factors; each of
    those gets error e_i <= rho A_i, rho = tol / (2 S).  As |prod F~ -
    prod F| <= sum_i e_i prod_(j != i) (|F~_j| + e_j), the total error is
    at most rho (1 + rho)^(n-1) S < tol.  A quadratic exponent or a window
    across axes sends the function whole to ``adaptive_box``.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    terms = []      # per term and monomial: C and the factor keys (axis, k, lam, windows)
    for poly, expo, wins in fn.terms:
        if expo.degree() > 1 or any(sum(c != 0 for c in w.lin) != 1 for w in wins):
            if radial:
                import numpy as np
                return adaptive_box(lambda r: fn.eval_np(-np.log(r)) / r.prod(axis=1),
                                    [(math.exp(-hi), math.exp(-lo)) for lo, hi in box], tol)
            return adaptive_box(fn.eval_np, box, tol)
        rates = {e.index(1): float(c) for e, c in expo.exps.items() if sum(e)}
        const = math.exp(float(expo.exps.get((0,) * fn.nvars, 0)))
        terms.append([(float(c) * const, [(i, e[i], rates.get(i, 0.0), tuple(
            w for w in wins if w.lin[i])) for i in range(fn.nvars)]) for e, c in poly.exps.items()])
    factor, size, rules = {}, {}, {}
    for key in dict.fromkeys(key for term in terms for _, keys in term for key in keys):
        i, k, lam, ws = key
        if ws:
            slab = fn._term_slab(ws, i) or (None, None)
            g, lo, hi = rules[key] = _axis_fn(i, k, lam, ws, *box[i], slab, radial)
            size[key] = _line(lambda t: abs(g(t)), lo, hi, 16)
        else:
            factor[key] = poly_exp_axis_integral(k, lam, *box[i])
            size[key] = abs(factor[key])
    scale = sum(abs(c) * sum(key in rules for key in keys) * math.prod(map(size.get, keys))
                for term in terms for c, keys in term)
    rho = tol / (2 * scale) if scale else math.inf
    for key, (g, lo, hi) in rules.items():
        factor[key] = adaptive_line(g, lo, hi, rho * size[key])

    def term_sum(term):
        sub = 0.0
        for c, keys in term:
            sub += math.prod(map(factor.get, keys), start=c)
        return sub
    return sum(map(term_sum, terms), 0.0)


def _unit_simplex_map(verts):
    """Affine map from the unit Duffy box to a simplex + Jacobian factor."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
