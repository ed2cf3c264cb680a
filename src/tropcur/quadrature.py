"""Adaptive Gauss-Legendre quadrature on boxes and polytopes.

Deterministic greedy refinement: every cell carries a low/high order
Gauss-Legendre pair; the worst cell is bisected along its longest axis
until the summed error estimate meets the absolute tolerance.  Box
integrals of separable terms run axis by axis; everything else runs one
tensor rule, ``_line`` applied axis by axis, on the box or on the Duffy
image of a simplex.  All of it is pure Python on scalar evaluators; scipy
loads only to triangulate a polytope that is not a box.
"""

import heapq
import math

from . import exact
from .errors import ToleranceNotMet


_NODES = {}      # Gauss-Legendre (node, weight) pairs by order


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


def _line(g, lo, hi, order):
    """The ``order``-point Gauss-Legendre sum of a scalar g over [lo, hi]."""
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return half * sum(w * g(mid + half * x) for x, w in _legendre(order))


def _tensor(fn, box, order, head=()):
    """The ``order``-point tensor rule for fn of a point tuple over a box:
    ``_line`` along the first axis of sums over the remaining axes, so in
    one dimension exactly ``_line``."""
    (lo, hi), rest = box[0], box[1:]
    if rest:
        return _line(lambda t: _tensor(fn, rest, order, head + (t,)), lo, hi, order)
    return _line(lambda t: fn(head + (t,)), lo, hi, order)


def _adaptive(fn, box, tol, order):
    """``_refine`` on ``_tensor`` at 2 ``order`` points per axis, its error
    the distance to the ``order``-point sum."""
    def estimate(cell):
        i2 = _tensor(fn, cell, 2 * order)
        return i2, abs(i2 - _tensor(fn, cell, order))

    return _refine(estimate, box, tol)


def adaptive_box(fn, box, tol):
    """Integrate fn, a scalar function of one point tuple, over a box.

    Absolute tolerance; raises ToleranceNotMet when the refinement budget
    of 20000 cells is exhausted.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    return _adaptive(fn, box, tol, 8 if len(box) <= 2 else 4)


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
    order, else the adaptive 8/16-point rule of ``_line`` (of g_i(-log r)
    / r over [e^-hi, e^-lo] with ``radial``, the route of r_i = e^(-u_i)).
    Budget: A_i is |F_i| in closed form, else a 16-point estimate of the
    integral of |g_i|, and S sums |C| d A_1...A_n over monomials with d
    windowed factors; each of those gets error e_i <= rho A_i, rho = tol /
    (2 S).  As |prod F~ - prod F| <= sum_i e_i prod_(j != i) (|F~_j| +
    e_j), the total error is at most rho (1 + rho)^(n-1) S < tol.  A
    quadratic exponent or a window across axes sends the function whole to
    ``adaptive_box``.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    terms = []      # per term and monomial: C and the factor keys (axis, k, lam, windows)
    for poly, expo, wins in fn.terms:
        if expo.degree() > 1 or any(sum(c != 0 for c in w.lin) != 1 for w in wins):
            if radial:
                return adaptive_box(
                    lambda r: fn.eval_float([-math.log(x) for x in r]) / math.prod(r),
                    [(math.exp(-hi), math.exp(-lo)) for lo, hi in box], tol)
            return adaptive_box(fn.eval_float, box, tol)
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
        factor[key] = _adaptive(lambda u: g(u[0]), [(lo, hi)], rho * size[key], 8)

    def term_sum(term):
        sub = 0.0
        for c, keys in term:
            sub += math.prod(map(factor.get, keys), start=c)
        return sub
    return sum(map(term_sum, terms), 0.0)


def adaptive_simplex(fn, verts, tol):
    """Integrate fn, a scalar function of one point, over a full-dimensional
    k-simplex in R^k: ``adaptive_box`` on the unit box through the Duffy map
    t -> v_0 + sum_j lam_j (v_(j+1) - v_0), lam_j = t_j prod_(i<j) (1 - t_i)."""
    k = len(verts) - 1
    if k == 0:
        raise ValueError("0-dimensional simplex")
    v0 = verts[0]
    edges = [[a - b for a, b in zip(v, v0)] for v in verts[1:]]
    det = abs(float(exact.det(edges)))

    def g(t):
        x, rest, jac = list(v0), 1.0, det
        for tj, edge in zip(t, edges):
            lam = rest * tj
            x = [xi + lam * e for xi, e in zip(x, edge)]
            jac *= rest
            rest *= 1.0 - tj
        return fn(x) * jac

    return adaptive_box(g, [(0.0, 1.0)] * k, tol)


def triangulate_vertices(verts):
    """Simplices (as vertex index tuples) covering the hull of verts."""
    m, k = len(verts), len(verts[0])
    if k == 0 or m <= k:
        return [tuple(range(m))]
    if k == 1:
        order = sorted(range(m), key=lambda i: verts[i][0])
        return list(zip(order, order[1:]))
    from scipy.spatial import Delaunay, QhullError
    try:
        tri = Delaunay(verts)
    except QhullError:
        # degenerate hull: treat as lower-dimensional; caller parametrizes
        return [tuple(range(min(m, k + 1)))]
    return [tuple(int(i) for i in s) for s in tri.simplices]
