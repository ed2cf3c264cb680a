"""Exact rational polyhedra in H-representation.

A :class:`Polyhedron` is a finite list of constraints ``a . u <= b`` (or
``< b`` when the row is strict) with rational data, living in R^d.  The
routines here are deliberately small-scale and exact: Fourier-Motzkin
feasibility and linear bounds, vertex and extreme-ray enumeration by
subset search, affine hulls, and lattice-adapted parametrizations used to
normalize densities on lower-dimensional pieces.

Intended for the desk-scale polyhedra of this package (dimension <= ~6,
few dozen constraints), not as a general polyhedral library.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import exact
from .exact import frac


@dataclass(frozen=True)
class Row:
    a: tuple          # coefficients, Fractions
    b: Fraction
    strict: bool = False

    def eval_slack(self, u):
        return self.b - sum(ai * ui for ai, ui in zip(self.a, u))

    def holds(self, u):
        s = self.eval_slack(u)
        return s > 0 if self.strict else s >= 0

    def scaled_key(self):
        nz = [x for x in self.a if x != 0]
        if not nz:
            return (tuple(self.a), self.b, self.strict)
        prim = exact.primitive(self.a)
        scale = next(Fraction(p) / ai for p, ai in zip(prim, self.a) if ai != 0)
        return (prim, self.b * scale, self.strict)


def _fm_eliminate(rows, var):
    pos, neg, rest = [], [], []
    for r in rows:
        c = r.a[var]
        if c > 0:
            pos.append(r)
        elif c < 0:
            neg.append(r)
        else:
            rest.append(r)
    out = list(rest)
    for rp in pos:
        for rn in neg:
            cp, cn = rp.a[var], -rn.a[var]
            a = tuple(cn * x + cp * y for x, y in zip(rp.a, rn.a))
            b = cn * rp.b + cp * rn.b
            out.append(Row(a, b, rp.strict or rn.strict))
    return out


def _fm_dedupe(rows):
    seen = {}
    for r in rows:
        key = r.scaled_key()[:2]
        prev = seen.get(key)
        if prev is None or (r.strict and not prev.strict):
            seen[key] = r
    return list(seen.values())


class Polyhedron:
    """H-representation polyhedron ``{u : a_i . u <= b_i}`` over Q."""

    def __init__(self, dim, rows=()):
        self.dim = dim
        self.rows = []
        for r in rows:
            if isinstance(r, Row):
                self.rows.append(Row(tuple(frac(x) for x in r.a), frac(r.b), r.strict))
            else:
                a, b = r[0], r[1]
                strict = bool(r[2]) if len(r) > 2 else False
                self.rows.append(Row(tuple(frac(x) for x in a), frac(b), strict))

    # --- constructors ---------------------------------------------------
    @staticmethod
    def box(bounds):
        """Box from per-axis (lo, hi); either bound may be None."""
        d = len(bounds)
        rows = []
        for i, (lo, hi) in enumerate(bounds):
            if hi is not None:
                e = [0] * d
                e[i] = 1
                rows.append((tuple(e), hi))
            if lo is not None:
                e = [0] * d
                e[i] = -1
                rows.append((tuple(e), -frac(lo)))
        return Polyhedron(d, rows)

    def with_rows(self, extra):
        return Polyhedron(self.dim, list(self.rows) + list(extra))

    def intersect(self, other):
        assert self.dim == other.dim
        return Polyhedron(self.dim, list(self.rows) + list(other.rows))

    # --- canonical form ---------------------------------------------------
    def canonical_key(self):
        keys = sorted(set(r.scaled_key() for r in self.rows if any(r.a)))
        infeasible_consts = [r for r in self.rows if not any(r.a) and
                             (r.b < 0 or (r.strict and r.b == 0))]
        return (self.dim, tuple(keys), bool(infeasible_consts))

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, rows={len(self.rows)})"

    # --- membership -------------------------------------------------------
    def contains(self, u, closure=False):
        for r in self.rows:
            s = r.eval_slack(u)
            if closure:
                if s < 0:
                    return False
            else:
                if (s < 0) or (r.strict and s == 0):
                    return False
        return True

    # --- feasibility and bounds -------------------------------------------
    def is_empty(self):
        rows = list(self.rows)
        for var in range(self.dim):
            rows = _fm_dedupe(_fm_eliminate(rows, var))
        for r in rows:
            if r.b < 0 or (r.strict and r.b <= 0):
                return True
        return False

    def linear_bounds(self, a):
        """Exact (inf, sup) of ``a . u`` over the closure.

        Returns (lo, hi, empty); lo/hi are Fractions or None when the
        functional is unbounded in that direction.
        """
        if self.is_empty():
            return None, None, True
        d = self.dim
        rows = [Row(tuple(list(r.a) + [Fraction(0)]), r.b, False) for r in self.rows]
        rows.append(Row(tuple([-frac(x) for x in a] + [Fraction(1)]), Fraction(0), False))
        rows.append(Row(tuple([frac(x) for x in a] + [Fraction(-1)]), Fraction(0), False))
        for var in range(d):
            rows = _fm_dedupe(_fm_eliminate(rows, var))
        lo, hi = None, None
        for r in rows:
            c = r.a[d]
            if c > 0:
                val = r.b / c
                hi = val if hi is None else min(hi, val)
            elif c < 0:
                val = r.b / c
                lo = val if lo is None else max(lo, val)
        return lo, hi, False

    def feasible_point(self):
        """Some rational point of the closure, or None if empty."""
        if self.is_empty():
            return None
        point = []
        rows = [Row(r.a, r.b, False) for r in self.rows]
        d = self.dim
        for i in range(d):
            cur = Polyhedron(d - i, rows)
            e0 = tuple([Fraction(1)] + [Fraction(0)] * (d - i - 1))
            lo, hi, empty = cur.linear_bounds(e0)
            if empty:
                return None
            if lo is not None and hi is not None:
                x = (lo + hi) / 2
            elif lo is not None:
                x = lo + 1
            elif hi is not None:
                x = hi - 1
            else:
                x = Fraction(0)
            point.append(x)
            rows = [Row(r.a[1:], r.b - r.a[0] * x, False) for r in rows]
        return tuple(point)

    # --- structural queries -------------------------------------------------
    def implied_equalities(self):
        """Rows that hold with equality on the whole polyhedron."""
        eqs = []
        for r in self.rows:
            if not any(r.a):
                continue
            lo, hi, empty = self.linear_bounds(r.a)
            if empty:
                return []
            if lo is not None and lo == r.b:
                eqs.append(r)
        return eqs

    def affine_hull(self):
        """(base point, direction lattice basis) or None if empty.

        Directions form a saturated integer lattice basis, so affine charts
        built from them carry the lattice-normalized Lebesgue measure.
        """
        u0 = self.feasible_point()
        if u0 is None:
            return None
        eqs = self.implied_equalities()
        if not eqs:
            basis = [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        else:
            basis = exact.integer_kernel_basis([list(r.a) for r in eqs])
        return u0, basis

    def poly_dim(self):
        hull = self.affine_hull()
        if hull is None:
            return -1
        return len(hull[1])

    def recession(self):
        rows = [Row(r.a, Fraction(0), False) for r in self.rows if any(r.a)]
        return Polyhedron(self.dim, rows)

    def lineality_basis(self):
        mat = [list(r.a) for r in self.rows if any(r.a)]
        if not mat:
            return [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        return [exact.primitive(v) for v in exact.nullspace(mat)]

    def recession_generators(self):
        """Generators of the recession cone; lineality appears as +/- pairs."""
        cone = self.recession()
        lin = cone.lineality_basis()
        gens, seen = [], set()

        def push(v):
            if any(v) and v not in seen:
                seen.add(v)
                gens.append(v)

        for v in lin:
            push(v)
            push(tuple(-x for x in v))
        extra = []
        for v in lin:
            extra.append(Row(tuple(frac(x) for x in v), Fraction(0), False))
            extra.append(Row(tuple(-frac(x) for x in v), Fraction(0), False))
        pointed = cone.with_rows(extra)
        rows = [r for r in pointed.rows if any(r.a)]
        d = self.dim
        if d == 0:
            return gens
        if d == 1:
            for cand in ((1,), (-1,)):
                if all(r.eval_slack(cand) >= 0 for r in pointed.rows):
                    push(cand)
            return gens
        for sel in combinations(range(len(rows)), d - 1):
            mat = [list(rows[i].a) for i in sel]
            null = exact.nullspace(mat)
            if len(null) != 1:
                continue
            v = exact.primitive(null[0])
            for cand in (v, tuple(-x for x in v)):
                if all(r.eval_slack(cand) >= 0 for r in pointed.rows):
                    push(cand)
        return gens

    def is_bounded(self):
        return not self.recession_generators()

    def vertices(self):
        """Vertices of the closure (exact), sorted."""
        d = self.dim
        rows = [r for r in self.rows if any(r.a)]
        if d == 0:
            return [()]
        out, seen = [], set()
        for sel in combinations(range(len(rows)), d):
            mat = [list(rows[i].a) for i in sel]
            if exact.rank(mat) != d:
                continue
            sol = exact.solve(mat, [rows[i].b for i in sel])
            if sol is None or sol in seen:
                continue
            if all(r.eval_slack(sol) >= 0 for r in self.rows):
                seen.add(sol)
                out.append(sol)
        return sorted(out)

    def sample_points(self, rng, count, spread=3):
        """Random rational points of the closure."""
        verts = self.vertices()
        rays = self.recession_generators()
        if not verts:
            p = self.feasible_point()
            if p is None:
                return []
            verts = [p]
        pts = []
        for _ in range(count):
            ws = [Fraction(rng.randint(0, 8)) for _ in verts]
            if sum(ws) == 0:
                ws[rng.randrange(len(ws))] = Fraction(1)
            tot = sum(ws)
            pt = [sum(w * v[i] for w, v in zip(ws, verts)) / tot for i in range(self.dim)]
            for g in rays:
                c = Fraction(rng.randint(0, spread))
                pt = [x + c * gi for x, gi in zip(pt, g)]
            pts.append(tuple(pt))
        return pts


def parametrize(poly):
    """Lattice-adapted affine chart of a polyhedron.

    Returns ``(A, u0, domain)`` with A a dim x k integer matrix whose
    columns are a saturated lattice basis of the direction space, u0 a
    rational base point, and ``domain`` the preimage polyhedron in R^k, so
    that u = A t + u0 maps domain onto the polyhedron and Lebesgue measure
    on the domain is the lattice-normalized measure of the piece.
    """
    hull = poly.affine_hull()
    if hull is None:
        return None
    u0, basis = hull
    k = len(basis)
    A = [[Fraction(basis[j][i]) for j in range(k)] for i in range(poly.dim)]
    rows = []
    for r in poly.rows:
        a_t = tuple(sum(r.a[i] * A[i][j] for i in range(poly.dim)) for j in range(k))
        b_t = r.b - sum(r.a[i] * u0[i] for i in range(poly.dim))
        if not any(a_t):
            continue
        rows.append(Row(a_t, b_t, r.strict))
    return A, u0, Polyhedron(k, rows)
