"""Exact rational polyhedra in H-representation.

A :class:`Polyhedron` is a finite list of constraints ``a . u <= b`` (or
``< b`` when the row is strict) with rational data, living in R^d.  The
routines here are deliberately small-scale and exact.  A polyhedron is an
immutable value with one Fourier-Motzkin projection, computed on first use:
it eliminates u_{d-1} down to u_0, tags each derived row with the input
rows it combines, and answers emptiness, a feasible point and the implied
equalities (so affine hulls and parametrizations).  Linear bounds run the
same elimination step with one extra variable; vertices and extreme rays
come from subset search; lattice-adapted parametrizations normalize
densities on lower-dimensional pieces.

Intended for the desk-scale polyhedra of this package (dimension <= ~6,
few dozen constraints), not as a general polyhedral library.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import exact
from .errors import ValidationError
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


def midpoint(lo, hi):
    """A rational point of the interval [lo, hi]; either end may be None."""
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


def coordinate_range(rows, var, fixed=()):
    """(lo, hi) of u_var on rows in u_0..u_var with u_0.. set to ``fixed``.

    Either end is None when unbounded.
    """
    lo = hi = None
    for r in rows:
        c = r.a[var]
        if c == 0:
            continue
        val = (r.b - sum(x * y for x, y in zip(r.a, fixed))) / c
        if c > 0:
            hi = val if hi is None else min(hi, val)
        else:
            lo = val if lo is None else max(lo, val)
    return lo, hi


def _fm_step(rows, var):
    """Eliminate u_var from ``(row, sources)`` pairs by Fourier-Motzkin.

    ``sources`` is a bit mask of the input rows a row was combined from.
    Rows equal up to a positive scale merge: the union of their sources is
    kept, and the strict row when only one of them is strict.
    """
    pos, neg, out = [], [], []
    for row, src in rows:
        c = row.a[var]
        (pos if c > 0 else neg if c < 0 else out).append((row, src))
    for rp, sp in pos:
        for rn, sn in neg:
            cp, cn = rp.a[var], -rn.a[var]
            a = tuple(cn * x + cp * y for x, y in zip(rp.a, rn.a))
            out.append((Row(a, cn * rp.b + cp * rn.b, rp.strict or rn.strict), sp | sn))
    merged = {}
    for row, src in out:
        key = row.scaled_key()[:2]
        prev = merged.get(key)
        if prev is not None:
            row = row if row.strict and not prev[0].strict else prev[0]
            src |= prev[1]
        merged[key] = (row, src)
    return list(merged.values())


def _as_row(r, dim):
    if isinstance(r, Row):
        a, b, strict = r.a, r.b, r.strict
    else:
        a, b = r[0], r[1]
        strict = bool(r[2]) if len(r) > 2 else False
    if len(a) != dim:
        raise ValidationError(f"row a = ({', '.join(map(str, a))}) has {len(a)} "
                              f"coefficients, not the dimension {dim}")
    return Row(tuple(frac(x) for x in a), frac(b), strict)


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """H-representation polyhedron ``{u : a_i . u <= b_i}`` over Q.

    An immutable value: the rows are a tuple checked once on construction,
    and derived data (the canonical key, the Fourier-Motzkin projection,
    the affine hull, vertices and recession generators) is computed once,
    on first use, and handed out as tuples.
    """
    dim: int
    rows: tuple = ()

    def __post_init__(self):
        if self.dim < 0:
            raise ValidationError(f"negative dimension {self.dim}")
        object.__setattr__(self, "rows", tuple(_as_row(r, self.dim) for r in self.rows))

    # --- constructors ---------------------------------------------------
    @staticmethod
    def box(bounds):
        """Box from per-axis (lo, hi); either bound may be None."""
        d = len(bounds)
        rows = []
        for i, (lo, hi) in enumerate(bounds):
            e = tuple(int(i == j) for j in range(d))
            if hi is not None:
                rows.append((e, hi))
            if lo is not None:
                rows.append((tuple(-x for x in e), -frac(lo)))
        return Polyhedron(d, rows)

    def with_rows(self, extra):
        return Polyhedron(self.dim, self.rows + tuple(extra))

    def intersect(self, other):
        if self.dim != other.dim:
            raise ValidationError(f"cannot intersect polyhedra of dimensions "
                                  f"{self.dim} and {other.dim}")
        return Polyhedron(self.dim, self.rows + other.rows)

    # --- canonical form ---------------------------------------------------
    @cached_property
    def _key(self):
        keys = sorted(set(r.scaled_key() for r in self.rows if any(r.a)))
        infeasible_consts = [r for r in self.rows if not any(r.a) and
                             (r.b < 0 or (r.strict and r.b == 0))]
        return (self.dim, tuple(keys), bool(infeasible_consts))

    def canonical_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, rows={len(self.rows)})"

    # --- membership -------------------------------------------------------
    def contains(self, u, closure=False):
        return all(r.eval_slack(u) >= 0 if closure else r.holds(u) for r in self.rows)

    # --- the Fourier-Motzkin projection -----------------------------------
    @cached_property
    def _stages(self):
        """``stages[k]``: the rows in u_0..u_{k-1} that describe the
        projection of the polyhedron onto those coordinates, each with the
        mask of the rows it was combined from; ``stages[0]`` is constant."""
        stages = [[(r, 1 << i) for i, r in enumerate(self.rows)]]
        for var in reversed(range(self.dim)):
            stages.append(_fm_step(stages[-1], var))
        return stages[::-1]

    def is_empty(self):
        return any(r.b < 0 or (r.strict and r.b <= 0) for r, _ in self._stages[0])

    def linear_bounds(self, a):
        """Exact (inf, sup) of ``a . u`` over the closure.

        Returns (lo, hi, empty); lo/hi are Fractions or None when the
        functional is unbounded in that direction.
        """
        if self.is_empty():
            return None, None, True
        d = self.dim
        lifted = [Row(r.a + (Fraction(0),), r.b) for r in self.rows]
        lifted.append(Row(tuple([-frac(x) for x in a] + [Fraction(1)]), Fraction(0)))
        lifted.append(Row(tuple([frac(x) for x in a] + [Fraction(-1)]), Fraction(0)))
        rows = [(r, 0) for r in lifted]
        for var in range(d):
            rows = _fm_step(rows, var)
        lo, hi = coordinate_range([r for r, _ in rows], d)
        return lo, hi, False

    def feasible_point(self):
        """Some rational point of the closure, or None if empty.

        Coordinate k is the midpoint of its exact range over the closure
        once u_0..u_{k-1} are fixed, read from the projection stages.
        """
        if self.is_empty():
            return None
        point = ()
        for k in range(self.dim):
            rows = [r for r, _ in self._stages[k + 1]]
            point += (midpoint(*coordinate_range(rows, k, point)),)
        return point

    # --- structural queries -------------------------------------------------
    def implied_equalities(self):
        """Rows that hold with equality on the whole polyhedron.

        By Farkas' lemma a row of a nonempty polyhedron is tight everywhere
        iff it has positive weight in some nonnegative combination of the
        rows that reads 0 <= 0; the projection's combinations generate all
        of them, so those rows are the sources of its ``0 <= 0`` rows.
        """
        if self.is_empty():
            return []
        tight = 0
        for r, src in self._stages[0]:
            if r.b == 0:
                tight |= src
        return [r for i, r in enumerate(self.rows) if tight >> i & 1 and any(r.a)]

    def affine_hull(self):
        """(base point, direction lattice basis) or None if empty.

        Directions form a saturated integer lattice basis, so affine charts
        built from them carry the lattice-normalized Lebesgue measure.
        """
        return self._hull

    @cached_property
    def _hull(self):
        u0 = self.feasible_point()
        if u0 is None:
            return None
        eqs = self.implied_equalities()
        if not eqs:
            basis = [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)]
        else:
            basis = exact.integer_kernel_basis([list(r.a) for r in eqs])
        return u0, tuple(tuple(v) for v in basis)

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
        return self._recession_generators

    @cached_property
    def _recession_generators(self):
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
            return tuple(gens)
        if d == 1:
            for cand in ((1,), (-1,)):
                if all(r.eval_slack(cand) >= 0 for r in pointed.rows):
                    push(cand)
            return tuple(gens)
        for sel in combinations(range(len(rows)), d - 1):
            mat = [list(rows[i].a) for i in sel]
            null = exact.nullspace(mat)
            if len(null) != 1:
                continue
            v = exact.primitive(null[0])
            for cand in (v, tuple(-x for x in v)):
                if all(r.eval_slack(cand) >= 0 for r in pointed.rows):
                    push(cand)
        return tuple(gens)

    def is_bounded(self):
        return not self.recession_generators()

    def vertices(self):
        """Vertices of the closure (exact), sorted."""
        return self._vertices

    @cached_property
    def _vertices(self):
        d = self.dim
        rows = [r for r in self.rows if any(r.a)]
        if d == 0:
            return ((),)
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
        return tuple(sorted(out))

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
