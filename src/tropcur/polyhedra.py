"""Exact rational polyhedra in H-representation.

A :class:`Polyhedron` is a finite list of constraints ``a . u <= b`` (or
``< b`` when the row is strict) with rational data, living in R^d.  The
routines here are deliberately small-scale and exact.  A polyhedron is an
immutable value with one Fourier-Motzkin projection, computed on first use:
it eliminates u_{d-1} down to u_0, tags each derived row with the input
rows it combines, and answers emptiness, boundedness, a feasible point and
the implied equalities (so affine hulls and parametrizations).  Linear
bounds run the same elimination step with one extra variable; vertices and
extreme rays come from subset search, for the facets in the lattice chart
of the affine hull; lattice-adapted parametrizations normalize densities
on lower-dimensional pieces.

Intended for the desk-scale polyhedra of this package (dimension <= ~6,
few dozen constraints), not as a general polyhedral library.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from . import exact
from .errors import ValidationError, Value
from .exact import frac


class Row(Value):
    """The constraint a . u <= b (< b when ``strict``), a a tuple of Fractions."""
    __slots__ = _fields = ("a", "b", "strict")

    def __init__(self, a, b, strict=False):
        super().__init__(a, b, strict)

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


def axis_range(rows, var, fixed=()):
    """(lo, hi) of u_var on integer rows (a_0, .., a_{d-1}, b), a . u <= b, in
    u_0..u_var with u_0.. set to the Fractions ``fixed``; either end is None
    when unbounded.  A range end is the Fraction (b - a . fixed) / a_var."""
    lo = hi = None
    for r in rows:
        c = r[var]
        if not c:
            continue
        val = (r[-1] - sum(map(mul, r, fixed))) / c if fixed else Fraction(r[-1], c)
        if c > 0:
            hi = val if hi is None else min(hi, val)
        else:
            lo = val if lo is None else max(lo, val)
    return lo, hi


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


def _merge(rows, key, strict, src):
    """Put a row under its primitive tuple in ``rows``: strict if either is, sources unioned."""
    prev = rows.get(key)
    rows[key] = (strict, src) if prev is None else (strict or prev[0], src | prev[1])


def _fm_step(rows, var):
    """Eliminate u_var from primitive integer rows {(a, b): (strict, sources)}
    by Fourier-Motzkin (G. B. Dantzig and B. C. Eaves, J. Combin. Theory A 14,
    1973): each positive row meets each negative one, and the combination,
    divided by its gcd, merges with any row already under its tuple.
    ``sources`` is a bit mask of the input rows a row was combined from."""
    pos, neg, out = [], [], {}
    for row, tag in rows.items():
        if row[var]:
            (pos if row[var] > 0 else neg).append((row, abs(row[var]), tag))
        else:
            out[row] = tag
    for rp, cp, (strict_p, sp) in pos:
        for rn, cn, (strict_n, sn) in neg:
            g = gcd(cp, cn)
            row = tuple(cn // g * x + cp // g * y for x, y in zip(rp, rn))
            g = gcd(*row)
            _merge(out, tuple(x // g for x in row) if g > 1 else row, strict_p or strict_n, sp | sn)
    return out


def _project(rows, dim, stop=0):
    """[stage_stop, .., stage_dim] of the integer rows in R^dim: stage k the
    rows in u_0..u_{k-1} that describe the projection onto them."""
    stages = [rows]
    for var in reversed(range(stop, dim)):
        stages.append(_fm_step(stages[-1], var))
    return stages[::-1]


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


class Polyhedron(Value):
    """H-representation polyhedron ``{u : a_i . u <= b_i}`` over Q.

    An immutable value: the rows are a tuple checked once on construction,
    and derived data (the canonical key, the Fourier-Motzkin projection,
    the affine hull, vertices, recession generators, facets and escape
    rays) is computed once per instance, on first use, and handed
    out as tuples.
    """
    _fields = ("dim", "rows")

    def __init__(self, dim, rows=()):
        if dim < 0:
            raise ValidationError(f"negative dimension {dim}")
        super().__init__(dim, tuple(_as_row(r, dim) for r in rows))

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
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self._key)

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, rows={len(self.rows)})"

    # --- membership -------------------------------------------------------
    def contains(self, u, closure=False):
        return all(r.eval_slack(u) >= 0 if closure else r.holds(u) for r in self.rows)

    # --- the Fourier-Motzkin projection -----------------------------------
    @cached_property
    def _stages(self):
        """``stages[k]``: the primitive integer rows (a, b) in u_0..u_{k-1}
        that describe the projection of the polyhedron onto those
        coordinates, each mapped to (strict, the mask of the input rows it
        was combined from); ``stages[0]`` is constant.  Each input row is
        cleared once, and rows equal up to a positive scale merge."""
        rows = {}
        for i, r in enumerate(self.rows):
            _merge(rows, exact.primitive(r.a + (r.b,)), r.strict, 1 << i)
        return _project(rows, self.dim)

    def is_empty(self):
        return any(r[-1] < 0 or (strict and r[-1] == 0) for r, (strict, _) in self._stages[0].items())

    def linear_bounds(self, a):
        """Exact (inf, sup) of ``a . u`` over the closure: the range of t on the
        projection onto t, its ``_stages[1]``, of the closure lifted by t = a . u.

        Returns (lo, hi, empty); lo/hi are Fractions or None when the
        functional is unbounded in that direction.
        """
        if self.is_empty():
            return None, None, True
        a = tuple(frac(x) for x in a)
        lifted = {(0,) + r: (False, 0) for r in self._stages[self.dim]}
        for row in ((1, *(-x for x in a), 0), (-1, *a, 0)):
            lifted[exact.primitive(row)] = (False, 0)
        return *axis_range(_project(lifted, self.dim + 1, 1)[0], 0), False

    def feasible_point(self):
        """Some rational point of the closure, or None if empty.

        Coordinate k is the midpoint of its exact range over the closure
        once u_0..u_{k-1} are fixed, read from the projection stages.
        """
        if self.is_empty():
            return None
        point = ()
        for k in range(self.dim):
            point += (midpoint(*axis_range(self._stages[k + 1], k, point)),)
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
        for r, (_, src) in self._stages[0].items():
            if r[-1] == 0:
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

    @cached_property
    def _lineality(self):
        mat = [list(r.a) for r in self.rows if any(r.a)]
        if not mat:
            return tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))
        return tuple(exact.primitive(v) for v in exact.nullspace(mat))

    def recession_generators(self):
        """Generators of the recession cone; lineality appears as +/- pairs."""
        return self._recession_generators

    @cached_property
    def _recession_generators(self):
        lin = [s for v in self._lineality for s in (v, tuple(-x for x in v))]
        # the pointed part: the cone's rows and lin's orthogonality, both ways
        rows = [r.a for r in self.rows if any(r.a)] + lin
        return tuple(lin) + _pointed_rays(rows, self.dim)

    def escape_rays(self, positions):
        """Generators of the escape cone {v in the recession cone : v_t >= 0 at
        ``positions``, v_t = 0 elsewhere}, in ``recession_generators`` order;
        once per tuple of positions.  The cone is pointed, and its section
        v_t = 0 off a subset S of positions is a face, generated by the rays
        supported in S."""
        memo = self.__dict__.setdefault("_escapes", {})
        if positions not in memo:
            # recession generators read the rows' normals alone, so these are
            # the escape cone's even where the box misses the polyhedron
            box = Polyhedron.box([(0, None) if t in positions else (0, 0)
                                  for t in range(self.dim)])
            memo[positions] = self.intersect(box).recession_generators()
        return memo[positions]

    def is_bounded(self):
        """Whether the recession cone of the closure is {0}.

        Read from the projection, once: stage k+1 bounds u_k above and
        below given u_0..u_{k-1} iff it has rows with a positive and with a
        negative coefficient of u_k.  The stages of the recession cone have
        the same rows up to their right-hand sides, so this holds for an
        empty polyhedron too.
        """
        return self._bounded

    @cached_property
    def _bounded(self):
        return all(any(r[k] > 0 for r in self._stages[k + 1]) and
                   any(r[k] < 0 for r in self._stages[k + 1]) for k in range(self.dim))

    def vertices(self):
        """Vertices of the closure (exact), sorted; none with a lineality space."""
        return () if self._lineality else self._vertices

    @cached_property
    def _vertices(self):
        if self.dim == 0:
            return ((),)
        return _extreme_points([(r.a, r.b) for r in self.rows], (), self.dim)

    @cached_property
    def minors(self):
        """((I, det(A_I)), ...) over the poly_dim-subsets I of the coordinates
        with a nonzero minor, in lexicographic order, where the columns of A
        are the lattice basis of the affine hull; () when empty."""
        hull = self.affine_hull()
        if hull is None:
            return ()
        basis = hull[1]
        dets = ((I, exact.det([[v[i] for v in basis] for i in I]))
                for I in combinations(range(self.dim), len(basis)))
        return tuple((I, d) for I, d in dets if d)

    @cached_property
    def hull_key(self):
        """The affine hull of a nonempty polyhedron as reduced equations."""
        u0, basis = self.affine_hull()
        normals = (exact.nullspace([list(v) for v in basis]) if basis else
                   [tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim)])
        rows, pivots = exact.rref([list(v) + [_dot(v, u0)] for v in normals], self.dim)
        return tuple(tuple(r) for r in rows[:len(pivots)])

    @cached_property
    def facets(self):
        """(key, primitive inward normal) over the facets of the closure.

        A facet is a face of codimension one, cut out by a row that is not
        constant on the affine hull.  The points of the minimal faces (with
        a lineality space, of the section by the ambient orthogonal
        complement of ``_lineality``) and the pointed recession generators
        are enumerated in the lattice chart u = A t + u0 of the hull, on
        p = poly_dim variables without the equality rows, and mapped back; a
        row cuts out a facet when those tight on it span p - 1 dimensions.
        Its key is (its points, its sorted recession generators), so equal
        facets of different cells get one key.  Its normal is the primitive
        vector of the cell's direction lattice that completes the facet's
        lattice basis to one of the cell's (``_inward_normal``), pointing
        into the cell.
        """
        hull = self.affine_hull()
        if hull is None or not hull[1]:
            return ()
        u0, cell = hull
        p, A = len(cell), [[v[i] for v in cell] for i in range(self.dim)]
        rows = [(t, r) for t, r in zip(_chart_rows(self, u0, cell), self.rows) if any(t.a)]
        lin = self._lineality
        # the section lin . u = 0 in chart coordinates; lin itself, both ways
        sec = [(tuple(_dot(v, g) for g in cell), -_dot(v, u0)) for v in lin]
        gens = [(g, exact.solve(A, g)) for v in lin for g in (v, tuple(-x for x in v))]
        homog = [t.a for t, _ in rows] + [s for c, _ in sec for s in (c, tuple(-x for x in c))]
        gens += [(exact.primitive(tuple(_dot(r, s) for r in A)), s)
                 for s in _pointed_rays(homog, p)]
        pts = sorted((tuple(x + _dot(r, t) for x, r in zip(u0, A)), t)
                     for t in _extreme_points([(t.a, t.b) for t, _ in rows], sec, p))
        out = {}
        for t, row in rows:
            tight = [(u, x) for u, x in pts if _dot(t.a, x) == t.b]
            rays = sorted((g, s) for g, s in gens if not _dot(t.a, s))
            key = (tuple(u for u, _ in tight), tuple(g for g, _ in rays))
            if not tight or key in out:
                continue
            dirs = [tuple(a - b for a, b in zip(x, tight[0][1])) for _, x in tight[1:]]
            if exact.rank(dirs + [s for _, s in rays]) != p - 1:
                continue
            out[key] = _inward_normal(self, cell, t.a, row.a)
        return tuple(out.items())

    def sample_points(self, rng, count):
        """Random rational points of the closure: convex combinations of
        the vertices plus 0 to 3 times each recession generator."""
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
                c = Fraction(rng.randint(0, 3))
                pt = [x + c * gi for x, gi in zip(pt, g)]
            pts.append(tuple(pt))
        return pts


def face_directions(key):
    """Vectors that span the direction space of the face with this facet key."""
    pts, rays = key
    return [tuple(x - y for x, y in zip(v, pts[0])) for v in pts[1:]] + list(rays)


def facet_polyhedron(cell, key):
    """The facet of ``cell`` with this key as a closed polyhedron: the cell's
    rows made non-strict, and one row that is tight on the key's points and
    rays and not constant on the cell's affine hull made an equation."""
    pts, rays = key
    basis = cell.affine_hull()[1]
    row = next(r for r in cell.rows if any(_dot(r.a, v) for v in basis)
               and all(_dot(r.a, u) == r.b for u in pts) and not any(_dot(r.a, g) for g in rays))
    return Polyhedron(cell.dim, [Row(r.a, r.b) for r in cell.rows] + [Row(tuple(-a for a in row.a), -row.b)])


def face_key(poly):
    """The key ``Polyhedron.facets`` gives a face, read off the face as a
    closed polyhedron: the vertices of its section by the orthogonal
    complement of its lineality, whose generators come as +- pairs among the
    recession generators, and its sorted recession generators."""
    gens = poly.recession_generators()
    section = poly.with_rows([(g, 0) for g in gens if tuple(-x for x in g) in gens])
    return tuple(section.vertices()), tuple(sorted(gens))


def _inward_normal(poly, cell, a_t, a):
    """Primitive generator of (cell lattice)/(facet lattice) with a . w < 0,
    for the lattice basis ``cell`` of ``poly``'s hull and the facet's row
    ``a``, which reads ``a_t`` in the chart.  The facet lattice is the
    kernel of the primitive chart row l, which e_i completes for the first
    l_i = +-1, as in ``exact.extend_to_basis``; else that routine's
    Hermite form completes the basis of the ambient kernel."""
    pdim, n = len(cell), len(cell[0])
    ell = exact.primitive(a_t)
    i = next((i for i, x in enumerate(ell) if abs(x) == 1), None)
    if i is not None:
        w = exact.primitive(cell[i])
        return w if a_t[i] < 0 else tuple(-x for x in w)
    face = exact.integer_kernel_basis([list(r.a) for r in poly.implied_equalities()] + [list(a)])
    # coordinates of the face lattice inside the cell lattice
    mat = [[Fraction(cell[j][i]) for j in range(pdim)] for i in range(n)]
    cols = [tuple(int(x) for x in exact.solve(mat, [Fraction(x) for x in v])) for v in face]
    w_coords = exact.extend_to_basis(cols, pdim)[-1]
    w = exact.primitive(tuple(sum(Fraction(w_coords[j]) * Fraction(cell[j][i])
                                  for j in range(pdim)) for i in range(n)))
    return w if _dot(a, w) < 0 else tuple(-x for x in w)


def _extreme_points(rows, eqs, d):
    """Sorted vertices of the pointed polyhedron {x in R^d : a . x <= b over
    ``rows``, c . x = e over ``eqs``}: the solutions, inside every row, of
    d - len(eqs) rows with nonzero a taken as equalities beside ``eqs``."""
    out = set()
    for sel in combinations([(a, b) for a, b in rows if any(a)], d - len(eqs)):
        red, pivots = exact.rref([[*a, b] for a, b in (*sel, *eqs)], d)
        if len(pivots) == d:
            sol = tuple(row[d] for row in red)
            if all(b - _dot(a, sol) >= 0 for a, b in rows):
                out.add(sol)
    return tuple(sorted(out))


def _pointed_rays(rows, d):
    """Primitive extreme rays of the pointed cone {v in R^d : a . v <= 0 over
    ``rows``}, in order of discovery: the kernels of d - 1 of the rows that
    are lines, with the sign that lies in the cone."""
    cands = [(1,), (-1,)] if d == 1 else []
    for sel in combinations(rows, max(d - 1, 0)):
        null = exact.nullspace([list(a) for a in sel])
        if len(null) == 1:
            v = exact.primitive(null[0])
            cands += [v, tuple(-x for x in v)]
    return tuple(v for v in dict.fromkeys(cands) if all(_dot(a, v) <= 0 for a in rows))


def _chart_rows(poly, u0, basis):
    """Each row a . u <= b of ``poly`` in the chart u = A t + u0, A with
    the columns ``basis``: the row (a A) . t <= b - a . u0."""
    return [Row(tuple(_dot(r.a, v) for v in basis), r.b - _dot(r.a, u0), r.strict)
            for r in poly.rows]


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
    A = [[Fraction(v[i]) for v in basis] for i in range(poly.dim)]
    rows = [r for r in _chart_rows(poly, u0, basis) if any(r.a)]
    return A, u0, Polyhedron(len(basis), rows)
