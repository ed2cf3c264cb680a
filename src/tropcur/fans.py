"""Smooth fans, strata of the partial compactification, and toric charts.

A fan is stored fully face-closed.  Each cone carries its generator list
(primitive integer vectors) plus a stored basis completion certifying
smoothness; quotient coordinates on the stratum N(sigma) = N_R / <sigma>
come from the Hermite-style deterministic completion, so all coordinates
are reproducible across runs.

Axes and cone ids are 0-based throughout the library; the JSON layer
(:mod:`tropcur.formats`) speaks 1-based indices.
"""

from fractions import Fraction
from itertools import combinations

from . import exact
from .errors import (NotStrictlyConvex, NotSmooth, BadIntersection,
                     OutsideSupport, ValidationError, Value)


class Cone(Value):
    """Smooth rational cone given by primitive generators.

    ``basis`` is the stored smoothness certificate: a Z-basis of N whose
    first ``dim`` vectors are the generators.
    """
    __slots__ = _fields = ("generators", "basis")

    @property
    def dim(self):
        return len(self.generators)

    def __repr__(self):
        return f"Cone{self.generators}"


class CompactifiedPoint(Value):
    """Point of N_Sigma: stratum cone id + coords in the quotient basis."""
    __slots__ = _fields = ("stratum", "coords")

    def __init__(self, stratum, coords):
        super().__init__(stratum, tuple(exact.frac(c) for c in coords))


class ToricChart(Value):
    """Adapted coordinates on the open star of a cone.

    ``basis`` is a Z-basis of N with the cone generated by the prefix;
    chart coordinates are the dual basis, so the cone's stratum directions
    are the ``infinite_axes`` prefix and the chart realizes the open set
    U_rho inside R_infty^n.  The repr leaves ``dual`` out.
    """
    __slots__ = _fields = ("cone_id", "basis", "infinite_axes", "dual")

    def __init__(self, cone_id, basis, infinite_axes, dual=()):
        super().__init__(cone_id, basis, infinite_axes, dual)

    def __repr__(self):
        return (f"ToricChart(cone_id={self.cone_id!r}, basis={self.basis!r}, "
                f"infinite_axes={self.infinite_axes!r})")


def _make_cone(gens, n):
    seen = []
    for g in gens:
        if len(g) != n:
            raise NotSmooth(f"generator {g} has wrong length", payload={"generator": g})
        if not any(g):
            raise NotStrictlyConvex("zero generator", payload={"generator": g})
        p = exact.primitive(g)
        if p not in seen:
            seen.append(p)
    if exact.rank([list(g) for g in seen]) != len(seen):
        # linearly dependent generators: either a line is contained
        # (a nonnegative nontrivial relation exists) or simply not simplicial
        from .polyhedra import Polyhedron
        m = len(seen)
        rows = [(tuple(-Fraction(int(i == j)) for j in range(m)), 0) for i in range(m)]
        eq_rows = []
        for coord in range(n):
            a = tuple(Fraction(seen[i][coord]) for i in range(m))
            eq_rows.append((a, 0))
            eq_rows.append((tuple(-x for x in a), 0))
        norm = [(tuple(Fraction(-1) for _ in range(m)), Fraction(-1))]
        probe = Polyhedron(m, rows + eq_rows + norm)
        if not probe.is_empty():
            raise NotStrictlyConvex("cone contains a line",
                                    payload={"generators": seen})
        raise NotSmooth("generators are linearly dependent",
                        payload={"generators": seen})
    try:
        basis = exact.extend_to_basis(seen, n)
    except ValueError:
        raise NotSmooth("generators are not part of a Z-basis",
                        payload={"generators": seen}) from None
    return Cone(tuple(seen), tuple(basis))


def _cone_hrep(cone, n):
    """H-representation of a smooth cone from its basis completion.

    Row i < ``cone.dim`` reads -(coefficient of generator i) <= 0.
    """
    from .polyhedra import Polyhedron, Row
    binv = exact.inverse(cone.basis)
    rows = []
    k = cone.dim
    for i in range(n):
        a = tuple(binv[j][i] for j in range(n))
        if i < k:
            rows.append(Row(tuple(-x for x in a), Fraction(0), False))
        else:
            rows.append(Row(a, Fraction(0), False))
            rows.append(Row(tuple(-x for x in a), Fraction(0), False))
    return Polyhedron(n, rows)


def _membership(cone, v):
    """Coefficients of v over the cone's full basis (exact)."""
    n = len(cone.basis)
    mat = [[Fraction(cone.basis[j][i]) for j in range(n)] for i in range(n)]
    return exact.solve(mat, [Fraction(x) for x in v])


class Fan:
    """Face-closed smooth fan; its cones are ordered by dimension."""

    def __init__(self, rank, cones):
        self.rank = rank
        self.cones = cones            # list of Cone, id = index; cones[0] = {0}
        self._key = {c.generators: i for i, c in enumerate(cones)}
        self._charts = {}
        self._quotients = {}

    def __len__(self):
        return len(self.cones)

    def cone_id(self, gens):
        key = tuple(sorted(exact.primitive(g) for g in gens))
        for c, i in self._key.items():
            if tuple(sorted(c)) == key:
                return i
        raise KeyError(f"no cone with generators {gens}")

    # --- strata ----------------------------------------------------------
    def quotient_basis(self, sigma_id):
        """Rows of the projection N_R -> N(sigma) in the stored basis."""
        if sigma_id not in self._quotients:
            cone = self.cones[sigma_id]
            n, k = self.rank, cone.dim
            binv = exact.inverse(cone.basis)
            # coefficient of basis vector i is column i of the row-matrix inverse
            proj = [tuple(binv[j][i] for j in range(n)) for i in range(k, n)]
            self._quotients[sigma_id] = proj
        return self._quotients[sigma_id]

    def _check_length(self, v):
        if len(v) != self.rank:
            raise ValidationError(f"vector {list(v)} has length {len(v)}, "
                                  f"not the fan's rank {self.rank}")

    def project(self, sigma_id, v):
        """pi_sigma: N_R -> N(sigma) in the deterministic quotient basis."""
        self._check_length(v)
        proj = self.quotient_basis(sigma_id)
        coords = tuple(sum(row[j] * Fraction(v[j]) for j in range(self.rank))
                       for row in proj)
        return CompactifiedPoint(sigma_id, coords)

    # --- operations --------------------------------------------------------
    def locate_relint(self, v):
        """Unique cone with v in its relative interior."""
        self._check_length(v)
        v = tuple(exact.frac(x) for x in v)
        if not any(v):
            return 0
        for i, cone in enumerate(self.cones):
            if cone.dim == 0:
                continue
            lam = _membership(cone, v)
            if lam is None:
                continue
            k = cone.dim
            if all(lam[j] > 0 for j in range(k)) and all(lam[j] == 0 for j in range(k, self.rank)):
                return i
        raise OutsideSupport(f"{v} is not in the relative interior of any cone",
                             payload={"vector": v})

    def limit_point(self, p, v):
        """lim_{mu -> infty} p + mu v inside N_Sigma."""
        sigma = self.locate_relint(v)
        return self.project(sigma, p)

    def toric_chart(self, rho_id):
        """Deterministic adapted chart of the open star of a cone."""
        if rho_id not in self._charts:
            cone = self.cones[rho_id]
            basis = cone.basis
            dual = exact.inverse(basis)
            dual_rows = tuple(tuple(dual[j][i] for j in range(self.rank))
                              for i in range(self.rank))
            self._charts[rho_id] = ToricChart(
                cone_id=rho_id, basis=tuple(tuple(b) for b in basis),
                infinite_axes=frozenset(range(cone.dim)), dual=dual_rows)
        return self._charts[rho_id]


def validate_fan(cone_generators, rank=None):
    """Build a face-closed smooth Fan from raw generator lists.

    Rejects non-smooth cones and pairs of input cones that do not intersect
    in a common face, with a point of both outside it as the witness
    ``ray``; the zero cone is always added and face closure computed.

    Only pairs of input cones are checked, which is enough: if smooth cones
    sigma and tau meet in the cone on their common generators, a face of
    sigma and a face of tau meet in the cone on the generators common to
    both faces, and two faces of one smooth cone meet in a face by
    construction.
    """
    gens_list = [list(c) for c in cone_generators]
    if rank is None:
        for c in gens_list:
            if c:
                rank = len(c[0])
                break
        if rank is None:
            raise NotSmooth("cannot infer rank from an empty fan; pass rank=")
    inputs = [_make_cone(raw, rank) for raw in gens_list]

    # sigma meets tau in the cone on their common generators iff no point
    # of both has sigma-coordinates summing to 1 on the generators tau lacks;
    # one input cone has no pair, so no H-representation and no polyhedra
    hreps = [_cone_hrep(c, rank) for c in inputs] if len(inputs) > 1 else []
    for (sigma, hs), (tau, ht) in combinations(zip(inputs, hreps), 2):
        from .polyhedra import Row
        lacking = [r.a for g, r in zip(sigma.generators, hs.rows)
                   if g not in tau.generators]
        if not lacking:
            continue
        outside = Row(tuple(map(sum, zip(*lacking))), Fraction(-1))
        probe = hs.intersect(ht).with_rows([outside])
        if not probe.is_empty():
            raise BadIntersection(
                "cones intersect outside a common face",
                payload={"pair": (sigma.generators, tau.generators),
                         "ray": exact.primitive(probe.feasible_point())})

    cones = {(): Cone((), tuple(exact.extend_to_basis([], rank)))}
    for cone in inputs:
        # face closure of a smooth cone: all generator subsets
        for r in range(1, cone.dim + 1):
            for sub in combinations(cone.generators, r):
                key = tuple(sorted(sub))
                if key not in cones:
                    cones[key] = _make_cone(list(sub), rank)

    return Fan(rank, [cones[k] for k in sorted(cones, key=lambda k: (len(k), k))])


def p2_fan():
    """The projective-plane fan: rays (1,0), (0,1), (-1,-1) and the 2-cones."""
    return validate_fan([
        [(1, 0), (0, 1)],
        [(0, 1), (-1, -1)],
        [(-1, -1), (1, 0)],
    ])


def orthant_fan(n):
    """The fan of the affine chart: the nonnegative orthant and its faces.

    One input cone, so validation checks no pair; the 2^n faces are
    built on every call.
    """
    gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return validate_fan([gens], rank=n)
