"""Facets, boundedness and lattice minors read from a cell's cached geometry,
and integration currents read back into complexes, checked against the
routines they replaced: one new polyhedron, with its own projection, per
facet row, the parametrization's minors, and a rebuilt integration current
compared by canonical key."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from tropcur import exact
from tropcur.coeffs import Poly
from tropcur.currents import (LagerbergCurrent, WeightedComplex, _integrated_complex,
                              balancing_check, integration_current)
from tropcur.fans import ToricChart
from tropcur.gallery import shifted_tropical_line, tropical_line
from tropcur.indices import subsets
from tropcur.measures import Piece, PieceMeasure
from tropcur.polyhedra import Polyhedron, Row, parametrize


# --- reference: a new polyhedron per facet row ------------------------------------

def _ref_face_key(poly):
    return (tuple(poly.vertices()), tuple(sorted(poly.recession_generators())))


def _ref_facets(poly):
    d = poly.poly_dim()
    out = {}
    for row in poly.rows:
        if not any(row.a):
            continue
        face = poly.with_rows([Row(tuple(-x for x in row.a), -row.b, False)])
        if face.is_empty():
            continue
        if face.poly_dim() == d - 1:
            out[_ref_face_key(face)] = face
    return out


def _ref_direction_lattice(poly):
    hull = poly.affine_hull()
    return hull[1] if hull else []


def _ref_primitive_normal(cell, face):
    L_cell = _ref_direction_lattice(cell)
    L_face = _ref_direction_lattice(face)
    pdim = len(L_cell)
    mat = [[Fraction(L_cell[j][i]) for j in range(pdim)] for i in range(len(L_cell[0]))]
    cols = []
    for v in L_face:
        sol = exact.solve(mat, [Fraction(x) for x in v])
        cols.append([int(x) for x in sol])
    base = exact.extend_to_basis([tuple(c) for c in cols], pdim)
    w_coords = base[-1]
    w = tuple(sum(Fraction(w_coords[j]) * Fraction(L_cell[j][i])
                  for j in range(pdim)) for i in range(len(L_cell[0])))
    w = exact.primitive(w)
    x0 = face.feasible_point()
    for cand in (w, tuple(-x for x in w)):
        ok = True
        for row in cell.rows:
            slack = row.eval_slack(x0)
            push = sum(a * c for a, c in zip(row.a, cand))
            if slack == 0 and push > 0:
                ok = False
                break
            if slack < 0:
                ok = False
                break
        if ok:
            return cand
    raise ValueError("no inward-pointing normal found; face data inconsistent")


def _ref_balancing_check(C):
    if C.dim() <= 0:
        return "yes", None
    faces = {}
    for poly, w in C.cells:
        if w == 0:
            continue
        for key, face in _ref_facets(poly).items():
            faces.setdefault(key, (face, []))[1].append((poly, w))
    for key, (face, incident) in faces.items():
        normals = [(w, _ref_primitive_normal(cell, face)) for cell, w in incident]
        total = tuple(sum(Fraction(w) * Fraction(v[i]) for w, v in normals)
                      for i in range(len(normals[0][1])))
        L_face = _ref_direction_lattice(face)
        if any(total) and (not L_face or exact.solve(
                [[Fraction(v[i]) for v in L_face] for i in range(len(total))],
                list(total)) is None):
            return "no", {"face": key, "residual": total}
    return "yes", None


def _ref_minors(poly, n, p):
    par = parametrize(poly)
    if par is None:
        return {}
    A = par[0]
    dets = ((I, exact.det([[A[i][j] for j in range(p)] for i in I]))
            for I in subsets(n, p))
    return {I: d for I, d in dets if d}


# --- reference: rebuild the integration current and compare -------------------------

def _ref_integrated_complex(T):
    """The complex read off T's diagonal co-coefficients, accepted only when
    its integration current, rescaled, has T's canonical key."""
    if not T.has_measure_model():
        return None
    cells, diagonal = {}, {}
    for (I, J), mu in T.cocoeffs.items():
        if mu.atoms or mu.derivative_atoms or mu.scale[1]:
            return None
        for piece in mu.pieces:
            if piece.stratum or piece.weight_poly.degree() or piece.weight_expo.degree():
                return None
            key = piece.poly.canonical_key()
            cells.setdefault(key, piece.poly)
            if I == J:
                w = mu.scale[0] * sum(piece.weight_poly.exps.values())
                diagonal[(I, key)] = diagonal.get((I, key), 0) + w
    weights = []
    for key, poly in cells.items():
        if poly.poly_dim() != T.q:
            return None
        I, det = next(iter(_ref_minors(poly, T.n, T.q).items()))
        weights.append((poly, Fraction(diagonal.get((I, key), 0)) / det ** 2))
    den = math.lcm(*(w.denominator for _, w in weights))
    C = WeightedComplex(tuple((poly, w * den) for poly, w in weights), declared_dim=T.q)
    if integration_current(C, T.chart).scale(Fraction(1, den)) != T:
        return None
    return C


# --- strategies --------------------------------------------------------------------

@st.composite
def _polyhedra(draw):
    """d <= 3, at most 6 rows, some strict, some in opposite pairs
    (equalities); few rows in d = 3 leave a lineality space, and many
    random rows an empty polyhedron."""
    d = draw(st.integers(1, 3))
    rows, n = [], draw(st.integers(0, 6))
    while len(rows) < n:
        a = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        b = draw(st.fractions(-3, 3, max_denominator=2))
        rows.append((a, b, draw(st.sampled_from([False, False, False, True]))))
        if draw(st.sampled_from([False, False, True])):
            rows.append((tuple(-x for x in a), -b, False))
    return Polyhedron(d, rows)


def _closure(poly):
    """The closure of a nonempty polyhedron: its rows made non-strict."""
    return Polyhedron(poly.dim, [Row(r.a, r.b) for r in poly.rows])


def _cell(x0, gens, caps):
    """x0 + sum t_i g_i over t_i in [0, cap_i] (cap None: no upper end,
    cap "free": t_i in R), for linearly independent integer g_i, in
    H-representation."""
    d = len(x0)
    rows = []
    for nrm in exact.integer_kernel_basis([list(g) for g in gens]):
        c = sum(x * y for x, y in zip(nrm, x0))
        rows += [(nrm, c), (tuple(-x for x in nrm), -c)]
    gram = exact.inverse([[sum(x * y for x, y in zip(g, h)) for h in gens] for g in gens])
    for i, cap in enumerate(caps):
        if cap == "free":
            continue
        # w . g_j = delta_ij, so t_i = w . (u - x0)
        w = tuple(sum(gram[i][j] * gens[j][k] for j in range(len(gens))) for k in range(d))
        c = sum(x * y for x, y in zip(w, x0))
        rows.append((tuple(-x for x in w), -c))
        if cap is not None:
            rows.append((w, c + cap))
    return Polyhedron(d, rows)


_DIRECTIONS = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1))


def _tropical_plane(x0, signs, weights):
    """The 2-cones spanned by two of e_0, e_1, e_2, -(e_0 + e_1 + e_2) at
    x0, the axes flipped by ``signs``: balanced when all weights agree."""
    rays = [tuple(s * int(i == j) for j, s in enumerate(signs)) for i in range(3)]
    rays.append(tuple(-x for x in map(sum, zip(*rays))))
    pairs = [(g, h) for t, g in enumerate(rays) for h in rays[t + 1:]]
    return [(_cell(x0, pair, (None, None)), w) for pair, w in zip(pairs, weights)]


@st.composite
def _complexes(draw):
    """Weighted complexes of pointed cells in R^2 or R^3: stars of rays at a
    vertex, balanced there unless a weight is nudged, and segments, or
    2-cells in R^3 spanned by two rays of a star, or tropical planes."""
    d = draw(st.integers(2, 3))
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        x0 = tuple(Fraction(draw(st.integers(-1, 1))) for _ in range(d))
        if d == 3 and draw(st.integers(0, 2)) == 0:
            weights = [1] * 6
            weights[draw(st.integers(0, 5))] += draw(st.sampled_from([0, 0, 1]))
            signs = [draw(st.sampled_from([-1, 1])) for _ in range(3)]
            cells += _tropical_plane(x0, signs, weights)
            continue
        dirs = [g[:d] for g in draw(st.lists(_DIRECTIONS, min_size=1, max_size=3))]
        dirs = [exact.primitive(g) for g in dirs if any(g)]
        if not dirs:
            continue
        weights = [draw(st.integers(1, 2)) for _ in dirs]
        last = tuple(-sum(w * g[k] for w, g in zip(weights, dirs)) for k in range(d))
        if any(last):
            prim = exact.primitive(last)
            dirs.append(prim)
            weights.append(next(x // y for x, y in zip(last, prim) if y))
        if draw(st.booleans()):
            weights[0] += draw(st.sampled_from([-1, 1]))
        if d == 3 and draw(st.booleans()):
            pairs = [(g, h) for g, h in zip(dirs, dirs[1:] + dirs[:1]) if exact.rank([g, h]) == 2]
            cells += [(_cell(x0, pair, (None, None)), w) for pair, w in zip(pairs, weights)]
        else:
            caps = [draw(st.sampled_from([None, None, 1, 2])) for _ in dirs]
            cells += [(_cell(x0, (g,), (c,)), w)
                      for g, w, c in zip(dirs, weights, caps) if exact.rank([g]) == 1]
    dims = {poly.poly_dim() for poly, _ in cells}
    if len(dims) > 1:
        cells = [(poly, w) for poly, w in cells if poly.poly_dim() == max(dims)]
    return WeightedComplex(tuple(cells))


_CHART4 = ToricChart(0, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
                     frozenset())


@st.composite
def _integration_currents(draw):
    """Integration currents of 1 to 3 cells of one dimension p <= 3 in R^4,
    some rescaled by a rational, and mutants: one piece reweighted, one
    dropped, or an (I, J) of the chart added whose two pieces cancel."""
    p = draw(st.integers(1, 3))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        gens = [tuple(draw(st.integers(-2, 2)) for _ in range(4)) for _ in range(p)]
        assume(exact.rank(gens) == p)
        x0 = tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(4))
        caps = [draw(st.sampled_from([None, 1, 2])) for _ in gens]
        cells.append((_cell(x0, gens, caps), draw(st.integers(-1, 3))))
    T = integration_current(WeightedComplex(tuple(cells), declared_dim=p), _CHART4)
    if draw(st.booleans()):
        T = T.scale(Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6))))
    coco = dict(T.cocoeffs)
    mutation = draw(st.sampled_from(["none", "reweight", "drop", "cancel"]))
    if mutation in ("reweight", "drop") and coco:
        key = draw(st.sampled_from(sorted(coco)))
        mu = coco[key]
        t = draw(st.integers(0, len(mu.pieces) - 1))
        pieces = list(mu.pieces)
        if mutation == "drop":
            del pieces[t]
        else:
            c = draw(st.sampled_from([2, -1, Fraction(1, 2)]))
            old = pieces[t]
            pieces[t] = Piece(old.stratum, old.poly, old.weight_poly.scale(c),
                              old.weight_expo, old.sign if c > 0 else -old.sign)
        coco[key] = PieceMeasure(4, pieces=pieces, scale=mu.scale, certify=False)
    free = [(I, J) for I in subsets(4, p) for J in subsets(4, p) if (I, J) not in coco]
    if mutation == "cancel" and free:
        poly = cells[0][0]
        w = Fraction(draw(st.integers(1, 3)))
        coco[draw(st.sampled_from(free))] = PieceMeasure(4, pieces=[
            Piece(frozenset(), poly, Poly.const(s * w, 4), Poly.zero(4), s) for s in (1, -1)],
            certify=False)
    return LagerbergCurrent(_CHART4, T.p, coco)


@st.composite
def _chart_cells(draw):
    """Cells x0 + sum t_i g_i of dimension 2 or 3 in R^3 or R^4, cut by a
    row that reads l . t <= c in the lattice chart of the cell's hull.
    Without lineality l is primitive with no +-1 entry, so the row's facet
    normal is not a chart basis vector; with a lineality direction (one g_i
    left free) l is a combination of the integer kernel of that direction."""
    d = draw(st.integers(3, 4))
    p = draw(st.integers(2, d - 1 if d == 4 else 2))
    gens = [tuple(draw(st.integers(-2, 2)) for _ in range(d)) for _ in range(p)]
    assume(exact.rank(gens) == p)
    x0 = tuple(Fraction(draw(st.integers(-1, 1))) for _ in range(d))
    free = draw(st.integers(-1, p - 1))
    # capped 3-cells in R^4 cost the reference seconds of projection each
    caps = [draw(st.sampled_from([None, 2] if p == 2 else [None])) for _ in gens]
    if free >= 0:
        caps[free] = "free"
    cell = _cell(x0, gens, caps)
    u0, basis = cell.affine_hull()
    A = [[v[i] for v in basis] for i in range(d)]
    if free >= 0:
        kernel = exact.integer_kernel_basis([list(exact.solve(A, gens[free]))])
        ell = tuple(sum(draw(st.integers(-3, 3)) * v[j] for v in kernel) for j in range(p))
        assume(any(ell))
    else:
        ell = draw(st.sampled_from([(2, 3), (3, -2), (-5, 2), (3, 5)] if p == 2 else
                                   [(2, 3, 5), (6, 10, -15), (2, 0, 3), (-3, 4, 2)]))
    # a with a . A_j = l_j for the hull's lattice basis A
    a = exact.solve([list(v) for v in basis], list(ell))
    c = Fraction(draw(st.integers(1, 4)))
    return cell.with_rows([(a, sum(x * y for x, y in zip(a, u0)) + c)])


# --- properties ----------------------------------------------------------------------

def _has_lineality(poly):
    return any(tuple(-x for x in g) in poly.recession_generators()
               for g in poly.recession_generators())


def _assert_facets_match_reference(poly):
    if poly.is_empty():
        assert poly.facets == ()
        return
    closed = _closure(poly)
    assert poly.facets == closed.facets
    ref = {key: _ref_primitive_normal(closed, face) for key, face in _ref_facets(closed).items()}
    if not _has_lineality(closed):
        assert poly.facets == tuple(ref.items())
        return
    # with a lineality space the reference keys lose the facet's points,
    # so parallel facets share one key there; each keeps its normal here
    stripped = {}
    for (pts, rays), normal in poly.facets:
        stripped.setdefault(((), rays), set()).add(normal)
    assert set(stripped) == set(ref)
    assert all(normal in stripped[key] for key, normal in ref.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polyhedra())
def test_facets_match_one_polyhedron_per_row(poly):
    _assert_facets_match_reference(poly)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_chart_cells())
def test_chart_facets_match_one_polyhedron_per_row(poly):
    _assert_facets_match_reference(poly)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_integration_currents())
def test_integrated_complex_matches_the_rebuilt_current(T):
    C, ref = _integrated_complex(T), _ref_integrated_complex(T)
    assert (C is None) == (ref is None)
    if C is not None:
        assert [(poly.rows, w) for poly, w in C.cells] == [(poly.rows, w) for poly, w in ref.cells]
        assert C.declared_dim == ref.declared_dim


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polyhedra())
def test_boundedness_read_from_the_projection(poly):
    assert poly.is_bounded() == (not poly.recession_generators())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polyhedra())
def test_minors_read_from_the_hull_basis(poly):
    p = max(poly.poly_dim(), 0)
    assert dict(poly.minors) == _ref_minors(poly, poly.dim, p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_complexes())
def test_balancing_matches_one_polyhedron_per_facet(C):
    v = balancing_check(C)
    assert (v.answer, v.witness) == _ref_balancing_check(C)


def test_gallery_lines_balance_as_before():
    for C in (tropical_line(), tropical_line((1, 1, 2)),
              shifted_tropical_line((1, -1), (2, 2, 2))):
        v = balancing_check(C)
        assert (v.answer, v.witness) == _ref_balancing_check(C)


def test_tropical_plane_balances_along_its_rays():
    # at each ray the three weighted normals sum to a multiple of the ray
    x0 = (Fraction(0),) * 3
    plane = WeightedComplex(tuple(_tropical_plane(x0, (1, 1, 1), [1] * 6)))
    v = balancing_check(plane)
    assert v.yes and (v.answer, v.witness) == _ref_balancing_check(plane)
    heavy = WeightedComplex(tuple(_tropical_plane(x0, (1, 1, 1), [2] + [1] * 5)))
    v = balancing_check(heavy)
    assert v.no and (v.answer, v.witness) == _ref_balancing_check(heavy)


def test_parallel_facets_of_lineality_cells_are_told_apart():
    # half-planes {z = 0, y <= 0} and {z = 0, y >= 1} in R^3: both boundary
    # lines have the x-axis as lineality, but they are different faces
    plane = [((0, 0, 1), 0), ((0, 0, -1), 0)]
    below = Polyhedron(3, plane + [((0, 1, 0), 0)])
    above = Polyhedron(3, plane + [((0, -1, 0), -1)])
    strip = Polyhedron(3, plane + [((0, 1, 0), 1), ((0, -1, 0), 0)])
    assert len(strip.facets) == 2
    v = balancing_check(WeightedComplex(((below, 1), (above, 1))))
    assert v.no and v.witness["face"][0] == ((0, 0, 0),)
    assert v.witness["residual"] == (0, -1, 0)
    # with the strip between them they tile the plane z = 0
    assert balancing_check(WeightedComplex(((below, 1), (strip, 1), (above, 1)))).yes


def test_second_balancing_check_builds_no_polyhedron(monkeypatch):
    C = tropical_line((1, 2, 1))
    built = []
    init = Polyhedron.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Polyhedron, "__post_init__", counting)
    first = balancing_check(C)
    assert not built            # the facets come from the cells' own data
    second = balancing_check(C)
    assert not built and (second.answer, second.witness) == (first.answer, first.witness)
