import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcur import exact, formats
from tropcur.errors import TropcurError, ValidationError
from tropcur.polyhedra import Polyhedron, Row, parametrize


def test_box_membership_and_emptiness():
    b = Polyhedron.box([(0, 1), (0, 2)])
    assert b.contains((Fraction(1, 2), 1))
    assert not b.contains((2, 1))
    assert not b.is_empty()
    empty = b.with_rows([((1, 0), -1)])   # u1 <= -1 inside [0,1]
    assert empty.is_empty()


def test_strict_rows():
    # 0 <= u < 0 is empty, 0 <= u <= 0 is a point
    p_open = Polyhedron(1, [((-1,), 0), ((1,), 0, True)])
    p_closed = Polyhedron(1, [((-1,), 0), ((1,), 0)])
    assert p_open.is_empty()
    assert not p_closed.is_empty()
    assert not p_open.contains((0,))
    assert p_closed.contains((0,))


def test_linear_bounds():
    b = Polyhedron.box([(0, 1), (-2, None)])
    lo, hi, empty = b.linear_bounds((1, 0))
    assert (lo, hi, empty) == (0, 1, False)
    lo, hi, empty = b.linear_bounds((0, 1))
    assert lo == -2 and hi is None
    lo, hi, empty = b.linear_bounds((1, 1))
    assert lo == -2 and hi is None


def test_vertices_and_rays():
    tri = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    assert tri.vertices() == ((0, 0), (0, 1), (1, 0))
    assert tri.is_bounded()

    quad = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0)])
    rays = set(quad.recession_generators())
    assert rays == {(1, 0), (0, 1)}
    assert not quad.is_bounded()


def test_recession_with_lineality():
    strip = Polyhedron(2, [((0, 1), 1), ((0, -1), 1)])
    gens = set(strip.recession_generators())
    assert (1, 0) in gens and (-1, 0) in gens


def test_feasible_point_and_affine_hull():
    seg = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0),
                         ((0, 1), 0), ((0, -1), 0)])  # [0,1] x {0}
    p = seg.feasible_point()
    assert seg.contains(p)
    u0, basis = seg.affine_hull()
    assert len(basis) == 1
    assert basis[0] in [(1, 0), (-1, 0)]
    assert seg.poly_dim() == 1


def test_parametrize_lattice_normalization():
    # segment from (0,0) to (2,2): direction (1,1) primitive, lattice length 2
    seg = Polyhedron(2, [((1, -1), 0), ((-1, 1), 0),
                         ((1, 0), 2), ((-1, 0), 0)])
    A, u0, dom = parametrize(seg)
    lo, hi, _ = dom.linear_bounds((1,))
    assert hi - lo == 2  # lattice length of the segment
    # check the map sends the domain into the segment
    for t in (lo, hi, (lo + hi) / 2):
        u = tuple(A[i][0] * t + u0[i] for i in range(2))
        assert seg.contains(u)


def test_sample_points_inside():
    rng = random.Random(0)
    tri = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    for p in tri.sample_points(rng, 20):
        assert tri.contains(p, closure=True)


def test_ray_polyhedron():
    ray = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0)])
    assert ray.recession_generators() == ((1, 0),)
    assert ray.vertices() == ((0, 0),)


def test_bad_rows_and_dimensions_are_validation_errors():
    with pytest.raises(ValidationError):
        Polyhedron(2, [((1,), 0)])
    with pytest.raises(ValidationError):
        Polyhedron(2, [Row((1, 0, 7), 0)])
    with pytest.raises(ValidationError):
        Polyhedron.box([(0, 1)]).intersect(Polyhedron.box([(0, 1), (0, 1)]))


# --- reference: one Fourier-Motzkin pass per query ------------------------------
# The routines the single cached projection replaced, kept to compare against.

def _ref_eliminate(rows, var):
    pos = [r for r in rows if r.a[var] > 0]
    neg = [r for r in rows if r.a[var] < 0]
    out = [r for r in rows if r.a[var] == 0]
    for rp in pos:
        for rn in neg:
            cp, cn = rp.a[var], -rn.a[var]
            a = tuple(cn * x + cp * y for x, y in zip(rp.a, rn.a))
            out.append(Row(a, cn * rp.b + cp * rn.b, rp.strict or rn.strict))
    seen = {}
    for r in out:
        key = r.scaled_key()[:2]
        prev = seen.get(key)
        if prev is None or (r.strict and not prev.strict):
            seen[key] = r
    return list(seen.values())


def _ref_is_empty(poly):
    rows = list(poly.rows)
    for var in range(poly.dim):
        rows = _ref_eliminate(rows, var)
    return any(r.b < 0 or (r.strict and r.b <= 0) for r in rows)


def _ref_bounds(poly, a):
    if _ref_is_empty(poly):
        return None, None, True
    d = poly.dim
    rows = [Row(r.a + (Fraction(0),), r.b) for r in poly.rows]
    rows.append(Row(tuple([-Fraction(x) for x in a] + [Fraction(1)]), Fraction(0)))
    rows.append(Row(tuple([Fraction(x) for x in a] + [Fraction(-1)]), Fraction(0)))
    for var in range(d):
        rows = _ref_eliminate(rows, var)
    lo = max((r.b / r.a[d] for r in rows if r.a[d] < 0), default=None)
    hi = min((r.b / r.a[d] for r in rows if r.a[d] > 0), default=None)
    return lo, hi, False


def _ref_feasible_point(poly):
    if _ref_is_empty(poly):
        return None
    point, d = [], poly.dim
    rows = [Row(r.a, r.b) for r in poly.rows]
    for i in range(d):
        e0 = tuple([1] + [0] * (d - i - 1))
        lo, hi, _ = _ref_bounds(Polyhedron(d - i, rows), e0)
        if lo is not None and hi is not None:
            x = (lo + hi) / 2
        elif lo is not None:
            x = lo + 1
        elif hi is not None:
            x = hi - 1
        else:
            x = Fraction(0)
        point.append(x)
        rows = [Row(r.a[1:], r.b - r.a[0] * x) for r in rows]
    return tuple(point)


def _ref_implied_equalities(poly):
    eqs = []
    for r in poly.rows:
        if any(r.a):
            lo, _, empty = _ref_bounds(poly, r.a)
            if empty:
                return []
            if lo == r.b:
                eqs.append(r)
    return eqs


def _ref_affine_hull(poly):
    u0 = _ref_feasible_point(poly)
    if u0 is None:
        return None
    eqs = _ref_implied_equalities(poly)
    if not eqs:
        return u0, tuple(tuple(int(i == j) for j in range(poly.dim)) for i in range(poly.dim))
    return u0, tuple(exact.integer_kernel_basis([list(r.a) for r in eqs]))


def _ref_parametrize(poly):
    hull = _ref_affine_hull(poly)
    if hull is None:
        return None
    u0, basis = hull
    k = len(basis)
    A = [[Fraction(basis[j][i]) for j in range(k)] for i in range(poly.dim)]
    rows = []
    for r in poly.rows:
        a_t = tuple(sum(r.a[i] * A[i][j] for i in range(poly.dim)) for j in range(k))
        if any(a_t):
            rows.append(Row(a_t, r.b - sum(r.a[i] * u0[i] for i in range(poly.dim)), r.strict))
    return A, u0, k, tuple(rows)


@st.composite
def _small_polyhedra(draw):
    """d <= 3 and at most 5 rows, some strict, some in opposite pairs."""
    d = draw(st.integers(0, 3))
    rows, n = [], draw(st.integers(0, 5))
    while len(rows) < n:
        a = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        b = draw(st.fractions(-3, 3, max_denominator=3))
        rows.append((a, b, draw(st.sampled_from([False, False, True]))))
        if len(rows) < 5 and draw(st.booleans()):
            rows.append((tuple(-x for x in a), -b, draw(st.sampled_from([False, False, True]))))
    return Polyhedron(d, rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_polyhedra())
def test_projection_matches_one_pass_per_query(poly):
    assert poly.is_empty() == _ref_is_empty(poly)
    assert poly.feasible_point() == _ref_feasible_point(poly)
    assert poly.implied_equalities() == _ref_implied_equalities(poly)
    assert poly.affine_hull() == _ref_affine_hull(poly)
    par = parametrize(poly)
    if par is not None:
        par = (par[0], par[1], par[2].dim, par[2].rows)
    assert par == _ref_parametrize(poly)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_linear_bounds_are_the_extremes_over_the_vertices(data):
    """On a bounded cell, a box of dimension d <= 3 (some sides of length 0)
    cut by up to three rows, (lo, hi) of a . u is the min and max of a . v
    over the vertices; an empty cell has no vertices."""
    d = data.draw(st.integers(1, 3))
    corner = [data.draw(st.integers(-2, 2)) for _ in range(d)]
    box = Polyhedron.box([(lo, lo + data.draw(st.integers(0, 3))) for lo in corner])
    cuts = [(tuple(data.draw(st.integers(-2, 2)) for _ in range(d)),
             data.draw(st.fractions(-3, 3, max_denominator=3)))
            for _ in range(data.draw(st.integers(0, 3)))]
    poly = box.with_rows(cuts)
    a = tuple(data.draw(st.integers(-3, 3)) for _ in range(d))
    lo, hi, empty = poly.linear_bounds(a)
    values = [sum(x * y for x, y in zip(a, v)) for v in poly.vertices()]
    assert empty == (not values)
    if values:
        assert (lo, hi) == (min(values), max(values))
_SCALARS = st.one_of(st.integers(-3, 3), st.none(), st.booleans(),
                     st.sampled_from(["1/2", "\u22122/3", " 4 ", "1/0", "x", "", 0.5, 2.0, []]))


@st.composite
def _polyhedron_literals(draw):
    dim = draw(st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", None])))
    d = dim if isinstance(dim, int) and dim >= 0 else 2
    ineqs = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.sampled_from([d, d, d, max(d - 1, 0), d + 1]))
        row = {"a": [draw(_SCALARS) for _ in range(n)], "b": draw(_SCALARS)}
        if draw(st.booleans()):
            row["strict"] = draw(st.booleans())
        ineqs.append(draw(st.sampled_from([row, row, row, {"b": 1}, [1, 2], "row"])))
    data = {"dim": dim, "ineqs": ineqs}
    return draw(st.sampled_from([data, data, data, {"dim": dim}, {"ineqs": ineqs},
                                 [dim], {"dim": dim, "ineqs": 5}]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_polyhedron_literals())
def test_polyhedron_json_literal_parses_or_is_input_error(data):
    try:
        poly = formats.polyhedron_from_json(data)
    except TropcurError:
        return
    assert all(len(r.a) == poly.dim for r in poly.rows)
    text = formats.polyhedron_to_json(poly)
    again = formats.polyhedron_from_json(json.loads(json.dumps(text)))
    assert again == poly and formats.polyhedron_to_json(again) == text


def test_derived_data_computed_once_as_tuples():
    tri = Polyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    for query in (tri.vertices, tri.recession_generators, tri.affine_hull):
        assert isinstance(query(), tuple) and query() is query()
    assert isinstance(tri.affine_hull()[1], tuple)


# --- reference: the Fourier-Motzkin stages on Fraction rows -------------------------
# The projection on Fraction rows that the primitive integer stages replaced, kept
# to compare against: rows merge by Row.scaled_key, the strict row kept and the
# source masks unioned.

def _ref_fm_step(rows, var):
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


def _ref_stages(rows, dim):
    stages = [[(r, 1 << i) for i, r in enumerate(rows)]]
    for var in reversed(range(dim)):
        stages.append(_ref_fm_step(stages[-1], var))
    return stages[::-1]


def _ref_range(rows, var, fixed=()):
    lo = hi = None
    for r, _ in rows:
        c = r.a[var]
        if c == 0:
            continue
        val = (r.b - sum(x * y for x, y in zip(r.a, fixed))) / c
        if c > 0:
            hi = val if hi is None else min(hi, val)
        else:
            lo = val if lo is None else max(lo, val)
    return lo, hi


def _ref_midpoint(lo, hi):
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    return lo + 1 if lo is not None else hi - 1 if hi is not None else Fraction(0)


def _ref_stage_queries(poly, a):
    """(is_empty, feasible_point, implied_equalities, affine_hull, linear_bounds(a),
    is_bounded) read from the Fraction stages."""
    d, stages = poly.dim, _ref_stages(poly.rows, poly.dim)
    bounded = all(any(r.a[k] > 0 for r, _ in stages[k + 1]) and
                  any(r.a[k] < 0 for r, _ in stages[k + 1]) for k in range(d))
    if any(r.b < 0 or (r.strict and r.b <= 0) for r, _ in stages[0]):
        return True, None, [], None, (None, None, True), bounded
    point = ()
    for k in range(d):
        point += (_ref_midpoint(*_ref_range(stages[k + 1], k, point)),)
    tight = 0
    for r, src in stages[0]:
        if r.b == 0:
            tight |= src
    eqs = [r for i, r in enumerate(poly.rows) if tight >> i & 1 and any(r.a)]
    basis = (exact.integer_kernel_basis([list(r.a) for r in eqs]) if eqs else
             [tuple(int(i == j) for j in range(d)) for i in range(d)])
    a = tuple(Fraction(x) for x in a)
    lifted = ([Row((Fraction(0),) + r.a, r.b) for r in poly.rows]
              + [Row((Fraction(1),) + tuple(-x for x in a), Fraction(0)),
                 Row((Fraction(-1),) + a, Fraction(0))])
    bounds = (*_ref_range(_ref_stages(lifted, d + 1)[1], 0), False)
    return False, point, eqs, (point, tuple(tuple(v) for v in basis)), bounds, bounded


def _merged_stage(items):
    """{primitive (a, b): (strict, sources)} over (key, strict, sources), constant
    rows 0 <= b read by the sign of b alone: both stages merge rows by it."""
    out = {}
    for key, strict, src in items:
        if not any(key[:-1]):
            key = key[:-1] + ((key[-1] > 0) - (key[-1] < 0),)
        prev = out.get(key)
        out[key] = (strict, src) if prev is None else (strict or prev[0], src | prev[1])
    return out


@st.composite
def _fm_polyhedra(draw):
    """(poly, a): dimension <= 4, up to five drawn rows, some strict, each
    perhaps followed by a duplicate, a positive multiple of it or a constant
    row 0 <= b with b of either sign; in half of them every row vanishes on a
    drawn direction, a lineality space.  a is a linear functional."""
    d = draw(st.integers(1, 4))
    line = draw(st.one_of(st.none(), st.lists(st.integers(-1, 1), min_size=d, max_size=d)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        a = [draw(st.integers(-2, 2)) for _ in range(d)]
        if line and any(line):      # a made orthogonal to the line, in integers
            ll, al = sum(x * x for x in line), sum(x * y for x, y in zip(a, line))
            a = [ll * x - al * y for x, y in zip(a, line)]
        b = draw(st.fractions(-3, 3, max_denominator=3))
        rows.append((tuple(a), b, draw(st.sampled_from([False, False, True]))))
        extra = draw(st.sampled_from(["", "", "duplicate", "multiple", "constant"]))
        if extra == "duplicate":
            rows.append((tuple(a), b, draw(st.booleans())))
        elif extra == "multiple":
            k = draw(st.sampled_from([2, 3, Fraction(1, 2)]))
            rows.append((tuple(k * x for x in a), k * b, draw(st.booleans())))
        elif extra == "constant":
            rows.append(((0,) * d, draw(st.sampled_from([-1, 0, Fraction(1, 2), 2])),
                         draw(st.booleans())))
    a = tuple(draw(st.fractions(-2, 2, max_denominator=2)) for _ in range(d))
    return Polyhedron(d, rows), a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fm_polyhedra())
def test_integer_stages_match_the_fraction_stages(case):
    """Each stage of primitive integer rows is the Fraction stage cleared: the
    same rows, strictness and source masks.  is_empty, feasible_point (equal
    values), implied_equalities, affine_hull, linear_bounds and is_bounded
    read from them equal the same queries read from the Fraction stages."""
    poly, a = case
    for got, want in zip(poly._stages, _ref_stages(poly.rows, poly.dim)):
        assert all(type(x) is int for key in got for x in key)
        assert _merged_stage((k, s, src) for k, (s, src) in got.items()) == _merged_stage(
            (exact.primitive(r.a + (r.b,)), r.strict, src) for r, src in want)
    got = (poly.is_empty(), poly.feasible_point(), poly.implied_equalities(),
           poly.affine_hull(), poly.linear_bounds(a), poly.is_bounded())
    assert got == _ref_stage_queries(poly, a)
