import math
from fractions import Fraction

import pytest

from tropcur import quadrature
from tropcur.coeffs import CoefficientFn, Poly, bump, table
from tropcur.errors import DimensionMismatch, Divergent, NonMeasurePiece, SignNotCertified
from tropcur.fans import orthant_fan
from tropcur.measures import (Atom, DerivativeAtom, Piece, PieceMeasure, abs_measure,
                              boundary_escape_cones, escape_failure, integrate_against,
                              lebesgue_piece, restrict_measure, sign_pure_pieces,
                              total_variation_decompose)
from tropcur.polyhedra import Polyhedron


def interval(lo, hi):
    rows = []
    if hi is not None:
        rows.append(((1,), hi))
    if lo is not None:
        rows.append(((-1,), -Fraction(lo)))
    return Polyhedron(1, rows)


def test_integrate_lebesgue_unit_interval():
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    one = CoefficientFn.const(1, 1)
    assert integrate_against(one, mu) == pytest.approx(1.0, abs=1e-10)


def test_integrate_atoms():
    mu = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(3),), Fraction(1))])
    f = CoefficientFn.from_poly(Poly.var(0, 1))
    assert integrate_against(f, mu) == pytest.approx(3.0)


def test_integrate_polynomial_density():
    # int_0^2 x * x dx = 8/3 with density weight x
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 2),
                                                weight=Poly.var(0, 1), sign=1)])
    f = CoefficientFn.from_poly(Poly.var(0, 1))
    assert integrate_against(f, mu) == pytest.approx(8 / 3, abs=1e-9)


def test_integrate_exponential_closed_form():
    # int_0^inf e^{-u} du = 1 against constant test function with exp decay
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, None),
                                                expo=Poly.linear([-1]))])
    one = CoefficientFn.const(1, 1)
    assert integrate_against(one, mu) == pytest.approx(1.0, abs=1e-8)


def test_integrate_bump_against_growing_density():
    # bump centered at (n, n+2) against e^{x^2}: value exceeds e^{n^2} scale
    n0 = 3
    mu = PieceMeasure(1, pieces=[lebesgue_piece(
        (), interval(0, None), expo=Poly({(2,): Fraction(1)}, 1))])
    f = bump(1, 0, n0, n0 + 2)
    val = integrate_against(f, mu, tol=1e-6)
    assert val > math.exp(n0 ** 2) * 1e-4   # enormous versus the bump size


def test_windowed_box_pairing_is_separable(monkeypatch):
    # a windowed test form against a polynomial density with a linear exponent
    # integrates axis by axis and agrees with the tensor rule on the same box
    calls = []
    adaptive_box = quadrature.adaptive_box
    monkeypatch.setattr(quadrature, "adaptive_box",
                        lambda *args: calls.append(args[1]) or adaptive_box(*args))
    box = [(Fraction(0), Fraction(2)), (Fraction(-1), Fraction(1))]
    weight = Poly({(1, 0): 1, (0, 2): Fraction(1, 2), (0, 0): 1}, 2)
    expo = Poly.linear([Fraction(-1, 2), Fraction(1, 3)])
    mu = PieceMeasure(2, pieces=[lebesgue_piece((), Polyhedron.box(box), weight=weight,
                                                expo=expo, sign=1)])
    f = bump(2, 0, Fraction(1, 2), Fraction(3, 2)) * table(2, 1, Fraction(-1, 2),
                                                           Fraction(1, 2), ramp=Fraction(1, 3))
    tol = 1e-9
    val = integrate_against(f, mu, tol=tol)
    assert calls == []
    ref = adaptive_box((f * CoefficientFn.poly_exp(weight, expo)).eval_float,
                       [(0.0, 2.0), (-1.0, 1.0)], tol / 10)
    assert abs(val - ref) <= tol


def test_integrate_divergent_rejected():
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(1, None))])
    one = CoefficientFn.const(1, 1)
    with pytest.raises(Divergent):
        integrate_against(one, mu)


def test_derivative_atom_semantics():
    mu = PieceMeasure(1, derivative_atoms=[
        DerivativeAtom(frozenset(), (Fraction(0),), (Fraction(1),), Fraction(-1))])
    with pytest.raises(NonMeasurePiece):
        integrate_against(CoefficientFn.const(1, 1), mu)
    f = CoefficientFn.from_poly(Poly.var(0, 1) * Poly.var(0, 1))  # u^2, f'(0)=0
    assert integrate_against(f, mu, allow_derivative_atoms=True) == pytest.approx(0.0)
    g = CoefficientFn.from_poly(Poly.var(0, 1))                    # f'(0)=1
    # contribution = weight * (-f'(0)) = (-1) * (-1) = 1
    assert integrate_against(g, mu, allow_derivative_atoms=True) == pytest.approx(1.0)


def test_total_variation():
    mu = PieceMeasure(
        1,
        atoms=[Atom(frozenset(), (Fraction(0),), Fraction(2)),
               Atom(frozenset(), (Fraction(1),), Fraction(-1))],
        pieces=[lebesgue_piece((), interval(0, 1), weight=-3, sign=-1)])
    plus, minus = total_variation_decompose(mu)
    assert [a.weight for a in plus.atoms] == [2]
    assert [a.weight for a in minus.atoms] == [1]
    tv = abs_measure(mu)
    mass = integrate_against(CoefficientFn.const(1, 1), tv)
    assert mass == pytest.approx(2 + 1 + 3, abs=1e-9)


def test_sign_certification_rejects_mixed_sign():
    # weight u on [-1, 1] declared positive: root isolation finds the flip
    with pytest.raises(SignNotCertified):
        PieceMeasure(1, pieces=[Piece(frozenset(), interval(-1, 1),
                                      Poly.var(0, 1), Poly.zero(1), 1)])
    # weight u^2 is fine despite the interior root
    PieceMeasure(1, pieces=[Piece(frozenset(), interval(-1, 1),
                                  Poly.var(0, 1) * Poly.var(0, 1), Poly.zero(1), 1)])


def test_sign_certification_multivariate_sampling():
    square = Polyhedron.box([(0, 1), (0, 1)])
    # u0*u1 >= 0 on the square: certified by sampling
    PieceMeasure(2, pieces=[Piece(frozenset(), square,
                                  Poly.var(0, 2) * Poly.var(1, 2), Poly.zero(2), 1)])
    with pytest.raises(SignNotCertified):
        PieceMeasure(2, pieces=[Piece(frozenset(), square,
                                      Poly.var(0, 2) - Poly.var(1, 2), Poly.zero(2), 1)])


def _chart1():
    fan = orthant_fan(1)
    return fan.toric_chart(fan.cone_id([(1,)]))


@pytest.mark.parametrize("weight, box", [(Poly.const(1, 1), (0, 1)), (Poly.const(-1, 1), (0, 1)),
                                         (Poly.var(0, 1), (1, 2)),
                                         (Poly.var(0, 1).scale(-1), (1, 2))],
                         ids=["constant+", "constant-", "univariate+", "univariate-"])
def test_sign_zero_piece_declares_nothing(weight, box):
    # sign 0 certifies no sign: the constructor accepts the piece whatever its
    # density, and the operations that need a sign refuse it
    piece = Piece(frozenset(), Polyhedron.box([box]), weight, Poly.zero(1), 0)
    mu = PieceMeasure(1, pieces=[piece])
    assert mu.pieces == (piece,)
    with pytest.raises(SignNotCertified):
        sign_pure_pieces(mu)


# a measure has an image measure on its chart iff no piece fails escape_failure

def test_image_measure_not_locally_finite():
    # density 1 on [1, inf) included into R_infty at infinity: infinite mass
    piece = lebesgue_piece((), interval(1, None))
    assert escape_failure(piece, _chart1()) == ((0,), (1,))


def test_image_measure_decaying_accepted():
    piece = lebesgue_piece((), interval(0, None), expo=Poly.linear([-1]))
    assert escape_failure(piece, _chart1()) is None


def test_image_measure_quadratic_growth_rejected():
    piece = lebesgue_piece((), interval(0, None),
                           expo=Poly({(2,): Fraction(1), (1,): Fraction(-2)}, 1))
    assert escape_failure(piece, _chart1()) is not None


def test_escape_cones_respect_finite_axes():
    # chart with one infinite axis (axis 0); a piece escaping along axis 1
    # (finite) has no boundary escape cone
    fan = orthant_fan(2)
    chart = fan.toric_chart(fan.cone_id([(1, 0)]))
    strip = Polyhedron(2, [((1, 0), 1), ((-1, 0), 0), ((0, -1), 0)])
    piece = lebesgue_piece((), strip)
    cones = boundary_escape_cones(piece, chart)
    assert cones == []   # the ray (0,1) escapes along a finite axis
    ray = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0)])
    piece2 = lebesgue_piece((), ray)
    cones2 = boundary_escape_cones(piece2, chart)
    assert len(cones2) == 1
    M, gens = cones2[0]
    assert M == frozenset({0}) and gens == [(1, 0)]


def test_restrict_and_resum_over_strata():
    chart = _chart1()
    mu = PieceMeasure(
        1,
        atoms=[Atom(frozenset({0}), (), Fraction(2)),
               Atom(frozenset(), (Fraction(1),), Fraction(3))],
        pieces=[lebesgue_piece((), interval(0, 1))])
    dense = restrict_measure(mu, frozenset())
    bdry = restrict_measure(mu, frozenset({0}))
    assert (dense + bdry) == mu
    assert len(dense.atoms) == 1 and len(bdry.atoms) == 1
    assert bdry.pieces == ()


def test_scale_pi_power_arithmetic():
    mu = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(0),), Fraction(1))],
                      scale=(Fraction(4), 1))
    assert mu.scale_float() == pytest.approx(4 * math.pi)
    back = mu.with_scale(Fraction(1, 4), -1)
    folded = back.rescaled()
    assert folded.scale == (Fraction(1), 0)
    assert folded == PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(0),), Fraction(1))])


def test_prefactor_folds_at_every_pi_power():
    def dirac(x, w, scale):
        return PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(x),), Fraction(w))],
                            scale=scale)
    # 2 pi delta_0 and pi (2 delta_0) are one measure
    assert dirac(0, 1, (Fraction(2), 1)) == dirac(0, 2, (Fraction(1), 1))
    # a sum keeps each summand's own prefactor: 2 pi delta_0 + 3 pi delta_1
    total = dirac(0, 1, (Fraction(2), 1)) + dirac(1, 1, (Fraction(3), 1))
    assert total == PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(0),), Fraction(2)),
                                           Atom(frozenset(), (Fraction(1),), Fraction(3))],
                                 scale=(Fraction(1), 1))
    assert integrate_against(CoefficientFn.const(1, 1), total) == pytest.approx(5 * math.pi)


def test_measure_on_boundary_stratum_density():
    # 2-d chart, measure = Lebesgue on a segment inside the stratum u0=inf
    fan = orthant_fan(2)
    chart = fan.toric_chart(fan.cone_id([(1, 0), (0, 1)]))
    seg = interval(0, 1)    # coordinates of the stratum (axis 1 survives)
    mu = PieceMeasure(2, pieces=[lebesgue_piece({0}, seg)])
    f = {frozenset({0}): CoefficientFn.from_poly(Poly.var(1, 2))}
    val = integrate_against(f, mu)
    assert val == pytest.approx(0.5, abs=1e-9)


def _polygon(verts):
    """The convex polygon of counterclockwise integer vertices, as rows a.x <= b."""
    rows = []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        a = (y1 - y0, x0 - x1)          # the outward normal of the edge
        rows.append((a, a[0] * x0 + a[1] * y0))
    return Polyhedron(2, rows)


def _area_and_moments(verts):
    """Exact area and first moments (int x, int y) of a polygon, by the shoelace formula."""
    area = mx = my = Fraction(0)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        cross = x0 * y1 - x1 * y0
        area += Fraction(cross, 2)
        mx += Fraction((x0 + x1) * cross, 6)
        my += Fraction((y0 + y1) * cross, 6)
    return area, mx, my


@pytest.mark.parametrize("verts", [[(0, 0), (3, 0), (1, 2)],
                                   [(0, 0), (2, 0), (3, 1), (1, 3), (-1, 1)]],
                         ids=["triangle", "pentagon"])
@pytest.mark.parametrize("coeffs", [(3, 0, 0), (5, 1, -1)], ids=["constant", "linear"])
def test_density_on_polygon_matches_area_and_moments(monkeypatch, verts, coeffs):
    # a bounded piece that is not a box is triangulated and integrated simplex by simplex
    from tropcur import quadrature
    calls = []
    simplex = quadrature.adaptive_simplex
    monkeypatch.setattr(quadrature, "adaptive_simplex",
                        lambda *args: calls.append(args) or simplex(*args))
    c0, c1, c2 = coeffs                 # density c0 + c1 x + c2 y, positive on both polygons
    weight = Poly.linear([c1, c2], const=c0)
    mu = PieceMeasure(2, pieces=[lebesgue_piece((), _polygon(verts), weight=weight, sign=1)])
    area, mx, my = _area_and_moments(verts)
    tol = 1e-8
    val = integrate_against(CoefficientFn.const(1, 2), mu, tol=tol)
    assert calls and abs(val - float(c0 * area + c1 * mx + c2 * my)) <= 2 * tol


def test_adding_measures_checks_dimension():
    """Measures on spaces of another dimension are a typed error, not an assert."""
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    with pytest.raises(DimensionMismatch):
        mu + PieceMeasure(2, atoms=[Atom(frozenset(), (Fraction(1), Fraction(1)), Fraction(1))])
    assert integrate_against(CoefficientFn.const(1, 1), mu + mu) == pytest.approx(2.0, abs=1e-9)
