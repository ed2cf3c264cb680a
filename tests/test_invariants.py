"""Cross-module invariants stated by the interfaces."""

import random
from fractions import Fraction

import pytest

from tropcur.coeffs import CoefficientFn, Poly, bump
from tropcur.currents import (LagerbergCurrent, canonical_decomposition,
                              evaluate, positivity_check, wedge_with_form)
from tropcur.fans import orthant_fan
from tropcur.fields import (LagerbergFormField, apply_J_field, bump_box_field,
                            differentiate, trop_pullback_field)
from tropcur.gallery import tropical_line_current
from tropcur.measures import (Atom, PieceMeasure, abs_measure, image_measure,
                              ImageMap, OpenBox, lebesgue_piece,
                              total_variation_decompose)
from tropcur.polyhedra import Polyhedron


def test_decomposition_insensitive_to_piece_order():
    T = tropical_line_current()
    # permute the internal piece tuples
    shuffled = {}
    for k, mu in T.cocoeffs.items():
        shuffled[k] = PieceMeasure(mu.n, tuple(reversed(mu.atoms)),
                                   tuple(reversed(mu.pieces)),
                                   mu.derivative_atoms, mu.scale, certify=False)
    T2 = LagerbergCurrent(T.chart, T.p, shuffled, T.U)
    p1 = canonical_decomposition(T, assume_positive=True)
    p2 = canonical_decomposition(T2, assume_positive=True)
    assert set(p1) == set(p2)
    for M in p1:
        assert p1[M].canonical_key() == p2[M].canonical_key()


def test_current_j_symmetry_via_evaluation():
    # positive currents: T(J beta) = (-1)^q T(beta)
    T = tropical_line_current()
    rng = random.Random(9)
    for _ in range(5):
        beta = bump_box_field(T.chart, 1, 1,
                              [(((0,), (1,)), Poly.const(rng.randint(-2, 2), 2)),
                               (((1,), (1,)), Poly.var(0, 2))],
                              [(-2, 2), (-2, 2)])
        lhs = evaluate(T, apply_J_field(beta), check=False)
        rhs = (-1) ** T.q * evaluate(T, beta, check=False)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_abs_of_image_is_image_of_abs():
    fan = orthant_fan(1)
    chart = fan.toric_chart(fan.cone_id([(1,)]))
    ray = Polyhedron(1, [((-1,), 0)])
    mu = PieceMeasure(1,
                      atoms=[Atom(frozenset(), (Fraction(2),), Fraction(-3))],
                      pieces=[lebesgue_piece((), ray, weight=-2,
                                             expo=Poly.linear([-1]), sign=-1)])
    target = OpenBox.whole_chart(chart)
    m = ImageMap("open_inclusion", target)
    lhs = abs_measure(image_measure(mu, m))
    rhs = image_measure(abs_measure(mu), m)
    assert lhs == rhs


def test_integrate_against_linear():
    from tropcur.measures import integrate_against
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), Polyhedron.box([(0, 1)]))])
    f = bump(1, 0, 0, 1)
    g = CoefficientFn.from_poly(Poly.var(0, 1))
    lhs = integrate_against(f + g.scale(3), mu)
    rhs = integrate_against(f, mu) + 3 * integrate_against(g, mu)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_wedge_positive_form_with_positive_current():
    # beta = positive (1,1) field with constant coefficients, T positive
    T = tropical_line_current()
    chart = T.chart
    # (d'u_0 + d'u_1) ^ (d''u_0 + d''u_1): Gram [[1,1],[1,1]] PSD
    coeffs = {((0,), (0,)): 1, ((0,), (1,)): 1, ((1,), (0,)): 1, ((1,), (1,)): 1}
    tables = {frozenset(): {k: CoefficientFn.const(c, 2)
                            for k, c in coeffs.items()}}
    beta = LagerbergFormField(chart, 2, 1, 1, tables)
    out = wedge_with_form(beta, T)
    assert out.p == 2
    v = positivity_check(out, samples=8)
    assert v.yes, v.reason


def test_pullback_respects_F():
    rng = random.Random(11)
    chart = orthant_fan(2).toric_chart(0)
    fld = bump_box_field(chart, 1, 1, [(((0,), (1,)), Poly.const(2, 2))],
                         [(0, 1), (0, 1)])
    w = trop_pullback_field(fld)
    assert w.apply_F() == w
    dw = differentiate("del", w)
    assert dw.apply_F() == dw          # F commutes with the scaled del


def test_pullback_n1_frame_factor():
    # f d'u ^ d''u on the line pulls back to (f/4) Phi_11, i.e.
    # f(-log|z|) i dz ^ dzbar / (4 pi z zbar)
    chart = orthant_fan(1).toric_chart(0)
    f = bump(1, 0, 0, 1)
    fld = LagerbergFormField(chart, 1, 1, 1, {frozenset(): {((0,), (0,)): f}})
    w = trop_pullback_field(fld)
    assert (w.coeff[((0,), (0,))] - f.scale(Fraction(1, 4))).is_zero()


def test_total_variation_additive_disjoint():
    mu1 = PieceMeasure(1, pieces=[lebesgue_piece((), Polyhedron.box([(0, 1)]),
                                                 weight=-1, sign=-1)])
    mu2 = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(5),), Fraction(2))])
    both = mu1 + mu2
    p, m = total_variation_decompose(both)
    from tropcur.measures import integrate_against
    mass = integrate_against(CoefficientFn.const(1, 1), p + m)
    assert mass == pytest.approx(3.0, abs=1e-9)
