from fractions import Fraction

import pytest

from tropcur.correspond import (InvariantComplexCurrent, compat_checks,
                                complex_positivity_check, kernel_point_current,
                                lift, push_forward, round_trip_verify,
                                validate_shadow)
from tropcur.currents import LagerbergCurrent, positivity_check
from tropcur.errors import InvalidShadow, NotCFinite, NotPositive
from tropcur.fans import orthant_fan
from tropcur.fields import trop_pullback_field, bump_box_field
from tropcur.gallery import (positive_not_liftable, closed_not_positive,
                             random_closed_positive_suite,
                             tropical_line_current)
from tropcur.measures import Atom, PieceMeasure, lebesgue_piece
from tropcur.polyhedra import Polyhedron


def _chart1():
    fan = orthant_fan(1)
    return fan.toric_chart(fan.cone_id([(1,)]))


def test_push_forward_scale():
    # n=1, p=0, shadow = Dirac at u=2 with weight 4*pi -> T = Dirac weight 1
    chart = _chart1()
    sigma = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(2),), Fraction(1))],
                         scale=(Fraction(4), 1))
    S = InvariantComplexCurrent(chart, 0, {((0,), (0,)): sigma})
    T = push_forward(S)
    mu = T.cocoeff((0,), (0,))
    expected = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(2),), Fraction(1))])
    assert mu == expected


def test_push_forward_zero():
    chart = _chart1()
    S = InvariantComplexCurrent(chart, 0, {})
    assert push_forward(S).is_zero()


def test_kernel_exemplar_killed():
    chart = _chart1()
    S = kernel_point_current(chart)
    assert not S.is_zero()
    T = push_forward(S)
    assert T.is_zero()
    # the evaluator itself is nonzero on the constant-coefficient frame field
    from tropcur.coeffs import CoefficientFn, Poly
    from tropcur.fields import InvariantComplexFormField
    h = CoefficientFn.poly_exp(Poly.const(1, 1), Poly.linear([-2]))
    fld = InvariantComplexFormField(chart, 1, 1, 1, {((0,), (0,)): h})
    assert S.kernel[0](fld) == pytest.approx(1.0)
    # pullbacks of compactly supported Lagerberg forms evaluate to zero
    from tropcur.gallery import tropical_line  # noqa: F401  (import sanity)
    alpha = bump_box_field(chart, 1, 1, [(((0,), (0,)), Poly.const(1, 1))], [(0, 2)])
    w = trop_pullback_field(alpha)
    assert S.kernel[0](w) == 0.0


def test_lift_round_trip_line():
    T = tropical_line_current()
    S = lift(T)
    assert validate_shadow(S)
    back = push_forward(S)
    assert back == T
    # the shadow carries the exact pi^q 2^{2q} prefactor
    sig = S.shadow((0,), (0,))
    assert sig.scale == (Fraction(4), 1)


def test_lift_rejects_exm1():
    T = positive_not_liftable()
    with pytest.raises(NotCFinite):
        lift(T, require=("positive",))


def test_lift_rejects_non_positive():
    T = closed_not_positive()
    with pytest.raises(NotPositive):
        lift(T)


def test_lift_zero():
    chart = _chart1()
    T = LagerbergCurrent(chart, 0, {})
    S = lift(T)
    assert S.is_zero()
    assert push_forward(S).is_zero()


def test_round_trip_suite():
    suite = random_closed_positive_suite(count=8, seed=3)
    report = round_trip_verify(suite)
    assert report.ok, report.failures


def test_round_trip_trivial_zero():
    chart = _chart1()
    report = round_trip_verify([LagerbergCurrent(chart, 0, {})])
    assert report.ok


def test_complex_positivity_of_lift():
    T = tropical_line_current()
    S = lift(T)
    v = complex_positivity_check(S, samples=8)
    assert v.yes, v.reason


def test_complex_positivity_failure():
    # shadow with sigma^{II} = 0 but sigma^{IJ} = Lebesgue: estimate fails
    chart = orthant_fan(2).toric_chart(0)
    whole = Polyhedron(2, [])
    mu = PieceMeasure(2, pieces=[lebesgue_piece((), whole)])
    S = InvariantComplexCurrent(chart, 1, {((0,), (1,)): mu, ((1,), (0,)): mu})
    v = complex_positivity_check(S, samples=6)
    assert v.answer == "no"


def test_complex_positivity_zero():
    chart = _chart1()
    S = InvariantComplexCurrent(chart, 0, {})
    assert complex_positivity_check(S).yes


def test_compat_checks_atomic():
    chart = _chart1()
    sigma = PieceMeasure(1, atoms=[Atom(frozenset(), (Fraction(1),), Fraction(2))],
                         scale=(Fraction(4), 1))
    S = InvariantComplexCurrent(chart, 0, {((0,), (0,)): sigma})
    rep = compat_checks(S)
    assert rep.yes, rep.witness


def test_compat_checks_two_strata():
    # dense density + boundary atom in a (n,n) shadow on the 2-chart
    fan = orthant_fan(2)
    chart = fan.toric_chart(fan.cone_id([(1, 0), (0, 1)]))
    box = Polyhedron.box([(0, 1), (0, 1)])
    mu = PieceMeasure(2,
                      atoms=[Atom(frozenset({0}), (Fraction(2),), Fraction(1))],
                      pieces=[lebesgue_piece((), box)])
    S = InvariantComplexCurrent(chart, 2, {((), ()): mu})
    rep = compat_checks(S)
    assert rep.yes, rep.witness
    # top-degree record present and true (measure-level bijection)
    assert ("top_degree", None, True) in rep.certificate


def test_invalid_shadow_rejected():
    # shadow density growing toward the boundary: validity fails
    chart = _chart1()
    from tropcur.coeffs import Poly
    ray = Polyhedron(1, [((-1,), 0)])
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), ray, expo=Poly({(2,): Fraction(1)}, 1))])
    S = InvariantComplexCurrent(chart, 0, {((0,), (0,)): mu})
    with pytest.raises(InvalidShadow):
        push_forward(S)


def test_lift_validity_matches_c_finite():
    # lift succeeds exactly when c_finite_test says yes
    from tropcur.currents import c_finite_test
    good = tropical_line_current()
    assert c_finite_test(good).yes
    S = lift(good)
    assert validate_shadow(S)
    bad = positive_not_liftable()
    assert not c_finite_test(bad).yes
