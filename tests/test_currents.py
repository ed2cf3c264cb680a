import math
from fractions import Fraction

import pytest

from tropcur.coeffs import CoefficientFn, Poly, bump
from hypothesis import given, settings, strategies as st

from tropcur.currents import (LagerbergCurrent, WeightedComplex, _integrated_complex,
                              balancing_check, c_finite_test, canonical_decomposition,
                              closedness_test, evaluate, extend_by_zero,
                              from_cocoefficients, integration_current,
                              positivity_check, resum, sampled_closedness,
                              wedge_with_form)
from tropcur.errors import (MixedDimension, NotCFinite, NotPositive,
                            SupportEscapesU)
from tropcur.fans import orthant_fan
from tropcur.fields import LagerbergFormField, bump_box_field
from tropcur.gallery import (degenerate_form_current, derivative_atom_current,
                             omega_degenerate, positive_not_liftable,
                             closed_not_positive,
                             positive_not_positively_liftable, shifted_tropical_line,
                             tropical_line, tropical_line_current)
from tropcur.formats import current_from_json, current_to_json
from tropcur.measures import (Atom, OpenBox, Piece, PieceMeasure,
                              lebesgue_piece)
from tropcur.polyhedra import Polyhedron


def interval(lo, hi):
    rows = []
    if hi is not None:
        rows.append(((1,), hi))
    if lo is not None:
        rows.append(((-1,), -Fraction(lo)))
    return Polyhedron(1, rows)


def _chart(n, infinite=False):
    fan = orthant_fan(n)
    if infinite:
        gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return fan.toric_chart(fan.cone_id(gens))
    return fan.toric_chart(0)


def test_evaluate_lebesgue_unit():
    # T with T^{(0),(0)} = Lebesgue on [0,1] (n=1, p=0) eats (1,1)-forms
    chart = _chart(1)
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    T = LagerbergCurrent(chart, 0, {((0,), (0,)): mu})
    from tropcur.measures import integrate_against
    assert integrate_against(CoefficientFn.const(1, 1), mu) == pytest.approx(1.0, abs=1e-9)
    alpha = bump_box_field(chart, 1, 1, [(((0,), (0,)), Poly.const(1, 1))], [(-1, 2)])
    val = evaluate(T, alpha)
    from tropcur.quadrature import adaptive_box
    fn = alpha.coefficient(frozenset(), (0,), (0,))
    oracle = adaptive_box(lambda pts: fn.eval_np(pts), [(0.0, 1.0)], 1e-10)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_evaluate_support_escape():
    chart = _chart(1)
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    U = OpenBox(chart, ((Fraction(-1), Fraction(2), False),))
    T = LagerbergCurrent(chart, 0, {((0,), (0,)): mu}, U)
    alpha = bump_box_field(chart, 1, 1, [(((0,), (0,)), Poly.const(1, 1))], [(0, 5)])
    with pytest.raises(SupportEscapesU):
        evaluate(T, alpha)


def test_positive_not_liftable_current():
    T = positive_not_liftable()
    v = positivity_check(T, samples=8)
    assert v.yes
    cf = c_finite_test(T)
    assert not cf.yes
    assert cf.witness["ray"] == (1,)
    cv = closedness_test(T, test_basis_size=10, tol=1e-8, seed=3)
    assert not cv.yes
    assert cv.residual > 1e-3


def test_exm1_evaluation_bound():
    # alpha_k = e^{-k^2} rho(u - k) d'u ^ d''u with rho == 1 on [k, k+1]:
    # the value exceeds int_k^{k+1} e^{x^2-k^2} dx > 1
    from tropcur.coeffs import table
    T = positive_not_liftable()
    chart = T.chart
    for k in (2, 3):
        rho = table(1, 0, k, k + 1)
        fld = LagerbergFormField(chart, 1, 1, 1,
                                 {frozenset(): {((0,), (0,)): rho}})
        val = evaluate(T, fld, tol=1e-6) * math.exp(-k * k)
        assert val > 1.0


def test_evaluate_indicator_exactly_one():
    # f == 1 on [0,1] against Lebesgue on [0,1]: the value is 1
    from tropcur.coeffs import table
    chart = _chart(1)
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    T = LagerbergCurrent(chart, 0, {((0,), (0,)): mu})
    fld = LagerbergFormField(chart, 1, 1, 1,
                             {frozenset(): {((0,), (0,)): table(1, 0, 0, 1)}})
    assert evaluate(T, fld) == pytest.approx(1.0, abs=1e-8)


def test_closed_not_positive_current():
    T = closed_not_positive()
    cv = closedness_test(T)
    assert cv.yes and cv.exact        # top bidegree: vacuous
    v = positivity_check(T, samples=6)
    assert v.answer == "no"
    kind, beta, val = v.witness
    assert val < 0
    # the witness re-verifies
    assert evaluate(T, beta, check=False) == pytest.approx(val)


def test_exm3_not_c_finite():
    T = positive_not_positively_liftable()
    assert positivity_check(T, samples=6).yes
    cf = c_finite_test(T)
    assert not cf.yes


def test_degenerate_form_current_fails_estimate():
    T = degenerate_form_current()
    v = positivity_check(T, samples=6)
    assert v.answer == "no"
    assert v.witness[0] in ("estimate_piece", "estimate_atom")


def test_degenerate_current_cocoefficient_table():
    # T^{(2,3),(0,1)} = +Lebesgue, T^{(1,3),(0,2)} = -Lebesgue (0-based)
    T = degenerate_form_current()
    mu = T.cocoeff((2, 3), (0, 1))
    assert len(mu.pieces) == 1 and mu.pieces[0].sign > 0
    assert mu.pieces[0].weight_poly == Poly.const(1, 4)
    mu2 = T.cocoeff((1, 3), (0, 2))
    assert len(mu2.pieces) == 1 and mu2.pieces[0].sign < 0
    # diagonal co-coefficients vanish
    assert T.cocoeff((0, 1), (0, 1)).is_zero()
    # symmetry T^{IJ} = T^{JI}
    assert mu == T.cocoeff((0, 1), (2, 3))


def test_derivative_atom_current_flagged():
    T = derivative_atom_current()
    assert not T.is_measure_class()
    v = positivity_check(T, samples=4)
    assert v.answer == "no" and v.witness[0] == "non_measure"


def test_wedge_degenerate_form_with_derivative_atom():
    # beta = constant degenerate form field, T' = derivative atom current:
    # the output co-coefficient is again a derivative atom (non-measure)
    Tp = derivative_atom_current()
    chart = Tp.chart
    omega = omega_degenerate()
    tables = {frozenset(): {k: CoefficientFn.const(c, 4)
                            for k, c in omega.coeff.items()}}
    beta = LagerbergFormField(chart, 4, 2, 2, tables)
    out = wedge_with_form(beta, Tp)
    assert out.p == 2
    assert not out.is_measure_class()
    mu = out.cocoeff((2, 3), (0, 1))
    assert len(mu.derivative_atoms) == 1


def test_wedge_with_constant_one():
    T = tropical_line_current()
    chart = T.chart
    one = LagerbergFormField(chart, 2, 0, 0,
                             {frozenset(): {((), ()): CoefficientFn.const(1, 2)}})
    out = wedge_with_form(one, T)
    assert out == T


def test_decomposition_atoms_and_density():
    # one atom at u = (inf, 0), one Lebesgue density on N_R inside R_inf^2
    chart = _chart(2, infinite=True)
    square = Polyhedron.box([(0, 1), (0, 1)])
    mu11 = PieceMeasure(2, pieces=[lebesgue_piece((), square)])
    mu22 = PieceMeasure(2, atoms=[Atom(frozenset({0}), (Fraction(0),), Fraction(1))],
                        pieces=[lebesgue_piece((), square)])
    T = LagerbergCurrent(chart, 1, {((0,), (0,)): mu11, ((1,), (1,)): mu22})
    parts = canonical_decomposition(T, assume_positive=True)
    strata = {tuple(sorted(M)) for M in parts}
    assert strata == {(), (0,)}
    assert resum(parts, T) == T
    bdry = parts[frozenset({0})]
    assert len(bdry.cocoeff((1,), (1,)).atoms) == 1
    assert bdry.cocoeff((0,), (0,)).is_zero()


def test_decomposition_requires_positive():
    T = degenerate_form_current()
    with pytest.raises(NotPositive):
        canonical_decomposition(T, samples=5)


def test_tropical_line_balanced_closed_positive():
    C = tropical_line()
    assert balancing_check(C).yes
    T = tropical_line_current()
    assert positivity_check(T, samples=8).yes
    cv = closedness_test(T)
    assert cv.yes and cv.exact
    assert c_finite_test(T).yes


def test_tropical_line_sampled_closedness():
    # the sampled route on its own sees only tiny residuals
    cv = sampled_closedness(tropical_line_current(), test_basis_size=12, tol=1e-8, seed=1)
    assert cv.yes and not cv.exact, cv.residual


def test_sum_closedness_reads_the_value():
    # T1 + T2 is the unbalanced line with weights (2, 2, 3), in either order
    T1 = tropical_line_current()
    T2 = integration_current(tropical_line((1, 1, 2)), T1.chart)
    for T in (T1 + T2, T2 + T1):
        cv = closedness_test(T, test_basis_size=16, tol=1e-8, seed=2)
        assert cv.no and not cv.exact and cv.residual > 1e-3


def test_sum_of_equal_pieces_is_the_multiple():
    # T + T keeps two pieces on each cell; its value, and so its exact
    # closedness verdict, is that of 2 T
    T = tropical_line_current()
    assert T + T == T.scale(2) != T
    assert (T + T) + T.scale(-1) == T
    for S in (T + T, T.scale(2)):
        cv = closedness_test(S)
        assert cv.yes and cv.exact


def test_product_closedness_reads_the_value():
    # (u0 + 5) T is not closed, however it was built
    T = tropical_line_current()
    beta = LagerbergFormField(T.chart, 2, 0, 0, {frozenset(): {
        ((), ()): CoefficientFn.poly_exp(Poly.linear([1, 0], 5), Poly.zero(2))}})
    W = wedge_with_form(beta, T)
    rebuilt = LagerbergCurrent(W.chart, W.p, W.cocoeffs, W.U)
    assert W == rebuilt
    for cur in (W, rebuilt):
        cv = closedness_test(cur, test_basis_size=16, tol=1e-8, seed=2)
        assert cv.no and not cv.exact and cv.residual > 1e-3


@st.composite
def _line_currents(draw):
    """Sums of distinct shifted lines, one weight possibly off balance,
    times a rational scalar."""
    shifts = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=1, max_size=2, unique=True))
    T = None
    for t, shift in enumerate(shifts):
        weights = [draw(st.integers(1, 3))] * 3
        if t == 0 and draw(st.booleans()):
            weights[draw(st.integers(0, 2))] += 1
        line = integration_current(shifted_tropical_line(shift, weights), _chart(2))
        T = line if T is None else T + line
    return T.scale(draw(st.sampled_from([1, 2, Fraction(1, 2), Fraction(-3, 2)])))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_line_currents())
def test_closedness_depends_on_value_only(T):
    cv = closedness_test(T, test_basis_size=6, seed=5)
    back = current_from_json(current_to_json(T), T.chart)
    cv_back = closedness_test(back, test_basis_size=6, seed=5)
    assert (cv_back.answer, cv_back.exact) == (cv.answer, cv.exact)
    C = _integrated_complex(T)
    assert C is not None
    if cv.exact:
        cv = sampled_closedness(T, test_basis_size=6, seed=5)
    # the sampled route is the oracle of the exact one
    assert cv.yes == balancing_check(C).yes, cv.residual


def test_unbalanced_line_detected():
    C = tropical_line(weights=(1, 1, 2))
    bal = balancing_check(C)
    assert not bal.yes
    assert bal.witness["residual"] is not None
    T = integration_current(C, _chart(2))
    cv = closedness_test(T, test_basis_size=16, tol=1e-8, seed=2)
    assert not cv.yes
    assert cv.residual > 1e-3


def test_single_segment_weight_zero_balanced():
    seg = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)])
    C = WeightedComplex(((seg, 0),), declared_dim=1)
    assert balancing_check(C).yes
    assert integration_current(C, _chart(2)).is_zero()


def test_single_ray_unbalanced():
    ray = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0)])
    C = WeightedComplex(((ray, 1),), declared_dim=1)
    assert not balancing_check(C).yes


def test_mixed_dimension_rejected():
    seg = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)])
    pt = Polyhedron(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
    C = WeightedComplex(((seg, 1), (pt, 1)))
    with pytest.raises(MixedDimension):
        C.dim()


def test_delta_segment_cocoefficients():
    # segment [0,1] e_0 in R^2, weight 1: only T^{(0,),(0,)} = Lebesgue
    seg = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)])
    C = WeightedComplex(((seg, 1),), declared_dim=1)
    T = integration_current(C, _chart(2))
    assert T.p == 1
    assert set(T.cocoeffs) == {((0,), (0,))}
    mu = T.cocoeff((0,), (0,))
    assert mu.pieces[0].weight_poly == Poly.const(1, 2)
    # evaluation against a (1,1) field is a 1-d integral over the segment
    alpha = bump_box_field(T.chart, 1, 1,
                           [(((0,), (0,)), Poly.const(1, 2))], [(-1, 2), (-1, 1)])
    val = evaluate(T, alpha)
    import numpy as np
    from tropcur.quadrature import adaptive_box
    fn = alpha.coefficient(frozenset(), (0,), (0,))
    oracle = adaptive_box(
        lambda pts: fn.eval_np(np.column_stack([pts[:, 0], np.zeros(len(pts))])),
        [(0.0, 1.0)], 1e-10)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_extension_by_zero_ray_through_boundary():
    # delta of a ray toward the boundary stratum, bounded weight: extends
    chart = _chart(2, infinite=True)
    ray = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0)])
    C = WeightedComplex(((ray, 1),), declared_dim=1)
    T = integration_current(C, chart)
    ext = extend_by_zero(T, [frozenset({0})], check_positive=False)
    assert ext.cocoeffs == T.cocoeffs


def test_extension_not_c_finite_rejected():
    T = positive_not_positively_liftable()
    with pytest.raises(NotCFinite):
        extend_by_zero(T, [frozenset({0})], check_positive=False)


def test_extension_of_zero():
    chart = _chart(1, infinite=True)
    T = LagerbergCurrent(chart, 0, {})
    out = extend_by_zero(T, [frozenset({0})], check_positive=False)
    assert out.is_zero()


def test_reconstruction_identity():
    T = tropical_line_current()
    back = from_cocoefficients(T.chart, T.p, T.cocoeffs, T.U)
    assert back == T


def test_top_degree_vacuously_closed():
    chart = _chart(2)
    full = ((0, 1), (0, 1))
    mu = PieceMeasure(2, atoms=[Atom(frozenset(), (Fraction(0), Fraction(0)),
                                     Fraction(1))])
    T = LagerbergCurrent(chart, 2, {((), ()): mu})
    cv = closedness_test(T)
    assert cv.yes and cv.exact


def test_j_symmetry_of_positive_currents():
    # positivity includes symmetry: T^{IJ} = T^{JI} verified on the line
    T = tropical_line_current()
    for (I, J) in T.cocoeffs:
        assert T.cocoeff(I, J) == T.cocoeff(J, I)


def test_window_pairings_integrated_once_per_cocoefficient(monkeypatch):
    # step (iv) pairs every sample with the same window test forms, so each
    # co-coefficient is integrated against its window at most once
    import tropcur.currents as currents_mod
    T = tropical_line_current()
    calls = []
    real = currents_mod.integrate_against

    def counting(f, mu, *args, **kwargs):
        calls.append(mu)
        return real(f, mu, *args, **kwargs)

    monkeypatch.setattr(currents_mod, "integrate_against", counting)
    assert positivity_check(T, samples=25).yes
    window_calls = [[c for c in calls if c is mu] for mu in T.cocoeffs.values()]
    assert any(window_calls)
    assert all(len(c) <= 1 for c in window_calls)


def test_atoms_at_one_point_add_up():
    # the off-diagonal atoms 2 delta_0 of A and -2 delta_0 of B cancel, so
    # A + B is the positive current delta_0 (e_00 + e_11)
    def delta(w):
        return PieceMeasure(2, atoms=[Atom(frozenset(), (Fraction(0), Fraction(0)), Fraction(w))])

    e0, e1 = (0,), (1,)
    diagonal = {(e0, e0): delta(1), (e1, e1): delta(1)}
    A = LagerbergCurrent(_chart(2), 1, {**diagonal, (e0, e1): delta(2), (e1, e0): delta(2)})
    B = LagerbergCurrent(_chart(2), 1, {(e0, e1): delta(-2), (e1, e0): delta(-2)})
    C = LagerbergCurrent(_chart(2), 1, diagonal)
    assert A + B == C
    assert positivity_check(A + B, samples=6).yes
