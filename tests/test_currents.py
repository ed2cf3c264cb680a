import itertools
import json
import math
from fractions import Fraction

import pytest

from tropcur.coeffs import CoefficientFn, Poly, plateau
from hypothesis import assume, given, settings, strategies as st

from tropcur.currents import (LagerbergCurrent, WeightedComplex, _integrated_complex,
                              balancing_check, c_finite_test, c_finite_witness,
                              canonical_decomposition,
                              closedness_test, evaluate, extend_by_zero,
                              integration_current,
                              positivity_check, resum, sampled_closedness)
from tropcur.errors import (BidegreeMismatch, DimensionMismatch, MixedDimension, NotCFinite,
                            NotPositive, SupportEscapesU, ValidationError)
from tropcur.fans import orthant_fan
from tropcur.fields import LagerbergFormField, bump_box_field
from tropcur.gallery import (degenerate_form_current, derivative_atom_current,
                             positive_not_liftable, closed_not_positive,
                             positive_not_positively_liftable, shifted_tropical_line,
                             tropical_line, tropical_line_current)
from tropcur.formats import current_from_json, current_to_json
from tropcur.measures import (Atom, Piece, PieceMeasure,
                              boundary_escape_cones, decay_along, lebesgue_piece)
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
    oracle = adaptive_box(fn.eval_float, [(0.0, 1.0)], 1e-10)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_evaluate_rejects_a_test_form_without_compact_support():
    # a plateau rising toward +infinity on a finite axis is not compactly supported
    chart = _chart(1)
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    T = LagerbergCurrent(chart, 0, {((0,), (0,)): mu})
    alpha = LagerbergFormField(chart, 1, 1, 1, {frozenset(): {((0,), (0,)): plateau(1, 0, 0, 1)}})
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
    # (u0 + 5) T is not closed, however it was built: each piece's density
    # times u0 + 5, whose sign is not certified
    T = tropical_line_current()
    factor = Poly.linear([1, 0], 5)
    cocoeffs = {}
    for key, mu in T.cocoeffs.items():
        assert not mu.atoms and not mu.derivative_atoms
        pieces = [Piece(p.stratum, p.poly, p.weight_poly * factor, p.weight_expo, 0)
                  for p in mu.pieces]
        cocoeffs[key] = PieceMeasure(mu.n, pieces=pieces, scale=mu.scale, certify=False)
    W = LagerbergCurrent(T.chart, T.p, cocoeffs)
    rebuilt = LagerbergCurrent(W.chart, W.p, W.cocoeffs)
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
    assert bal.no and bal.exact
    assert bal.witness["residual"] is not None
    T = integration_current(C, _chart(2))
    cv = closedness_test(T, test_basis_size=16, tol=1e-8, seed=2)
    assert not cv.yes
    assert cv.residual > 1e-3


@pytest.mark.parametrize("shift", [(0, 0), (0, 1)])
def test_closedness_sees_the_vertex_of_an_unbalanced_line(shift):
    # this seed's random fields all vanish at the vertex or pair with the
    # balanced axis; the fields centred on balancing's witness face do not
    C = shifted_tropical_line(shift, [1, 2, 1])
    cv = closedness_test(integration_current(C, _chart(2)), test_basis_size=6, seed=5)
    assert balancing_check(C).no
    assert cv.no and not cv.exact and cv.residual > 1e-3


def test_single_segment_weight_zero_balanced():
    seg = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)])
    C = WeightedComplex(((seg, 0),), declared_dim=1)
    bal = balancing_check(C)
    assert bal.yes and bal.exact
    assert integration_current(C, _chart(2)).is_zero()


@pytest.mark.parametrize("weight", [Fraction(1, 2), 2.7, 2.0, "1"],
                         ids=["half", "float", "integral-float", "string"])
def test_weight_that_is_not_an_integer_is_rejected(weight):
    # truncating 1/2 to 0 would leave an empty complex that reads as balanced
    seg = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)])
    with pytest.raises(ValidationError):
        WeightedComplex(((seg, weight),))
    C = WeightedComplex(((seg, Fraction(4, 2)),))
    assert C.cells[0][1] == 2 and type(C.cells[0][1]) is int and C.dim() == 1


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
    from tropcur.quadrature import adaptive_box
    fn = alpha.coefficient(frozenset(), (0,), (0,))
    oracle = adaptive_box(lambda u: fn.eval_float((u[0], 0.0)), [(0.0, 1.0)], 1e-10)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_extension_by_zero_ray_through_boundary():
    # delta of a ray toward the boundary stratum, bounded weight: extends
    chart = _chart(2, infinite=True)
    ray = Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0)])
    C = WeightedComplex(((ray, 1),), declared_dim=1)
    T = integration_current(C, chart)
    ext = extend_by_zero(T)
    assert ext.cocoeffs == T.cocoeffs


def test_extension_not_c_finite_rejected():
    T = positive_not_positively_liftable()
    with pytest.raises(NotCFinite):
        extend_by_zero(T)


def test_extension_of_zero():
    chart = _chart(1, infinite=True)
    T = LagerbergCurrent(chart, 0, {})
    out = extend_by_zero(T)
    assert out.is_zero()


def test_reconstruction_identity():
    T = tropical_line_current()
    back = LagerbergCurrent(T.chart, T.p, T.cocoeffs)
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
    # co-coefficient is integrated against its window at most once; the
    # density u_0 is not constant, so the current takes the sampled route
    import tropcur.currents as currents_mod
    box = Polyhedron.box([(1, 2), (0, 1)])
    T = LagerbergCurrent(_chart(2), 1, {
        (I, I): PieceMeasure(2, pieces=[lebesgue_piece((), box, weight=Poly.var(0, 2))])
        for I in ((0,), (1,))})
    calls = []
    real = currents_mod.integrate_against

    def counting(f, mu, *args, **kwargs):
        calls.append(mu)
        return real(f, mu, *args, **kwargs)

    monkeypatch.setattr(currents_mod, "integrate_against", counting)
    v = positivity_check(T, samples=25)
    assert v.yes and not v.exact
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


def test_point_complex_carries_the_mass_of_its_atom():
    # a weight-3 point is the 3 delta atom: its piece has zero dimension and
    # the lattice-normalised counting measure
    chart = orthant_fan(2).toric_chart(0)
    point = integration_current(WeightedComplex([(Polyhedron.box([(1, 1), (1, 1)]), 3)]), chart)
    atom = LagerbergCurrent(chart, 2, {((), ()): PieceMeasure(
        2, atoms=[Atom(frozenset(), (Fraction(1), Fraction(1)), Fraction(3))])})
    fld = bump_box_field(chart, 0, 0, [(((), ()), Poly.const(1, 2))], [(0, 2), (0, 2)])
    assert evaluate(atom, fld) > 1e-3
    assert evaluate(point, fld) == pytest.approx(evaluate(atom, fld), rel=1e-12)


# --- exact positivity against the sampled route ----------------------------------

def _symmetric(draw, size, psd):
    """A symmetric integer matrix: a sum of v v^T (PSD), or any with a
    nonnegative diagonal (step (ii) rejects the others), or for size 3 a
    non-PSD one with no failing 2x2 principal minor: a (s_ij) with
    s_ij = +-1 and s_01 s_02 s_12 = -1."""
    m = [[0] * size for _ in range(size)]
    if psd:
        for _ in range(draw(st.integers(1, 2))):
            v = [draw(st.integers(-2, 2)) for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    m[i][j] += v[i] * v[j]
    elif size == 3 and draw(st.booleans()):
        a = draw(st.integers(1, 2))
        s = [draw(st.sampled_from([-1, 1])) for _ in range(2)]
        s.append(-s[0] * s[1])
        for (i, j), sij in zip(((0, 1), (0, 2), (1, 2)), s):
            m[i][j] = m[j][i] = sij * a
        for i in range(size):
            m[i][i] = a
    else:
        for i in range(size):
            m[i][i] = draw(st.integers(0, 3))
            for j in range(i):
                m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    return m


def _matrix_current(n, q, parts):
    """The (n-q, n-q)-current on R^n whose co-coefficient matrix over the
    q-subsets is m: on the polyhedron, or as atom weights at the point,
    of each (where, m) in ``parts``."""
    idx = list(itertools.combinations(range(n), q))
    atoms, pieces = {}, {}
    for where, m in parts:
        for (i, I), (j, J) in itertools.product(enumerate(idx), repeat=2):
            if not m[i][j]:
                continue
            if isinstance(where, Polyhedron):
                pieces.setdefault((I, J), []).append(lebesgue_piece((), where, weight=m[i][j]))
            else:
                atoms.setdefault((I, J), []).append(Atom(frozenset(), where, Fraction(m[i][j])))
    return LagerbergCurrent(_chart(n), n - q, {
        key: PieceMeasure(n, atoms.get(key, ()), pieces.get(key, ()))
        for key in {**atoms, **pieces}})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_form_and_one_cell_current_share_the_gram_kernel(data):
    """A symmetric integer matrix M over the q-subsets of R^n, n <= 4, is
    the Gram matrix of the fiber (q,q)-form with coefficients
    (-1)^{q(q-1)/2} M and the matrix of a one-cell constant-density current
    with co-coefficients M: both get the same positive-tier answer, a Yes
    carries the form's decomposition as the cell's terms, and an
    evaluation witness is the form's."""
    from tropcur.fiber import LagerbergFiberForm, positivity_verdict
    n = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, n))
    idx = list(itertools.combinations(range(n), q))
    M = _symmetric(data.draw, len(idx), data.draw(st.booleans()))
    sign = (-1) ** (q * (q - 1) // 2)
    form = LagerbergFiberForm(n, q, q, {(I, J): sign * M[i][j] for (i, I), (j, J)
                                        in itertools.product(enumerate(idx), repeat=2)})
    f = positivity_verdict(form, "positive")
    c = positivity_check(_matrix_current(n, q, [(Polyhedron.box([(0, 1)] * n), M)]))
    assert c.exact and c.answer == f.answer
    if c.yes:
        cells = c.certificate[1]
        assert [list(terms) for _, terms in cells] == ([f.certificate[1]] if any(map(any, M)) else [])
    elif c.witness[0] == "evaluation":
        assert c.witness == f.witness
@st.composite
def _constant_density_currents(draw):
    """Constant-density currents on one to three boxes in R^n, 2 <= n <= 3,
    1 <= q < n, with atoms; any box may carry a non-PSD matrix, and
    overlapping boxes may make up for each other."""
    n = draw(st.integers(2, 3))
    q = draw(st.integers(1, n - 1))
    size = math.comb(n, q)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        bounds = []
        for _ in range(n):
            lo = draw(st.integers(-2, 1))
            bounds.append((lo, draw(st.integers(lo + 1, 2))))
        psd = draw(st.sampled_from([True, True, False]))
        parts.append((Polyhedron.box(bounds), _symmetric(draw, size, psd)))
    for _ in range(draw(st.integers(0, 2))):
        pt = tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(n))
        parts.append((pt, _symmetric(draw, size, draw(st.booleans()))))
    return _matrix_current(n, q, parts)


def _perturbed(v):
    """v with one entry of its certificate or witness changed."""
    if v.yes:
        kind, entries = v.certificate
        t = next(t for t, (_, dec) in enumerate(entries) if dec)
        where, ((gamma, vec), *rest) = entries[t]
        entries = entries[:t] + ((where, ((gamma + 1, vec), *rest)),) + entries[t + 1:]
        return v.replace(certificate=(kind, entries))
    kind, *data = v.witness
    if kind == "evaluation":
        return v.replace(witness=(kind, data[0], data[1] - 1))
    if kind == "estimate_piece":
        (wIJ, wII, wJJ) = data[2]
        return v.replace(witness=(kind, data[0], data[1], (wIJ + 1, wII, wJJ)))
    atom = data[1]
    return v.replace(witness=(kind, data[0], Atom(atom.stratum, atom.coords,
                                                   atom.weight + 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_constant_density_currents())
def test_exact_positivity_agrees_with_sampled_route(T):
    from tropcur.currents import _sampled_positivity
    from tropcur.fiber import reverify
    v = positivity_check(T, samples=6)
    if not v.exact:
        # step (ii) decides a negative diagonal before the exact route
        assert v.no and v.witness[0].startswith("diagonal")
        return
    sampled = _sampled_positivity(T, 6, 0, 1e-9)
    if v.yes:
        assert sampled.yes, sampled.witness
    if sampled.no:
        assert v.no, sampled.witness
    assert reverify(T, v)
    if v.yes and not any(dec for _, dec in v.certificate[1]):
        return          # nothing to perturb in an all-zero certificate
    assert not reverify(T, _perturbed(v))


def _ref_exact_verdict_holds(T, v):
    """Whether an exact positive-tier verdict on T proves its answer, with
    Fraction matrices: a cells certificate names each cell and atom point
    of T once, with terms (gamma, {K: v_K}), sum gamma v v^T equal to its
    matrix and every gamma > 0;
    an evaluation witness (x, value), x over T's q-subsets, has
    x^T M x == value < 0 on one."""
    from tropcur.currents import _cell_matrices
    data = v.certificate if v.yes else v.witness
    cells = _cell_matrices(T)
    idx = list(itertools.combinations(range(T.n), T.q))
    if v.tier != "positive":
        return False
    if data[0] == "evaluation":
        _, x, value = data
        xs = [x.get(K, 0) for K in idx]
        return x.keys() <= set(idx) and value < 0 and any(
            sum(xs[i] * M[i][j] * xs[j] for i in range(len(idx)) for j in range(len(idx))) == value
            for _, _, M in cells)
    mats = {where: M for where, _, M in cells}
    if data[0] != "cells" or len(data[1]) != len(mats) or {w for w, _ in data[1]} != set(mats):
        return False
    for where, decomposition in data[1]:
        total = [[0] * len(idx) for _ in idx]
        for gamma, coeffs in decomposition:
            if not gamma > 0 or not coeffs.keys() <= set(idx):
                return False
            vec = [coeffs.get(K, 0) for K in idx]
            for i in range(len(idx)):
                for j in range(len(idx)):
                    total[i][j] += gamma * vec[i] * vec[j]
        if total != mats[where]:
            return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_reverify_rejects_mutated_current_verdicts(data):
    """An exact verdict on a constant-density current, mutated: another
    tier; in a cells certificate, a gamma negated or zeroed, a term or a
    cell dropped; an entry of x or the value perturbed; another current's
    cells or evaluation swapped in.  reverify accepts a mutant exactly when
    the Fraction reference says it still proves its answer."""
    from tropcur.fiber import reverify
    T, other = (data.draw(_constant_density_currents()) for _ in range(2))
    v, w = positivity_check(T, samples=6), positivity_check(other, samples=6)
    assume(v.exact)
    assert reverify(T, v)
    mutants = [v.replace(tier=t) for t in ("strong", "weak")]
    kinds = ("cells", "evaluation")
    if w.exact and w.answer == v.answer and (w.certificate or w.witness)[0] in kinds:
        mutants.append(v.replace(certificate=w.certificate, witness=w.witness))
    if v.yes and v.certificate[1]:
        kind, entries = v.certificate
        t = data.draw(st.integers(0, len(entries) - 1))
        where, decomposition = entries[t]
        mutants.append(v.replace(certificate=(kind, entries[:t] + entries[t + 1:])))
        if decomposition:
            k = data.draw(st.integers(0, len(decomposition) - 1))
            gamma, vec = decomposition[k]
            for changed in (((-gamma, vec),), ((0 * gamma, vec),), ()):
                cell = (where, decomposition[:k] + changed + decomposition[k + 1:])
                mutants.append(v.replace(certificate=(kind, entries[:t] + (cell,) + entries[t + 1:])))
    elif v.no and v.witness[0] == "evaluation":
        kind, x, value = v.witness
        K = data.draw(st.sampled_from(sorted(x)))
        mutants += [v.replace(witness=(kind, {**x, K: x[K] + 1}, value)),
                    v.replace(witness=(kind, x, value - 1))]
    for mutant in mutants:
        assert reverify(T, mutant) == _ref_exact_verdict_holds(T, mutant), mutant


def test_overlapping_cells_add_up():
    # W_A is not PSD, but on each half of A the box B or C brings it to 2 I
    from tropcur.fiber import reverify
    W_A, W_BC = [[1, 3], [3, 1]], [[1, -3], [-3, 1]]
    A = (Polyhedron.box([(0, 2), (0, 1)]), W_A)
    B = (Polyhedron.box([(0, 1), (0, 1)]), W_BC)
    C = (Polyhedron.box([(1, 2), (0, 1)]), W_BC)
    T = _matrix_current(2, 1, [A, B, C])
    v = positivity_check(T)
    assert v.yes and v.exact and reverify(T, v)
    kind, entries = v.certificate
    assert kind == "cells" and len(entries) == 2
    # without C the half [1, 2] x [0, 1] of A keeps the matrix W_A
    T = _matrix_current(2, 1, [A, B])
    v = positivity_check(T)
    assert v.no and v.exact and reverify(T, v)
    kind, IJ, pt, values = v.witness
    assert kind == "estimate_piece" and values == (3, 1, 1)
    assert 1 < pt[0] < 2 and 0 < pt[1] < 1


def test_sampled_estimate_sums_overlapping_pieces():
    # the pieces of test_overlapping_cells_add_up: on A the matrix is 2 I,
    # though the piece on A alone carries W_A, which is not PSD
    from tropcur.currents import _sampled_positivity
    W_A, W_BC = [[1, 3], [3, 1]], [[1, -3], [-3, 1]]
    A = (Polyhedron.box([(0, 2), (0, 1)]), W_A)
    B = (Polyhedron.box([(0, 1), (0, 1)]), W_BC)
    C = (Polyhedron.box([(1, 2), (0, 1)]), W_BC)
    assert _sampled_positivity(_matrix_current(2, 1, [A, B, C]), 25, 0, 1e-9).yes
    v = _sampled_positivity(_matrix_current(2, 1, [A, B]), 25, 0, 1e-9)
    kind, IJ, pt, values = v.witness
    assert v.no and kind == "estimate_piece" and values == (3.0, 1.0, 1.0)
    assert 1 < pt[0] < 2 and 0 < pt[1] < 1
    # on the segment where B and C meet, closed B and C would both count
    # and [[3, -4], [-4, 4]] fail; that segment is skipped
    C = (C[0], [[1, -4], [-4, 2]])
    T = _matrix_current(2, 1, [A, B, C])
    assert positivity_check(T).yes and _sampled_positivity(T, 25, 0, 1e-9).yes


def test_singular_cells_are_decided_apart():
    # a segment's non-PSD matrix is not absorbed by the box around it
    from tropcur.fiber import reverify
    T = _matrix_current(2, 1, [(Polyhedron.box([(0, 2), (0, 2)]), [[5, 0], [0, 5]]),
                               (Polyhedron.box([(1, 1), (0, 2)]), [[1, 3], [3, 1]])])
    v = positivity_check(T)
    assert v.no and v.exact and reverify(T, v)
    assert v.witness[0] == "estimate_piece" and v.witness[2][0] == 1


def test_exact_route_needs_one_exponent_per_cell():
    # e^u on [0, 2] and 1 on [1, 3] overlap with different exponents, so
    # their sum is no constant matrix times one positive factor there
    def current(other):
        mu = PieceMeasure(1, pieces=[
            lebesgue_piece((), Polyhedron.box([(0, 2)]), expo=Poly.linear([1])),
            lebesgue_piece((), Polyhedron.box([other]))])
        return LagerbergCurrent(_chart(1), 0, {((0,), (0,)): mu})

    for other in ((1, 3), (0, 2)):
        v = positivity_check(current(other), samples=4)
        assert v.yes and not v.exact
    v = positivity_check(current((2, 3)), samples=4)
    assert v.yes and v.exact and len(v.certificate[1]) == 2


# --- JSON literals of weighted complexes and currents --------------------------------

_SCALARS = st.one_of(st.integers(-3, 3), st.none(), st.booleans(),
                     st.sampled_from(["1/2", "−2/3", " 4 ", "1/0", "x", "", 0.5, 2.0, []]))


def _spoilt(draw, good, bad):
    """``good`` seven times in eight, else a draw from the strategy ``bad``."""
    return draw(bad) if draw(st.integers(0, 7)) == 0 else good


@st.composite
def _polyhedron_literal(draw, dim):
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        a = [draw(st.sampled_from([-1, 0, 1, 2, "1/2"])) for _ in range(dim)]
        rows.append({"a": a, "b": draw(st.sampled_from([0, 1, 2, "-1", "3/2"]))})
    return _spoilt(draw, {"dim": dim, "ineqs": rows},
                   st.sampled_from([{"dim": dim, "ineqs": [{"a": [1]}]}, {"dim": "x"},
                                    {"dim": dim + 1, "ineqs": rows}, [dim], "poly"]))


@st.composite
def _complex_literals(draw):
    dim = draw(st.sampled_from([2, 2, 2, 3]))
    cells = []
    for _ in range(draw(st.integers(0, 3))):
        cell = {"poly": draw(_polyhedron_literal(dim)), "weight": draw(st.integers(-2, 3))}
        cells.append(_spoilt(draw, cell, st.sampled_from(
            [{"poly": cell["poly"]}, {"poly": cell["poly"], "weight": "1/2"}, 7])))
    data = {"cells": cells}
    if draw(st.booleans()):
        data["dim"] = _spoilt(draw, draw(st.integers(-1, 3)), _SCALARS)
    return _spoilt(draw, data, st.sampled_from([{"cells": 5}, [cells], None]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_complex_literals())
def test_weighted_complex_literal_parses_or_is_input_error(data):
    from tropcur.errors import TropcurError
    from tropcur.formats import weighted_complex_from_json, weighted_complex_to_json
    try:
        C = weighted_complex_from_json(data)
    except TropcurError:
        return
    assert len({poly.dim for poly, _ in C.cells}) <= 1 and C.dim() >= -1
    text = weighted_complex_to_json(C)
    again = weighted_complex_from_json(json.loads(json.dumps(text)))
    assert again.cells == C.cells and weighted_complex_to_json(again) == text


@st.composite
def _measure_literal(draw, n):
    """A measure on R^n with atoms, possibly on the strata of axis 1 or 2,
    and polynomial densities, one part at a time possibly malformed."""
    atoms = []
    for _ in range(draw(st.integers(0, 2))):
        stratum = draw(st.sampled_from([[], [], [], [1], [2]]))
        coords = [draw(st.sampled_from([0, 1, "1/2", "-2"])) for _ in range(n - len(stratum))]
        atom = {"pt": {"stratum": stratum, "coords": coords}, "w": draw(st.integers(-2, 2))}
        atoms.append(_spoilt(draw, atom, st.sampled_from(
            [{"pt": {"stratum": [5], "coords": coords}, "w": 1},
             {"pt": {"stratum": stratum, "coords": coords + [0]}, "w": 1},
             {"pt": {"stratum": stratum, "coords": coords}, "w": "x"}, {"w": 1}])))
    densities = []
    for _ in range(draw(st.integers(0, 2))):
        pol = [{"exp": [draw(st.sampled_from([0, 2])) for _ in range(n)],
                "c": draw(st.integers(1, 2))}]
        piece = {"poly": draw(_polyhedron_literal(n)), "weight": {"pol": pol},
                 "sign": draw(st.sampled_from(["+", "+", "+", "0"]))}
        if draw(st.booleans()):
            piece["weight"]["quad"] = [{"exp": [2] + [0] * (n - 1), "c": "-1"}]
        densities.append(_spoilt(draw, piece, st.sampled_from(
            [{**piece, "sign": "?"}, {**piece, "sign": "-"}, {**piece, "weight": {"pol": [{"exp": [1], "c": 1}]}},
             {**piece, "weight": {"quad": [{"exp": [3] * n, "c": 1}]}}, {"sign": "+"}])))
    out = {"atoms": atoms, "densities": densities}
    if draw(st.booleans()):
        out["scale"] = _spoilt(draw, {"frac": draw(st.sampled_from(["1/2", "2"])),
                                      "pi_power": draw(st.integers(0, 1))},
                               st.sampled_from([{"frac": "-1"}, {"frac": "x"},
                                                {"frac": 1, "pi_power": "x"}, 3]))
    return _spoilt(draw, out, st.sampled_from([{**out, "n": n + 1}, {"atoms": 3}, [out], None]))


@st.composite
def _current_literals(draw):
    n = 2
    p = draw(st.sampled_from([0, 1, 1, 2]))
    keys = draw(st.lists(st.sampled_from(
        {0: ["1,2|1,2"], 1: ["1|1", "1|2", "2|1", "2|2"], 2: ["|"]}[p]), max_size=3, unique=True))
    p = _spoilt(draw, p, st.sampled_from([3, -1, "x", None, 0.5]))
    keys = [draw(st.sampled_from([key, key, key, "3|1", "1,1|2,2", "2,1|1,2", "1|1|1", "a|b"]))
            for key in keys]
    data = {"bidegree": [p, p], "cocoeffs": {key: draw(_measure_literal(n)) for key in keys}}
    return _spoilt(draw, data, st.sampled_from([{**data, "bidegree": [p, 0]},
                                                {**data, "bidegree": p}, {**data, "cocoeffs": []},
                                                [data], "T"]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_current_literals())
def test_current_literal_parses_or_is_input_error(data):
    from tropcur.errors import TropcurError
    chart = _chart(2, infinite=True)
    try:
        T = current_from_json(data, chart)
    except TropcurError:
        return
    assert 0 <= T.p <= T.n
    keys = list(itertools.combinations(range(T.n), T.q))
    assert all(I in keys and J in keys for I, J in T.cocoeffs)
    text = current_to_json(T)
    again = current_from_json(json.loads(json.dumps(text)), chart)
    assert again == T and current_to_json(again) == text


def test_current_keys_are_increasing_subsets_of_the_axes():
    from tropcur.errors import ValidationError
    box = {"dim": 2, "ineqs": [{"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 0}]}
    lebesgue = {"densities": [{"poly": box, "weight": {}}]}
    for p, key in ((1, "3|1"), (0, "2,1|1,2"), (0, "1,1|1,2")):
        with pytest.raises(ValidationError):
            current_from_json({"bidegree": [p, p], "cocoeffs": {key: lebesgue}}, _chart(2))
    T = current_from_json({"bidegree": [1, 1], "cocoeffs": {"2|2": lebesgue}}, _chart(2))
    assert list(T.cocoeffs) == [((1,), (1,))]


# --- C-finite witnesses read off the pieces ----------------------------------------------

def _fresh_escape_cones(piece, chart):
    """boundary_escape_cones as computed before the per-polyhedron memo:
    from a new recession cone, intersected with one box per mask."""
    n = len(chart.basis)
    finite_axes = [i for i in range(n) if i not in piece.stratum]
    inf_positions = [t for t, i in enumerate(finite_axes) if i in chart.infinite_axes]
    rec, d, out = Polyhedron(piece.poly.dim, piece.poly.rows).recession(), piece.poly.dim, []
    for mask in range(1, 1 << len(inf_positions)):
        pos = [inf_positions[t] for t in range(len(inf_positions)) if mask >> t & 1]
        sub = rec.intersect(Polyhedron.box([(0, None) if t in pos else (0, 0)
                                            for t in range(d)]))
        gens = [g for g in sub.recession_generators() if any(g)]
        gens = [g for g in gens if any(g[t] > 0 for t in pos)]
        if gens:
            out.append((frozenset(finite_axes[t] for t in pos), gens))
    return out


def _old_c_finite_witness(chart, measures):
    """The route c_finite_witness replaced: the boundary-weighted total
    variation built as a measure (``_boundary_weighted``), then an
    escape check of every piece on it, with fresh cones."""
    from tropcur.errors import NonMeasurePiece, SignNotCertified
    n = len(chart.basis)
    for (I, J), mu in measures.items():
        if mu.derivative_atoms:
            raise NonMeasurePiece("derivative atoms have no total variation")
        for p in mu.pieces:
            if p.sign == 0:
                raise SignNotCertified("piece without a certified sign",
                                       payload={"piece": p.key()})
        minus = [Piece(p.stratum, p.poly, p.weight_poly.scale(-1), p.weight_expo, 1)
                 for p in mu.pieces if p.sign < 0]
        coeffs = [Fraction(0)] * n
        for i in I:
            coeffs[i] -= 1
        for j in J:
            coeffs[j] -= 1
        weighted = PieceMeasure(n, mu.atoms, [
            Piece(p.stratum, p.poly, p.weight_poly, p.weight_expo + Poly.linear(
                [coeffs[i] for i in range(n) if i not in p.stratum]), p.sign)
            for p in [p for p in mu.pieces if p.sign > 0] + minus], (), mu.scale, certify=False)
        for piece in weighted.pieces:
            if piece.poly.is_bounded():
                continue
            for M, gens in _fresh_escape_cones(piece, chart):
                for v in gens:
                    if decay_along(piece.weight_expo, piece.poly, v) != "decays":
                        return {"I": I, "J": J, "stratum": tuple(sorted(piece.stratum | M)),
                                "ray": v, "piece": piece.key()}
    return None


def _unbounded_polyhedron(draw, d):
    if d == 0:
        return Polyhedron(0, [])
    ends = st.sampled_from([None, None, -1, 0, 2])
    box = [(draw(ends), draw(ends)) for _ in range(d)]
    box = [(lo, hi) if lo is None or hi is None or lo <= hi else (hi, lo) for lo, hi in box]
    if d == 1:
        return Polyhedron.box(box)
    return draw(st.sampled_from([
        Polyhedron.box(box),
        Polyhedron(2, [((-1, 0), 0), ((1, -1), 0)]),                     # wedge 0 <= x <= y
        Polyhedron(2, [((0, 1), 0), ((0, -1), 0), ((-1, 0), -1)]),        # ray y = 0, x >= 1
        Polyhedron(2, [((1, -2), 1), ((-1, 0), 0)]),                       # x - 2y <= 1, x >= 0
        Polyhedron(2, [((1, 1), 0)])]))                                    # half-plane


@st.composite
def _signed_measures(draw):
    """A chart with k infinite axes and measures whose pieces are mostly
    unbounded, of both signs, with linear or quadratic exponents that
    decay along some escape rays and not along others; one part in
    sixteen is a sign-0 piece or a derivative atom."""
    from tropcur.measures import DerivativeAtom
    n = draw(st.integers(1, 2))
    k = draw(st.integers(0, n))
    fan = orthant_fan(n)
    chart = fan.toric_chart(fan.cone_id([tuple(int(i == j) for j in range(n))
                                         for i in range(k)]))
    q = draw(st.integers(0, n))
    keys = list(itertools.product(itertools.combinations(range(n), q), repeat=2))
    measures = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            stratum = frozenset(draw(st.sampled_from([(), (), ()] + [(i,) for i in range(k)])))
            d = n - len(stratum)
            quad = {}
            if d and draw(st.booleans()):
                quad = {tuple(2 * (j == i) for j in range(d)): draw(st.sampled_from([-1, 0, 1]))
                        for i in range(d)}
                if d == 2:
                    quad[(1, 1)] = draw(st.sampled_from([-1, 0, 1]))
            expo = Poly.linear([draw(st.integers(-2, 2)) for _ in range(d)],
                               draw(st.integers(-1, 1))) + Poly(quad, d)
            w = draw(st.sampled_from([1, 2, Fraction(1, 2), -1, -3]))
            sign = 0 if draw(st.integers(0, 15)) == 15 else (1 if w > 0 else -1)
            pieces.append(Piece(stratum, _unbounded_polyhedron(draw, d), Poly.const(w, d),
                                expo, sign))
        ders = ()
        if draw(st.integers(0, 15)) == 15:
            ders = (DerivativeAtom(frozenset(), (Fraction(0),) * n, (1,) * n, Fraction(1)),)
        atoms = [Atom(frozenset(), (Fraction(1),) * n, Fraction(draw(st.sampled_from([-1, 2]))))]
        measures[key] = PieceMeasure(n, atoms, pieces, ders,
                                     (Fraction(draw(st.integers(1, 5))), draw(st.integers(0, 1))),
                                     certify=False)
    return chart, measures


def _outcome(decide, chart, measures):
    from tropcur.errors import TropcurError
    try:
        return repr(decide(chart, measures))
    except TropcurError as err:
        return type(err).__name__, str(err), repr(err.payload)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_signed_measures())
def test_c_finite_witness_matches_the_measure_building_route(case):
    chart, measures = case
    assert (_outcome(c_finite_witness, chart, measures)
            == _outcome(_old_c_finite_witness, chart, measures))
    for mu in measures.values():
        for piece in mu.pieces:
            fresh = _fresh_escape_cones(piece, chart)
            assert boundary_escape_cones(piece, chart) == fresh
            assert boundary_escape_cones(piece, chart) == fresh     # from the memo


def test_adding_currents_checks_dimension_and_degree():
    """Currents of another dimension or degree are typed errors, not an assert."""
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), interval(0, 1))])
    T = LagerbergCurrent(_chart(1), 0, {((0,), (0,)): mu})
    point = PieceMeasure(2, atoms=[Atom(frozenset(), (Fraction(1), Fraction(1)), Fraction(1))])
    S = LagerbergCurrent(_chart(2), 1, {((0,), (0,)): point})
    with pytest.raises(DimensionMismatch):
        T + S
    with pytest.raises(BidegreeMismatch):
        S + LagerbergCurrent(_chart(2), 0, {((0, 1), (0, 1)): point})
    assert [a.weight for a in (S + S).cocoeff((0,), (0,)).atoms] == [2]
