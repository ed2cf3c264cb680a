import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcur import quadrature
from tropcur.coeffs import CoefficientFn, Poly, UniFn, Window, bump, plateau, window_on
from tropcur.errors import BidegreeMismatch, DimensionMismatch, NonCompactSupport, ValidationError
from tropcur.fans import orthant_fan
from tropcur.fiber import LagerbergFiberForm, embed_complex, positivity_verdict
from tropcur.fields import (LagerbergFormField, boundary_window_field,
                            bump_box_field, check_compatibility, differentiate,
                            integrate_top, trop_pullback_field)

# independent 1-d oracle for the canonical bump integral (mpmath/scipy agree)
BUMP_INTEGRAL = 0.007029858406609656


def _chart(n):
    return orthant_fan(n).toric_chart(0)


def _boundary_chart(n):
    fan = orthant_fan(n)
    top = fan.cone_id([tuple(int(i == j) for j in range(n)) for i in range(n)])
    return fan.toric_chart(top)


def _random_field(rng, chart, p, q, nterms=2):
    n = len(chart.basis)
    terms = []
    for _ in range(nterms):
        I = tuple(sorted(rng.sample(range(n), p)))
        J = tuple(sorted(rng.sample(range(n), q)))
        deg = rng.randint(0, 2)
        poly = Poly.const(rng.randint(-3, 3), n)
        for _ in range(deg):
            poly = poly * Poly.var(rng.randrange(n), n)
        terms.append(((I, J), poly))
    box = [(rng.randint(-3, 0), rng.randint(1, 3)) for _ in range(n)]
    return bump_box_field(chart, p, q, terms, box)


def test_dprime_simple():
    # d'(u_0 d'u_1) = d'u_0 ^ d'u_1 : check on the dense coefficient
    chart = _chart(2)
    tab = {((1,), ()): CoefficientFn.from_poly(Poly.var(0, 2))}
    f = LagerbergFormField(chart, 2, 1, 0, {frozenset(): tab})
    df = differentiate("d'", f)
    assert set(df.dense().keys()) == {((0, 1), ())}
    c = df.dense()[((0, 1), ())]
    assert c == CoefficientFn.const(1, 2)


def test_dsecond_sign():
    # d''(f d'u_I ^ d''u_J) carries the (-1)^p block sign
    chart = _chart(2)
    tab = {((0,), ()): CoefficientFn.from_poly(Poly.var(1, 2))}
    f = LagerbergFormField(chart, 2, 1, 0, {frozenset(): tab})
    df = differentiate("d''", f)
    c = df.dense()[((0,), (1,))]
    assert c == CoefficientFn.const(-1, 2)


def test_differentials_square_to_zero():
    rng = random.Random(0)
    chart = _chart(3)
    for _ in range(10):
        f = _random_field(rng, chart, 1, 1)
        assert differentiate("d'", differentiate("d'", f)).is_zero()
        assert differentiate("d''", differentiate("d''", f)).is_zero()
        anti = (differentiate("d'", differentiate("d''", f))
                + differentiate("d''", differentiate("d'", f)))
        assert anti.is_zero()


def test_complex_differentials_square_to_zero():
    rng = random.Random(1)
    chart = _chart(2)
    for _ in range(6):
        f = trop_pullback_field(_random_field(rng, chart, 1, 0))
        assert not differentiate("del", differentiate("del", f)).coeff
        assert not differentiate("idbar", differentiate("idbar", f)).coeff


def test_pullback_intertwines_differentials_exactly():
    rng = random.Random(2)
    chart = _chart(2)
    for _ in range(12):
        p, q = rng.randint(0, 1), rng.randint(0, 1)
        f = _random_field(rng, chart, p, q)
        lhs = trop_pullback_field(differentiate("d'", f))
        rhs = differentiate("del", trop_pullback_field(f))
        assert lhs == rhs
        lhs = trop_pullback_field(differentiate("d''", f))
        rhs = differentiate("idbar", trop_pullback_field(f))
        assert lhs == rhs


def trop_pullback_preimage(w):
    """Inverse of trop_pullback_field on an invariant field's dense part."""
    scale = Fraction(-2) ** (w.p + w.q)
    return LagerbergFormField(w.chart, w.n, w.p, w.q,
                              {frozenset(): {k: fn.scale(scale) for k, fn in w.coeff.items()}})


def test_pullback_is_injective_and_round_trips():
    rng = random.Random(3)
    chart = _chart(2)
    for _ in range(8):
        f = _random_field(rng, chart, 1, 1)
        w = trop_pullback_field(f)
        back = trop_pullback_preimage(w)
        assert all((back.dense()[k] - f.dense()[k]).is_zero()
                   for k in set(back.dense()) | set(f.dense()))


def test_pullback_constant_function():
    chart = _chart(1)
    tab = {((), ()): bump(1, 0, 0, 1)}
    f = LagerbergFormField(chart, 1, 0, 0, {frozenset(): tab})
    w = trop_pullback_field(f)
    # phi o trop: the (empty-frame) coefficient is unchanged
    assert w.coeff[((), ())] == bump(1, 0, 0, 1)


def test_pullback_top_factor():
    # f tau_n pulls back to the omega-frame multiple with factor 4^{-n}
    n = 2
    chart = _chart(n)
    full = (0, 1)
    tab = {(full, full): bump(n, 0, 0, 1) * bump(n, 1, 0, 1)}
    f = LagerbergFormField(chart, n, n, n, {frozenset(): tab})
    w = trop_pullback_field(f)
    expected = (bump(n, 0, 0, 1) * bump(n, 1, 0, 1)).scale(Fraction(1, 16))
    assert (w.coeff[(full, full)] - expected).is_zero()


def test_integrate_top_bump_oracle():
    chart = _chart(1)
    full = (0,)
    tab = {(full, full): bump(1, 0, 0, 1)}
    f = LagerbergFormField(chart, 1, 1, 1, {frozenset(): tab})
    val = integrate_top(f, side="tropical", tol=1e-10)
    assert val == pytest.approx(BUMP_INTEGRAL, abs=1e-9)


def test_integrate_top_zero():
    chart = _chart(1)
    f = LagerbergFormField(chart, 1, 1, 1, {frozenset(): {}})
    assert integrate_top(f, "tropical") == 0.0
    assert integrate_top(f, "complex") == 0.0


def test_integration_comparison_2d():
    # tropical vs complex route agree within 2 tol for bump x polynomial
    rng = random.Random(4)
    chart = _chart(2)
    full = (0, 1)
    tol = 1e-6
    for _ in range(3):
        poly = Poly.const(rng.randint(1, 3), 2) + Poly.var(0, 2) * rng.randint(-2, 2)
        box = {0: (0, 2), 1: (-1, 1)}
        fn = CoefficientFn.bump_box(2, box, poly)
        f = LagerbergFormField(chart, 2, 2, 2, {frozenset(): {(full, full): fn}})
        v1 = integrate_top(f, "tropical", tol=tol)
        v2 = integrate_top(f, "complex", tol=tol)
        assert abs(v1 - v2) <= 2 * tol


def test_integrate_top_noncompact_rejected():
    chart = _chart(1)
    full = (0,)
    tab = {(full, full): CoefficientFn.const(1, 1)}
    f = LagerbergFormField(chart, 1, 1, 1, {frozenset(): tab})
    with pytest.raises(NonCompactSupport):
        integrate_top(f, "tropical")


def _top_field(fn):
    n = fn.nvars
    full = tuple(range(n))
    return LagerbergFormField(_chart(n), n, n, n, {frozenset(): {(full, full): fn}})


def test_window_across_axes_goes_to_adaptive_box_on_both_routes(monkeypatch):
    calls = []
    adaptive_box = quadrature.adaptive_box
    monkeypatch.setattr(quadrature, "adaptive_box",
                        lambda *args: calls.append(args[1]) or adaptive_box(*args))
    square = CoefficientFn.bump_box(2, {0: (0, 1), 1: (-1, 1)}, Poly.const(1, 2) + Poly.var(0, 2))
    tol = 1e-6
    separable = [integrate_top(_top_field(square), side, tol=tol) for side in ("tropical", "complex")]
    assert calls == [] and abs(separable[0] - separable[1]) <= 2 * tol
    diagonal = Window(UniFn.plateau(), (Fraction(1), Fraction(1)), Fraction(-1, 2))
    fn = square * CoefficientFn(2, [(Poly.const(1, 2), Poly.zero(2), (diagonal,))])
    trop, cplx = (integrate_top(_top_field(fn), side, tol=tol) for side in ("tropical", "complex"))
    # the tropical route integrates the u-box, the complex route the r-box r = e^-u
    assert calls == [[(0.0, 1.0), (-1.0, 1.0)],
                     [(math.exp(-1.0), 1.0), (math.exp(-1.0), math.exp(1.0))]]
    assert abs(trop - cplx) <= 2 * tol and 0 < abs(trop) < abs(separable[0])


def test_windowless_box_integral_is_the_closed_form():
    # the float that the product of poly_exp_axis_integral factors gives, bit for bit
    fn = CoefficientFn.poly_exp(Poly({(2, 0): 3, (1, 1): -1, (0, 0): Fraction(1, 2)}, 2),
                                Poly.linear([Fraction(-1, 2), 1], Fraction(1, 3)))
    box = [(Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1, 3))]
    assert quadrature.box_integral(fn, box, 1e-8) == 3.6078959485509072
    assert quadrature.box_integral(fn, box, 1e-8, radial=True) == 3.6078959485509072


_RATES = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)])


@st.composite
def _poly_exp_box(draw):
    """poly (degree <= 2) x exp(linear) on a box of 1 to 3 axes."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    poly = Poly(draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1,
                                     max_size=4)), n)
    rates = [draw(_RATES) for _ in range(n)]
    box = []
    for _ in range(n):
        lo = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 3)]))
        box.append((lo, lo + draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))))
    return poly, rates, box


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_poly_exp_box(), tol=st.sampled_from([1e-6, 1e-8]))
def test_adaptive_box_matches_the_closed_form_product(case, tol):
    # the tensor rule runs its 8/16-point pair on one and two axes, 4/8 on three
    poly, rates, box = case
    fn = CoefficientFn.poly_exp(poly, Poly.linear(rates))
    exact = sum(float(c) * math.prod(
        quadrature.poly_exp_axis_integral(k, float(lam), float(lo), float(hi))
        for k, lam, (lo, hi) in zip(e, rates, box)) for e, c in poly.exps.items())
    assert abs(quadrature.adaptive_box(fn.eval_float, box, tol) - exact) <= tol


def test_compatibility_constant_toward_boundary():
    # 1 + bump(u_0): derivative vanishes for u_0 > 1; stratum table is 1
    chart = _boundary_chart(1)
    dense = {((), ()): CoefficientFn.const(1, 1) + bump(1, 0, 0, 1)}
    stratum = {((), ()): CoefficientFn.const(1, 1)}
    f = LagerbergFormField(chart, 1, 0, 0,
                           {frozenset(): dense, frozenset({0}): stratum},
                           {frozenset({0}): {0: 1}})
    rep = check_compatibility(f)
    assert rep.yes, rep.witness


def test_compatibility_violation_exponential():
    # e^{-2u} cannot extend to a smooth function at infinity
    chart = _boundary_chart(1)
    dense = {((), ()): CoefficientFn.poly_exp(Poly.const(1, 1), Poly.linear([-2]))}
    stratum = {((), ()): CoefficientFn.zero(1)}
    f = LagerbergFormField(chart, 1, 0, 0,
                           {frozenset(): dense, frozenset({0}): stratum},
                           {frozenset({0}): {0: 1}})
    rep = check_compatibility(f)
    assert not rep.yes
    kind, where, witness = rep.witness[0]
    assert kind == "mismatch" and witness is not None


def test_compatibility_violation_boundary_vanishing():
    # a (1,1) coefficient not vanishing toward u_0 = infinity
    chart = _boundary_chart(1)
    dense = {((0,), (0,)): plateau(1, 0, 0, 1)}
    f = LagerbergFormField(chart, 1, 1, 1, {frozenset(): dense},
                           {frozenset({0}): {0: 2}})
    rep = check_compatibility(f)
    assert not rep.yes


def test_boundary_window_field_compatible():
    chart = _boundary_chart(2)
    f = boundary_window_field(chart, {0}, [( ((), ()), Poly.const(1, 2) )],
                              {1: (0, 1)}, ramp_at=2)
    rep = check_compatibility(f)
    assert rep.yes, rep.witness
    assert f.has_compact_support()


def _down_step(lo, hi):
    """1 below lo, 0 above hi on the one axis of R^1: open below."""
    return CoefficientFn(1, [(Poly.const(1, 1), Poly.zero(1),
                              (window_on(0, lo, hi, 1, UniFn.plateau_down()),))])


@pytest.mark.parametrize("chart, fn, box, compact", [
    (_chart(1), bump(1, 0, -1, 2), [(-1, 2)], True),
    (_chart(1), plateau(1, 0, 0, 1), [None], False),
    (_boundary_chart(1), plateau(1, 0, 0, 1), [None], True),
    (_boundary_chart(1), _down_step(0, 1), [None], False),
    (_boundary_chart(2), bump(2, 0, 0, 1), [(0, 1), None], False)],
    ids=["bump", "plateau-finite-axis", "plateau-infinite-axis", "down-step-infinite-axis",
         "no-window-on-an-axis"])
def test_support_box_and_compact_support(chart, fn, box, compact):
    # a plateau rising toward +infinity closes up on an infinite axis; nothing
    # closes up an open lower end, or an axis that no window cuts off
    f = LagerbergFormField(chart, fn.nvars, 0, 0, {frozenset(): {((), ()): fn}})
    assert f.support_box() == box
    assert f.has_compact_support() is compact


def test_field_keys_are_increasing_subsets_of_the_axes():
    chart = _chart(2)
    for p, I in [(2, (1, 0)), (2, (0, 0)), (1, (5,)), (1, (-1,))]:
        with pytest.raises(ValidationError, match="increasing subsets"):
            LagerbergFormField(chart, 2, p, 0, {frozenset(): {(I, ()): bump(2, 0, 0, 1)}})


def test_positivity_transport_at_fibers():
    # a (p,p) field is pointwise positive iff its pullback is: via embed
    rng = random.Random(5)
    chart = _chart(2)
    for _ in range(6):
        f = _random_field(rng, chart, 1, 1)
        sym = f + _j_field(f)            # symmetrize
        for _ in range(5):
            u = [rng.uniform(-2, 2) for _ in range(2)]
            fib = LagerbergFiberForm(2, 1, 1, {k: fn.eval_float(u) for k, fn in sym.dense().items()})
            v_lag = positivity_verdict(fib, "positive")
            v_cpx = positivity_verdict(embed_complex(fib), "positive")
            assert v_lag.answer == v_cpx.answer


def _j_field(f):
    tables = {}
    for M, tab in f.tables.items():
        new = {}
        for (I, J), fn in tab.items():
            sgn = (-1) ** (len(I) * len(J)) * (-1) ** f.p
            key = (J, I)
            cur = new.get(key)
            contrib = fn.scale(sgn)
            new[key] = contrib if cur is None else cur + contrib
        tables[M] = new
    return LagerbergFormField(f.chart, f.n, f.q, f.p, tables, f.neighborhoods)


def test_adding_fields_checks_dimension_and_bidegree():
    """Fields of another dimension or bidegree are typed errors, not an assert."""
    one = [(((0,), (0,)), Poly.const(1, 1))]
    alpha = bump_box_field(_chart(1), 1, 1, one, [(0, 1)])
    with pytest.raises(DimensionMismatch):
        alpha + bump_box_field(_chart(2), 1, 1, [(((0,), (0,)), Poly.const(1, 2))], [(0, 1), (0, 1)])
    with pytest.raises(BidegreeMismatch):
        alpha + bump_box_field(_chart(1), 1, 0, [(((0,), ()), Poly.const(1, 1))], [(0, 1)])
    assert (alpha + alpha).coefficient(frozenset(), (0,), (0,)).eval_float((0.5,)) == \
        pytest.approx(2 * alpha.coefficient(frozenset(), (0,), (0,)).eval_float((0.5,)))
