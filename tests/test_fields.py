import math
import random
from fractions import Fraction

import pytest

from tropcur.coeffs import CoefficientFn, Poly, bump, plateau
from tropcur.errors import NonCompactSupport
from tropcur.fans import orthant_fan
from tropcur.fiber import LagerbergFiberForm, embed_complex, positivity_verdict
from tropcur.fields import (InvariantComplexFormField, LagerbergFormField,
                            average_over_S, boundary_window_field,
                            bump_box_field, check_compatibility, differentiate,
                            integrate_top, trop_pullback_field,
                            trop_pullback_preimage, wedge_fields)

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
    from tropcur.fiber import subsets
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
        assert differentiate("del", differentiate("del", f)).is_zero()
        assert differentiate("idbar", differentiate("idbar", f)).is_zero()


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


def test_pullback_is_injective_and_round_trips():
    rng = random.Random(3)
    chart = _chart(2)
    for _ in range(8):
        f = _random_field(rng, chart, 1, 1)
        w = trop_pullback_field(f)
        assert w.apply_F() == w           # real coefficients: F-invariant
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


def test_averaging():
    chart = _chart(2)
    h = bump(2, 0, 0, 1)
    frame = ((0,), (0,))
    # z_0 * frame term: non-invariant, killed
    fld = InvariantComplexFormField(chart, 2, 1, 1, {},
                                    [((1, 0), (0, 0), frame, h)])
    assert average_over_S(fld).is_zero()
    # z_0 zbar_0 h(u) -> e^{-2 u_0} h(u)
    fld = InvariantComplexFormField(chart, 2, 1, 1, {},
                                    [((1, 0), (1, 0), frame, h)])
    avg = average_over_S(fld)
    expected = h.with_extra_exponent(Poly.linear([-2, 0]))
    assert (avg.coeff[frame] - expected).is_zero()
    # idempotent on the invariant part
    again = average_over_S(avg)
    assert again == avg


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
    from tropcur.fiber import apply_involution

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


def test_wedge_fields_leibniz():
    rng = random.Random(6)
    chart = _chart(2)
    for _ in range(6):
        a = _random_field(rng, chart, 1, 0, nterms=1)
        b = _random_field(rng, chart, 0, 1, nterms=1)
        dab = differentiate("d'", wedge_fields(a, b))
        rule = (wedge_fields(differentiate("d'", a), b)
                + wedge_fields(a, differentiate("d'", b)).scale((-1) ** (a.p + a.q)))
        assert _tables_equal(dab, rule)


def _tables_equal(x, y):
    for M in set(x.tables) | set(y.tables):
        keys = set(x.tables.get(M, {})) | set(y.tables.get(M, {}))
        for k in keys:
            if not (x.coefficient(M, *k) - y.coefficient(M, *k)).is_zero():
                return False
    return True
