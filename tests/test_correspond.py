import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropcur.correspond import (InvariantComplexCurrent, compat_checks,
                                complex_positivity_check, kernel_point_current,
                                lift, push_forward, round_trip_verify,
                                validate_shadow)
from tropcur.currents import LagerbergCurrent, positivity_check
from tropcur.errors import InvalidShadow, NotCFinite, NotPositive, TropcurError
from tropcur.fans import orthant_fan
from tropcur.fiber import Verdict, subsets
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


def test_complex_positivity_validates_before_symmetry():
    # the matrix is PSD once symmetrized, so the pushforward's validity check
    # speaks before its symmetry check: the density e^{u_0^2} has infinite
    # mass toward the stratum u_0 = infinity
    from tropcur.coeffs import Poly
    fan = orthant_fan(2)
    chart = fan.toric_chart(fan.cone_id([(1, 0), (0, 1)]))
    grow = PieceMeasure(2, pieces=[lebesgue_piece((), Polyhedron.box([(0, None), (0, 1)]),
                                                  expo=Poly({(2, 0): Fraction(1)}, 2))])
    dirac = PieceMeasure(2, atoms=[Atom(frozenset(), (Fraction(0), Fraction(0)), Fraction(1))])
    S = InvariantComplexCurrent(chart, 1, {((0,), (0,)): grow + dirac,
                                           ((1,), (1,)): dirac, ((0,), (1,)): dirac})
    with pytest.raises(InvalidShadow):
        complex_positivity_check(S, samples=6)


def test_push_forward_propagates_programming_errors(monkeypatch):
    # only a TropcurError from the validity check reads as an invalid shadow
    import tropcur.correspond as correspond_mod

    def broken(S):
        raise RuntimeError("bug in the validity check")

    monkeypatch.setattr(correspond_mod, "validate_shadow", broken)
    with pytest.raises(RuntimeError):
        push_forward(lift(tropical_line_current()))


# --- complex positivity against the routine it replaced ------------------------------

def _reference_complex_positivity(S, samples=25, seed=0, tol=1e-9,
                                  lambda_grid=(0, Fraction(1, 2), 1, 2)):
    """The earlier complex_positivity_check: symmetry, a boundary-weighted
    PSD test, a lambda-grid estimate, then the pushforward's verdict."""
    def density_at(mu, stratum, pt):
        return sum(piece.density_fn().eval_float(pt) * mu.scale_float()
                   for piece in mu.pieces
                   if piece.stratum == stratum and piece.poly.contains(pt, closure=True))

    n, q = S.n, S.q
    idx = subsets(n, q)
    for (I, J) in list(S.shadows):
        if S.shadow(I, J) != S.shadow(J, I):
            return Verdict("positive", "no", "shadow matrix is not symmetric")
    rng = random.Random(seed)
    sample_pts = []
    for (I, J), mu in S.shadows.items():
        for piece in mu.pieces:
            for pt in piece.poly.sample_points(rng, max(3, samples // 4)):
                sample_pts.append((piece.stratum, pt))
        for atom in mu.atoms:
            sample_pts.append((atom.stratum, None, atom))
    for entry in sample_pts:
        H = np.zeros((len(idx), len(idx)))
        stratum = entry[0]
        for a, I in enumerate(idx):
            for b, J in enumerate(idx):
                mu = S.shadows.get((I, J))
                if set(I) & stratum or set(J) & stratum or mu is None:
                    continue
                if len(entry) == 3:
                    atom = entry[2]
                    H[a, b] = sum(float(x.weight) for x in mu.atoms
                                  if (x.stratum, x.coords) == (atom.stratum, atom.coords)
                                  ) * mu.scale_float()
                else:
                    H[a, b] = density_at(mu, stratum, entry[1])
        if len(entry) == 2:
            alive = [i for i in range(n) if i not in stratum]
            w = [math.prod(math.exp(-float(entry[1][alive.index(i)])) for i in I if i in alive)
                 for I in idx]
            H = H * np.outer(w, w)
        H = (H + H.T) / 2
        lam = np.linalg.eigvalsh(H)
        scale = max(1.0, float(np.abs(H).max()))
        if lam.min() < -tol * scale:
            return Verdict("positive", "no", "weighted shadow density matrix not PSD")
        for a in range(len(idx)):
            for b in range(len(idx)):
                for la in lambda_grid:
                    for lb in lambda_grid:
                        lhs = float(la) * float(lb) * abs(H[a, b])
                        rhs = 0.5 * (float(la) ** 2 * H[a, a] + float(lb) ** 2 * H[b, b])
                        if a != b and lhs > rhs + tol * scale:
                            return Verdict("positive", "no", "total-variation estimate fails")
    v = positivity_check(push_forward(S), samples=max(4, samples // 3), seed=seed)
    return Verdict("positive", "yes" if v.yes else "no")


def _charts2():
    fan = orthant_fan(2)
    return fan.toric_chart(0), fan.toric_chart(fan.cone_id([(1, 0), (0, 1)]))


@st.composite
def _shadow_measure(draw, chart, key, scale):
    """Atoms and box pieces with signed weights on the strata the key allows."""
    banned = set(key[0]) | set(key[1])
    strata = [frozenset(M) for M in ((), (0,), (1,), (0, 1))
              if set(M) <= chart.infinite_axes and not set(M) & banned]
    weight = st.integers(-3, 3).filter(bool).map(Fraction)
    atoms, pieces = [], []
    for _ in range(draw(st.integers(0, 2))):
        M = draw(st.sampled_from(strata))
        coords = tuple(Fraction(draw(st.integers(-1, 1))) for _ in range(2 - len(M)))
        atoms.append(Atom(M, coords, draw(weight)))
    for _ in range(draw(st.integers(0, 1))):
        M = draw(st.sampled_from([M for M in strata if len(M) < 2]))
        lo = [draw(st.integers(-2, 1)) for _ in range(2 - len(M))]
        box = Polyhedron.box([(a, a + draw(st.integers(1, 2))) for a in lo])
        pieces.append(lebesgue_piece(M, box, weight=draw(weight)))
    return PieceMeasure(2, atoms, pieces, scale=scale)


@st.composite
def _random_shadows(draw):
    chart = draw(st.sampled_from(_charts2()))
    scale = draw(st.sampled_from([(Fraction(1), 0), (Fraction(4), 1), (Fraction(3, 2), 1)]))
    keys = [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]
    shadows = {k: draw(_shadow_measure(chart, k, scale)) for k in keys}
    if draw(st.booleans()):
        shadows[((1,), (0,))] = shadows[((0,), (1,))]
    else:
        shadows[((1,), (0,))] = draw(_shadow_measure(chart, ((1,), (0,)), scale))
    return InvariantComplexCurrent(chart, 1, shadows)


@functools.lru_cache(maxsize=None)
def _suite_lifts():
    return tuple(lift(T) for T in random_closed_positive_suite(count=6, seed=101))


def _outcome(check, S):
    try:
        return check(S, samples=6).answer
    except TropcurError as err:
        return type(err).__name__


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(_random_shadows(), st.integers(0, 5).map(lambda i: _suite_lifts()[i])))
def test_complex_positivity_matches_reference(S):
    assert _outcome(complex_positivity_check, S) == _outcome(_reference_complex_positivity, S)
