import random
from fractions import Fraction

import numpy as np
import pytest

from tropcur.coeffs import CoefficientFn, Poly, UniFn, bump, plateau
from tropcur.errors import DimensionMismatch


def _fd(f, s, h=1e-6):
    return (f(s + h) - f(s - h)) / (2 * h)


def test_poly_basics():
    p = Poly.linear([1, 2], 3)            # u0 + 2 u1 + 3
    q = p * p
    assert q.eval((Fraction(1), Fraction(0))) == 16
    assert p.diff(1).eval((0, 0)) == 2
    pts = [(1.0, 0.0), (0.0, 1.0)]
    assert np.allclose([CoefficientFn.from_poly(q).eval_float(u) for u in pts], [16.0, 25.0])


def test_poly_substitute_affine():
    p = Poly.var(0, 2) * Poly.var(1, 2)      # u0 u1
    # u = (t, 2t + 1)
    A = [[1], [2]]
    b = [0, 1]
    q = p.substitute_affine(A, b, 1)
    assert q.eval((Fraction(3),)) == 3 * 7


def test_unifn_bump_values():
    b = UniFn.bump()
    assert b.eval_float(-0.5) == 0.0
    assert b.eval_float(0.0) == 0.0
    assert b.eval_float(1.0) == 0.0
    assert b.eval_float(1.5) == 0.0
    assert b.eval_float(0.5) == pytest.approx(np.exp(-4.0))


def test_unifn_plateau_values():
    p = UniFn.plateau()
    assert p.eval_float(-1.0) == 0.0
    assert p.eval_float(0.0) == 0.0
    assert p.eval_float(1.0) == 1.0
    assert p.eval_float(2.0) == 1.0
    v = p.eval_float(0.5)
    assert 0 < v < 1 and v == pytest.approx(0.5)  # symmetric midpoint


def test_unifn_derivative_matches_finite_differences():
    for fn in (UniFn.bump(), UniFn.plateau(), UniFn.bump() * UniFn.plateau()):
        d = fn.diff()
        for s in (0.2, 0.37, 0.5, 0.8, 1.3, -0.4):
            assert d.eval_float(s) == pytest.approx(_fd(fn.eval_float, s), abs=1e-4)


def test_unifn_second_derivative_smooth_at_edges():
    d2 = UniFn.bump().diff().diff()
    assert d2.eval_float(0.0) == 0.0
    assert d2.eval_float(1.0) == 0.0
    assert abs(d2.eval_float(1e-3)) < 1e-100


def _window_family():
    b, p, d = UniFn.bump(), UniFn.plateau(), UniFn.plateau_down()
    base = {"bump": b, "plateau": p, "plateau_down": d, "bump*plateau": b * p,
            "plateau*plateau_down": p * d, "bump*plateau_down": b * d}
    out = {}
    for name, fn in base.items():
        for order in range(3):
            out[name + "'" * order] = fn
            fn = fn.diff()
    return out


_WINDOW_FAMILY = _window_family()
_RNG = random.Random(11)
# the window ends, points where x or y underflows or a term's power overflows
# (eval_float drops such a term as non-finite), and seeded points on both sides of [0, 1]
_SCALAR_POINTS = ([0.0, 1.0, 1e-3, 1 - 1e-3, -1e-3, 1 + 1e-3, 0.5, 1e-300, 1 - 1e-16,
                   -2.5, 3.0, 1e300, -1e300]
                  + [_RNG.uniform(-2, 3) for _ in range(40)])


@pytest.mark.parametrize("name", sorted(_WINDOW_FAMILY))
def test_unifn_scalar_eval_matches_eval_np(name):
    # the oracle is each term at 30 digits with mpmath, rounded to a float at
    # the end, so a value below the float range reads 0 as eval_float's does
    mpmath = pytest.importorskip("mpmath")
    fn = _WINDOW_FAMILY[name]
    with mpmath.workdps(30):
        for s in _SCALAR_POINTS:
            t = mpmath.mpf(s)
            x = mpmath.exp(-1 / t) if t > 0 else 0
            y = mpmath.exp(-1 / (1 - t)) if t < 1 else 0
            terms = [sum(mpmath.mpf(c.numerator) / c.denominator * t ** d for d, c in p.items())
                     * x ** a * y ** b / ((x + y) ** m * t ** al * (1 - t) ** be)
                     for (a, b, m, al, be), p in fn.terms.items()
                     if not ((a and t <= 0) or (b and t >= 1))]
            # a derivative's terms cancel to roundoff where it vanishes, so the
            # relative scale is the sum of the terms' absolute values
            ref, scale = float(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))
            assert abs(fn.eval_float(s) - ref) <= 1e-12 * scale, s


def test_unifn_algebra_closure():
    b = UniFn.bump()
    p = UniFn.plateau()
    prod = b * p
    s = prod.diff().diff()
    assert np.isfinite(s.eval_float(0.5))
    total = b + b.scale(-1)
    assert total.is_zero()


def test_coefficientfn_diff_product_rule():
    f = bump(2, 0, 0, 1) * bump(2, 1, -1, 1)
    d0 = f.diff(0)
    pts = [(0.3, 0.2), (0.7, -0.5)]
    h = 1e-6
    up = np.array([f.eval_float((x + h, y)) for x, y in pts])
    dn = np.array([f.eval_float((x - h, y)) for x, y in pts])
    assert np.allclose([d0.eval_float(u) for u in pts], (up - dn) / (2 * h), atol=1e-5)


def test_coefficientfn_exp_diff():
    expo = Poly.linear([-2, 0])            # exp(-2 u0)
    f = CoefficientFn.poly_exp(Poly.var(0, 2), expo)
    d = f.diff(0)
    val = d.eval_float((0.5, 0.0))
    expected = (1 - 2 * 0.5) * np.exp(-1.0)
    assert val == pytest.approx(expected)


def test_coefficientfn_equality_normal_form():
    a = bump(1, 0, 0, 1)
    b = bump(1, 0, 0, 1).scale(2)
    assert (a + a) == b
    assert (a - a).is_zero()


def test_support_box_and_vanish():
    f = bump(2, 0, 0, 1) * bump(2, 1, 2, 3)
    sb = f.support_box()
    assert sb[0] == (0, 1) and sb[1] == (2, 3)
    assert f.vanishes_on_box({0: (5, None)})
    assert f.vanishes_on_box({1: (None, 1)})
    assert not f.vanishes_on_box({0: (Fraction(1, 2), 2)})
    g = CoefficientFn.const(1, 2)
    assert g.support_box() == [None, None]
    assert not g.vanishes_on_box({0: (5, None)})


def test_substitute_affine_window():
    # restrict bump(u0 in [0,2]) to the segment u = (2t, t)
    f = bump(2, 0, 0, 2)
    g = f.substitute_affine([[2], [1]], [0, 0], 1)
    for t in (0.1, 0.4, 0.9):
        assert g.eval_float((t,)) == pytest.approx(f.eval_float((2 * t, t)))


def test_plateau_coefficient_constant_near_top():
    f = plateau(1, 0, 0, 1)
    assert f.eval_float((5.0,)) == 1.0
    assert f.eval_float((-3.0,)) == 0.0
    # analytic zero; term-by-term float cancellation leaves only noise
    assert abs(f.diff(0).eval_float((5.0,))) < 1e-12
    assert abs(f.diff(0).eval_float((0.5,))) > 1e-3


def test_plateau_support_slab_is_one_sided():
    f = plateau(1, 0, 0, 1)
    assert f.support_box() == [None]
    assert f.vanishes_on_box({0: (None, 0)})
    assert not f.vanishes_on_box({0: (1, None)})


def test_drop_axis_dependence():
    f = bump(3, 1, 0, 1)
    assert f.drop_axis_dependence() == {1}
    g = CoefficientFn.poly_exp(Poly.var(0, 3), Poly.linear([0, 0, -1]))
    assert g.drop_axis_dependence() == {0, 2}


def test_coefficient_arithmetic_checks_variable_count():
    """Adding or multiplying functions of another number of variables is a
    typed error, not an assert."""
    f, g = CoefficientFn.const(2, 1), CoefficientFn.const(3, 2)
    for op in (f.__add__, f.__mul__, f.__sub__):
        with pytest.raises(DimensionMismatch):
            op(g)
    assert (f * f).eval_float((0.5,)) == pytest.approx(4.0)
    assert (f + f).eval_float((0.5,)) == pytest.approx(4.0)
