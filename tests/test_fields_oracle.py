"""Both routes of ``integrate_top`` against a 30-digit ``mpmath.quad`` oracle.

mpmath is in the package's ``test`` extra; the module skips where it is not
installed.
"""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tropcur import formats
from tropcur.coeffs import CoefficientFn, Poly, bump, plateau, table
from tropcur.fans import orthant_fan
from tropcur.fields import LagerbergFormField, integrate_top

mpmath = pytest.importorskip("mpmath")


def _chart(n):
    return orthant_fan(n).toric_chart(0)


def _top_field(fn):
    n = fn.nvars
    full = tuple(range(n))
    return LagerbergFormField(_chart(n), n, n, n, {frozenset(): {(full, full): fn}})


def _golden_top(name, n):
    """The top coefficient of a golden input field."""
    data = formats.load_json(Path(__file__).parent / "golden" / "inputs" / name)
    full = tuple(range(n))
    return formats.field_from_json(data, _chart(n)).coefficient(frozenset(), full, full)


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_window(fn, s):
    """A window-algebra element at an mpmath point, term by term."""
    x = mpmath.exp(-1 / s) if s > 0 else 0
    y = mpmath.exp(-1 / (1 - s)) if s < 1 else 0
    total = mpmath.mpf(0)
    for (a, b, m, al, be), p in fn.terms.items():
        if not ((a and s <= 0) or (b and s >= 1)):
            total += (sum(_mp(c) * s ** d for d, c in p.items()) * x ** a * y ** b
                      / ((x + y) ** m * s ** al * (1 - s) ** be))
    return total


def _oracle(fn):
    """Signed top integral of a separable coefficient: ``mpmath.quad`` at 30
    digits, axis by axis, with breakpoints at the window ends."""
    n = fn.nvars
    box = fn.support_box()
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for poly, expo, wins in fn.terms:
            lam = [_mp(Fraction(expo.exps.get(tuple(int(j == i) for j in range(n)), 0)))
                   for i in range(n)]
            const = _mp(Fraction(expo.exps.get((0,) * n, 0)))
            for e, c in poly.exps.items():
                term = _mp(c) * mpmath.exp(const)
                for i, (lo, hi) in enumerate(box):
                    ws = [w for w in wins if w.lin[i] != 0]
                    ends = {(t - w.const) / w.lin[i] for w in ws for t in (0, 1)}
                    cuts = sorted({lo, hi} | {u for u in ends if lo < u < hi})
                    term *= mpmath.quad(
                        lambda t: t ** e[i] * mpmath.exp(lam[i] * t) * mpmath.fprod(
                            _mp_window(w.fn, _mp(w.lin[i]) * t + _mp(w.const)) for w in ws),
                        [_mp(u) for u in cuts])
                total += term
    return (-1) ** (n * (n - 1) // 2) * total


_ENDS = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1)])
_WIDTHS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)])


@st.composite
def _separable_top(draw):
    """poly (degree <= 2) x exp(linear) x, on each axis, a bump, a table
    (plateau times plateau_down) or a bump times a plateau."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    poly = Poly(draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1,
                                     max_size=4)), n)
    rates = st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2)])
    expo = Poly.linear([draw(rates) for _ in range(n)], draw(st.sampled_from([0, Fraction(-1, 3)])))
    fn = CoefficientFn.poly_exp(poly, expo)
    for i in range(n):
        lo = draw(_ENDS)
        hi = lo + draw(_WIDTHS)
        kind = draw(st.sampled_from(["bump", "table", "product"]))
        if kind == "bump":
            fn = fn * bump(n, i, lo, hi)
        elif kind == "table":
            fn = fn * table(n, i, lo, hi, ramp=draw(_WIDTHS))
        else:
            fn = fn * bump(n, i, lo, hi) * plateau(n, i, lo, lo + draw(_WIDTHS))
    return fn


@settings(max_examples=25, deadline=None, derandomize=True)
@given(fn=_separable_top(), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
@example(fn=_golden_top("field_rank1.json", 1), tol=1e-8)     # integrate_both.json
@example(fn=_golden_top("field_rank2.json", 2), tol=1e-8)     # integrate_{tropical,complex}.json
@example(fn=CoefficientFn.bump_box(2, {0: (0, 2), 1: (-1, 1)},   # demo_tropicalization.py
                                   Poly.const(2, 2) + Poly.var(0, 2)), tol=1e-8)
def test_integrate_top_routes_match_mpmath_oracle(fn, tol):
    f = _top_field(fn)
    exact = float(_oracle(fn))
    trop, cplx = integrate_top(f, "tropical", tol=tol), integrate_top(f, "complex", tol=tol)
    assert abs(trop - exact) <= tol and abs(cplx - exact) <= tol
    # what ``integrate --side both`` reports as agree_within_2tol
    assert abs(trop - cplx) <= 2 * tol
