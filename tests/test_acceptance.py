"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any failure shows the criterion number in the test name.
"""

import random
import time
from fractions import Fraction

import pytest

from tropcur import exact
from tropcur.coeffs import CoefficientFn, Poly
from tropcur.correspond import kernel_point_current, lift, push_forward, round_trip_verify
from tropcur.currents import (balancing_check, c_finite_test, canonical_decomposition,
                              closedness_test, integration_current, positivity_check,
                              resum, sampled_closedness)
from tropcur.errors import NotCFinite, NotPositive, TropcurError
from tropcur.fans import orthant_fan, p2_fan
from tropcur.fiber import (ComplexFiberForm, LagerbergFiberForm, apply_involution,
                           dual_pairing, embed_complex, gram_form,
                           positive_generator, positivity_verdict, reverify,
                           strong_generator, subsets)
from tropcur.exact import QC
from tropcur.fields import LagerbergFormField, integrate_top
from tropcur.gallery import (closed_not_positive, degenerate_form_current,
                             derivative_atom_current, omega_degenerate,
                             omega_rank_two, positive_not_liftable,
                             positive_not_positively_liftable,
                             random_closed_positive_suite, tropical_line,
                             tropical_line_current)


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _random_positive(rng, n, p):
    coeffs = {(K, ()): rng.randint(-2, 2) for K in subsets(n, p)}
    return positive_generator(LagerbergFiberForm(n, p, 0, coeffs))


def test_acceptance_01_cone_structure():
    start = time.time()
    rng = random.Random(101)
    # 10^3 seeded random positive x positive dual pairings, exact >= 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        a = _random_positive(rng, n, p)
        b = _random_positive(rng, n, n - p)
        val = dual_pairing(a, b)
        assert isinstance(val, (int, Fraction))
        assert val >= 0
    # verdict vs brute-force oracle on rank <= 2 instances
    for _ in range(60):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        g1 = _random_positive(rng, n, p)
        g2 = _random_positive(rng, n, p)
        s1, s2 = rng.choice([1, 1, 1, -1]), rng.choice([1, -1])
        form = g1.scale(s1) + g2.scale(s2)
        verdict = positivity_verdict(form, "positive")
        # oracle: 10^3 sampled quadratic-form values of the Gram matrix
        g = gram_form(form)
        m = len(g.indices)
        oracle_negative = False
        for _ in range(1000):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            val = sum(x[i] * Fraction(g.matrix[i][j]) * x[j]
                      for i in range(m) for j in range(m))
            if val < 0:
                oracle_negative = True
                break
        if verdict.yes:
            assert not oracle_negative
        else:
            assert oracle_negative, "verdict No but oracle saw no negative value"
    elapsed = time.time() - start
    assert elapsed < 30, f"criterion 1 runtime {elapsed:.1f}s"
    _report(1, f"1000 exact pairings >= 0 and oracle agreement in {elapsed:.1f}s")


def test_acceptance_02_degenerate_form():
    w = omega_degenerate()
    rng = random.Random(202)
    for _ in range(10_000):
        vecs = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2)]
        gen = strong_generator(vecs, 4)
        assert dual_pairing(w, gen) == 0
    for form in (w, w.scale(-1)):
        v = positivity_verdict(form, "weak", pool_size=30)
        assert v.yes and reverify(form, v)
    vpos = positivity_verdict(w, "positive")
    assert vpos.no and reverify(w, vpos)
    _report(2, "10^4 exact zero pairings; +/- weakly positive; positive-tier No")


def test_acceptance_03_rank_two_form():
    w = omega_rank_two()
    vpos = positivity_verdict(w, "positive")
    assert vpos.yes and reverify(w, vpos)
    terms, _, _ = exact.psd_decompose(*w._gram[1:])
    assert len(terms) == 2
    vstr = positivity_verdict(w, "strong", pool_size=40)
    assert vstr.no and vstr.witness[0] == "kernel_obstruction"
    quads = vstr.witness[1]["quadratics"]
    assert any(A == C and A > 0 and B == 0 for (A, B, C) in quads)
    assert reverify(w, vstr)
    _report(3, "positive Yes, Gram rank 2, strong No with the quadric witness")


def test_acceptance_04_involutions():
    rng = random.Random(404)

    def rand_complex(n, p, q):
        coeff = {}
        for I in subsets(n, p):
            for J in subsets(n, q):
                c = rng.randint(-3, 3)
                if c:
                    coeff[(I, J)] = QC(c, rng.randint(-3, 3))
        return ComplexFiberForm(n, p, q, coeff)

    def rand_lagerberg(n, p, q):
        coeff = {}
        for I in subsets(n, p):
            for J in subsets(n, q):
                c = rng.randint(-3, 3)
                if c:
                    coeff[(I, J)] = c
        return LagerbergFiberForm(n, p, q, coeff)

    # F anticommutes with conjugation on one-forms
    for _ in range(1000):
        n = rng.randint(1, 4)
        p, q = rng.choice([(1, 0), (0, 1)])
        a = rand_complex(n, p, q)
        lhs = apply_involution("F", apply_involution("conjugation", a))
        rhs = apply_involution("conjugation", apply_involution("F", a)).scale(-1)
        assert lhs == rhs
    # conj(F eta) = (-1)^{p+q} F(conj eta) on all bidegrees
    for _ in range(1000):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = rand_complex(n, p, q)
        lhs = apply_involution("conjugation", apply_involution("F", a))
        rhs = apply_involution("F", apply_involution("conjugation", a)).scale((-1) ** (p + q))
        assert lhs == rhs
    # embed(J a) = i^{p+q} conj(embed a)
    for _ in range(1000):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = rand_lagerberg(n, p, q)
        lhs = embed_complex(apply_involution("J", a))
        rhs = apply_involution("conjugation", embed_complex(a)).scale(QC.i_pow((p + q) % 4))
        assert lhs == rhs
    _report(4, "three involution identities exact on 1000 random forms each")


def test_acceptance_05_integration_comparison():
    start = time.time()
    rng = random.Random(505)
    chart = orthant_fan(2).toric_chart(0)
    full = (0, 1)
    tol = 1e-6
    for _ in range(2):
        poly = (Poly.const(rng.randint(1, 3), 2)
                + Poly.var(0, 2).scale(rng.randint(-2, 2))
                + Poly.var(0, 2) * Poly.var(1, 2).scale(rng.randint(-1, 1)))
        fn = CoefficientFn.bump_box(2, {0: (0, 2), 1: (-1, 1)}, poly)
        fld = LagerbergFormField(chart, 2, 2, 2, {frozenset(): {(full, full): fn}})
        trop = integrate_top(fld, "tropical", tol=tol)
        cplx = integrate_top(fld, "complex", tol=tol)
        assert abs(trop) > 1e-5          # the comparison is not vacuous
        assert abs(trop - cplx) <= 2 * tol, (trop, cplx)
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 5 runtime {elapsed:.1f}s"
    _report(5, f"tropical and radial-complex integrals agree within 2e-6 in {elapsed:.1f}s")


def test_acceptance_06_round_trip():
    start = time.time()
    suite = random_closed_positive_suite(count=20, seed=606)
    report = round_trip_verify(suite, seed=606)
    assert report.ok, report.failures
    elapsed = time.time() - start
    assert elapsed < 30, f"criterion 6 runtime {elapsed:.1f}s"
    _report(6, f"20 exact round trips (boundary pieces included) in {elapsed:.1f}s")


def test_acceptance_07_decomposition():
    suite = random_closed_positive_suite(count=6, seed=707)
    for T in suite:
        parts = canonical_decomposition(T, samples=8, seed=707)
        assert resum(parts, T) == T
        for M, part in parts.items():
            assert positivity_check(part, samples=8, seed=707).yes
            cv = closedness_test(part, test_basis_size=10, tol=1e-8, seed=707)
            assert cv.yes, (M, cv.residual)
    _report(7, "exact resum; summands positive and closed at 1e-8")


def test_acceptance_08_counterexample_suite():
    # exm 1-type: positive, not C-finite (ray witness), not closed, and the
    # displayed evaluation bound: e^{-k^2} T(rho(.-k) d'u d''u) > 1
    from tropcur.coeffs import table
    from tropcur.currents import evaluate
    import math as _math
    T1 = positive_not_liftable()
    assert positivity_check(T1, samples=8).yes
    cf = c_finite_test(T1)
    assert not cf.yes and cf.witness["ray"] == (1,)
    cv = closedness_test(T1, test_basis_size=10, seed=3)
    assert not cv.yes
    for k in (2, 3):
        fld = LagerbergFormField(T1.chart, 1, 1, 1,
                                 {frozenset(): {((0,), (0,)): table(1, 0, k, k + 1)}})
        assert evaluate(T1, fld, tol=1e-6) * _math.exp(-k * k) > 1
    with pytest.raises((NotCFinite, NotPositive)):
        lift(T1, samples=4)
    # exm 3-type: C-finite fails on the neutral weight
    T3 = positive_not_positively_liftable()
    assert not c_finite_test(T3).yes
    # evaluator current: closed, positivity No with explicit witness, lift rejects
    T1p = closed_not_positive()
    assert closedness_test(T1p).yes
    v = positivity_check(T1p, samples=6)
    assert v.answer == "no" and v.witness[2] < 0
    with pytest.raises(TropcurError):
        lift(T1p, samples=4)
    # kernel exemplar: pushforward zero, current nonzero
    fan1 = orthant_fan(1)
    K = kernel_point_current(fan1.toric_chart(fan1.cone_id([(1,)])))
    assert not K.is_zero() and push_forward(K).is_zero()
    # degenerate-form current: positivity fails through the estimate
    Tdeg = degenerate_form_current()
    vdeg = positivity_check(Tdeg, samples=8)
    assert vdeg.answer == "no" and vdeg.witness[0].startswith("estimate")
    # derivative atom: flagged non-measure
    Tder = derivative_atom_current()
    assert not Tder.is_measure_class()
    vd = positivity_check(Tder, samples=4)
    assert vd.witness[0] == "non_measure"
    _report(8, "all six counterexamples behave as required")


def test_acceptance_09_tropical_cycles():
    C = tropical_line()
    assert balancing_check(C).yes
    T = tropical_line_current()
    # closedness over 100 seeded test forms at 1e-8 (sampled route)
    cv = sampled_closedness(T, test_basis_size=50, tol=1e-8, seed=909)
    assert cv.yes, cv.residual
    assert positivity_check(T, samples=10, seed=909).yes
    S = lift(T, seed=909)
    assert push_forward(S) == T
    # perturbed weight: unbalanced with a face witness, visible residual
    C2 = tropical_line(weights=(1, 1, 2))
    bal = balancing_check(C2)
    assert not bal.yes and bal.witness["residual"] is not None
    T2 = integration_current(C2, T.chart)
    cv2 = closedness_test(T2, test_basis_size=50, tol=1e-8, seed=909)
    assert not cv2.yes and cv2.residual > 1e-3
    _report(9, "balanced line closed/positive/liftable; perturbation detected")


def test_acceptance_10_stratum_limits():
    fan = p2_fan()
    p = (Fraction(17, 5), Fraction(-3))
    lim = fan.limit_point(p, (0, 1))
    ray = fan.cone_id([(0, 1)])
    assert lim.stratum == ray
    assert lim.coords == (Fraction(17, 5),)   # pi_sigma(p): exact quotient coord
    _report(10, "limit along (0,1) lands on the vertical ray stratum, exactly")


def test_acceptance_11_closed_positive_implies_c_finite():
    suite = random_closed_positive_suite(count=50, seed=1111)
    confirmed = 0
    for T in suite:
        assert positivity_check(T, samples=6, seed=1111).yes
        cv = closedness_test(T, test_basis_size=8, tol=1e-7, seed=1111)
        assert cv.yes
        assert c_finite_test(T).yes
        confirmed += 1
    assert confirmed == 50
    _report(11, "50/50 closed positive currents have C-finite local mass")
