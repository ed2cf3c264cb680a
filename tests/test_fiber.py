import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tropcur import Verdict, exact, fiber, formats
from tropcur.exact import QC
from tropcur.errors import (BidegreeMismatch, DimensionMismatch, NotSquareBidegree, ValidationError,
                            WrongAlgebra)
from tropcur.fiber import (ComplexFiberForm, LagerbergFiberForm, apply_involution,
                           coordinate_strong_generators, decomposable_test, dual_pairing,
                           embed_complex, gram_form,
                           positive_generator, positivity_verdict,
                           reverify, strong_generator, strong_generator_pool,
                           subsets, wedge)
from tropcur.gallery import omega_degenerate, omega_rank_two
from tropcur.indices import merge_indices, wedge_key


# --- brute-force oracle: forms as generator sequences -------------------------
# An independent expansion of the wedge product: keep every term as an
# explicit sequence of degree-one generators ('p', i) or ('q', j) and sort
# by bubble sort, counting swaps.

def _bubble_normalize(seq):
    seq = list(seq)
    sign = 1
    changed = True
    while changed:
        changed = False
        for t in range(len(seq) - 1):
            if seq[t] > seq[t + 1]:
                seq[t], seq[t + 1] = seq[t + 1], seq[t]
                sign = -sign
                changed = True
            elif seq[t] == seq[t + 1]:
                return 0, None
    return sign, tuple(seq)


def _oracle_wedge(a, b):
    out = {}
    for (I1, J1), c1 in a.coeff.items():
        for (I2, J2), c2 in b.coeff.items():
            seq = ([("p", i) for i in I1] + [("q", j) for j in J1]
                   + [("p", i) for i in I2] + [("q", j) for j in J2])
            sign, norm = _bubble_normalize(seq)
            if sign == 0:
                continue
            I = tuple(i for k, i in norm if k == "p")
            J = tuple(j for k, j in norm if k == "q")
            out[(I, J)] = out.get((I, J), 0) + sign * c1 * c2
    out = {k: v for k, v in out.items() if v != 0}
    return out


def _random_form(rng, n, p, q, cls=LagerbergFiberForm):
    coeff = {}
    for I in subsets(n, p):
        for J in subsets(n, q):
            c = rng.randint(-3, 3)
            if c and cls is ComplexFiberForm:
                coeff[(I, J)] = QC(c, rng.randint(-3, 3))
            elif c:
                coeff[(I, J)] = c
    return cls(n, p, q, coeff)


# --- references: the chained-wedge routines of the fiber algebra ---------------
# positive_generator, strong_generator and dual_pairing read coefficients
# directly; these build the same forms through wedge and the involutions.

def _ref_positive_generator(alpha):
    p = alpha.p
    s = alpha._i_pow(p) * (-1) ** (p * (p - 1) // 2)
    w = wedge(alpha, apply_involution(alpha.bar, alpha))
    return w if s == 1 else w.scale(s)


def _ref_strong_generator(vectors, n, algebra="lagerberg"):
    cls = {"lagerberg": LagerbergFiberForm, "complex": ComplexFiberForm}[algebra]
    acc = None
    for v in vectors:
        factor = _ref_positive_generator(cls(n, 1, 0, {((j,), ()): c for j, c in enumerate(v) if c}))
        acc = factor if acc is None else wedge(acc, factor)
    return cls(n, 0, 0, {((), ()): 1}) if acc is None else acc


def _ref_dual_pairing(a, b):
    """The top coefficient of a ^ b over that of tau_n (resp. omega_n)."""
    n = a.n
    full = tuple(range(n))
    top = wedge(a, b).get(full, full)
    sgn = (-1) ** (n * (n - 1) // 2)
    if a.algebra == "lagerberg":
        return top * sgn
    if isinstance(top, QC):
        return QC.i_pow((-n) % 4) * Fraction(sgn) * top
    return top / ((1j ** (n % 4)) * sgn)


def _ref_sums_to(a, forms):
    """True iff the forms add up to a exactly (no forms: iff a is zero)."""
    acc = None
    for g in forms:
        acc = g if acc is None else acc + g
    return a.is_zero() if acc is None else acc == a


def _ref_phi_inverse(x_coeffs, a):
    """(q,0)-form alpha with phi(alpha) = x for x over the p-subset basis.

    phi : Lambda^q V' -> Lambda^p V is the contraction against the full
    top form; alpha = sum_K x_K sign(K, K^c) (d'u_{K^c}), in a's algebra.
    positive_generator(alpha) is the dual form whose pairing with a is
    conj(x)^T gram(a) x.
    """
    n = a.n
    out = {}
    for K, c in x_coeffs.items():
        out[(fiber._complement(K, n), ())] = c * Fraction(fiber._shuffle_sign(K))
    return type(a)(n, n - a.p, 0, out)


# --- references: the form-building generator pool and the tiers that read it ---
# strong_generator_pool yields Plucker vectors, the weak tier pairs through a
# term list and the LP reads an outer product; these build every generator as a
# form first and pair or stack the forms themselves.

def _ref_strong_generator_pool(n, p, size, seed, algebra):
    rng = random.Random(seed)
    pool = [(_ref_strong_generator([tuple(int(j == i) for j in range(n)) for i in I], n, algebra),
             ("coordinate", I)) for I in subsets(n, p)]
    while len(pool) < size:
        vecs = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(p))
        g = _ref_strong_generator(vecs, n, algebra)
        if not g.is_zero():
            pool.append((g, ("random", vecs)))
    return pool


def _ref_weak_scan(a, pool):
    for g, tag in pool:
        if fiber._negative(dual_pairing(a, g)):
            return ("generator", tag, g)
    return None


def _ref_strong_lp_certificate(a, pool):
    from scipy.optimize import linprog
    keys = sorted(set().union(*[set(g.coeff) for g, _ in pool]) | set(a.coeff))
    if not keys:
        return None
    parts = fiber._parts

    def vec(form):
        return [float(x) for k in keys for x in parts(form.get(*k))]

    A_eq = np.array([vec(g) for g, _ in pool]).T
    res = linprog(c=np.zeros(len(pool)), A_eq=A_eq, b_eq=np.array(vec(a)),
                  bounds=[(0, None)] * len(pool), method="highs")
    if not res.success:
        return None
    support = [j for j, x in enumerate(res.x) if x > 1e-9]
    rows, rhs = [], []
    for k in keys:
        cols = [parts(pool[j][0].get(*k)) for j in support]
        for t, target in enumerate(parts(a.get(*k))):
            rows.append([Fraction(c[t]) for c in cols])
            rhs.append(Fraction(target))
    if not support:
        return [] if all(x == 0 for x in rhs) else None
    sol = exact.solve(rows, rhs)
    if sol is None or any(x < 0 for x in sol):
        return None
    cert = [(sol[t], pool[support[t]][1], pool[support[t]][0])
            for t in range(len(support)) if sol[t] != 0]
    return ([(lam, tag) for lam, tag, _ in cert]
            if _ref_sums_to(a, (g.scale(lam) for lam, _, g in cert)) else None)


def _ref_in_gram_span(a, pool):
    """The pool generators whose Gram rows lie in the row space of a's: those
    that leave the rank of a's Gram rows unchanged when added to them."""
    rows = gram_form(a).matrix
    rank = exact.rank(rows)
    return [(g, tag) for g, tag in pool if exact.rank(rows + gram_form(g).matrix) == rank]


def _ref_pool_tier(a, tier, pool_size, seed):
    """The strong or weak verdict for 2 <= p <= n - 2, every generator a form.

    The strong tier tries the Gram span, then the LP over the Lagerberg
    form's generators inside it (the whole pool for a complex form), unless
    fewer remain than the Gram rank; the weak tier tries the positive tier
    first."""
    n, p = a.n, a.p
    if tier == "strong":
        base = fiber._positive_tier(a)
        if base.no:
            return base.replace(tier="strong", reason="not even positive: " + base.reason)
        terms = base.certificate[1]
        verdict = fiber._gram_span_verdict(n, p, a._gram, terms)
        if verdict is not None:
            return verdict
        pool = _ref_strong_generator_pool(n, p, pool_size, seed, a.algebra)
        if a.algebra == "lagerberg":
            pool = _ref_in_gram_span(a, pool)
        cert = _ref_strong_lp_certificate(a, pool) if len(pool) >= len(terms) else None
        if cert is not None:
            return Verdict("strong", "yes", certificate=("conic", cert))
        return Verdict("strong", "unknown", reason="no certificate over the generator pool")
    reason = a._asymmetry
    if reason:
        return Verdict("weak", "no", reason=reason)
    base = fiber._positive_tier(a)
    if base.yes:
        return base.replace(tier="weak", reason="positive, so weakly positive")
    witness = _ref_weak_scan(a, _ref_strong_generator_pool(n, n - p, pool_size, seed, a.algebra))
    if witness is not None:
        return Verdict("weak", "no", witness=witness, reason="negative pairing with a strongly positive form")
    if a.algebra == "lagerberg":
        poly = _ref_pairing_polynomial(a)
        if poly.is_zero():
            return Verdict("weak", "yes", certificate=("pairing_polynomial_zero",),
                           reason="pairing with every strong generator vanishes identically")
        if poly.is_even_nonnegative():
            return Verdict("weak", "yes", certificate=("pairing_polynomial_even_positive", poly),
                           reason="pairing polynomial is a nonnegative combination of squares of monomials")
    return Verdict("weak", "unknown", reason="no exact dual argument applies")


def _ref_pairing_polynomial(a):
    """The pairing polynomial by chained index merges, one factor per vector."""
    from tropcur.coeffs import Poly
    n, p = a.n, a.p
    q = n - p
    nv = q * n

    def var(j, i):
        e = [0] * nv
        e[j * n + i] = 1
        return Poly({tuple(e): Fraction(1)})

    acc = {((), ()): Poly.const(1, nv)}
    for j in range(q):
        new = {}
        for (I1, J1), poly in acc.items():
            for i in range(n):
                for k in range(n):
                    sI, I = merge_indices(I1, (i,))
                    sJ, J = merge_indices(J1, (k,))
                    if sI and sJ:
                        term = (poly * var(j, i) * var(j, k)).scale((-1 if len(J1) % 2 else 1) * sI * sJ)
                        new[(I, J)] = new[(I, J)] + term if (I, J) in new else term
        acc = new
    out = Poly.zero(nv)
    for sign, c, K, L in fiber._complementary_terms(a):
        if (K, L) in acc:
            out = out + acc[(K, L)].scale(Fraction(c) * sign)
    return out


_ALGEBRAS = st.sampled_from(["lagerberg", "complex"])
_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_SCALARS = {"lagerberg": _FRACTIONS, "complex": st.builds(QC, _FRACTIONS, _FRACTIONS)}
_CLASSES = {"lagerberg": LagerbergFiberForm, "complex": ComplexFiberForm}


@st.composite
def _sparse_form(draw, n, p, q, kind):
    keys = st.tuples(st.sampled_from(subsets(n, p)), st.sampled_from(subsets(n, q)))
    return _CLASSES[kind](n, p, q, draw(st.dictionaries(keys, _SCALARS[kind], max_size=12)))


@st.composite
def _generator_vectors(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, n))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(vector, min_size=p, max_size=p)), n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_generator_vectors(), _ALGEBRAS)
def test_strong_generator_matches_chained_wedges(case, algebra):
    vectors, n = case
    g = strong_generator(vectors, n, algebra)
    assert g.coeff == _ref_strong_generator(vectors, n, algebra).coeff


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), _ALGEBRAS)
def test_positive_generator_matches_wedge_with_involution(data, algebra):
    n = data.draw(st.integers(1, 5))
    alpha = data.draw(_sparse_form(n, data.draw(st.integers(0, n)), 0, algebra))
    assert positive_generator(alpha).coeff == _ref_positive_generator(alpha).coeff


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), _ALGEBRAS)
def test_dual_pairing_matches_top_coefficient(data, kind):
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.integers(0, n))
    a = data.draw(_sparse_form(n, p, p, kind))
    b = data.draw(_sparse_form(n, n - p, n - p, kind))
    assert dual_pairing(a, b) == _ref_dual_pairing(a, b)


def test_pairing_and_generator_need_no_wedge(monkeypatch):
    def no_wedge(a, b):
        raise AssertionError("wedge called")
    alpha = LagerbergFiberForm(4, 2, 0, {((0, 1), ()): 2, ((2, 3), ()): -1})
    expected = _ref_positive_generator(alpha)
    pairing = _ref_dual_pairing(expected, expected)
    monkeypatch.setattr(fiber, "wedge", no_wedge)
    g = positive_generator(alpha)
    assert g == expected
    assert dual_pairing(g, g) == pairing != 0


def test_wedge_against_bubble_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 4)
        p1, q1 = rng.randint(0, n), rng.randint(0, n)
        p2, q2 = rng.randint(0, n), rng.randint(0, n)
        a = _random_form(rng, n, p1, q1)
        b = _random_form(rng, n, p2, q2)
        w = wedge(a, b)
        assert w.coeff == _oracle_wedge(a, b)


def _oracle_key(*blocks):
    """(sign, (I, J)) for the generator word d'u_I1 d''u_J1 d'u_I2 d''u_J2 ...
    sorted by bubble sort, or None when it repeats a generator."""
    seq = [(kind, i) for kind, block in zip(itertools.cycle("pq"), blocks) for i in block]
    sign, norm = _bubble_normalize(seq)
    if sign == 0:
        return None
    return sign, (tuple(i for k, i in norm if k == "p"), tuple(i for k, i in norm if k == "q"))


def test_wedge_key_against_bubble_oracle():
    for n in range(1, 4):
        blocks = [S for p in range(n + 1) for S in subsets(n, p)]
        for I1, J1, I2, J2 in itertools.product(blocks, repeat=4):
            assert wedge_key(I1, J1, I2, J2) == _oracle_key(I1, J1, I2, J2), (I1, J1, I2, J2)


def test_differentials_against_bubble_oracle():
    # every term of d', d'', del and idbar: the generator d'u_j (or d''u_j) in
    # front of the word d'u_I d''u_J, times the j-th partial, times -1/2 for the
    # complex kinds; a stratum table is not differentiated along its dead axes
    from tropcur.coeffs import CoefficientFn, Poly
    from tropcur.fans import orthant_fan
    from tropcur.fields import InvariantComplexFormField, boundary_window_field, differentiate
    n = 3
    fan = orthant_fan(n)
    chart = fan.toric_chart(fan.cone_id([tuple(int(i == j) for j in range(n)) for i in range(n)]))
    rng = random.Random(5)
    for _ in range(6):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        terms = []
        for _ in range(2):
            poly = Poly.const(rng.randint(1, 3), n)
            for _ in range(rng.randint(0, 2)):
                poly = poly * Poly.var(rng.choice([1, 2]), n) + Poly.const(rng.randint(-2, 2), n)
            terms.append(((tuple(sorted(rng.sample([1, 2], p))),
                           tuple(sorted(rng.sample([1, 2], q)))), poly))
        f = boundary_window_field(chart, {0}, terms, {1: (-1, 1), 2: (-2, 1)}, 2)
        assert f.tables.get(frozenset({0}))
        g = InvariantComplexFormField(chart, n, p, q, dict(f.tables[frozenset()]))
        cases = [("d'", f, 0, 1), ("d''", f, 1, 1),
                 ("del", g, 0, Fraction(-1, 2)), ("idbar", g, 1, Fraction(-1, 2))]
        for kind, a, block, factor in cases:
            out = differentiate(kind, a)
            tables = ({frozenset(): (a.coeff, out.coeff)} if a.algebra == "complex" else
                      {M: (tab, out.tables.get(M, {})) for M, tab in a.tables.items()})
            for M, (tab, got) in tables.items():
                want = {}
                for (I, J), fn in tab.items():
                    for j in sorted(set(range(n)) - M):
                        hit = _oracle_key(*(((j,), (), I, J) if block == 0 else ((), (j,), I, J)))
                        if hit is not None:
                            term = fn.diff(j).scale(hit[0] * factor)
                            want[hit[1]] = want.get(hit[1], CoefficientFn.zero(n)) + term
                want = {key: c for key, c in want.items() if not c.is_zero()}
                assert set(got) == set(want), (kind, M)
                assert all((got[key] - want[key]).is_zero() for key in want), (kind, M)


def test_wedge_sign_bookkeeping_example():
    # (d'u_1 ^ d''u_1) ^ (d'u_2 ^ d''u_2) = -(d'u_1 ^ d'u_2) ^ J(d'u_1 ^ d'u_2)
    n = 2
    e1 = LagerbergFiberForm.basis_form(n, (0,), (0,))
    e2 = LagerbergFiberForm.basis_form(n, (1,), (1,))
    lhs = wedge(e1, e2)
    a = LagerbergFiberForm.basis_form(n, (0, 1), ())
    rhs = wedge(a, apply_involution("J", a)).scale(-1)
    assert lhs == rhs


def test_wedge_graded_commutativity():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
        a = _random_form(rng, n, min(p1, n), min(q1, n))
        b = _random_form(rng, n, min(p2, n), min(q2, n))
        ab = wedge(a, b)
        ba = wedge(b, a)
        s = (-1) ** ((a.p + a.q) * (b.p + b.q))
        assert ab == ba.scale(s)


def test_degenerate_form_kills_strong_generators():
    # omega ^ eta = 0 for eta = a ^ Ja ^ b ^ Jb, any a, b
    w = omega_degenerate()
    rng = random.Random(3)
    for _ in range(50):
        vecs = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)]
        g = strong_generator(vecs, 4)
        assert wedge(w, g).is_zero()
        assert dual_pairing(w, g) == 0


def test_involutions_are_involutions():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = _random_form(rng, n, p, q)
        assert apply_involution("J", apply_involution("J", a)) == a
        w = _random_form(rng, n, p, q, ComplexFiberForm)
        assert apply_involution("F", apply_involution("F", w)) == w
        assert apply_involution("conjugation", apply_involution("conjugation", w)) == w


def test_involution_wrong_algebra():
    a = LagerbergFiberForm.basis_form(2, (0,), ())
    with pytest.raises(WrongAlgebra):
        apply_involution("F", a)
    w = ComplexFiberForm.basis_form(2, (0,), ())
    with pytest.raises(WrongAlgebra):
        apply_involution("J", w)


def test_f_fixes_i_du_dubar():
    # F(i du_1 ^ dubar_1) = i du_1 ^ dubar_1
    w = ComplexFiberForm(1, 1, 1, {((0,), (0,)): QC(0, 1)})
    assert apply_involution("F", w) == w


def test_j_generator_swap_with_sign():
    # J is the algebra involution: J(d'u_1 ^ d''u_2) = d''u_1 ^ d'u_2
    #                                                = -d'u_2 ^ d''u_1
    a = LagerbergFiberForm.basis_form(2, (0,), (1,))
    expected = LagerbergFiberForm(2, 1, 1, {((1,), (0,)): -1})
    assert apply_involution("J", a) == expected


def test_f_conj_anticommute_on_one_forms():
    # eq: F(conj(alpha)) = -conj(F(alpha)) for (1,0)- and (0,1)-forms
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        for (p, q) in ((1, 0), (0, 1)):
            a = _random_form(rng, n, p, q, ComplexFiberForm)
            lhs = apply_involution("F", apply_involution("conjugation", a))
            rhs = apply_involution("conjugation", apply_involution("F", a)).scale(-1)
            assert lhs == rhs


def test_conj_f_sign_rule_all_degrees():
    # conj(F eta) = (-1)^{p+q} F(conj eta)
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = _random_form(rng, n, p, q, ComplexFiberForm)
        lhs = apply_involution("conjugation", apply_involution("F", a))
        rhs = apply_involution("F", apply_involution("conjugation", a)).scale((-1) ** (p + q))
        assert lhs == rhs


def lagerberg_orientation(n):
    """tau_n = d'u_1 ^ d''u_1 ^ ... ^ d'u_n ^ d''u_n in the block basis."""
    full = tuple(range(n))
    return LagerbergFiberForm(n, n, n, {(full, full): (-1) ** (n * (n - 1) // 2)})


def complex_orientation(n):
    """omega_n = du_1 ^ i dubar_1 ^ ... ^ du_n ^ i dubar_n."""
    full = tuple(range(n))
    return ComplexFiberForm(n, n, n, {(full, full): QC.i_pow(n) * (-1) ** (n * (n - 1) // 2)})


def embed_preimage(w):
    """Inverse of embed_complex on the F-fixed subspace; None if not fixed."""
    if apply_involution("F", w) != w:
        return None
    out = {}
    for (I, K), c in w.coeff.items():
        val = QC.i_pow(-len(K)) * QC.of(c)
        if val.imag != 0:
            return None
        out[(I, K)] = val.real
    return LagerbergFiberForm(w.n, w.p, w.q, out)


def test_embed_orientation():
    for n in (1, 2, 3, 4):
        assert embed_complex(lagerberg_orientation(n)) == complex_orientation(n)


def test_embed_multiplicative_injective():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = _random_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        b = _random_form(rng, n, rng.randint(0, 1), rng.randint(0, 1))
        assert embed_complex(wedge(a, b)) == wedge(embed_complex(a), embed_complex(b))
        if not a.is_zero():
            assert not embed_complex(a).is_zero()


def test_embed_image_is_f_fixed_and_dimension_count():
    rng = random.Random(19)
    n = 2
    for _ in range(20):
        a = _random_form(rng, n, rng.randint(0, n), rng.randint(0, n))
        w = embed_complex(a)
        assert apply_involution("F", w) == w
        assert embed_preimage(w) == a
    # real dimension of the F-fixed space: one real parameter per basis
    # pair (I,J), so 4^n = 2^(2n)
    count = sum(len(subsets(n, p)) * len(subsets(n, q))
                for p in range(n + 1) for q in range(n + 1))
    assert count == 2 ** (2 * n)
    # F-fixed sampling: symmetrized random forms come from Lagerberg forms
    for _ in range(10):
        w = _random_form(rng, n, 1, 1, ComplexFiberForm)
        fixed = w + apply_involution("F", w)
        assert embed_preimage(fixed) is not None


def test_embed_j_conjugation_rule():
    # embed(J a) = i^{p+q} conj(embed(a))
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = _random_form(rng, n, p, q)
        lhs = embed_complex(apply_involution("J", a))
        rhs = apply_involution("conjugation", embed_complex(a)).scale(QC.i_pow((p + q) % 4))
        assert lhs == rhs


def test_gram_simple():
    a = LagerbergFiberForm.basis_form(2, (0,), (0,))
    g = gram_form(a)
    assert g.kind == "symmetric"
    assert g.matrix == [[1, 0], [0, 0]]


def test_gram_outer_product_psd_rank_one():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        coeffs = {(K, ()): rng.randint(-3, 3) for K in subsets(n, p)}
        alpha = LagerbergFiberForm(n, p, 0, coeffs)
        g = positive_generator(alpha)
        terms, witness, _ = exact.psd_decompose([[Fraction(x) for x in row]
                                                 for row in gram_form(g).matrix])
        assert witness is None and len(terms) <= 1


def test_gram_rank_two_example():
    g = gram_form(omega_rank_two())
    terms, witness, _ = exact.psd_decompose([[Fraction(x) for x in row] for row in g.matrix])
    assert witness is None and len(terms) == 2


def test_dual_pairing_trivial():
    a = LagerbergFiberForm.basis_form(2, (0,), (0,))
    b = LagerbergFiberForm.basis_form(2, (1,), (1,))
    assert dual_pairing(a, b) == 1
    bad = LagerbergFiberForm.basis_form(3, (0,), (0,))
    with pytest.raises(BidegreeMismatch):
        dual_pairing(bad, bad)
    with pytest.raises(NotSquareBidegree):
        dual_pairing(LagerbergFiberForm.basis_form(2, (0,), ()), b)
    with pytest.raises(WrongAlgebra):
        dual_pairing(a, embed_complex(b))


def test_dual_pairing_positive_cone():
    # <positive, positive> >= 0 exactly on random samples
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        q = n - p
        a = positive_generator(LagerbergFiberForm(
            n, p, 0, {(K, ()): rng.randint(-2, 2) for K in subsets(n, p)}))
        b = positive_generator(LagerbergFiberForm(
            n, q, 0, {(K, ()): rng.randint(-2, 2) for K in subsets(n, q)}))
        assert dual_pairing(a, b) >= 0


def test_strong_generator_linear_relation_dim4():
    # w_{1,3,2,4} - w_{1,2,3,4} + w_{1,2,4,3} = 0 for every a^Ja^b^Jb;
    # in block-basis coefficients: -c[(0,1),(2,3)] + c[(0,2),(1,3)]
    #                              - c[(0,3),(1,2)] = 0
    rng = random.Random(37)
    for _ in range(200):
        vecs = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(2)]
        g = strong_generator(vecs, 4)
        val = (-g.get((0, 1), (2, 3)) + g.get((0, 2), (1, 3))
               - g.get((0, 3), (1, 2)))
        assert val == 0


def test_positivity_positive_tier_exact():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        a = positive_generator(LagerbergFiberForm(
            n, p, 0, {(K, ()): rng.randint(-2, 2) for K in subsets(n, p)}))
        b = positive_generator(LagerbergFiberForm(
            n, p, 0, {(K, ()): rng.randint(-2, 2) for K in subsets(n, p)}))
        form = a + b.scale(Fraction(3, 2))
        v = positivity_verdict(form, "positive")
        assert v.yes and reverify(form, v)


def test_positivity_negative_witness_reverifies():
    w = omega_degenerate()
    v = positivity_verdict(w, "positive")
    assert v.no and reverify(w, v)
    # the witness value is the strictly negative pairing with the dual form of x
    kind, x, value = v.witness
    assert kind == "evaluation"
    assert value == dual_pairing(w, positive_generator(_ref_phi_inverse(x, w))) < 0


def test_degenerate_form_weak_tier():
    w = omega_degenerate()
    for form in (w, w.scale(-1), w.scale(7)):
        v = positivity_verdict(form, "weak", pool_size=40)
        assert v.yes, v.reason
        assert reverify(form, v)


def test_rank_two_example_verdicts():
    w = omega_rank_two()
    vpos = positivity_verdict(w, "positive")
    assert vpos.yes and reverify(w, vpos)
    vstr = positivity_verdict(w, "strong", pool_size=60)
    assert vstr.no
    assert vstr.witness[0] == "kernel_obstruction"
    quads = vstr.witness[1]["quadratics"]
    # the obstruction quadric is y^2 + z^2 up to scale
    assert any(A > 0 and B == 0 and C > 0 and A == C for A, B, C in quads)
    assert reverify(w, vstr)


def test_common_real_roots_of_irrational_roots():
    # y^2 - 2 z^2 (times 2) has the irrational roots (+-sqrt 2, 1): common to a
    # rational multiple of it, to no quadratic that is not one
    first = (Fraction(2), Fraction(0), Fraction(-4))
    assert fiber._common_real_roots([first]) is None
    assert fiber._common_real_roots([first, (Fraction(-1), Fraction(0), Fraction(2))]) is None
    assert fiber._common_real_roots([first, (Fraction(0), Fraction(0), Fraction(4))]) == []
    assert fiber._common_real_roots([first, (Fraction(1), Fraction(1), Fraction(-2))]) == []
    # y^2 - z^2 and y^2 - yz share the rational root (1, 1) only
    assert fiber._common_real_roots([(1, 0, -1), (1, -1, 0)]) == [(2, 2)]


def _two_generators(n, w1, w2):
    """G(w1) + G(w2) for the (2,0)-forms {K: c} w1 and w2 in dimension n."""
    return sum((positive_generator(LagerbergFiberForm(n, 2, 0, {(K, ()): Fraction(c)
                                                                 for K, c in w.items()}))
                for w in (w1, w2)), LagerbergFiberForm.zero(n, 2, 2))


def test_gram_span_with_irrational_decomposables():
    # W = span(e12 + e34, e13 + 2 e24): alpha ^ alpha = (2 y^2 - 4 z^2) e1234,
    # so W's decomposables are irrational and the Gram-span step leaves it open
    a = _two_generators(4, {(0, 1): 1, (2, 3): 1}, {(0, 2): 1, (1, 3): 2})
    assert fiber._gram_span_verdict(4, 2, a._gram, positivity_verdict(a, "positive").certificate[1]) is None
    v = positivity_verdict(a, "strong", pool_size=40)
    assert v.answer == "unknown" and reverify(a, v)
    # at n = 5, e15 in w2 adds quadratics that 2 y^2 - 4 z^2 does not divide: no decomposable
    a = _two_generators(5, {(0, 1): 1, (2, 3): 1}, {(0, 2): 1, (1, 3): 2, (0, 4): 1})
    v = positivity_verdict(a, "strong", pool_size=40)
    assert v.no and v.witness[0] == "kernel_obstruction" and reverify(a, v)
    quads = v.witness[1]["quadratics"]
    assert (2, 0, -4) in quads and fiber._common_real_roots(quads) == []


def test_p1_equivalence_all_tiers():
    a = LagerbergFiberForm.basis_form(2, (0,), (0,))
    for tier in ("strong", "positive", "weak"):
        assert positivity_verdict(a, tier).yes


def test_strong_tier_conic_certificate():
    # tau_2-like: sum of coordinate strong generators has an exact certificate
    n = 2
    g1 = strong_generator([(1, 0)], n)
    g2 = strong_generator([(0, 1)], n)
    form = g1 + g2.scale(2)
    v = positivity_verdict(form, "strong", pool_size=12)
    assert v.answer in ("yes", "unknown")
    if v.yes:
        assert reverify(form, v)
    # away from the tier-equivalence range: p=2, n=4
    vecs1 = [(1, 0, 0, 0), (0, 1, 0, 0)]
    vecs2 = [(0, 0, 1, 0), (0, 0, 0, 1)]
    form = strong_generator(vecs1, 4) + strong_generator(vecs2, 4)
    v = positivity_verdict(form, "strong", pool_size=40, seed=2)
    assert v.yes and reverify(form, v)


def test_weak_tier_negative_witness():
    # -tau_2 is not weakly positive: pairing with 1 is -1
    n = 2
    form = lagerberg_orientation(n).scale(-1)
    v = positivity_verdict(form, "weak")
    assert v.no


def test_tier_hierarchy_never_contradicts():
    rng = random.Random(43)
    for _ in range(10):
        n = 4
        p = 2
        a = positive_generator(LagerbergFiberForm(
            n, p, 0, {(K, ()): rng.randint(-2, 2) for K in subsets(n, p)}))
        vs = positivity_verdict(a, "strong", pool_size=50, seed=5)
        vp = positivity_verdict(a, "positive")
        vw = positivity_verdict(a, "weak", pool_size=50, seed=5)
        if vs.yes:
            assert vp.yes
        if vp.yes:
            assert vw.answer in ("yes", "unknown")
        if vw.no:
            assert vp.no and vs.no


def test_f_preserves_positive_tier():
    rng = random.Random(47)
    for _ in range(10):
        n = 3
        p = rng.randint(1, 2)
        coeffs = {(K, ()): QC(rng.randint(-2, 2), rng.randint(-2, 2))
                  for K in subsets(n, p)}
        alpha = ComplexFiberForm(n, p, 0, coeffs)
        form = positive_generator(alpha)
        ff = apply_involution("F", form)
        v1 = positivity_verdict(form, "positive")
        v2 = positivity_verdict(ff, "positive")
        assert v1.yes and v2.yes


def test_lagerberg_positive_iff_complex_positive():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        coeffs = {}
        for K in subsets(n, p):
            for L in subsets(n, p):
                c = rng.randint(-2, 2)
                if c:
                    coeffs[(K, L)] = c
        form = LagerbergFiberForm(n, p, p, coeffs)
        sym = form + apply_involution("J", form).scale((-1) ** p)
        v_lag = positivity_verdict(sym, "positive")
        v_cpx = positivity_verdict(embed_complex(sym), "positive")
        assert v_lag.answer == v_cpx.answer


def test_complex_gram_hermitian_and_sign():
    # i^{p^2} alpha ^ conj(alpha) has Gram = outer(alpha, conj alpha): PSD
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(2, 3)
        p = rng.randint(1, n - 1)
        coeffs = {(K, ()): QC(rng.randint(-2, 2), rng.randint(-2, 2))
                  for K in subsets(n, p)}
        form = positive_generator(ComplexFiberForm(n, p, 0, coeffs))
        g = gram_form(form)
        assert g.kind == "hermitian"
        terms, witness, _ = exact.psd_decompose(g.matrix)
        assert witness is None and len(terms) <= 1


def test_decomposable():
    n = 4
    a = LagerbergFiberForm(n, 2, 0, {((0, 1), ()): 1})
    assert decomposable_test(a) == "yes"
    b = LagerbergFiberForm(n, 2, 0, {((0, 1), ()): 1, ((2, 3), ()): 1})
    assert decomposable_test(b) == "no"
    c = LagerbergFiberForm(n, 2, 0, {((0, 2), ()): 1, ((1, 3), ()): -1})
    assert decomposable_test(c) == "no"
    # rank test route for p=3 in n=4: every 3-form is decomposable (p = n-1)
    d = LagerbergFiberForm(4, 3, 0, {((0, 1, 2), ()): 2, ((0, 1, 3), ()): 5})
    assert decomposable_test(d) == "yes"
    # over Q(i): e0 ^ e1 ^ (i e2 + e3), and i e012 + e034 = e0 ^ (i e12 + e34)
    e = ComplexFiberForm(5, 3, 0, {((0, 1, 2), ()): QC(0, 1), ((0, 1, 3), ()): 1})
    assert decomposable_test(e) == "yes"
    f = ComplexFiberForm(5, 3, 0, {((0, 1, 2), ()): QC(0, 1), ((0, 3, 4), ()): 1})
    assert decomposable_test(f) == "no"


def test_decomposable_rank_route_p3_n6():
    # decomposable: product structure detected by the support rank test
    n = 6
    a = LagerbergFiberForm(n, 2, 0, {((0, 1), ()): 1})
    b = LagerbergFiberForm(n, 1, 0, {((2,), ()): 1, ((3,), ()): 2})
    w = wedge(a, b)
    assert decomposable_test(w) == "yes"
    nd = LagerbergFiberForm(n, 3, 0, {((0, 1, 2), ()): 1, ((3, 4, 5), ()): 1})
    assert decomposable_test(nd) == "no"


def _wedge_of_vectors(kind, vectors):
    """v_0 ^ ... ^ v_{p-1} for p >= 1 vectors of length n."""
    forms = [_CLASSES[kind](len(v), 1, 0, {((i,), ()): c for i, c in enumerate(v) if c})
             for v in vectors]
    return functools.reduce(wedge, forms)


@st.composite
def _decomposable_cases(draw):
    """(form, answer) at 2 <= p <= n - 1, n <= 6, in either algebra: the
    wedge of p integer or Gaussian-integer vectors, 'yes' when it is
    nonzero; or, when 2p <= n, e_0 ^ ... ^ e_{p-1} + e_p ^ ... ^ e_{2p-1}
    under a random unimodular change of basis, 'no'."""
    kind, decomposable = draw(_ALGEBRAS), draw(st.booleans())
    n = draw(st.integers(3 if decomposable else 4, 6))
    p = draw(st.integers(2, n - 1 if decomposable else n // 2))
    entry = (st.integers(-2, 2) if kind == "lagerberg"
             else st.builds(QC, st.integers(-2, 2), st.integers(-2, 2)))
    if decomposable:
        vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                min_size=p, max_size=p))
        form = _wedge_of_vectors(kind, vectors)
        assume(not form.is_zero())
        return form, "yes"
    # columns of a product of elementary matrices I + c E_ij (i != j)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    for (i, j), c in draw(st.lists(st.tuples(pairs, entry), max_size=8)):
        basis[j] = [x + c * y for x, y in zip(basis[j], basis[i])]
    form = (_wedge_of_vectors(kind, basis[:p])
            + _wedge_of_vectors(kind, basis[p:2 * p]))
    return form, "no"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decomposable_cases())
def test_decomposable_matches_construction(case):
    form, answer = case
    assert decomposable_test(form) == answer


def _ref_decomposable_test(a):
    """decomposable_test as it was before one rank rule served every p: the
    wedge square at p = 2, else the rank of the contractions, over Q(i)
    half the rank of the real rows [A, -B] and [B, A] of A + iB."""
    n, p = a.n, a.p
    if a.is_zero() or p <= 1 or p == n:
        return "yes"
    if p == 2:
        return "yes" if wedge(a, a).is_zero() else "no"
    rows = []
    for S in subsets(n, p - 1):
        # e_S ^ e_j = (-1)^{#{s in S: s > j}} e_{S + j}
        rows.append([0 if j in S else (-1) ** sum(s > j for s in S) * a.get(tuple(sorted(S + (j,))), ())
                     for j in range(n)])
    if a.algebra == "complex":
        dim = exact.rank([[c.real for c in row] + [-c.imag for c in row] for row in rows]
                         + [[c.imag for c in row] + [c.real for c in row] for row in rows]) // 2
    else:
        dim = exact.rank(rows)
    return "yes" if dim == p else "no"


@st.composite
def _p0_forms(draw):
    """A (p,0)-form at 1 <= p <= n <= 6 in either algebra, 2 <= p <= n - 2
    in three of four: the wedge of p integer or Gaussian-integer vectors,
    plus in half of them a form with one to three nonzero random
    coefficients, so that both answers occur."""
    kind = draw(_ALGEBRAS)
    edge = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(1, 6) if edge else st.integers(4, 6))
    p = draw(st.integers(1, n) if edge else st.integers(2, n - 2))
    entry = (st.integers(-2, 2) if kind == "lagerberg"
             else st.builds(QC, st.integers(-2, 2), st.integers(-2, 2)))
    form = _wedge_of_vectors(kind, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                                 min_size=p, max_size=p)))
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(subsets(n, p)), min_size=1, max_size=3, unique=True))
        form = form + _CLASSES[kind](n, p, 0, {(K, ()): draw(entry.filter(bool)) for K in keys})
    return form


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_p0_forms())
def test_decomposable_matches_the_wedge_square_and_realified_rank(form):
    assert decomposable_test(form) == _ref_decomposable_test(form)


def test_symmetric_checks():
    assert not lagerberg_orientation(3)._asymmetry
    assert not omega_degenerate()._asymmetry
    asym = LagerbergFiberForm(2, 1, 1, {((0,), (1,)): 1})
    assert asym._asymmetry == "not symmetric"
    v = positivity_verdict(asym, "positive")
    assert v.no and reverify(asym, v)


# --- property: every verdict re-verifies ---------------------------------------

@st.composite
def _exact_pp_forms(draw):
    """A symmetrized a + (-1)^p J(a) or a conic sum of strong generators,
    sent to the complex algebra by embed_complex half the time.

    (n, p) = (4, 2), the one case up to n = 4 where the tiers differ, is
    drawn as often as all the others together.  n = 5 forms go through all
    three tiers too: a weak-tier verdict on a sum of two strong generators
    at n = 5, p = 2 takes about 0.02 s at the pool of 50 used here, and
    about 0.12 s at the default pool of 2000 (one CPU, Python 3.11).
    """
    pairs = [(n, p) for n in range(1, 6) for p in range(n + 1)]
    n, p = draw(st.sampled_from(pairs + [(4, 2)] * len(pairs)))
    if draw(st.booleans()):
        idx = st.sampled_from(subsets(n, p))
        a = LagerbergFiberForm(n, p, p, draw(st.dictionaries(
            st.tuples(idx, idx), st.integers(-2, 2), max_size=6)))
        form = a + apply_involution("J", a).scale((-1) ** p)
    else:
        vectors = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        terms = draw(st.lists(st.tuples(st.integers(1, 3), st.lists(vectors, min_size=p, max_size=p)),
                              min_size=1, max_size=3))
        form = LagerbergFiberForm.zero(n, p, p)
        for c, vecs in terms:
            form = form + strong_generator(vecs, n).scale(c)
    if draw(st.booleans()):
        form = embed_complex(form)
    return form


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_exact_pp_forms())
def test_every_verdict_reverifies(form):
    for tier in ("strong", "positive", "weak"):
        v = positivity_verdict(form, tier, pool_size=50)
        assert isinstance(v, Verdict) and v.tier == tier
        assert v.answer in ("yes", "no", "unknown")
        assert reverify(form, v), (tier, v)


@pytest.mark.parametrize("algebra", ["lagerberg", "complex"])
def test_empty_strong_generator_is_unit(algebra):
    unit = strong_generator([], 3, algebra)
    assert (unit.p, unit.q) == (0, 0) and unit.get((), ()) == 1
    pool = list(strong_generator_pool(3, 0, size=4))
    assert pool == [((1,), ("coordinate", ()))] + [((1,), ("random", ()))] * 3


def _ref_decomposition_holds(a, terms):
    """The decomposition certificate's check by building forms: every
    gamma_k > 0, and the scaled generators of the terms add up to a."""
    cls = type(a)
    return all(gamma > 0 for gamma, _ in terms) and _ref_sums_to(a, (
        positive_generator(cls(a.n, a.p, 0, {(K, ()): c for K, c in coeffs.items()})).scale(gamma)
        for gamma, coeffs in terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), _ALGEBRAS)
def test_decomposition_recheck_matches_form_building_reference(data, algebra):
    """reverify's integer re-check of a ("decomposition", terms) certificate
    agrees with building the forms: on a sum that holds, and on the same
    sum with one gamma replaced by a drawn one (possibly <= 0), with a
    cancelling pair added, or against a form off the sum."""
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(0, n))
    cls = _CLASSES[algebra]
    gammas = st.fractions(min_value=0, max_value=3, max_denominator=4).filter(bool)
    terms = []
    for _ in range(data.draw(st.integers(0, 3))):
        alpha = data.draw(_sparse_form(n, p, 0, algebra))
        terms.append((data.draw(gammas), {K: c for (K, _), c in alpha.coeff.items()}))
    a = cls.zero(n, p, p)
    for gamma, coeffs in terms:
        a = a + positive_generator(cls(n, p, 0, {(K, ()): c for K, c in coeffs.items()})).scale(gamma)
    cases = [(a, terms), (a + data.draw(_sparse_form(n, p, p, algebra)), terms)]
    if terms:
        gamma, coeffs = terms[0]
        other = data.draw(st.fractions(min_value=-1, max_value=3, max_denominator=4))
        cases += [(a, [(other, coeffs)] + terms[1:]),
                  (a, terms + [(gamma, coeffs), (-gamma, coeffs)])]
    for form, certificate in cases:
        verdict = Verdict("positive", "yes", certificate=("decomposition", certificate))
        assert reverify(form, verdict) == _ref_decomposition_holds(form, certificate)
    assert reverify(a, Verdict("positive", "yes", certificate=("decomposition", terms)))


# --- the per-process pool memo --------------------------------------------------

def test_interleaved_pool_consumers_each_see_the_whole_pool():
    fiber._pool_memo.cache_clear()
    ref = _ref_strong_generator_pool(4, 2, 2000, 0, "lagerberg")
    first, second = strong_generator_pool(4, 2, 2000, 0), strong_generator_pool(4, 2, 2000, 0)
    seen = ([], [])
    rng = random.Random(5)
    while len(seen[0]) + len(seen[1]) < 2 * len(ref):
        t = rng.randint(0, 1)
        seen[t].extend(itertools.islice((first, second)[t], rng.randint(1, 40)))
    for got in seen:
        assert [tag for _, tag in got] == [tag for _, tag in ref]
        assert all(fiber._plucker_generator(beta, 4, 2, LagerbergFiberForm) == g
                   for (beta, _), (g, _) in zip(got, ref))
    assert next(first, None) is None and next(second, None) is None


def test_weak_no_draws_the_pool_only_up_to_its_witness():
    fiber._pool_memo.cache_clear()
    # no diagonal coefficient, so the coordinate generators all pair to zero
    form = LagerbergFiberForm(4, 2, 2, {((0, 1), (2, 3)): 1, ((2, 3), (0, 1)): 1})
    v = positivity_verdict(form, "weak", seed=11)
    assert v.no and v.witness[1][0] == "random"
    drawn, _ = fiber._pool_memo(4, 2, 2000, 11)
    assert drawn[-1][1] == v.witness[1] and len(drawn) < 2000
    count = len(drawn)
    assert positivity_verdict(form, "weak", seed=11) == v and len(drawn) == count


def test_pool_entries_are_immutable_tuples():
    for entry in itertools.islice(strong_generator_pool(4, 2, 2000, 0), 100):
        assert type(entry) is tuple and all(type(part) is tuple for part in entry)
        hash(entry)         # only nested tuples of ints and strings hash


@st.composite
def _pool_tier_forms(draw):
    """A (p,p)-form with 2 <= p <= n - 2 <= 3, where both outer tiers read the
    pool: a symmetrized random form plus a signed sum of strong generators, in
    either algebra."""
    n = draw(st.sampled_from([4, 4, 5]))
    p = draw(st.integers(2, n - 2))
    idx = st.sampled_from(subsets(n, p))
    a = LagerbergFiberForm(n, p, p, draw(st.dictionaries(
        st.tuples(idx, idx), _FRACTIONS, max_size=draw(st.sampled_from([0, 2, 6])))))
    form = a + apply_involution("J", a).scale((-1) ** p)
    vectors = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=p, max_size=p)
    for c, vecs in draw(st.lists(st.tuples(st.integers(-2, 3), vectors), max_size=3)):
        form = form + strong_generator(vecs, n).scale(c)
    if draw(st.booleans()):
        form = embed_complex(form)
    return form


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_pool_tier_forms(), _ALGEBRAS.flatmap(lambda algebra: _bench_family_forms(4, 2, algebra))),
       st.integers(0, 3), st.sampled_from([30, 30, 6]))
def test_pool_tiers_match_form_building_reference(form, seed, pool_size):
    """The strong and weak tiers agree with _ref_pool_tier, which builds
    every generator as a form and whose weak tier walks the whole pool
    before it tries the pairing polynomial, on pool forms and on the
    benchmark's fiber families, also with a pool of coordinate entries only."""
    for tier in ("strong", "weak"):
        v = positivity_verdict(form, tier, seed=seed, pool_size=pool_size)
        ref = _ref_pool_tier(form, tier, pool_size, seed)
        got, want = ((x.answer, x.reason, x.witness, x.certificate) for x in (v, ref))
        assert got == want
        assert formats.jsonable(got) == formats.jsonable(want)
        assert repr(v) == repr(ref)
        assert reverify(form, v)


# --- the Gram-span routes and the filtered LP -------------------------------------

_WEIGHTS = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=6)


@st.composite
def _rational_strong_sums(draw):
    """At (n, p) = (4, 2) or (5, 2): a positive rational combination of
    coordinate generators, or a sum of two rational strong generators."""
    n = draw(st.sampled_from([4, 5]))
    if draw(st.booleans()):
        gens = [g for g, _ in coordinate_strong_generators(n, 2)]
        picked = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens),
                               unique_by=lambda g: tuple(g.coeff)))
    else:
        vectors = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=2, max_size=2)
        generator = vectors.map(lambda vecs: strong_generator(vecs, n)).filter(
            lambda g: not g.is_zero())
        picked = [draw(generator), draw(generator)]
    form = LagerbergFiberForm.zero(n, 2, 2)
    for g in picked:
        form = form + g.scale(draw(_WEIGHTS))
    return form


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_rational_strong_sums())
def test_gram_span_gives_strong_yes_without_the_lp(form):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fiber, "strong_generator_pool", _must_not_run)
        v = positivity_verdict(form, "strong")
    assert v.yes and v.certificate[0] == "conic"
    assert all(tag[0] == "gram_span" for _, tag in v.certificate[1])
    assert reverify(form, v)


@st.composite
def _positive_sums(draw):
    """At (n, p) = (4, 2) or (5, 2), in either algebra: a positive rational
    combination of positive generators of drawn (2,0)-forms, which need not
    be decomposable."""
    n, algebra = draw(st.sampled_from([4, 5])), draw(_ALGEBRAS)
    form = _CLASSES[algebra].zero(n, 2, 2)
    for _ in range(draw(st.integers(1, 4))):
        alpha = draw(_sparse_form(n, 2, 0, algebra))
        form = form + positive_generator(alpha).scale(draw(_WEIGHTS))
    return form


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_positive_sums())
def test_positive_forms_get_the_positive_certificate_as_weak_yes(form):
    base = positivity_verdict(form, "positive")
    assert base.yes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fiber, "strong_generator_pool", _must_not_run)
        v = positivity_verdict(form, "weak")
    assert v.yes and v.certificate == base.certificate and reverify(form, v)


@st.composite
def _pool_sums(draw):
    """(form, seed): a positive rational combination of one to four entries
    of strong_generator_pool(n, p, 30, seed), in either algebra, so that the
    LP over the whole pool is feasible."""
    n = draw(st.sampled_from([4, 4, 5]))
    p, seed, cls = draw(st.integers(2, n - 2)), draw(st.integers(0, 3)), _CLASSES[draw(_ALGEBRAS)]
    form = cls.zero(n, p, p)
    for beta, _ in draw(st.lists(st.sampled_from(list(strong_generator_pool(n, p, 30, seed))),
                                 min_size=1, max_size=4)):
        form = form + fiber._plucker_generator(beta, n, p, cls).scale(draw(_WEIGHTS))
    return form, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_pool_tier_forms(), st.integers(0, 3)), _pool_sums()))
def test_filtered_lp_matches_full_pool_reference(case):
    """The strong tier's LP, over the pool entries inside the Gram row space
    of a positive form in either algebra (none when its Gram matrix is not
    real) and skipped when fewer remain than the Gram rank, is feasible iff
    the LP over the whole form-built pool is; on a form that is not
    positive, which the tier never sends to the LP, that LP fails too."""
    form, seed = case
    assume(not form.is_zero())
    base = positivity_verdict(form, "positive")
    n, p = form.n, form.p
    got = None
    if base.yes:
        inside = fiber._pool_in_span(form._gram, strong_generator_pool(n, p, 30, seed))
        if len(inside) >= len(base.certificate[1]):
            got = fiber._strong_lp_certificate(p, form._gram, inside)
    want = _ref_strong_lp_certificate(form, _ref_strong_generator_pool(n, p, 30, seed, form.algebra))
    assert (got is None) == (want is None)
    if want is not None:
        assert positivity_verdict(form, "strong", seed=seed, pool_size=30).yes


def test_full_rank_forms_get_pool_verdicts_in_seconds():
    """At n = 5, p = 2 and pool 2000, a Gram matrix of full rank 10 keeps
    all 2000 pool entries for the pool step: a sum of 12 random strong
    generators is Unknown, a sum of 12 weighted pool entries a Yes.  Each
    verdict must take under 6 s on 2 CPUs."""
    rng = random.Random(5)
    unknown = sum((strong_generator([[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)], 5)
                   for _ in range(12)), LagerbergFiberForm.zero(5, 2, 2))
    rng = random.Random(5)
    yes = sum((fiber._plucker_generator(beta, 5, 2, LagerbergFiberForm).scale(
        Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        for beta, _ in rng.sample(list(strong_generator_pool(5, 2, 2000, 0)), 12)),
        LagerbergFiberForm.zero(5, 2, 2))
    for form, answer in [(unknown, "unknown"), (yes, "yes")]:
        assert len(positivity_verdict(form, "positive").certificate[1]) == 10
        start = time.perf_counter()
        v = positivity_verdict(form, "strong", pool_size=2000)
        elapsed = time.perf_counter() - start
        assert v.answer == answer and reverify(form, v)
        assert elapsed < 6, f"{answer} verdict took {elapsed:.1f} s"


def test_reverify_rejects_conic_terms_that_are_not_their_tags_generators():
    tag = ("coordinate", (0, 1))
    g = strong_generator([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    a = omega_rank_two()            # positive, not strongly positive

    def conic(form, terms):
        return reverify(form, Verdict("strong", "yes", certificate=("conic", terms)))
    assert conic(g, [(1, tag)])
    assert not conic(a, [(1, tag)])                     # a is not the tag's generator
    assert not conic(g.scale(-1), [(-1, tag)])          # lambda <= 0
    # the positive tier's LDL^T terms as Gram-span terms: their vectors are not decomposable
    terms = [(gamma, ("gram_span", alpha))
             for gamma, alpha in positivity_verdict(a, "positive").certificate[1]]
    assert _ref_sums_to(a, (positive_generator(LagerbergFiberForm(
        4, 2, 0, {(K, ()): c for K, c in alpha.items()})).scale(gamma) for gamma, (_, alpha) in terms))
    assert not conic(a, terms)


def test_reverify_rederives_a_kernel_obstruction_from_the_form():
    a = (strong_generator([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
         + strong_generator([(0, 0, 1, 0), (0, 0, 0, 1)], 4))
    for data in ({"basis": [], "quadratic": None},
                 {"basis": [], "quadratics": [(Fraction(1), Fraction(0), Fraction(1))]}):
        assert not reverify(a, Verdict("strong", "no", witness=("kernel_obstruction", data)))
    w = omega_rank_two()
    v = positivity_verdict(w, "strong")
    assert v.no and reverify(w, v)
    # the re-check reads only the form: an emptied witness of a true No still holds
    assert reverify(w, v.replace(witness=("kernel_obstruction", {"basis": [], "quadratic": None})))


def test_reverify_rejects_a_weak_witness_that_is_not_its_tags_generator():
    a = omega_rank_two()
    g, tag = next((g, tag) for g, tag in coordinate_strong_generators(4, 2)
                  if dual_pairing(a, g) > 0)
    assert dual_pairing(a, g.scale(-1)) < 0
    forged = Verdict("weak", "no", witness=("generator", tag, g.scale(-1)))
    assert not reverify(a, forged)
    b = a.scale(-1)
    assert reverify(b, Verdict("weak", "no", witness=("generator", tag, g)))


def test_float_coefficients_are_read_as_their_exact_values():
    a = omega_rank_two()
    f = LagerbergFiberForm(4, 2, 2, {k: float(c) for k, c in a.coeff.items()})
    assert f == a and all(type(c) is Fraction for c in f.coeff.values())
    half = a.scale(0.5)
    assert half == a.scale(Fraction(1, 2)) and all(type(c) is Fraction for c in half.coeff.values())
    tenth = LagerbergFiberForm(2, 1, 1, {((0,), (0,)): 0.1})
    assert tenth.get((0,), (0,)) == Fraction(0.1) != Fraction(1, 10)
    for bad in (float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))):
        cls = ComplexFiberForm if isinstance(bad, complex) else LagerbergFiberForm
        with pytest.raises(ValidationError):
            cls(2, 1, 1, {((0,), (0,)): bad})
        with pytest.raises(ValidationError):
            cls.basis_form(2, (0,), (0,)).scale(bad)


def test_reverify_honours_the_verdicts_tier():
    # omega_rank_two is positive but not strongly positive
    w = omega_rank_two()
    assert not reverify(w, positivity_verdict(w, "positive").replace(tier="strong"))
    assert reverify(w, positivity_verdict(w, "positive").replace(tier="weak"))
    # omega_degenerate is weakly positive but not positive
    d = omega_degenerate()
    assert not reverify(d, positivity_verdict(d, "positive").replace(tier="weak"))
    assert reverify(d, positivity_verdict(d, "positive").replace(tier="strong"))


def test_reverify_is_false_for_the_other_kind_of_object():
    from tropcur.currents import positivity_check
    from tropcur.gallery import tropical_line_current
    T = tropical_line_current()
    cells = positivity_check(T)
    assert cells.yes and cells.certificate[0] == "cells" and reverify(T, cells)
    form = omega_rank_two()
    asymmetric = LagerbergFiberForm(4, 2, 2, {((0, 1), (2, 3)): 1})
    structural = positivity_verdict(asymmetric, "positive")
    assert structural.no and structural.witness is None and reverify(asymmetric, structural)
    assert not reverify(T, positivity_verdict(form, "positive"))
    assert not reverify(form, cells)
    assert not reverify(T, structural)


def test_strong_yes_and_positive_no_build_no_generator(monkeypatch):
    coordinate = [g for g, _ in coordinate_strong_generators(4, 2)]
    coordinate_sum = coordinate[0].scale(Fraction(3, 2)) + coordinate[5] + coordinate[2].scale(2)
    # its LDL^T vectors are not decomposable, so the rank-two solve decides it
    span_sum = (strong_generator([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
                + strong_generator([(1, 0, 1, 0), (0, 1, 0, 1)], 4))
    monkeypatch.setattr(fiber, "positive_generator", _must_not_run)
    for form, tag in ((coordinate_sum, "gram_span"), (span_sum, "gram_span"),
                      (embed_complex(coordinate_sum), "coordinate")):      # the LP's refit
        v = positivity_verdict(form, "strong")
        assert v.yes and {t[0] for _, t in v.certificate[1]} == {tag} and reverify(form, v)
    for tier in ("positive", "strong"):
        v = positivity_verdict(omega_degenerate(), tier)
        assert v.no and v.witness[0] == "evaluation" and reverify(omega_degenerate(), v)


# which tiers each kind of certificate (Yes) or witness (No) proves when
# 2 <= p <= n - 2; for other p the three tiers coincide
_TIERS_PROVED = {
    ("yes", "conic"): {"strong", "positive", "weak"},
    ("yes", "decomposition"): {"positive", "weak"},
    ("yes", "pairing_polynomial_zero"): {"weak"},
    ("yes", "pairing_polynomial_even_positive"): {"weak"},
    ("no", "evaluation"): {"strong", "positive"},
    ("no", "generator"): {"strong", "positive", "weak"},
    ("no", "kernel_obstruction"): {"strong"},
}


def _ref_tag_generator(tag, n, p, cls):
    """The strong generator a conic or generator tag names, built by wedges."""
    kind, data = tag
    if kind == "gram_span":
        alpha = cls(n, p, 0, {(K, ()): c for K, c in data.items()})
        return _ref_positive_generator(alpha) if decomposable_test(alpha) == "yes" else None
    vectors = [[int(j == i) for j in range(n)] for i in data] if kind == "coordinate" else data
    return _ref_strong_generator(vectors, n, cls.algebra)


def _ref_proof_holds(a, v):
    """Whether v's certificate or witness proves its answer about a at its
    tier, with every form built; kernel obstructions, which carry no data
    the check reads, hold when a's own strong verdict is one."""
    data = v.certificate if v.yes else v.witness
    kind, n, p, cls = data[0], a.n, a.p, type(a)
    if v.tier not in _TIERS_PROVED[(v.answer, kind)] and p not in (0, 1, n - 1, n):
        return False
    if kind == "decomposition":
        return _ref_decomposition_holds(a, data[1])
    if kind == "conic":
        gens = [_ref_tag_generator(tag, n, p, cls) for _, tag in data[1]]
        return (all(lam > 0 for lam, _ in data[1]) and None not in gens
                and _ref_sums_to(a, (g.scale(lam) for g, (lam, _) in zip(gens, data[1]))))
    if kind == "evaluation":
        _, x, value = data
        return value < 0 and value == dual_pairing(a, positive_generator(_ref_phi_inverse(x, a)))
    if kind == "generator":
        _, tag, g = data
        return (_ref_tag_generator(tag, n, n - p, cls) == g
                and fiber._negative(dual_pairing(a, g)))
    if kind == "kernel_obstruction":
        strong = positivity_verdict(a, "strong", pool_size=50)
        return strong.no and strong.witness[0] == kind
    poly = _ref_pairing_polynomial(a)
    return poly.is_zero() if kind == "pairing_polynomial_zero" else poly.is_even_nonnegative()


def _mutants(data, v, other):
    """Mutants of the verdict v: every other tier; a lambda or gamma negated
    or zeroed, a term dropped, or a cancelling pair of the term added, which
    keeps the sum; one entry of x or the value perturbed;
    the certificate or witness of ``other`` (same answer) swapped in."""
    out = [v.replace(tier=t) for t in ("strong", "positive", "weak") if t != v.tier]
    if other.answer == v.answer:
        out.append(v.replace(certificate=other.certificate, witness=other.witness))
    if v.yes and v.certificate[0] in ("decomposition", "conic") and v.certificate[1]:
        kind, terms = v.certificate
        t = data.draw(st.integers(0, len(terms) - 1))
        lam, rest = terms[t]
        for changed in ([(-lam, rest)], [(0 * lam, rest)], [], [(lam, rest)] * 2 + [(-lam, rest)]):
            out.append(v.replace(certificate=(kind, terms[:t] + changed + terms[t + 1:])))
    if v.no and v.witness[0] == "evaluation":
        kind, x, value = v.witness
        K = data.draw(st.sampled_from(sorted(x)))
        out += [v.replace(witness=(kind, {**x, K: x[K] + 1}, value)),
                v.replace(witness=(kind, x, value - 1))]
    return out


@st.composite
def _bench_family_forms(draw, n, p, algebra):
    """A form of the benchmark's fiber families at (n, p): a random symmetric
    integer form or a sum of strong generators, and at (4, 2) also a
    positive rational combination of coordinate generators, or
    omega_degenerate or omega_rank_two times a positive rational."""
    families = ["symmetric", "generators"] + (["coordinate", "gallery"] if (n, p) == (4, 2) else [])
    family = draw(st.sampled_from(families))
    if family == "symmetric":
        idx = st.sampled_from(subsets(n, p))
        a = LagerbergFiberForm(n, p, p, draw(st.dictionaries(
            st.tuples(idx, idx), st.integers(-3, 3), min_size=1, max_size=8)))
        form = a + apply_involution("J", a).scale((-1) ** p)
    elif family == "generators":
        vectors = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=p, max_size=p)
        form = LagerbergFiberForm.zero(n, p, p)
        for vecs in draw(st.lists(vectors, min_size=2, max_size=3)):
            form = form + strong_generator(vecs, n)
    elif family == "coordinate":
        gens = [g for g, _ in coordinate_strong_generators(n, p)]
        form = LagerbergFiberForm.zero(n, p, p)
        for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
            form = form + g.scale(draw(_WEIGHTS))
    else:
        form = draw(st.sampled_from([omega_degenerate(), omega_rank_two()])).scale(draw(_WEIGHTS))
    return embed_complex(form) if algebra == "complex" else form


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_reverify_rejects_mutated_verdicts(data):
    """Every verdict of the three tiers on two forms of the benchmark's
    families re-verifies, and each mutant is accepted exactly when the
    form-building reference says it still proves its claim."""
    n, p = data.draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 3)] + [(4, 2)] * 6))
    algebra = data.draw(st.sampled_from(["lagerberg", "lagerberg", "complex"]))
    forms = [data.draw(_bench_family_forms(n, p, algebra)) for _ in range(2)]
    for tier in ("strong", "positive", "weak"):
        verdicts = [positivity_verdict(form, tier, pool_size=50) for form in forms]
        a, v = forms[0], verdicts[0]
        assert reverify(a, v)
        if v.answer == "unknown" or (v.no and v.witness is None):
            continue
        assert _ref_proof_holds(a, v)
        for mutant in _mutants(data, v, verdicts[1]):
            assert reverify(a, mutant) == _ref_proof_holds(a, mutant), mutant


def _malformed(v):
    """Claims of the wrong shape or with inexact scalars, from the positive
    verdict v: each must make reverify answer False, not raise.  The float
    copies hold the same values as the exact ones, since every entry of the
    gallery verdicts is dyadic."""
    def inexact(x, kind):
        if isinstance(x, QC):
            return complex(x) if kind is float else str(x)
        return kind(x)
    out = []
    if v.yes:
        kind, terms = v.certificate
        out += [v.replace(certificate=(kind, [(inexact(g, float), w) for g, w in terms])),
                v.replace(certificate=(kind, [terms[0] + (1,)] + terms[1:])),
                v.replace(certificate=(kind, [terms[0][0]] + terms[1:])),
                v.replace(certificate=(kind, 5))]
        for scalar in (float, str):
            out.append(v.replace(certificate=(kind, [(g, {K: inexact(x, scalar) for K, x in w.items()})
                                                      for g, w in terms])))
        return out
    kind, x, value = v.witness
    out += [v.replace(witness=(kind, x)), v.replace(witness=(kind, x, float(value))),
            v.replace(witness=(kind, list(x.values()), value))]
    for scalar in (float, str):
        out.append(v.replace(witness=(kind, {K: inexact(y, scalar) for K, y in x.items()}, value)))
    return out


@pytest.mark.parametrize("algebra", ["lagerberg", "complex"])
def test_reverify_rejects_malformed_claims(algebra):
    """reverify always answers a bool: a certificate or witness with a float,
    complex or str scalar, a term that is not a (gamma, vector) pair, an
    evaluation witness without its value and a generator witness of the
    wrong shape are each False."""
    for form in (omega_rank_two(), omega_degenerate()):
        a = embed_complex(form) if algebra == "complex" else form
        v = positivity_verdict(a, "positive")
        assert reverify(a, v)
        for mutant in _malformed(v):
            assert reverify(a, mutant) is False, mutant
        for witness in (("generator", ("random",)), ("generator", 7, None), ("generator", ("gram_span", 3), None)):
            assert reverify(a, Verdict("weak", "no", witness=witness)) is False, witness


def test_reverify_rejects_a_form_that_is_not_pp():
    """No positivity verdict is about a form of bidegree (p, q), p != q."""
    a = LagerbergFiberForm(3, 1, 2, {((0,), (0, 1)): 1})
    with pytest.raises(NotSquareBidegree):
        positivity_verdict(a, "positive")
    square = LagerbergFiberForm(3, 1, 1, {((0,), (0,)): 1, ((1,), (2,)): 1})
    for b in (square, square.scale(-1), square + LagerbergFiberForm(3, 1, 1, {((2,), (1,)): 2})):
        v = positivity_verdict(b, "positive")
        assert reverify(b, v) and reverify(a, v) is False


def _ref_gram(a):
    """(indices, N, den) entry by entry over Fraction (QC) scalars:
    N[K][L] = (-1)^{p(p-1)/2} i^{-p} coeff[K,L] den, den the lcm of the
    denominators of every part of every coefficient."""
    p, idx, hermitian = a.p, subsets(a.n, a.p), a.algebra == "complex"
    parts = [Fraction(x) for c in a.coeff.values() for x in ((c.real, c.imag) if hermitian else (c,))]
    den = math.lcm(*(x.denominator for x in parts))
    unit = (-1) ** (p * (p - 1) // 2) * (QC.i_pow(-p) if hermitian else 1)
    N = []
    for K in idx:
        row = []
        for L in idx:
            x = unit * a.coeff.get((K, L), 0) * den
            if hermitian:
                x = QC.of(x)
                assert x.real.denominator == x.imag.denominator == 1
                x = QC(int(x.real), int(x.imag))
            else:
                assert Fraction(x).denominator == 1
                x = int(x)
            row.append(x)
        N.append(tuple(row))
    return tuple(idx), tuple(N), den


def _ref_pairing_terms(a):
    """_pairing_terms as it was: positions from a fresh subsets() list."""
    n, q = a.n, a.n - a.p
    pos = {K: t for t, K in enumerate(subsets(n, q))}
    unit = a._i_pow(-a.p) * (-1) ** (q * (q - 1) // 2)
    return [(c * (unit * sign), pos[K], pos[L])
            for sign, c, K, L in fiber._complementary_terms(a)]


def _ref_tag_vector(tag, n, p, cls):
    """_tag_vector as it was: subsets() and set(subsets()) built per call."""
    kind, data = tag
    S = subsets(n, p)
    if kind == "gram_span":
        if not data.keys() <= set(S):
            return None
        alpha = cls(n, p, 0, {(K, ()): c for K, c in data.items()})
        return [data.get(K, 0) for K in S] if decomposable_test(alpha) == "yes" else None
    if kind == "coordinate":
        data = [[int(j == i) for j in range(n)] for i in data]
    elif kind != "random":
        return None
    fits = len(data) == p and all(len(v) == n for v in data)
    return fiber.plucker_vector(data, n) if fits else None


_FLOATS = st.floats(min_value=-3, max_value=3, allow_nan=False, width=32)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_gram_matches_fraction_reference(data):
    """The one-pass integer Gram matrix of a (p,p)-form, n <= 5, equals the
    entry-by-entry Fraction (QC) reference, for Lagerberg forms with int,
    Fraction or float coefficients and for complex forms; _pairing_terms
    and _tag_vector read the shared per-(n, p) layout and return what the
    subsets()-building versions return."""
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.integers(0, n))
    algebra = data.draw(_ALGEBRAS)
    if algebra == "lagerberg":
        scalar = data.draw(st.sampled_from([st.integers(-5, 5), _FRACTIONS, _FLOATS]))
    else:
        scalar = _SCALARS["complex"]
    keys = st.tuples(st.sampled_from(subsets(n, p)), st.sampled_from(subsets(n, p)))
    a = _CLASSES[algebra](n, p, p, data.draw(st.dictionaries(keys, scalar, max_size=12)))
    idx, N, den = a._gram
    assert (idx, N, den) == _ref_gram(a)
    assert all(type(x) is (QC if algebra == "complex" else int) for row in N for x in row)
    info = fiber._layout.cache_info
    fiber._layout(n, n - p), fiber._layout(n, p)
    hits, misses = info().hits, info().misses
    assert fiber._pairing_terms(a) == _ref_pairing_terms(a)
    assert (info().hits, info().misses) == (hits + 1, misses)
    vectors = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=p, max_size=p)
    tags = [("coordinate", data.draw(st.sampled_from(subsets(n, p)))), ("random", data.draw(vectors)),
            ("other", None)]
    if algebra == "lagerberg":      # only the Lagerberg strong tier names Gram-span generators
        span = st.dictionaries(st.sampled_from(subsets(n, p) + [(n,) * p]), _FRACTIONS, max_size=4)
        tags.append(("gram_span", data.draw(span)))
    for tag in tags:
        hits = info().hits
        assert fiber._tag_vector(tag, n, p, type(a)) == _ref_tag_vector(tag, n, p, type(a))
        assert info().hits == hits + (tag[0] == "gram_span")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([(4, 2), (5, 2), (5, 3)]))
def test_pairing_polynomial_matches_chained_merges(data, case):
    n, p = case
    a = data.draw(_sparse_form(n, p, p, "lagerberg"))
    assert repr(a._pairing_polynomial) == repr(_ref_pairing_polynomial(a))


def test_weak_verdict_and_reverify_build_the_pairing_polynomial_once(monkeypatch):
    """A weak verdict and its reverify build a form's pairing polynomial at
    most once between them: once for a polynomial Yes, once for a No that a
    random pool entry proves, and never for a No from a coordinate entry."""
    calls = []
    build = fiber._FiberForm._pairing_polynomial.func

    def counted(a):
        calls.append(a)
        return build(a)
    monkeypatch.setattr(fiber._FiberForm._pairing_polynomial, "func", counted)
    S = subsets(4, 2)

    def form(*terms):
        return LagerbergFiberForm(4, 2, 2, {(S[i], S[j]): c for i, j, c in terms})
    cases = [(omega_degenerate().scale(Fraction(3, 7)), ("yes", "pairing_polynomial_zero"), 1),
             (form((4, 1, 2), (0, 4, -1), (1, 4, 2), (4, 0, -1)), ("no", "random"), 1),
             (form((2, 0, -2), (3, 3, 4), (0, 2, -2)), ("no", "coordinate"), 0)]
    for a, (answer, kind), built in cases:
        calls.clear()
        v = positivity_verdict(a, "weak")
        assert v.answer == answer
        assert (v.certificate[0] if v.yes else v.witness[1][0]) == kind
        assert reverify(a, v)
        assert len(calls) == built and all(b is a for b in calls), (kind, len(calls))


def test_weak_no_builds_only_its_witness(monkeypatch):
    calls = []
    build = fiber.positive_generator

    def counted(alpha):
        calls.append(alpha)
        return build(alpha)
    monkeypatch.setattr(fiber, "positive_generator", counted)
    form = omega_rank_two().scale(-1)
    v = positivity_verdict(form, "weak")
    assert v.no and v.witness[0] == "generator"
    assert len(calls) == 1 and v.witness[2] == build(calls[0])


def _as_python_complex(form):
    return ComplexFiberForm(form.n, form.p, form.q,
                            {k: complex(c) for k, c in form.coeff.items()})


def test_python_complex_coefficients():
    # a Python complex coefficient is read as the QC of its exact parts
    a = ComplexFiberForm(2, 1, 1, {((0,), (0,)): 1.5 - 0.1j})
    assert a.get((0,), (0,)) == QC(Fraction(3, 2), Fraction(-0.1))
    assert a == ComplexFiberForm(2, 1, 1, {((0,), (0,)): QC(Fraction(3, 2), Fraction(-0.1))})
    assert a.scale(2j).get((0,), (0,)) == QC(2 * Fraction(0.1), 3)
    # every tier and its re-check: the weakly positive degenerate form, and the
    # negated rank-two form, whose weak No carries a complex negative pairing
    for exact_form in (embed_complex(omega_degenerate()),
                       embed_complex(omega_rank_two()).scale(-1)):
        f = _as_python_complex(exact_form)
        for tier in ("positive", "strong", "weak"):
            v = positivity_verdict(f, tier, pool_size=50)
            assert v.answer == positivity_verdict(exact_form, tier, pool_size=50).answer
            assert reverify(f, v), (tier, v)


# --- immutable forms: derived data is computed once and cannot go stale -------------

def test_forms_are_immutable():
    a = omega_rank_two()
    with pytest.raises(TypeError):
        a.coeff[((0, 1), (0, 1))] = 5
    with pytest.raises(AttributeError):
        a.coeff = {}
    assert a == omega_rank_two()


def test_derived_forms_compute_their_own_gram():
    a = omega_rank_two()
    assert positivity_verdict(a, "positive").yes      # caches a's Gram matrix
    b = LagerbergFiberForm(4, 2, 2, {((0, 1), (0, 1)): Fraction(1, 3)})
    for derived in (a.scale(-2), a + b, a - b, a - a, a._new(2, 2, {((0, 2), (0, 2)): 7})):
        assert "_gram" not in vars(derived)
        assert derived._gram == LagerbergFiberForm(4, 2, 2, dict(derived.coeff))._gram
    assert positivity_verdict(a.scale(-2), "positive").no


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_cached_gram_decides_as_a_fresh_form(data):
    """A form whose Gram matrix a verdict has cached gives every verdict, and
    re-checks it and each mutant of test_reverify_rejects_mutated_verdicts,
    as a form freshly built from the same coefficients does."""
    n, p = data.draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 3)] + [(4, 2)] * 6))
    algebra = data.draw(st.sampled_from(["lagerberg", "lagerberg", "complex"]))
    used, other = (data.draw(_bench_family_forms(n, p, algebra)) for _ in range(2))
    positivity_verdict(used, "positive")
    assert "_gram" in vars(used)

    def fresh():
        return type(used)(used.n, used.p, used.q, dict(used.coeff))
    for tier in ("strong", "positive", "weak"):
        v = positivity_verdict(used, tier, pool_size=50)
        assert repr(v) == repr(positivity_verdict(fresh(), tier, pool_size=50))
        mutants = [v]
        if v.answer != "unknown" and not (v.no and v.witness is None):
            mutants += _mutants(data, v, positivity_verdict(other, tier, pool_size=50))
        for mutant in mutants:
            assert reverify(used, mutant) == reverify(fresh(), mutant), mutant


def test_verdict_and_reverify_clear_the_gram_once(monkeypatch):
    """positivity_verdict then reverify, at each tier, clears the form's
    coefficients into its integer Gram matrix exactly once."""
    calls = []
    build = fiber._FiberForm._gram.func

    def counted(a):
        calls.append(a)
        return build(a)
    monkeypatch.setattr(fiber._FiberForm._gram, "func", counted)

    def coordinate_sum():
        coordinate = [g for g, _ in coordinate_strong_generators(4, 2)]
        return coordinate[0].scale(Fraction(3, 2)) + coordinate[5] + coordinate[2].scale(2)

    def span_sum():
        return (strong_generator([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
                + strong_generator([(1, 0, 1, 0), (0, 1, 0, 1)], 4))
    for make in (coordinate_sum, span_sum, omega_degenerate):
        for tier in ("positive", "strong", "weak"):
            a = make()
            calls.clear()
            assert reverify(a, positivity_verdict(a, tier))
            assert len(calls) == 1 and calls[0] is a, (make.__name__, tier, len(calls))


def test_adding_forms_checks_algebra_dimension_and_bidegree():
    """Forms of another algebra, dimension or bidegree are typed errors, not
    an assert: a sum with n = 3 holding index 3 used to reach
    positivity_verdict and raise KeyError there."""
    a = LagerbergFiberForm(3, 1, 1, {((0,), (0,)): 1})
    with pytest.raises(DimensionMismatch):
        a + LagerbergFiberForm(4, 1, 1, {((3,), (3,)): 1})
    with pytest.raises(WrongAlgebra):
        a + ComplexFiberForm(3, 1, 1, {((0,), (0,)): 1})
    with pytest.raises(BidegreeMismatch):
        a + LagerbergFiberForm(3, 1, 0, {((0,), ()): 1})
    with pytest.raises(BidegreeMismatch):
        a - LagerbergFiberForm(3, 2, 2, {((0, 1), (0, 1)): 1})
    assert positivity_verdict(a + a, "positive").yes
