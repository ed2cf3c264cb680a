import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropcur import exact
from tropcur.errors import Verdict
from tropcur.exact import QC


def test_det_and_solve():
    assert exact.det([[1, 2], [3, 4]]) == -2
    assert exact.solve([[1, 2], [3, 4]], [5, 6]) == (Fraction(-4), Fraction(9, 2))
    assert exact.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_nullspace():
    ns = exact.nullspace([[1, 1, 0], [0, 0, 1]])
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v[2] == 0


def test_primitive():
    assert exact.primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert exact.primitive((0, 0)) == (0, 0)


def test_extend_to_basis_deterministic():
    basis = exact.extend_to_basis([(0, 1)], 2)
    assert basis == [(0, 1), (1, 0)]
    basis = exact.extend_to_basis([(-1, -1), (1, 0)], 2)
    assert basis == [(-1, -1), (1, 0)]
    with pytest.raises(ValueError):
        exact.extend_to_basis([(1, 0), (1, 2)], 2)  # index-2 sublattice


@pytest.mark.parametrize("gens", [[(0, 0)], [(1, 0), (2, 0)], [(1, 2, 3), (0, 1, 1), (1, 3, 4)],
                                  [(1, 0), (0, 1), (1, 1)]])
def test_extend_to_basis_refuses_dependent_generators(gens):
    with pytest.raises(ValueError):
        exact.extend_to_basis(gens, len(gens[0]))


@pytest.mark.parametrize("gens", [[(2, 5, 0)], [(3, 7, 2)], [(1, 1, 1), (0, 1, 3)],
                                  [(6, 10, 15)], [(2, 5, 0, 7), (1, 2, 0, 3)]])
def test_extend_to_basis_beyond_standard_vectors(gens):
    # no standard basis vector completes (2, 5, 0): the Hermite form does
    basis = exact.extend_to_basis(gens, len(gens[0]))
    assert basis[:len(gens)] == gens
    assert all(isinstance(x, int) for v in basis for x in v)
    assert abs(exact.det(basis)) == 1


_INT_MATRICES = st.integers(1, 3).flatmap(lambda r: st.integers(r + 1, 5).flatmap(
    lambda k: st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                       min_size=r, max_size=r)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_INT_MATRICES)
def test_integer_kernel_basis_is_saturated(mat):
    basis = exact.integer_kernel_basis(mat)
    assert len(basis) == len(mat[0]) - exact.rank(mat)
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in mat for v in basis)
    assert not basis or (exact.rank(basis) == len(basis) and exact.lattice_saturated(basis))


def test_integer_kernel_basis_of_an_index_three_hyperplane():
    # the primitive Hermite columns (1,0,0,-1), (0,3,0,2), (0,0,3,4) span index 3
    basis = exact.integer_kernel_basis([[3, -2, -4, 3]])
    assert exact.lattice_saturated(basis) and len(basis) == 3
    assert exact.integer_kernel_basis([[1, 1, 0], [0, 0, 1]]) == [(1, -1, 0)]


def test_rref_solve_rank_nullspace_agree():
    m = [[0, 2, 4, 2], [1, 1, 1, 0], [1, 3, 5, 2]]
    a, pivots = exact.rref(m)
    assert pivots == [0, 1] and a[2] == [0, 0, 0, 0]
    assert a[:2] == [[1, 0, -1, -1], [0, 1, 2, 1]]
    assert exact.rank(m) == 2
    for v in exact.nullspace(m):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
    assert len(exact.nullspace(m)) == 2
    x = exact.solve(m, [2, 1, 3])
    assert x == (0, 1, 0, 0)
    assert exact.solve(m, [2, 1, 4]) is None
    inv = exact.inverse([[2, 5, 0], [1, 2, 0], [0, 0, 1]])
    prod = np.array(inv, dtype=object) @ np.array([[2, 5, 0], [1, 2, 0], [0, 0, 1]], dtype=object)
    assert prod.tolist() == np.identity(3, dtype=int).tolist()


def test_lattice_saturation():
    assert exact.lattice_saturated([(1, 0), (0, 1)])
    assert not exact.lattice_saturated([(2, 0)])
    assert exact.lattice_saturated([(2, 1)])


@st.composite
def _integer_rows(draw):
    """One to n + 1 integer rows in Z^n, n <= 5; a fifth of them with a dependent last row."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n + 1))
    rows = [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(k)]
    if k > 1 and draw(st.integers(0, 4)) == 0:
        c0, c1 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = tuple(c0 * a + c1 * b for a, b in zip(rows[0], rows[k - 2]))
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_integer_rows())
def test_lattice_saturation_matches_gcd_of_maximal_minors(rows):
    k, n = len(rows), len(rows[0])
    g = 0
    for sel in itertools.combinations(range(n), k):
        g = math.gcd(g, abs(int(exact.det([[row[j] for j in sel] for row in rows]))))
    assert exact.lattice_saturated(rows) == (g == 1)


def _dense(v, n):
    """A vector {i: v_i} of psd_decompose, keyed by position, as a list."""
    return [v.get(i, 0) for i in range(n)]


def test_psd_decompose_yes():
    m = [[2, 1], [1, 1]]
    terms, witness, _ = exact.psd_decompose(m)
    assert witness is None and len(terms) == 2
    # reconstruct the matrix from the certificate
    rec = [[Fraction(0)] * 2 for _ in range(2)]
    for g, v in terms:
        assert g > 0
        v = _dense(v, 2)
        for i in range(2):
            for j in range(2):
                rec[i][j] += g * v[i] * v[j]
    assert rec == [[2, 1], [1, 1]]


def test_psd_decompose_semidefinite_rank():
    m = [[1, 1], [1, 1]]
    terms, witness, _ = exact.psd_decompose(m)
    assert witness is None and len(terms) == 1


def test_psd_decompose_no_witness():
    m = [[0, 1], [1, 0]]
    terms, w, _ = exact.psd_decompose(m)
    assert terms is None
    val = sum(w[i] * m[i][j] * w[j] for i in range(2) for j in range(2))
    assert val < 0

    m2 = [[1, 2], [2, 1]]
    terms, w, _ = exact.psd_decompose(m2)
    assert terms is None
    val = sum(w[i] * m2[i][j] * w[j] for i in range(2) for j in range(2))
    assert val < 0


def _conj(x):
    return x.conjugate() if isinstance(x, QC) else x


@st.composite
def _hermitian_matrices(draw):
    """A symmetric rational or Hermitian QC matrix, up to 5 x 5.

    Half are sums of rank-one v conj(v)^T, so PSD; the rest have random
    entries and are mostly not PSD.
    """
    n = draw(st.integers(1, 5))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    hermitian = draw(st.booleans())
    scalar = st.builds(QC, rational, rational) if hermitian else rational
    zero = QC(0) if hermitian else Fraction(0)
    m = [[zero] * n for _ in range(n)]
    if draw(st.booleans()):
        for v in draw(st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=3)):
            for i in range(n):
                for j in range(n):
                    m[i][j] = m[i][j] + v[i] * _conj(v[j])
    else:
        for i in range(n):
            m[i][i] = draw(rational) + zero
            for j in range(i):
                m[i][j] = draw(scalar)
                m[j][i] = _conj(m[i][j])
    return m


@st.composite
def _low_rank_matrices(draw):
    """An integer or Gaussian-integer (QC) matrix up to 10 x 10 of rank one
    or two, sum s v conj(v)^T over one or two vectors with many zero
    entries, each sign s +1, or -1 for the last one in a third of them:
    the peeling pivots once or twice and leaves a large zero live block, or
    ends at a negative pivot.  In half of them a nonzero entry joins two
    indices where every vector vanishes, so that the peeling ends at a zero
    live diagonal with that entry off it, often after earlier pivots."""
    n = draw(st.integers(1, 10))
    hermitian = draw(st.booleans())
    integer = st.one_of(st.just(0), st.integers(-3, 3))
    scalar = st.builds(QC, integer, integer) if hermitian else integer
    zero = QC(0) if hermitian else 0
    m = [[zero] * n for _ in range(n)]
    vectors = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), min_size=1, max_size=2))
    signs = [1] * (len(vectors) - 1) + [draw(st.sampled_from([1, 1, -1]))]
    for s, v in zip(signs, vectors):
        for i in range(n):
            for j in range(n):
                m[i][j] = m[i][j] + s * v[i] * _conj(v[j])
    idle = [i for i in range(n) if not any(v[i] for v in vectors)]
    if len(idle) > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.sampled_from(idle), min_size=2, max_size=2, unique=True)))
        m[i][j] = draw(scalar.filter(bool))
        m[j][i] = _conj(m[i][j])
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_hermitian_matrices())
def test_psd_decompose_certificate_or_witness(m):
    n = len(m)
    terms, w, value = exact.psd_decompose(m)
    if w is None:
        rec = [[0] * n for _ in range(n)]
        for gamma, v in terms:
            assert gamma > 0
            v = _dense(v, n)
            for i in range(n):
                for j in range(n):
                    rec[i][j] = rec[i][j] + gamma * v[i] * _conj(v[j])
        assert rec == m
        assert exact.gram_holds(m, 1, terms)
    else:
        val = QC.of(sum(_conj(w[i]) * m[i][j] * w[j] for i in range(n) for j in range(n)))
        assert val.imag == 0 and val.real < 0
        assert value == val and exact.gram_holds(m, 1, witness=(w, value))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_hermitian_matrices(), _low_rank_matrices()), st.data())
def test_gram_holds_matches_fraction_reference(m, data):
    """gram_holds on m / k agrees with Fraction (QC) arithmetic: on the
    LDL^T's own certificate or witness, and on drawn terms (gamma <= 0
    included) or a drawn x and value.  Some m are made asymmetric below the
    diagonal after the LDL^T, so that its terms match their upper triangle
    only: gram_holds must say False."""
    n = len(m)
    k = data.draw(st.integers(1, 4))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    scalar = st.builds(QC, rational, rational) if isinstance(m[0][0], QC) else rational
    vector = st.lists(scalar, min_size=n, max_size=n).map(lambda v: dict(enumerate(v)))
    terms, witness, _ = exact.psd_decompose(m)
    terms = terms or []
    if data.draw(st.booleans()) or not terms:
        terms = data.draw(st.lists(st.tuples(rational, vector), max_size=3))
    elif n > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(1, n - 1))
        m = [list(row) for row in m]
        m[i][data.draw(st.integers(0, i - 1))] += data.draw(st.sampled_from([1, -1, QC(0, 1)]))
        assert not exact.gram_holds(m, 1, terms)
    scaled = [[x * k for x in row] for row in m]
    rec = [[0] * n for _ in range(n)]
    for gamma, v in terms:
        v = _dense(v, n)
        for i in range(n):
            for j in range(n):
                rec[i][j] = rec[i][j] + gamma * v[i] * _conj(v[j])
    holds = all(gamma > 0 for gamma, _ in terms) and rec == m
    assert exact.gram_holds(scaled, k, terms) == holds
    x = witness if witness and data.draw(st.booleans()) else data.draw(vector)
    val = QC.of(sum(_conj(x[i]) * m[i][j] * x[j] for i in range(n) for j in range(n)))
    value = val.real + data.draw(st.sampled_from([0, 0, -1, 1]))
    holds = val.imag == 0 and value == val.real < 0
    assert exact.gram_holds(scaled, k, witness=(x, value)) == holds


# --- reference: the LDL^T of psd_decompose on Fraction / QC scalars ----------------

def _ref_psd_decompose(m):
    """(psd, rank, decomposition, witness) by rank-one peeling over Fraction
    (or QC) scalars: the routine psd_decompose replaced with a fraction-free
    one, which must peel the same pivots and emit the same data."""
    n = len(m)
    hermitian = any(isinstance(x, QC) for row in m for x in row)
    of = QC.of if hermitian else Fraction
    a = [[of(x) for x in row] for row in m]
    zero, one = of(0), of(1)
    decomp, pivots, active = [], [], list(range(n))

    def orthogonalize(x):
        x = list(x)
        for d, (_, v) in reversed(list(zip(pivots, decomp))):
            x[d] = x[d] - sum((_conj(vi) * xi for vi, xi in zip(v, x)), zero)
        return tuple(x)

    while active:
        d = next((i for i in active if a[i][i]), None)
        if d is None:
            for i in active:
                for j in active:
                    if i != j and a[i][j]:
                        x = [zero] * n
                        if hermitian:
                            x[i], x[j] = -a[i][j], one
                        else:
                            x[i], x[j] = one, (-one if a[i][j] > 0 else one)
                        return False, 0, None, orthogonalize(x)
            break
        alpha = a[d][d].real if hermitian else a[d][d]
        if alpha < 0:
            x = [zero] * n
            x[d] = one
            return False, 0, None, orthogonalize(x)
        v = tuple(a[i][d] * of(1 / Fraction(alpha)) for i in range(n))
        decomp.append((alpha, v))
        pivots.append(d)
        cv = [_conj(x) for x in v]
        for i in range(n):
            if v[i]:
                f = alpha * v[i]
                a[i] = [x - f * y for x, y in zip(a[i], cv)]
        active.remove(d)
    return True, len(decomp), decomp, None


def _keyed(ref, idx):
    """(terms, witness) of _ref_psd_decompose keyed over idx, as psd_decompose
    returns them: each term's vector over its nonzero entries, the witness
    over every key, in idx order."""
    psd, _, decomp, witness = ref
    if psd:
        return [(gamma, {K: x for K, x in zip(idx, v) if x}) for gamma, v in decomp], None
    return None, dict(zip(idx, witness))


# --- reference: Gauss-Jordan elimination on Fraction scalars -----------------------

def _ref_det(m):
    """Determinant by Gaussian elimination over Fraction: the routine det
    replaced with the fraction-free elimination it shares with rref."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign, out = 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        out *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return sign * out


def _ref_rref(m, cols=None):
    """(a, pivots) by Gauss-Jordan elimination over Fraction, pivots sought
    in the first ``cols`` columns: the routine rref replaced."""
    a = [[Fraction(x) for x in row] for row in m]
    if cols is None:
        cols = len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@st.composite
def _elimination_cases(draw):
    """(m, cols): an r x k matrix, r <= 6 and k <= 7, of small integers,
    fractions or floats, often with zero entries, a third of them with a row
    that is a combination of two others; cols is all k columns, or fewer, so
    that the rest ride along as for an augmented matrix."""
    r, k = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    scalar = draw(st.sampled_from([st.integers(-4, 4),
                                   st.fractions(min_value=-3, max_value=3, max_denominator=6),
                                   st.floats(-3, 3, width=16)]))
    m = [draw(st.lists(st.one_of(st.just(0), scalar), min_size=k, max_size=k)) for _ in range(r)]
    if r > 2 and draw(st.integers(0, 2)) == 0:
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[draw(st.integers(2, r - 1))] = [s * x + t * y for x, y in zip(m[0], m[1])]
    return m, draw(st.one_of(st.none(), st.integers(0, k)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_elimination_cases())
def test_elimination_matches_fraction_reference(case):
    """rref's pivots and pivot rows and det's value agree with Fraction
    Gauss-Jordan elimination, and the rows past the pivots are zero in the
    first ``cols`` columns, with the same zero entries in the others."""
    m, cols = case
    got, pivots = exact.rref(m, cols)
    want, want_pivots = _ref_rref(m, cols)
    assert pivots == want_pivots and got[:len(pivots)] == want[:len(pivots)]
    k = len(m[0]) if m else 0
    width = k if cols is None else cols
    for row, ref in zip(got[len(pivots):], want[len(pivots):]):
        assert not any(row[:width])
        assert [x == 0 for x in row] == [x == 0 for x in ref]
    if len(m) <= k:
        square = [row[:len(m)] for row in m]
        assert exact.det(square) == _ref_det(square)


@st.composite
def _ldl_cases(draw):
    """(m, k): a symmetric rational or Hermitian QC matrix up to 6 x 6 and a
    positive integer k.  The matrix is PSD (a sum of up to n + 1 rank-one
    terms v conj(v)^T, so often rank-deficient, with zero rows where every v
    vanishes), indefinite (random entries), or has a zero diagonal."""
    n = draw(st.integers(1, 6))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    hermitian = draw(st.booleans())
    scalar = st.builds(QC, rational, rational) if hermitian else rational
    zero = QC(0) if hermitian else Fraction(0)
    entry = st.one_of(st.just(zero), scalar)
    m = [[zero] * n for _ in range(n)]
    kind = draw(st.sampled_from(["psd", "indefinite", "zero diagonal"]))
    if kind == "psd":
        for v in draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1)):
            for i in range(n):
                for j in range(n):
                    m[i][j] = m[i][j] + v[i] * _conj(v[j])
    else:
        for i in range(n):
            if kind == "indefinite":
                m[i][i] = draw(rational) + zero
            for j in range(i):
                m[i][j] = draw(entry)
                m[j][i] = _conj(m[i][j])
    return m, draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_ldl_cases(), st.tuples(_low_rank_matrices(), st.integers(1, 12))))
def test_psd_decompose_matches_fraction_reference(case):
    m, k = case
    want = _keyed(_ref_psd_decompose(m), range(len(m)))
    scaled = [[x * k for x in row] for row in m]
    for terms, witness, _ in (exact.psd_decompose(m), exact.psd_decompose(scaled, k)):
        assert (terms, witness) == want
        assert all(type(gamma) is Fraction for gamma, _ in terms or ())



@st.composite
def _integer_cases(draw):
    """(N, den, broken): a symmetric integer or Hermitian matrix of QC with
    integer parts up to 6 x 6, PSD (a sum of rank-one terms), indefinite or
    with a zero diagonal, and den in 2..12; when ``broken``, one entry was
    changed so that N is not symmetric (resp. Hermitian)."""
    n = draw(st.integers(1, 6))
    hermitian = draw(st.booleans())
    integer = st.integers(-4, 4)
    scalar = st.builds(QC, integer, integer) if hermitian else integer
    zero = QC(0) if hermitian else 0
    entry = st.one_of(st.just(zero), scalar)
    N = [[zero] * n for _ in range(n)]
    kind = draw(st.sampled_from(["psd", "indefinite", "zero diagonal"]))
    if kind == "psd":
        for v in draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1)):
            for i in range(n):
                for j in range(n):
                    N[i][j] = N[i][j] + v[i] * _conj(v[j])
    else:
        for i in range(n):
            if kind == "indefinite":
                N[i][i] = draw(integer) + zero
            for j in range(i):
                N[i][j] = draw(entry)
                N[j][i] = _conj(N[i][j])
    broken = (hermitian or n > 1) and draw(st.booleans())
    if broken:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if hermitian or i != j]))
        N[i][j] = N[i][j] + (QC(0, 1) if hermitian else 1)
    return N, draw(st.integers(2, 12)), broken


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_cases(), st.data())
def test_integer_matrix_is_taken_as_it_is(case, data):
    """psd_decompose(N, den) and gram_holds(N, den, ...) on an integer matrix,
    which no pass clears again, agree with the Fraction (QC) matrix N / den:
    the same decomposition, witness and value, the same answer on the
    LDL^T's own claim and on drawn ones, and ValueError when N is not
    symmetric (resp. Hermitian)."""
    N, den, broken = case
    hermitian = isinstance(N[0][0], QC)
    M = [[QC(Fraction(x.real, den), Fraction(x.imag, den)) if hermitian else Fraction(x, den)
          for x in row] for row in N]
    flat = [x for row in N for x in row]
    assert exact.integer_parts(flat)[0] == 1
    if broken:
        for mat, d in ((N, den), (M, 1)):
            with pytest.raises(ValueError):
                exact.psd_decompose(mat, d)
        return
    got, want = exact.psd_decompose(N, den), exact.psd_decompose(M)
    assert got == want
    n = len(N)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(st.builds(QC, rational, rational) if hermitian else rational,
                      min_size=n, max_size=n).map(lambda v: dict(enumerate(v)))
    terms, witness, value = want
    claims = [{"terms": terms} if witness is None else {"witness": (witness, value)},
              {"terms": data.draw(st.lists(st.tuples(rational, vector), max_size=3))},
              {"witness": (data.draw(vector), data.draw(rational))}]
    for claim in claims:
        assert exact.gram_holds(N, den, **claim) == exact.gram_holds(M, 1, **claim)
    assert exact.gram_holds(N, den, **claims[0])


def _quadratic(x, m):
    """conj(x)^T m x for x = {i: x_i} over m's positions, exactly."""
    return QC.of(sum((_conj(x.get(i, 0)) * m[i][j] * x.get(j, 0)
                      for i in range(len(m)) for j in range(len(m))), 0))


def _ref_verdict(idx, m):
    """The positive-tier Verdict about m over idx, from _ref_psd_decompose."""
    terms, witness = _keyed(_ref_psd_decompose(m), idx)
    if witness is None:
        return Verdict("positive", "yes", certificate=("decomposition",
                                                       [(Fraction(g), v) for g, v in terms]))
    x = dict(enumerate(witness.values()))
    return Verdict("positive", "no", witness=("evaluation", witness, Fraction(_quadratic(x, m).real)),
                   reason="Gram form not PSD")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ldl_cases(), st.data())
def test_gram_verdict_matches_the_keyed_reference(case, data):
    """gram_verdict keys its certificate off the pivot rows: on m / den over a
    drawn idx it is the Verdict of _ref_psd_decompose of m, each term over its
    nonzero entries and the evaluation witness over every key in idx order,
    with the same scalar types.  gram_claim_holds accepts that claim, and
    rejects it with an entry doubled (resp. moved off the witness), a gamma
    (resp. the value) negated, or a key replaced by one outside idx."""
    m, den = case
    n = len(m)
    idx = data.draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                             min_size=n, max_size=n, unique=True))
    scaled = [[x * den for x in row] for row in m]
    v = exact.gram_verdict(idx, scaled, den)
    want = _ref_verdict(idx, m)
    assert v == want and repr(v) == repr(want)
    data_ = v.certificate if v.yes else v.witness
    assert exact.gram_claim_holds(idx, scaled, den, data_)
    outside = (10, 10)
    if v.yes and not data_[1]:      # M = 0: no term; one over a key outside idx fails
        assert not exact.gram_claim_holds(idx, scaled, den, ("decomposition", [(1, {outside: 1})]))
    elif v.yes:
        terms = data_[1]
        t = data.draw(st.integers(0, len(terms) - 1))
        gamma, vec = terms[t]
        K = data.draw(st.sampled_from(sorted(vec)))
        mutants = [{**vec, K: 2 * vec[K]}, {(outside if L == K else L): x for L, x in vec.items()}]
        for mutant in mutants:
            claim = ("decomposition", terms[:t] + [(gamma, mutant)] + terms[t + 1:])
            assert not exact.gram_claim_holds(idx, scaled, den, claim)
        claim = ("decomposition", terms[:t] + [(-gamma, vec)] + terms[t + 1:])
        assert not exact.gram_claim_holds(idx, scaled, den, claim)
    else:
        _, x, value = data_
        K = data.draw(st.sampled_from(idx))
        moved = {**x, K: x[K] + 1}
        q = _quadratic({idx.index(L): y for L, y in moved.items()}, m)
        assert exact.gram_claim_holds(idx, scaled, den, ("evaluation", moved, value)) == (q == value)
        assert not exact.gram_claim_holds(idx, scaled, den, ("evaluation", x, -value))
        rekeyed = {(outside if L == K else L): y for L, y in x.items()}
        assert not exact.gram_claim_holds(idx, scaled, den, ("evaluation", rekeyed, value))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.sampled_from([0, 0, Fraction(1, 2), -1]), st.data())
def test_qc_hashes_as_the_numbers_it_equals(x, y, data):
    """Whenever QC(x, y) == z, hash(QC(x, y)) == hash(z), for z an int, a
    Fraction or a QC, and == is symmetric: a real QC hashes as its real part."""
    q = QC(x, y)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    near = [x, Fraction(x), QC(Fraction(x), Fraction(y)), QC(x, y) + 0]
    if x.denominator == 1:
        near += [int(x), QC(int(x), y)]
    drawn = data.draw(st.one_of(st.integers(-3, 3), rational, st.builds(QC, rational, rational)))
    for z in near + [drawn]:
        assert (q == z) == (z == q)
        if q == z:
            assert hash(q) == hash(z)
    assert (y == 0) == (len({q, x}) == 1) == (x in {q})
    assert q != str(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-9, 9).filter(bool),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any))
def test_gaussian_integers_follow_the_number_protocol(a, b, k, parts):
    g, h = QC(a, b), QC(*parts)
    assert (g.real, g.imag) == (a, b) and g.conjugate() == QC(a, -b)
    assert g.conjugate().conjugate() == g and (g * k) // k == g
    for x in (a, g):                    # // by a Gaussian integer, for int // QC too
        assert (x * h) // h == x
    assert (a * (h * h.conjugate()).real) // h == a * h.conjugate()
    for x in (a, Fraction(a, k)):      # int and Fraction read the same names
        assert (x.real, x.imag, x.conjugate()) == (x, 0, x)


@st.composite
def _low_rank_products(draw):
    """(m, gaussian): an m x k matrix, m, k <= 5, of rank at most r <= 3, the
    product of random m x r and r x k factors with entries that are often
    zero: Gaussian integers (QC), or else integers and fractions."""
    rows, k, r = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    gaussian = draw(st.booleans())
    small = st.one_of(st.just(0), st.integers(-3, 3))
    entry = (st.builds(QC, small, small) if gaussian
             else st.one_of(small, st.fractions(min_value=-2, max_value=2, max_denominator=3)))
    left = [[draw(entry) for _ in range(r)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(k)] for _ in range(r)]
    return [[sum(map(operator.mul, row, col), QC(0) if gaussian else 0) for col in zip(*right)]
            for row in left], gaussian


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_low_rank_products())
def test_rank_over_q_i_is_half_the_realified_rank(case):
    """exact.rank of a Gaussian-integer matrix A + iB is half the rank of the
    real [[A, -B], [B, A]]; of a rational matrix, the pivot count of rref."""
    m, gaussian = case
    if gaussian:
        A = [[x.real for x in row] for row in m]
        B = [[x.imag for x in row] for row in m]
        realified = ([a + [-x for x in b] for a, b in zip(A, B)] + [b + a for a, b in zip(A, B)])
        assert 2 * exact.rank(m) == exact.rank(realified)
    else:
        assert exact.rank(m) == len(exact.rref(m)[1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_integer_cases())
def test_real_matrix_decides_alike_over_q_and_q_i(case):
    """A symmetric integer matrix and the same matrix with QC entries run one
    integer path: the same PSD answer, rank and decomposition, and each
    result's own claim holds against both matrices.  The witnesses are not
    compared: the two zero-diagonal formulas differ by design."""
    N, den, _ = case
    # the real parts, made symmetric from the upper triangle
    N = [[N[min(i, j)][max(i, j)].real for j in range(len(N))] for i in range(len(N))]
    NQ = [[QC(x) for x in row] for row in N]
    real, gauss = exact.psd_decompose(N, den), exact.psd_decompose(NQ, den)
    assert real[0] == gauss[0]
    for terms, witness, value in (real, gauss):
        claim = {"terms": terms} if witness is None else {"witness": (witness, value)}
        assert exact.gram_holds(N, den, **claim) and exact.gram_holds(NQ, den, **claim)


def test_sturm():
    # (x-1)(x-2)(x-3)
    p = [-6, 11, -6, 1]
    assert exact.sturm_roots_in(p, Fraction(0), Fraction(4)) == 3
    assert exact.sturm_roots_in(p, Fraction(0), Fraction(5, 2)) == 2
    assert exact.sturm_roots_in(p, None, None) == 3
    assert exact.sturm_roots_in([1, 0, 1], None, None) == 0  # x^2 + 1


def test_hnf_columns():
    h, u = exact.hnf_columns([[2, 4], [1, 3]])
    assert abs(exact.det(u)) == 1
    # h = mat @ u
    mat = [[2, 4], [1, 3]]
    prod = [[sum(mat[i][k] * u[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == h
