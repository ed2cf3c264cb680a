import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tropcur import exact
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


def _lp_feasible(m, rhs):
    """Whether m x = rhs has a solution x >= 0, by scipy's float LP."""
    from scipy.optimize import linprog
    cols = len(m[0])
    res = linprog(np.zeros(cols), A_eq=np.array(m, dtype=float), b_eq=np.array(rhs, dtype=float),
                  bounds=[(0, None)] * cols, method="highs")
    assert res.status in (0, 2)         # solved or infeasible
    return res.status == 0


def _is_nonnegative_solution(x, m, rhs):
    return (len(x) == len(m[0]) and all(v >= 0 for v in x)
            and all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(m, rhs)))


@st.composite
def _integer_systems(draw):
    """m x = rhs with small integer entries; repeated columns and zero
    right-hand sides make degenerate pivots."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row.append(row[j])
    return m, draw(st.lists(st.sampled_from([0, 0, -2, -1, 1, 2, 5]), min_size=rows, max_size=rows))


def _pool_system(n, generators):
    """gram(a) = sum_j x_j beta_j beta_j^T on the upper-triangle Gram entries,
    one column per entry beta_j of strong_generator_pool(n, 2, 2000, 0), for
    the form a = sum of the (weight, (2,0)-form) generators."""
    from tropcur.fiber import LagerbergFiberForm, positive_generator, strong_generator_pool
    a = LagerbergFiberForm.zero(n, 2, 2)
    for weight, coeffs in generators:
        a = a + positive_generator(LagerbergFiberForm(n, 2, 0, coeffs)).scale(weight)
    idx, N, den = a._gram
    keys = [(t, u) for t in range(len(idx)) for u in range(t, len(idx))]
    betas = [beta for beta, _ in strong_generator_pool(n, 2, 2000, 0)]
    return ([[b[t] * b[u] for b in betas] for t, u in keys],
            [Fraction(N[t][u], den) for t, u in keys])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_systems())
# the shape of a strong-tier pool system at n = 4: 21 rows, 2000 columns
@example(_pool_system(4, [(Fraction(k + 1, 2), {(I, ()): 1}) for k, I in enumerate(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])] + [(3, {((0, 1), ()): 2, ((1, 3), ()): -1})]))
# span(e01 + e23, e02 - e13) holds no decomposable, so no pool entry: no solution
@example(_pool_system(4, [(1, {((0, 1), ()): 1, ((2, 3), ()): 1}),
                          (2, {((0, 2), ()): 1, ((1, 3), ()): -1})]))
def test_nonnegative_solution_matches_lp_feasibility(system):
    m, rhs = system
    x = exact.nonnegative_solution(m, rhs)
    assert (x is not None) == _lp_feasible(m, rhs)
    assert x is None or _is_nonnegative_solution(x, m, rhs)


def test_nonnegative_solution_terminates_on_degenerate_systems():
    # zero right-hand sides, a zero row and repeated columns
    m = [[1, -1, 1, -1, 1, -1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [2, 0, 2, 0, 2, 0]]
    x = exact.nonnegative_solution(m, [0, 0, 2, 2])
    assert _is_nonnegative_solution(x, m, [0, 0, 2, 2])
    assert exact.nonnegative_solution(m, [0, 0, 0, 0]) == (0,) * 6
    assert exact.nonnegative_solution(m, [0, 0, -2, 0]) is None
    assert exact.nonnegative_solution(m, [0, 1, 2, 2]) is None
    assert exact.nonnegative_solution([[Fraction(1, 2), 1]], [Fraction(1, 3)]) == (Fraction(2, 3), 0)


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


def test_psd_decompose_yes():
    m = [[2, 1], [1, 1]]
    res = exact.psd_decompose(m)
    assert res.psd and res.rank == 2
    # reconstruct the matrix from the certificate
    rec = [[Fraction(0)] * 2 for _ in range(2)]
    for g, v in res.decomposition:
        assert g > 0
        for i in range(2):
            for j in range(2):
                rec[i][j] += g * v[i] * v[j]
    assert rec == [[2, 1], [1, 1]]


def test_psd_decompose_semidefinite_rank():
    m = [[1, 1], [1, 1]]
    res = exact.psd_decompose(m)
    assert res.psd and res.rank == 1


def test_psd_decompose_no_witness():
    m = [[0, 1], [1, 0]]
    res = exact.psd_decompose(m)
    assert not res.psd
    w = res.witness
    val = sum(w[i] * m[i][j] * w[j] for i in range(2) for j in range(2))
    assert val < 0

    m2 = [[1, 2], [2, 1]]
    res2 = exact.psd_decompose(m2)
    assert not res2.psd
    w = res2.witness
    val = sum(w[i] * m2[i][j] * w[j] for i in range(2) for j in range(2))
    assert val < 0


def _conj(x):
    return x.conj() if isinstance(x, QC) else x


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
    res = exact.psd_decompose(m)
    if res.psd:
        rec = [[0] * n for _ in range(n)]
        for gamma, v in res.decomposition:
            assert gamma > 0
            for i in range(n):
                for j in range(n):
                    rec[i][j] = rec[i][j] + gamma * v[i] * _conj(v[j])
        assert rec == m
        assert exact.gram_holds(m, 1, res.decomposition)
    else:
        w = res.witness
        val = QC.of(sum(_conj(w[i]) * m[i][j] * w[j] for i in range(n) for j in range(n)))
        assert val.im == 0 and val.re < 0
        assert res.value == val and exact.gram_holds(m, 1, witness=(w, res.value))


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
    vector = st.lists(scalar, min_size=n, max_size=n)
    res = exact.psd_decompose(m)
    terms = res.decomposition or []
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
        for i in range(n):
            for j in range(n):
                rec[i][j] = rec[i][j] + gamma * v[i] * _conj(v[j])
    holds = all(gamma > 0 for gamma, _ in terms) and rec == m
    assert exact.gram_holds(scaled, k, terms) == holds
    x = res.witness if res.witness and data.draw(st.booleans()) else data.draw(vector)
    val = QC.of(sum(_conj(x[i]) * m[i][j] * x[j] for i in range(n) for j in range(n)))
    value = val.re + data.draw(st.sampled_from([0, 0, -1, 1]))
    holds = val.im == 0 and value == val.re < 0
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
        alpha = a[d][d].re if hermitian else a[d][d]
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
    want = _ref_psd_decompose(m)
    scaled = [[x * k for x in row] for row in m]
    for res in (exact.psd_decompose(m), exact.psd_decompose(scaled, k)):
        assert (res.psd, res.rank, res.decomposition, res.witness) == want
        assert all(type(gamma) is Fraction for gamma, _ in res.decomposition or ())



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
    M = [[QC(Fraction(x.re, den), Fraction(x.im, den)) if hermitian else Fraction(x, den)
          for x in row] for row in N]
    flat = [x for row in N for x in row]
    assert exact.integer_parts(flat, hermitian)[0] == 1
    if broken:
        for mat, d in ((N, den), (M, 1)):
            with pytest.raises(ValueError):
                exact.psd_decompose(mat, d)
        return
    got, want = exact.psd_decompose(N, den), exact.psd_decompose(M)
    assert ((got.psd, got.rank, got.decomposition, got.witness, got.value)
            == (want.psd, want.rank, want.decomposition, want.witness, want.value))
    n = len(N)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(st.builds(QC, rational, rational) if hermitian else rational,
                      min_size=n, max_size=n)
    claims = [{"terms": want.decomposition} if want.psd
              else {"witness": (want.witness, want.value)},
              {"terms": data.draw(st.lists(st.tuples(rational, vector), max_size=3))},
              {"witness": (data.draw(vector), data.draw(rational))}]
    for claim in claims:
        assert exact.gram_holds(N, den, **claim) == exact.gram_holds(M, 1, **claim)
    assert exact.gram_holds(N, den, **claims[0])

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
