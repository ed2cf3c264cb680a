from fractions import Fraction

import pytest

from tropcur import exact


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
    assert exact.mat_mul(inv, [[2, 5, 0], [1, 2, 0], [0, 0, 1]]) == exact.identity(3)


def test_lattice_saturation():
    assert exact.lattice_saturated([(1, 0), (0, 1)])
    assert not exact.lattice_saturated([(2, 0)])
    assert exact.lattice_saturated([(2, 1)])


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
