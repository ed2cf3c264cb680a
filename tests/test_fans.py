from fractions import Fraction

import numpy as np
import pytest

from tropcur import exact
from tropcur.errors import BadIntersection, NotSmooth, NotStrictlyConvex, OutsideSupport
from tropcur.fans import CompactifiedPoint, p2_fan, orthant_fan, validate_fan


def _solve_in_cone(gens, v):
    """Independent membership oracle: nonneg solution of the generator system."""
    if not gens:
        return all(x == 0 for x in v)
    mat = [[Fraction(g[i]) for g in gens] for i in range(len(v))]
    sol = exact.solve(mat, v)
    return sol is not None and all(x >= 0 for x in sol)


def test_p2_fan_has_seven_cones():
    fan = p2_fan()
    assert len(fan) == 7
    dims = sorted(c.dim for c in fan.cones)
    assert dims == [0, 1, 1, 1, 2, 2, 2]


def test_empty_fan_is_zero_cone():
    fan = validate_fan([], rank=2)
    assert len(fan) == 1 and fan.cones[0].dim == 0


def test_non_smooth_cone_rejected():
    with pytest.raises(NotSmooth):
        validate_fan([[(1, 0), (1, 2)]])


def test_line_rejected():
    with pytest.raises(NotStrictlyConvex):
        validate_fan([[(1, 0), (-1, 0)]])


def test_bad_intersection_rejected():
    # two smooth 2-cones overlapping in a full-dimensional region
    with pytest.raises(BadIntersection):
        validate_fan([[(1, 0), (0, 1)], [(1, 1), (0, 1)]])


def test_bad_intersection_rank_three_witness():
    # the ray through e1+e2 lies inside the 2-cone {e1, e2}, but the cones
    # share no generator, so their common face is the zero cone
    sigma, tau = [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 0, 1)]
    with pytest.raises(BadIntersection) as info:
        validate_fan([sigma, tau])
    ray = info.value.payload["ray"]
    assert any(ray)
    assert _solve_in_cone(sigma, ray) and _solve_in_cone(tau, ray)


def test_orthant_fan_rank_six_face_lattice():
    fan = orthant_fan(6)
    assert len(fan) == 64
    for i, cone in enumerate(fan.cones):
        assert len(fan.faces[i]) == 2 ** cone.dim


def test_smooth_cone_outside_standard_completion_accepted():
    # the generators have determinant -1, but no e_i completes (2, 5, 0)
    fan = validate_fan([[(2, 5, 0), (1, 2, 0), (0, 0, 1)]], 3)
    assert len(fan) == 8
    top = fan.cones[-1]
    assert top.basis == ((2, 5, 0), (1, 2, 0), (0, 0, 1))
    ray = fan.cones[fan.cone_id([(2, 5, 0)])]
    assert abs(exact.det(ray.basis)) == 1
    assert fan.locate_relint((3, 7, 1)) == len(fan) - 1


def test_locate_relint():
    fan = p2_fan()
    assert fan.locate_relint((0, 0)) == 0
    ray3 = fan.cone_id([(0, 1)])
    assert fan.locate_relint((0, 1)) == ray3
    assert fan.locate_relint((0, 7)) == ray3
    quad = fan.cone_id([(1, 0), (0, 1)])
    assert fan.locate_relint((2, 3)) == quad
    assert _solve_in_cone([(1, 0), (0, 1)], (2, 3))
    fan1 = orthant_fan(1)
    with pytest.raises(OutsideSupport):
        fan1.locate_relint((-1,))


def test_stratum_projection_quotient():
    fan = validate_fan([[(1, 0)]], rank=2)
    sigma = fan.cone_id([(1, 0)])
    pt = fan.project(sigma, (3, 5))
    assert pt.coords == (5,)   # quotient by span((1,0)), HNF basis ((1,0),(0,1))


def test_stratum_projection_identity_and_point():
    fan = orthant_fan(2)
    sigma1 = fan.cone_id([(1, 0)])
    top = fan.cone_id([(1, 0), (0, 1)])
    q = fan.project(sigma1, (2, 7))
    assert fan.stratum_projection(sigma1, sigma1, q) == q
    r = fan.stratum_projection(top, sigma1, q)
    assert r.coords == ()      # target stratum is a point


def test_projection_composes():
    fan = orthant_fan(3)
    s1 = fan.cone_id([(1, 0, 0)])
    s12 = fan.cone_id([(1, 0, 0), (0, 1, 0)])
    p = (Fraction(3), Fraction(-2), Fraction(5))
    via = fan.stratum_projection(s12, s1, fan.project(s1, p))
    direct = fan.project(s12, p)
    assert via == direct


def test_limit_point_p2_figure():
    fan = p2_fan()
    p = (Fraction(17, 5), Fraction(-3))
    lim = fan.limit_point(p, (0, 1))
    ray3 = fan.cone_id([(0, 1)])
    assert lim.stratum == ray3
    # chart basis ((0,1),(1,0)): the surviving coordinate is the horizontal one
    assert lim.coords == (Fraction(17, 5),)


def test_limit_point_invariance_along_cone_span():
    fan = p2_fan()
    p = (Fraction(1), Fraction(2))
    v = (0, 1)
    lim = fan.limit_point(p, v)
    shifted = fan.limit_point((p[0], p[1] + 100), v)
    assert lim == shifted


def test_limit_point_trivial_cases():
    fan = orthant_fan(2)
    p = (Fraction(1), Fraction(2))
    assert fan.limit_point(p, (0, 0)) == CompactifiedPoint(0, p)
    top = fan.cone_id([(1, 0), (0, 1)])
    lim = fan.limit_point(p, (1, 1))
    assert lim.stratum == top and lim.coords == ()


def test_toric_chart_hnf_completion():
    fan = validate_fan([[(0, 1)]], rank=2)
    rho = fan.cone_id([(0, 1)])
    chart = fan.toric_chart(rho)
    assert chart.basis == ((0, 1), (1, 0))
    assert chart.infinite_axes == frozenset({0})
    fan0 = orthant_fan(2)
    chart0 = fan0.toric_chart(0)
    assert chart0.infinite_axes == frozenset()
    assert chart0.basis == ((1, 0), (0, 1))


def test_toric_chart_maximal_cone_all_axes_infinite():
    fan = p2_fan()
    sig = fan.cone_id([(-1, -1), (1, 0)])
    chart = fan.toric_chart(sig)
    assert chart.infinite_axes == frozenset({0, 1})
    assert abs(exact.det([list(b) for b in chart.basis])) == 1


def test_chart_changes_unimodular():
    fan = p2_fan()
    charts = [fan.toric_chart(i) for i in range(len(fan))]
    for c1 in charts:
        for c2 in charts:
            m1 = [list(b) for b in c1.basis]
            m2 = [list(b) for b in c2.basis]
            # change of basis matrix between charts
            mchg = np.array(m1, dtype=object) @ np.array(_inv(m2), dtype=object).T
            assert abs(exact.det(mchg.tolist())) == 1


def _inv(m):
    n = len(m)
    out = []
    for i in range(n):
        e = [Fraction(int(j == i)) for j in range(n)]
        col = exact.solve([list(r) for r in zip(*m)], e)
        out.append(list(col))
    return [list(r) for r in zip(*out)]


def test_strata_partition():
    fan = p2_fan()
    # chart coordinates of each point determine exactly one stratum
    pts = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(0))]
    for p in pts:
        strata = [i for i in range(len(fan))
                  if fan.project(i, p).stratum == i]
        assert len(strata) == len(fan)  # projection hits every stratum once
