"""Reference objects used across tests, demos and the counterexample suite.

Fiber-level: the degenerate symmetric (2,2)-form in dimension four whose
pairing with every strongly positive form vanishes (so +/- both weakly
positive, neither positive), and the rank-two positive form that is
strongly positive as a complex form but not as a Lagerberg form.

Current-level: the positive-but-not-liftable current with density e^{x^2},
the closed-but-not-positive evaluator current with density e^{2 e^x}, the
positive current with density e^{2x} whose boundary weight is exactly
neutral, the degenerate-form integration current with vanishing diagonal
co-coefficients, the derivative-atom current whose co-coefficient is not
a Radon measure, the projective-line point current killed by the
pushforward, and the weight-one tropical line.
"""

import math
from fractions import Fraction

from .coeffs import Poly
from .currents import LagerbergCurrent, WeightedComplex, integration_current
from .fans import orthant_fan
from .fiber import LagerbergFiberForm, _complementary_terms
from .measures import Atom, DerivativeAtom, PieceMeasure, lebesgue_piece
from .polyhedra import Polyhedron


def omega_degenerate():
    """Symmetric (2,2)-form with eta ^ omega = 0 for all strongly positive eta.

    Coefficients on the block basis d'u_I ^ d''u_J (0-based indices):
    c[{0,1},{2,3}] = c[{2,3},{0,1}] = c[{0,3},{1,2}] = c[{1,2},{0,3}] = -1,
    c[{0,2},{1,3}] = c[{1,3},{0,2}] = +1; all diagonals vanish.
    """
    c = {
        ((0, 1), (2, 3)): -1,
        ((2, 3), (0, 1)): -1,
        ((0, 2), (1, 3)): +1,
        ((1, 3), (0, 2)): +1,
        ((0, 3), (1, 2)): -1,
        ((1, 2), (0, 3)): -1,
    }
    return LagerbergFiberForm(4, 2, 2, c)


def omega_rank_two():
    """Positive (2,2)-form of Gram rank 2, not strongly positive.

    Equal to -(a ^ J a) - (b ^ J b) for a = d'u_0^d'u_2 - d'u_1^d'u_3 and
    b = d'u_0^d'u_3 + d'u_1^d'u_2; the Gram row space contains no nonzero
    real decomposable bivector (the restricted quadric is y^2 + z^2).
    """
    c = {
        ((0, 2), (0, 2)): -1,
        ((0, 3), (0, 3)): -1,
        ((1, 2), (1, 2)): -1,
        ((1, 3), (1, 3)): -1,
        ((0, 2), (1, 3)): +1,
        ((1, 3), (0, 2)): +1,
        ((0, 3), (1, 2)): -1,
        ((1, 2), (0, 3)): -1,
    }
    return LagerbergFiberForm(4, 2, 2, c)


# --- current-level gallery -----------------------------------------------------


def _halfline_chart():
    fan = orthant_fan(1)
    return fan.toric_chart(fan.cone_id([(1,)]))


def positive_not_liftable():
    """(0,0)-current on the chart R u {infty}: e^{x^2} dx on the ray (0, infty).

    Positive; not closed; fails the C-finite mass criterion (the boundary
    weight e^{x^2 - 2x} still explodes), so it cannot be the pushforward
    of a positive invariant current.
    """
    chart = _halfline_chart()
    ray = Polyhedron(1, [((-1,), 0, True)])
    mu = PieceMeasure(1, pieces=[lebesgue_piece(
        (), ray, expo=Poly({(2,): Fraction(1)}, 1))])
    return LagerbergCurrent(chart, 0, {((0,), (0,)): mu})


def closed_not_positive():
    """(1,1) evaluator current on R u {infty}: f -> int_0^infty e^{2 e^x} f'(x) dx.

    Closed because it has top bidegree; not positive (the integrand is
    the negative derivative of a rapidly growing weight); lives outside
    the piece family, hence the direct evaluator.
    """
    chart = _halfline_chart()

    def evaluator(alpha, _chart=chart):
        fn = alpha.coefficient(frozenset(), (), ())
        sup = fn.support_box()[0]
        if sup is None:
            raise ValueError("test function must be compactly supported in (0, infty)")
        lo, hi = float(sup[0]), float(sup[1])
        dfn = fn.diff(0)
        from .quadrature import adaptive_box
        return adaptive_box(
            lambda u: math.exp(2.0 * math.exp(u[0])) * dfn.eval_float(u),
            [(max(lo, 1e-9), hi)], 1e-9 * max(1.0, math.exp(2 * math.exp(hi))))

    return LagerbergCurrent(chart, 1, {}, evaluator=evaluator)


def positive_not_positively_liftable():
    """(0,0)-current on the chart R u {infty}: e^{2x} dx on the ray (0, infty).

    Positive, but the boundary-weighted density e^{2x} e^{-2x} = 1 has
    infinite mass at the boundary: no positive invariant current maps to
    it (a non-positive one does).
    """
    chart = _halfline_chart()
    ray = Polyhedron(1, [((-1,), 0, True)])
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), ray, expo=Poly.linear([2]))])
    return LagerbergCurrent(chart, 0, {((0,), (0,)): mu})


def degenerate_form_current():
    """[omega] for the degenerate (2,2)-form: +/- weakly positive current.

    Co-coefficients are +/- Lebesgue on R^4 with all diagonal
    co-coefficients zero, so the positivity estimate fails outright.
    """
    chart = orthant_fan(4).toric_chart(0)
    whole = Polyhedron(4, [])
    coco = {}
    sq = (-1) ** (2 * (2 - 1) // 2)     # co-coefficient sign convention
    # T^{IJ}(f) = T((-1)^{q(q-1)/2} f d'u_I d''u_J), the Lebesgue pairing
    # of omega with the complementary indices
    for sign, c, Ic, Jc in _complementary_terms(omega_degenerate()):
        weight = Fraction(c) * sq * sign
        if weight:
            coco[(Ic, Jc)] = PieceMeasure(4, pieces=[lebesgue_piece(
                (), whole, weight=weight, sign=1 if weight > 0 else -1)])
    return LagerbergCurrent(chart, 2, coco)


def derivative_atom_current():
    """(0,0)-current on R^4 pairing with d f / d u_0 at the origin.

    Its single co-coefficient is a derivative atom, the exemplar of a
    weakly positive current without measure co-coefficients after
    wedging with the degenerate form.
    """
    chart = orthant_fan(4).toric_chart(0)
    full = (0, 1, 2, 3)
    mu = PieceMeasure(4, derivative_atoms=[DerivativeAtom(
        frozenset(), (Fraction(0),) * 4, (Fraction(1), 0, 0, 0), Fraction(1))])
    return LagerbergCurrent(chart, 0, {(full, full): mu})


def tropical_line(weights=(1, 1, 1)):
    """The 1-dimensional complex with rays (-1,0), (0,-1), (1,1) from 0."""
    return shifted_tropical_line((0, 0), weights)


def tropical_line_current(weights=(1, 1, 1)):
    chart = orthant_fan(2).toric_chart(0)
    return integration_current(tropical_line(weights), chart)


def shifted_tropical_line(shift, weights=(1, 1, 1)):
    """The standard line translated to the vertex ``shift`` (still balanced)."""
    sx, sy = Fraction(shift[0]), Fraction(shift[1])
    rays = [(-1, 0), (0, -1), (1, 1)]
    cells = []
    for v, w in zip(rays, weights):
        vx, vy = v
        b0 = Fraction(vy) * sx - Fraction(vx) * sy
        rows = [((Fraction(vy), Fraction(-vx)), b0),
                ((Fraction(-vy), Fraction(vx)), -b0),
                ((Fraction(-vx), Fraction(-vy)), -(Fraction(vx) * sx + Fraction(vy) * sy))]
        cells.append((Polyhedron(2, rows), w))
    return WeightedComplex(tuple(cells), declared_dim=1)


def random_closed_positive_suite(count=20, seed=0):
    """Seeded closed positive piece-currents, boundary strata included.

    Draws from three closed families: positive Radon measures as
    top-bidegree currents on charts with boundary (atoms on boundary
    strata plus interior densities), Lebesgue multiples as (0,0)-currents
    on the line's compactification, and integration currents of balanced
    tropical lines (translated and rescaled).
    """
    import random as _random
    rng = _random.Random(seed)
    suite = []
    fan1 = orthant_fan(1)
    chart1 = fan1.toric_chart(fan1.cone_id([(1,)]))
    fan2 = orthant_fan(2)
    top2 = fan2.cone_id([(1, 0), (0, 1)])
    chart2 = fan2.toric_chart(top2)
    chart2_dense = fan2.toric_chart(0)
    while len(suite) < count:
        kind = rng.randrange(3)
        if kind == 0:
            # (n,n) positive measure on the 2-d chart with boundary atoms
            atoms = []
            for _ in range(rng.randint(1, 3)):
                M = rng.choice([frozenset(), frozenset({0}), frozenset({1}),
                                frozenset({0, 1})])
                coords = tuple(Fraction(rng.randint(-3, 3))
                               for _ in range(2 - len(M)))
                atoms.append(Atom(M, coords, Fraction(rng.randint(1, 5))))
            pieces = []
            if rng.random() < 0.7:
                lo0, lo1 = rng.randint(-3, 0), rng.randint(-3, 0)
                box = Polyhedron.box([(lo0, lo0 + rng.randint(1, 3)),
                                      (lo1, lo1 + rng.randint(1, 3))])
                pieces.append(lebesgue_piece((), box,
                                             weight=Fraction(rng.randint(1, 4))))
            mu = PieceMeasure(2, atoms=atoms, pieces=pieces)
            suite.append(LagerbergCurrent(chart2, 2, {((), ()): mu}))
        elif kind == 1:
            # c * Lebesgue on the dense line inside its compactification
            c = Fraction(rng.randint(1, 5))
            whole = Polyhedron(1, [])
            mu = PieceMeasure(1, pieces=[lebesgue_piece((), whole, weight=c)])
            suite.append(LagerbergCurrent(chart1, 0, {((0,), (0,)): mu}))
        else:
            shift = (rng.randint(-2, 2), rng.randint(-2, 2))
            w = rng.randint(1, 3)
            C = shifted_tropical_line(shift, weights=(w, w, w))
            suite.append(integration_current(C, chart2_dense))
    return suite
