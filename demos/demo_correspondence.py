#!/usr/bin/env python3
"""Currents: the tropical line, the correspondence, and what breaks it.

The weight-one tropical line gives a closed positive integration current;
its lift is the invariant complex current whose pushforward returns the
exact piece data.  The gallery of counterexamples then shows that each
hypothesis of the correspondence is needed: positivity without closedness
(two growth rates), closedness without positivity, and the point current
killed by the pushforward.
"""

from tropcur import (balancing_check, c_finite_test, closedness_test,
                     integration_current, lift, positivity_check, push_forward)
from tropcur.currents import canonical_decomposition, resum
from tropcur.fans import orthant_fan
from tropcur.gallery import (closed_not_positive, positive_not_liftable,
                             positive_not_positively_liftable, tropical_line,
                             tropical_line_current)
from tropcur.correspond import kernel_point_current


def banner(text):
    print(f"\n=== {text} ===")


banner("the weight-one tropical line")
C = tropical_line()
print("balanced:", bool(balancing_check(C)))
T = tropical_line_current()
print("positive:", positivity_check(T, samples=8).answer)
print("closed (exact, via balancing):", closedness_test(T).yes)
print("C-finite local mass:", c_finite_test(T).answer)
S = lift(T)
print("lift round-trips exactly:", push_forward(S) == T)
sig = S.shadow((0,), (0,))
print("shadow prefactor (fraction, pi power):", sig.scale)

banner("perturbing one weight breaks everything measurably")
C2 = tropical_line(weights=(1, 1, 2))
bal = balancing_check(C2)
print("balanced:", bool(bal), "| residual vector:", bal.witness["residual"])
T2 = integration_current(C2, T.chart)
cv = closedness_test(T2, test_basis_size=30, seed=2)
print("closedness residual:", f"{cv.residual:.4e}")

banner("counterexamples: each hypothesis of the correspondence is needed")
T_exm1 = positive_not_liftable()
print("density e^{x^2}: positive =", positivity_check(T_exm1, samples=8).answer,
      "| C-finite =", c_finite_test(T_exm1).answer,
      "| closed =", closedness_test(T_exm1, test_basis_size=10, seed=3).yes)
T_exm3 = positive_not_positively_liftable()
print("density e^{2x}: positive =", positivity_check(T_exm3, samples=8).answer,
      "| C-finite =", c_finite_test(T_exm3).answer)
T_ev = closed_not_positive()
print("evaluator int e^{2e^x} f': closed =", closedness_test(T_ev).yes,
      "| positive =", positivity_check(T_ev, samples=6).answer)
fan1 = orthant_fan(1)
K = kernel_point_current(fan1.toric_chart(fan1.cone_id([(1,)])))
print("point current on the line: nonzero =", not K.is_zero(),
      "| pushforward zero =", push_forward(K).is_zero())

banner("canonical decomposition of a boundary-heavy measure current")
from fractions import Fraction
from tropcur import LagerbergCurrent, PieceMeasure
from tropcur.measures import Atom, lebesgue_piece
from tropcur.polyhedra import Polyhedron
fan2 = orthant_fan(2)
chart2 = fan2.toric_chart(fan2.cone_id([(1, 0), (0, 1)]))
mu = PieceMeasure(2,
                  atoms=[Atom(frozenset({0}), (Fraction(1),), Fraction(2)),
                         Atom(frozenset({0, 1}), (), Fraction(1))],
                  pieces=[lebesgue_piece((), Polyhedron.box([(0, 1), (0, 1)]))])
T = LagerbergCurrent(chart2, 2, {((), ()): mu})
parts = canonical_decomposition(T, assume_positive=True)
for M, part in sorted(parts.items(), key=lambda kv: sorted(kv[0])):
    print("stratum", sorted(i + 1 for i in M), "carries",
          sum(len(m.atoms) + len(m.pieces) for m in part.cocoeffs.values()),
          "piece(s)")
print("resum is exact:", resum(parts, T) == T)
