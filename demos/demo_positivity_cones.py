#!/usr/bin/env python3
"""Positivity cones of (p,p)-forms at a fiber, and the two dimension-4 stars.

Walks through the three nested cones (strongly positive, positive,
weakly positive), the exact Gram-form test, and the two forms that make
dimension four interesting: a rank-two positive form that no real
decomposable data can certify as strongly positive, and a degenerate
symmetric form that pairs to zero with every strongly positive form.
"""

import random

from tropcur import (LagerbergFiberForm, dual_pairing, exact, gram_form,
                     positivity_verdict, reverify)
from tropcur.fiber import positive_generator, strong_generator
from tropcur.gallery import omega_degenerate, omega_rank_two


def banner(text):
    print(f"\n=== {text} ===")


banner("positive forms are exactly the PSD Gram forms")
rng = random.Random(0)
alpha = LagerbergFiberForm(3, 1, 0, {((0,), ()): 2, ((2,), ()): -1})
form = positive_generator(alpha)
v = positivity_verdict(form, "positive")
print("alpha ^ J(alpha) scaled:", v.answer, "| certificate re-verifies:", reverify(form, v))
gamma, vec = v.certificate[1][0]
print("  decomposition: gamma =", gamma, ", vector =", vec)

banner("a negative direction produces an exact dual witness")
bad = form + positive_generator(
    LagerbergFiberForm(3, 1, 0, {((1,), ()): 1})).scale(-2)
v = positivity_verdict(bad, "positive")
print("verdict:", v.answer, "| witness pairing:", v.witness[2])

banner("rank-two positive form: not strongly positive (dimension 4)")
w = omega_rank_two()
print("positive tier:", positivity_verdict(w, "positive").answer)
print("Gram rank:", exact.rank(gram_form(w).matrix))
vs = positivity_verdict(w, "strong", pool_size=50)
print("strong tier:", vs.answer, "-", vs.reason)
print("obstruction quadrics (A y^2 + B yz + C z^2):",
      vs.witness[1]["quadratics"])

banner("degenerate symmetric form: +/- both weakly positive")
wd = omega_degenerate()
for _ in range(3):
    vecs = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(2)]
    print("  pairing with a random strong generator:",
          dual_pairing(wd, strong_generator(vecs, 4)))
for sign, f in (("+", wd), ("-", wd.scale(-1))):
    vv = positivity_verdict(f, "weak", pool_size=30)
    print(f"  {sign}omega weak tier:", vv.answer, "|", vv.reason)
print("  positive tier:", positivity_verdict(wd, "positive").answer,
      "(the Gram form is indefinite)")
