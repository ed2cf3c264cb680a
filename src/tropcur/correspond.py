"""Invariant complex currents as tropical shadows; pushforward and lift.

An S- and F-invariant complex (p,p)-current with measure co-coefficients
S^{IJ} is stored through its shadow measures

    sigma^{IJ}(f) = S^{IJ}( z^{-I} zbar^{-J} trop^*(f) ),

PieceMeasures on the tropical side carrying an exact pi-power prefactor.
The pushforward relation T^{IJ} = pi^{-q} 2^{-2q} sigma^{IJ} and the lift
sigma^{IJ} = pi^q 2^{2q} T^{IJ} are exact rescalings of the prefactor, so
push_forward(lift(T)) returns bit-identical piece data.  Since
pi^{-q} 2^{-2q} > 0, a shadow is positive iff its pushforward is, and its
positivity verdict is the pushforward's.

Shadow validity (the boundary-weighted measures admit image Radon
measures) encodes local finiteness of |S^{IJ}| and is exactly the
C-finite-mass criterion of the Lagerberg side.  Kernel exemplars --
nonzero invariant currents annihilated by the pushforward -- are carried
as direct evaluators and demonstrate the failure of injectivity without
closedness.
"""

import math
from fractions import Fraction

from .currents import (LagerbergCurrent, c_finite_test, c_finite_witness,
                       canonical_decomposition, closedness_test, positivity_check,
                       split_by_stratum)
from .errors import (InvalidShadow, NotCFinite, NotClosed, NotLocallyFinite, NotPositive,
                     TropcurError, ValidationError, Value, Verdict)
from .measures import PieceMeasure


class InvariantComplexCurrent:
    """Shadow representation of an S-, F-invariant complex (p,p)-current.

    ``shadows[(I, J)]`` are PieceMeasures with prefactor scale;
    ``kernel`` holds direct-evaluator exemplars annihilated by trop_*.
    """

    def __init__(self, chart, p, shadows=None, kernel=()):
        self.chart = chart
        self.n = len(chart.basis)
        self.p = p
        self.q = self.n - p
        self.kernel = tuple(kernel)
        self.shadows = {}
        for (I, J), mu in (shadows or {}).items():
            I, J = tuple(I), tuple(J)
            if len(I) != self.q or len(J) != self.q:
                raise ValidationError(f"shadow key ({I},{J}) needs |I|=|J|={self.q}")
            if not mu.is_zero():
                self.shadows[(I, J)] = mu

    def shadow(self, I, J):
        return self.shadows.get((tuple(I), tuple(J)), PieceMeasure.zero(self.n))

    def is_zero(self):
        return not self.shadows and not self.kernel

    def canonical_key(self):
        return tuple(sorted((k, mu.canonical_key()) for k, mu in self.shadows.items()))

    def __eq__(self, other):
        if not isinstance(other, InvariantComplexCurrent):
            return NotImplemented
        if self.kernel or other.kernel:
            return self is other
        return (self.n, self.p) == (other.n, other.p) and \
            self.canonical_key() == other.canonical_key()

    def __repr__(self):
        extra = f", kernel={len(self.kernel)}" if self.kernel else ""
        return (f"InvariantComplexCurrent(({self.p},{self.p}) on n={self.n}, "
                f"{len(self.shadows)} shadows{extra})")


def validate_shadow(S):
    """Shadow validity: boundary-weighted measures admit image Radon measures.

    This is the complex-side local finiteness of |S^{IJ}| expressed in
    tropical coordinates, decided by ``c_finite_witness`` as for the
    C-finite-mass criterion; fails with the offending (I, J) and ray.
    """
    witness = c_finite_witness(S.chart, S.shadows)
    if witness is not None:
        raise NotLocallyFinite("weighted shadow has infinite mass toward a boundary stratum",
                               payload=witness)
    return True


def push_forward(S):
    """trop_* on shadows: T^{IJ} = pi^{-q} 2^{-2q} sigma^{IJ}, exactly.

    Kernel exemplars are annihilated; averaging is built into the shadow
    class, so trop_*(S) = trop_*(S^av) holds by construction.
    """
    try:
        validate_shadow(S)
    except TropcurError as err:
        raise InvalidShadow("shadow fails the local-finiteness validity check",
                            payload=err.payload) from err
    q = S.q
    factor = Fraction(1, 4 ** q)
    coco = {}
    for (I, J), mu in S.shadows.items():
        coco[(I, J)] = mu.with_scale(factor, -q)
    return LagerbergCurrent(S.chart, S.p, coco)


def lift(T, samples=12, seed=0):
    """The inverse correspondence on closed positive currents.

    Checks positivity, then C-finite local mass (exact), then
    closedness; the lift's shadows are pi^q 2^{2q} times the
    co-coefficients, assembled stratum by stratum from the canonical
    decomposition, so the pushforward returns T with exact piece data.
    """
    v = positivity_check(T, samples=samples, seed=seed)
    if not v.yes:
        raise NotPositive("lift needs a positive current", payload=v.witness)
    cf = c_finite_test(T)
    if not cf.yes:
        raise NotCFinite("current does not have C-finite local mass",
                         payload=cf.witness)
    cv = closedness_test(T, seed=seed)
    if not cv.yes:
        raise NotClosed("lift needs a closed current",
                        payload={"residual": cv.residual})
    q = T.q
    parts = canonical_decomposition(T, assume_positive=True)
    shadows = {}
    for part in parts.values():
        for key, mu in part.cocoeffs.items():
            lifted = mu.with_scale(Fraction(4 ** q), q)
            shadows[key] = shadows[key] + lifted if key in shadows else lifted
    return InvariantComplexCurrent(T.chart, T.p, shadows)


class RoundTripReport(Value):
    __slots__ = _fields = ("total", "failures")

    def __init__(self, total, failures=None):
        super().__init__(total, [] if failures is None else failures)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok


def round_trip_verify(suite, seed=0):
    """push_forward(lift(T)) = T with exact piece-data equality.

    Also spot-checks injectivity of the construction: lifting twice from
    re-normalized piece data yields identical shadow normal forms.
    """
    failures = []
    for t, T in enumerate(suite):
        try:
            S = lift(T, seed=seed)
            back = push_forward(S)
        except Exception as err:  # noqa: BLE001 - report, do not crash the suite
            failures.append((t, f"lift/push raised: {err!r}"))
            continue
        if back != T:
            failures.append((t, "pushforward of the lift differs from the input"))
            continue
        S2 = lift(back, seed=seed)
        if S2.canonical_key() != S.canonical_key():
            failures.append((t, "lift is not reproducible on equal inputs"))
    return RoundTripReport(len(suite), failures)


def complex_positivity_check(S, samples=25, seed=0):
    """Positivity of the complex current, decided on its pushforward.

    trop_* scales every shadow by the one positive constant pi^{-q} 2^{-2q},
    so S is positive iff push_forward(S) is (Lagerberg, Math. Z. 270,
    2012): the verdict is ``positivity_check``'s on the pushforward,
    unchanged, and ``fiber.reverify(push_forward(S), v)`` re-checks it
    when it is exact.  Kernel exemplars carry no positivity data, and a
    shadow that fails validity raises InvalidShadow, as the pushforward
    does.
    """
    if S.kernel:
        raise InvalidShadow("kernel exemplars carry no positivity data")
    return positivity_check(push_forward(S), samples=max(4, samples // 3), seed=seed)


def compat_checks(S):
    """Structural compatibilities of the correspondence on a shadow current.

    (a) the canonical decomposition commutes with the pushforward,
    piece by piece; (b) supports match: the support descriptors of the
    shadows and of the pushforward agree; (c) in top degree the
    pushforward is the identity on the measure data (the measure-level
    bijection).
    """
    records = []
    T = push_forward(S)
    # (a) decomposition commutes
    parts_T = canonical_decomposition(T, assume_positive=True)
    total = None
    for M, mus in split_by_stratum(S.chart, S.shadows).items():
        cur = push_forward(InvariantComplexCurrent(S.chart, S.p, mus))
        ref = parts_T.get(M)
        good = (ref is not None and cur == ref) or (ref is None and cur.is_zero())
        records.append(("decomposition", tuple(sorted(M)), good))
        total = cur if total is None else total + cur
    resum_good = (total or LagerbergCurrent(S.chart, S.p, {})) == T
    records.append(("decomposition_resum", None, resum_good))
    # (b) support descriptors agree
    records.append(("support", None,
                    _support_descriptor(S.shadows) == _support_descriptor(T.cocoeffs)))
    # (c) top degree: measure-level bijection
    if S.p == S.n:
        records.append(("top_degree", None,
                        S.shadow((), ()) == T.cocoeff((), ())))
    if all(good for _, _, good in records):
        return Verdict("compatible", "yes", certificate=records)
    return Verdict("compatible", "no", witness=records)


def _support_descriptor(measures):
    desc = set()
    for k, mu in measures.items():
        for a in mu.atoms:
            desc.add((k, "atom", tuple(sorted(a.stratum)), a.coords))
        for piece in mu.pieces:
            desc.add((k, "piece", tuple(sorted(piece.stratum)),
                      piece.poly.canonical_key()))
    return desc


def kernel_point_current(chart):
    """The projective-line exemplar: S(f dz ^ i dzbar) = f(0).

    Nonzero and invariant, but every pullback test form vanishes near the
    origin, so the pushforward is zero: injectivity fails without
    closedness.  Evaluation is provided on invariant-frame fields: the
    value is the coefficient limit lim_{u -> inf} pi e^{2u} c_11(u),
    computed symbolically on the coefficient family.
    """
    n = len(chart.basis)
    if n != 1:
        raise ValueError("the kernel exemplar lives on a one-dimensional chart")

    def evaluator(field):
        # field: InvariantComplexFormField of bidegree (1,1) in the scaled
        # frame; the honest coefficient f(z) of dz ^ i dzbar at z = 0 is
        # lim_{u->inf} pi e^{2u} (pi^{-1} c(u)) = lim e^{2u} c(u),
        # evaluated term by term on the coefficient family.
        fn = field.coeff.get(((0,), (0,)))
        if fn is None:
            return 0.0
        total = 0.0
        for poly, expo, wins in fn.terms:
            lin = expo.exps.get((1,), Fraction(0))
            const = expo.exps.get((0,), Fraction(0))
            window_dies = any(w.fn.vanishes_above() for w in wins)
            if window_dies or lin < -2:
                continue                      # term vanishes at infinity
            if lin > -2:
                raise ValueError("coefficient grows toward the boundary")
            if wins:
                raise ValueError("window factor has no symbolic limit at infinity")
            if any(sum(e) > 0 for e in poly.exps):
                raise ValueError("polynomial times e^{-2u} has no limit")
            deg0 = poly.exps.get((0,), Fraction(0))
            total += float(deg0) * math.exp(float(const))
        return total

    return InvariantComplexCurrent(chart, 0, {}, kernel=[evaluator])
