"""Lagerberg currents through their co-coefficient measures.

A (p,p)-current on a toric chart U_rho is stored as one PieceMeasure
per index pair (I, J) with |I| = |J| = q = n - p, the co-coefficient
T^{IJ} living on the chart minus the strata where some u_i with i in
I u J equals infinity.  Evaluation against a compactly supported
(q,q) field is the signed sum of co-coefficient integrals; closedness
and positivity are verdicts whose No carries a witness; the canonical stratum
decomposition, the C-finite-mass criterion and extension by zero act on
the piece data exactly.

Integration currents of weighted polyhedral complexes emit Lebesgue
densities with lattice-normalized determinant weights.  Closedness of a
current whose co-coefficients are such densities is the exact rational
balancing check at codimension-one faces; the sampled verdict is its oracle.
"""

import itertools
import math
import random
from fractions import Fraction

from . import exact
from .coeffs import CoefficientFn, Poly
from .errors import (BidegreeMismatch, CompatibilityViolation, DimensionMismatch, Divergent,
                     MixedDimension, NonMeasurePiece, NotCFinite, NotLocallyFinite, NotPositive,
                     SignNotCertified, SupportEscapesU, ToleranceNotMet,
                     ValidationError, Value, Verdict)
from .indices import stratum_subsets, subsets
from .measures import (Piece, PieceMeasure, abs_measure, escape_failure, integrate_against,
                       restrict_measure, sign_pure_pieces)
from .polyhedra import Polyhedron, Row, face_directions, face_key, facet_polyhedron


class LagerbergCurrent:
    """(p,p)-current with PieceMeasure co-coefficients (or an evaluator).

    ``cocoeffs[(I, J)]`` for q-subsets I, J; pieces must avoid the strata
    where their indices sit at infinity.  ``evaluator`` overrides
    evaluation for the one counterexample family living outside the
    measure class; such currents expose no co-coefficient operations.
    """

    def __init__(self, chart, p, cocoeffs=None, evaluator=None):
        self.chart = chart
        self.n = len(chart.basis)
        self.p = p
        self.q = self.n - p
        self.evaluator = evaluator
        self.cocoeffs = {}
        keys = set(subsets(self.n, self.q)) if cocoeffs and self.q >= 0 else ()
        # messages name axes and indices 1-based, as the wire formats do
        for (I, J), mu in (cocoeffs or {}).items():
            I, J = tuple(I), tuple(J)
            if I not in keys or J not in keys:
                raise ValidationError(f"co-coefficient key I={[i + 1 for i in I]}, J={[j + 1 for j in J]} "
                                      f"needs two increasing {self.q}-subsets of 1..{self.n}")
            if mu.n != self.n:
                raise ValidationError("measure dimension does not match the chart")
            bad = set(I) | set(J)
            for a in mu.atoms + mu.derivative_atoms + mu.pieces:
                fault = (", not a boundary stratum of the chart" if not a.stratum <= chart.infinite_axes
                         else f" inside E^{sorted(i + 1 for i in bad)}" if a.stratum & bad else None)
                if fault:
                    raise ValidationError(f"piece of T^(I={[i + 1 for i in I]}, J={[j + 1 for j in J]}) "
                                          f"sits on {sorted(i + 1 for i in a.stratum)}{fault}")
            if not mu.is_zero():
                self.cocoeffs[(I, J)] = mu

    # --- basics ------------------------------------------------------------
    def cocoeff(self, I, J):
        return self.cocoeffs.get((tuple(I), tuple(J)), PieceMeasure.zero(self.n))

    def is_zero(self):
        return not self.cocoeffs and self.evaluator is None

    def has_measure_model(self):
        return self.evaluator is None

    def is_measure_class(self):
        return all(mu.is_measure() for mu in self.cocoeffs.values())

    def canonical_key(self):
        return tuple(sorted((k, mu.canonical_key()) for k, mu in self.cocoeffs.items()))

    def __eq__(self, other):
        if not isinstance(other, LagerbergCurrent):
            return NotImplemented
        if self.evaluator is not None or other.evaluator is not None:
            return self is other
        return (self.n, self.p) == (other.n, other.p) and \
            self.canonical_key() == other.canonical_key()

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        if self.p != other.p:
            raise BidegreeMismatch(f"cannot add currents of degrees {self.p} and {other.p}")
        if self.evaluator or other.evaluator:
            raise NonMeasurePiece("cannot add evaluator-backed currents")
        out = {}
        for k in set(self.cocoeffs) | set(other.cocoeffs):
            out[k] = self.cocoeff(*k) + other.cocoeff(*k)
        return LagerbergCurrent(self.chart, self.p, out)

    def scale(self, c):
        out = {k: mu.scale_weights(c) for k, mu in self.cocoeffs.items()}
        return LagerbergCurrent(self.chart, self.p, out)

    def mass_box(self):
        """Bounding data of the finite coordinates of all pieces."""
        lo = [None] * self.n
        hi = [None] * self.n

        def upd(i, v):
            v = float(v)
            lo[i] = v if lo[i] is None else min(lo[i], v)
            hi[i] = v if hi[i] is None else max(hi[i], v)

        for mu in self.cocoeffs.values():
            for a in list(mu.atoms) + list(mu.derivative_atoms):
                axes = [i for i in range(self.n) if i not in a.stratum]
                for i, c in zip(axes, a.coords):
                    upd(i, c)
            for piece in mu.pieces:
                axes = [i for i in range(self.n) if i not in piece.stratum]
                for v in piece.poly.vertices():
                    for i, c in zip(axes, v):
                        upd(i, c)
        return lo, hi

    def __repr__(self):
        kind = "evaluator" if self.evaluator else f"{len(self.cocoeffs)} cocoeffs"
        return f"LagerbergCurrent(({self.p},{self.p}) on n={self.n}, {kind})"


# --- evaluation -------------------------------------------------------------------

def evaluate(T, alpha, tol=1e-8, check=True):
    """T(alpha) for a compactly supported Lagerberg (q,q) field.

    The signed sum over (I, J) of the co-coefficient integrals against
    alpha's stratum tables; (-1)^{q(q-1)/2} undoes the co-coefficient
    sign convention.  ``check`` first requires alpha to have compact
    support in the chart (else SupportEscapesU) and to pass the boundary
    compatibility check (else CompatibilityViolation).
    """
    if (alpha.p, alpha.q) != (T.q, T.q):
        raise ValueError(f"test form must have bidegree ({T.q},{T.q})")
    if check:
        from .fields import check_compatibility
        if not alpha.has_compact_support():
            raise SupportEscapesU("test form is not compactly supported")
        rep = check_compatibility(alpha, samples=8)
        if not rep.yes:
            raise CompatibilityViolation("test form fails boundary compatibility",
                                         payload=rep.witness)
    if T.evaluator is not None:
        return T.evaluator(alpha)
    sgn = (-1) ** (T.q * (T.q - 1) // 2)
    total = 0.0
    for (I, J), mu in T.cocoeffs.items():
        tables = {frozenset(M): alpha.coefficient(M, I, J) for M in alpha.tables}
        if all(fn.is_zero() for fn in tables.values()):
            continue
        total += integrate_against(tables, mu, tol=tol,
                                   allow_derivative_atoms=True)
    return sgn * total


# --- seeded test fields ----------------------------------------------------------

def _interior_test_fields(chart, p, q, box, rng, count):
    from .fields import bump_box_field
    n = len(chart.basis)
    fields = []
    idx_p, idx_q = subsets(n, p), subsets(n, q)
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 2)):
            I = idx_p[rng.randrange(len(idx_p))] if idx_p else ()
            J = idx_q[rng.randrange(len(idx_q))] if idx_q else ()
            poly = Poly.const(rng.randint(-2, 2), n)
            if rng.random() < 0.5:
                poly = poly * Poly.var(rng.randrange(n), n)
            terms.append(((I, J), poly))
        fields.append(bump_box_field(chart, p, q, terms, box))
    return fields


def _boundary_test_fields(chart, p, q, strata, box, ramp, rng, count):
    from .fields import boundary_window_field
    n = len(chart.basis)
    fields = []
    for M in strata:
        M = frozenset(M)
        if not M or not M <= chart.infinite_axes:
            continue
        alive = [i for i in range(n) if i not in M]
        idx_p = [I for I in subsets(n, p) if not set(I) & M]
        idx_q = [J for J in subsets(n, q) if not set(J) & M]
        if not idx_p or not idx_q:
            continue
        finite_box = {i: box[i] for i in alive}
        for _ in range(count):
            I = idx_p[rng.randrange(len(idx_p))]
            J = idx_q[rng.randrange(len(idx_q))]
            poly = Poly.const(rng.randint(-2, 2), n)
            if alive and rng.random() < 0.5:
                poly = poly * Poly.var(alive[rng.randrange(len(alive))], n)
            try:
                fields.append(boundary_window_field(chart, M, [((I, J), poly)],
                                                    finite_box, ramp))
            except ValueError:
                continue
    return fields


def _pool_box(T):
    lo, hi = T.mass_box()
    box = []
    for i in range(T.n):
        a = -3.0 if lo[i] is None else lo[i] - 2
        b = 3.0 if hi[i] is None else hi[i] + 2
        box.append((Fraction(int(math.floor(a))), Fraction(int(math.ceil(b)) + 1)))
    return box


def mass_estimate(T):
    """Total variation of the co-coefficients against a covering plateau."""
    total = 0.0
    for (I, J), mu in T.cocoeffs.items():
        if not mu.is_measure():
            continue
        try:
            tv = abs_measure(mu)
        except SignNotCertified:
            total += 1.0
            continue
        one = {frozenset(M): CoefficientFn.const(1, T.n)
               for M in stratum_subsets(T.chart)}
        try:
            total += integrate_against(one, tv, tol=1e-6)
        except (Divergent, NotLocallyFinite, ToleranceNotMet):
            total += 1.0
    return total


def closedness_test(T, test_basis_size=25, tol=1e-8, seed=0):
    """Closedness verdict of T, read from its value alone.

    Vacuously closed in top bidegree.  When T is the integration current
    of a weighted complex (``_integrated_complex``) that balances, T is
    closed exactly.  Every other current, an unbalanced complex included,
    gets the sampled verdict of ``sampled_closedness``.
    """
    C = _integrated_complex(T) if T.q else None
    if not T.q or (C is not None and balancing_check(C).yes):
        return Verdict("closed", "yes", residual=0.0, exact=True)
    return sampled_closedness(T, test_basis_size, tol, seed)


def sampled_closedness(T, test_basis_size=25, tol=1e-8, seed=0):
    """Sampled Stokes verdict: T(d'beta), T(d''beta) over a seeded pool.

    Closed means every pairing stays below tol * (1 + mass estimate); No
    reports the worst pairing as its witness.  For a current that
    integrates an unbalanced complex the pool opens with ``_face_fields``.
    """
    from .fields import differentiate
    rng = random.Random(seed)
    box = _pool_box(T)
    strata = [M for M in stratum_subsets(T.chart) if M]
    pool = _face_fields(T)
    per = max(3, test_basis_size // 2)
    if T.q >= 1:        # a face field takes the place of a random d' field
        pool += [("d'", b) for b in
                 _interior_test_fields(T.chart, T.q - 1, T.q, box, rng, per - len(pool))]
        pool += [("d''", b) for b in
                 _interior_test_fields(T.chart, T.q, T.q - 1, box, rng, per)]
        ramp = max((float(h) for h in [b[1] for b in box]), default=3.0)
        ramp = Fraction(int(math.ceil(ramp)) + 1)
        pool += [("d'", b) for b in _boundary_test_fields(
            T.chart, T.q - 1, T.q, strata, box, ramp, rng, 2)]
        pool += [("d''", b) for b in _boundary_test_fields(
            T.chart, T.q, T.q - 1, strata, box, ramp, rng, 2)]
    # amplify against the e^{-4}-sized bump maximum so violations stand out
    pool = [(kind, b.scale(16)) for kind, b in pool]
    scale = 1.0 + mass_estimate(T)
    worst = 0.0
    witness = None
    for kind, beta in pool[:2 * test_basis_size]:
        dbeta = differentiate(kind, beta)
        val = evaluate(T, dbeta, tol=tol * 0.01, check=False)
        if abs(val) > worst:
            worst = abs(val)
            witness = (kind, beta, val)
    if worst <= tol * scale:
        return Verdict("closed", "yes", residual=worst)
    return Verdict("closed", "no", witness=witness, residual=worst)


def _face_fields(T):
    """[("d'", beta)] centred on the face where the complex T integrates
    fails to balance, or [].  With r the residual of ``balancing_check``'s
    witness and B a basis of the face's directions, T(d'beta) for
    beta = f d'u_I ^ d''u_J near the face is a fixed multiple of
    f det(B_I) det([r | B]_J), so a bump with those coefficients pairs to a
    multiple of their sum of squares; random fields vanishing there miss it.
    """
    from .fields import bump_box_field
    C = _integrated_complex(T)
    v = balancing_check(C) if C is not None else None
    if v is None or v.yes:
        return []
    (pts, rays), r = v.witness["face"], v.witness["residual"]
    B, pivots = exact.rref(face_directions((pts, rays)))
    B = B[:len(pivots)]
    centre = [sum(p[i] for p in pts) / len(pts) + sum(g[i] for g in rays) for i in range(T.n)]
    terms = [((I, J), Poly.const(c, T.n)) for I in subsets(T.n, T.q - 1) for J in subsets(T.n, T.q)
             if (c := exact.det([[u[k] for u in B] for k in I])
                 * exact.det([[u[k] for u in (r, *B)] for k in J]))]
    return [("d'", bump_box_field(T.chart, T.q - 1, T.q, terms, [(c - 1, c + 1) for c in centre]))]


# --- positivity --------------------------------------------------------------------

def point_value(mu, stratum, pt, atom=False):
    """mu at a stratum point, as a float: the summed weight of its atoms
    there when ``atom``, else its density (closed pieces, summed)."""
    if atom:
        return sum(a.weight for a in mu.atoms
                   if (a.stratum, a.coords) == (stratum, pt)) * mu.scale_float()
    val = 0.0
    for piece in mu.pieces:
        if piece.stratum != stratum:
            continue
        if piece.poly.contains(pt, closure=True):
            val += piece.density_fn().eval_float(pt) * mu.scale_float()
    return val


def positivity_check(T, samples=25, seed=0):
    """Positivity verdict of a co-coefficient current.

    (i) symmetry T^{IJ} = T^{JI}; (ii) diagonal co-coefficients are
    positive measures.  Then, when every piece has a constant density,
    the pieces on one cell share one exponent and all co-coefficients one
    pi power, positivity is decided exactly: the matrix (T^{IJ}) is a
    positive factor times a constant rational matrix M on each cell and
    at each atom point (``_cell_matrices``), and T is positive iff every
    M is PSD (Lagerberg, Math. Z. 270, 2012).  Such verdicts have
    ``exact=True``.  Each M is decided by exact.gram_verdict, as a fiber
    form's Gram matrix is.  Yes carries the certificate ("cells", entries),
    one (where, terms) per cell and per atom point, terms its decomposition,
    which ``reverify`` re-checks against T.  No carries estimate_piece (at
    the cell's feasible point) or estimate_atom when a 2x2 principal minor
    of M fails, with M's exact entries, else its evaluation witness.  Every
    other current takes the sampled steps of ``_sampled_positivity``, whose
    Yes found no violation at the points and forms drawn, and is not a
    proof.  Evaluator-backed currents only admit the sampled route: a
    negative value gives No, and otherwise the verdict stays unknown.
    """
    tol = 1e-9      # the float slack of the sampled steps
    if not T.has_measure_model():
        rng = random.Random(seed)
        box = [(Fraction(1), Fraction(3))] * T.n
        for _ in range(samples):
            beta = _nonneg_test_field(T.chart, T.q, box, rng)
            val = evaluate(T, beta, check=False)
            if val < -tol:
                return Verdict("positive", "no", "negative value on a positive test form",
                               witness=("field", beta, val))
        return Verdict("positive", "unknown",
                       "evaluator current: sampled route found no violation")
    if not T.is_measure_class():
        return Verdict("positive", "no", "a co-coefficient is not a Radon measure",
                       witness=("non_measure",))
    n, q = T.n, T.q
    # (i) symmetry
    for (I, J) in list(T.cocoeffs):
        if T.cocoeff(I, J) != T.cocoeff(J, I):
            return Verdict("positive", "no", "co-coefficients are not symmetric",
                           witness=("asymmetry", (I, J)))
    # (ii) diagonal positivity
    for I in subsets(n, q):
        mu = T.cocoeff(I, I)
        for a in mu.atoms:
            if a.weight < 0:
                return Verdict("positive", "no", "negative diagonal atom",
                               witness=("diagonal_atom", I, a))
        for piece in mu.pieces:
            if piece.sign < 0:
                return Verdict("positive", "no", "negative diagonal density",
                               witness=("diagonal_piece", I, piece.key()))
            if piece.sign == 0:
                rng = random.Random(seed)
                for pt in piece.poly.sample_points(rng, samples):
                    if piece.density_fn().eval_float(pt) < -tol:
                        return Verdict("positive", "no", "diagonal density negative at a point",
                                       witness=("diagonal_point", I, pt))
    cells = _cell_matrices(T)
    if cells is None:
        return _sampled_positivity(T, samples, seed, tol)
    return _exact_positivity(T, cells)


def _sampled_positivity(T, samples, seed, tol):
    """Steps (iii) and (iv) of positivity_check, for currents off the exact route.

    (iii) the pointwise estimate 2 l_I l_J |T^{IJ}| <= l_I^2 T^{II} +
    l_J^2 T^{JJ} at every atom and at sampled points of every piece, each
    entry summed over the pieces at the point; points on the relative
    boundary of a piece, a null set, are skipped, since there closed
    pieces that meet would be summed as if they overlapped; (iv)
    evaluation >= 0 against ``samples`` random positive fiber forms times
    one fixed window test form per (I, J), each window integral computed
    once per call.
    """
    from .fiber import LagerbergFiberForm, positive_generator
    n, q = T.n, T.q
    # (iii) the 2x2 estimate on matched pieces and atoms
    rng = random.Random(seed + 1)
    for (I, J), mu in T.cocoeffs.items():
        if I == J:
            continue
        mu_II, mu_JJ = T.cocoeff(I, I), T.cocoeff(J, J)
        for a in mu.atoms:
            wII = point_value(mu_II, a.stratum, a.coords, atom=True)
            wJJ = point_value(mu_JJ, a.stratum, a.coords, atom=True)
            wIJ = float(a.weight) * mu.scale_float()
            if wIJ * wIJ > float(wII) * float(wJJ) + tol:
                return Verdict("positive", "no", "estimate fails on an atom",
                               witness=("estimate_atom", (I, J), a))
        for piece in mu.pieces:
            near = [other.poly for m in (mu, mu_II, mu_JJ) for other in m.pieces
                    if other.stratum == piece.stratum]
            for pt in piece.poly.sample_points(rng, samples):
                if any(_on_relative_boundary(poly, pt) for poly in near):
                    continue
                wIJ = point_value(mu, piece.stratum, pt)
                wII = point_value(mu_II, piece.stratum, pt)
                wJJ = point_value(mu_JJ, piece.stratum, pt)
                if wIJ * wIJ > wII * wJJ + tol:
                    return Verdict(
                        "positive", "no", "estimate fails pointwise on a density",
                        witness=("estimate_piece", (I, J), pt,
                                 (wIJ, wII, wJJ)))
    # (iv) sampled evaluation on positive test fields
    rng = random.Random(seed + 2)
    box = _pool_box(T)
    windows = {}
    bound = -tol * (1 + mass_estimate(T))
    for _ in range(samples):
        vec = {K: Fraction(rng.randint(-3, 3)) for K in subsets(n, q)}
        fiber = LagerbergFiberForm(
            n, q, 0, {(K, ()): c for K, c in vec.items() if c})
        if fiber.is_zero():
            continue
        val = _pair_constant_fiber(T, positive_generator(fiber), box, windows)
        if val < bound:
            return Verdict("positive", "no", "negative value on a positive test field",
                           witness=("evaluation", vec, val))
    return Verdict("positive", "yes")


def _on_relative_boundary(poly, pt):
    """Whether pt lies in the closure of poly but not in its relative interior."""
    if not poly.contains(pt, closure=True):
        return False
    eqs = poly.implied_equalities()
    return any(r.eval_slack(pt) == 0 for r in poly.rows if any(r.a) and r not in eqs)


def _nonneg_test_field(chart, q, box, rng):
    """A nonnegative (q,q) bump-box field: bump^2 times a coordinate
    positive generator."""
    from .fields import bump_box_field
    n = len(chart.basis)
    I = tuple(sorted(rng.sample(range(n), q)))
    sq = (-1) ** (q * (q - 1) // 2)
    return bump_box_field(chart, q, q, [((I, I), Poly.const(sq, n))],
                          [(b[0], b[1]) for b in box])


def _pair_constant_fiber(T, gen, box, windows):
    """T against (positive fiber form) x (nonnegative window test form).

    The window is a legal compactly supported coefficient: axes carrying
    the indices I u J (and all finite axes) get bumps, remaining infinite
    axes get plateaus so boundary atoms are seen.  It depends on (I, J)
    and ``box`` only, so ``windows`` keeps each integral against T^{IJ}
    from its first use on.
    """
    from .coeffs import plateau as _plateau
    n = T.n
    total = 0.0
    sq = (-1) ** (T.q * (T.q - 1) // 2)
    for (I, J), mu in T.cocoeffs.items():
        c = gen.get(I, J)
        if not c:
            continue
        if (I, J) not in windows:
            bad = set(I) | set(J)
            tables = {}
            for M in stratum_subsets(T.chart):
                if set(M) & bad:
                    continue
                fn = CoefficientFn.const(1, n)
                for i in range(n):
                    if i in M:
                        continue
                    if i in T.chart.infinite_axes and i not in bad:
                        lo = box[i][0]
                        fn = fn * _plateau(n, i, lo - 1, lo)
                    else:
                        fn = fn * CoefficientFn.bump_box(n, {i: (box[i][0], box[i][1])})
                tables[frozenset(M)] = fn
            windows[(I, J)] = integrate_against(tables, mu, tol=1e-8,
                                                allow_derivative_atoms=True)
        total += sq * float(c) * windows[(I, J)]
    return total


# --- exact positivity, cell by cell --------------------------------------------

def _closure(poly):
    if not any(r.strict for r in poly.rows):
        return poly
    return Polyhedron(poly.dim, [Row(r.a, r.b) for r in poly.rows])


def _minus(P, Q):
    """Closed cells covering P minus Q up to a null set, for closed P, Q
    of one affine hull and dimension: P cut by each facet row of Q in
    turn, keeping the parts of full dimension."""
    d = P.poly_dim()
    basis = P.affine_hull()[1]
    out, kept = [], []
    for r in Q.rows:
        if not any(sum(a * x for a, x in zip(r.a, v)) for v in basis):
            continue        # constant on the hull
        part = P.with_rows(kept + [Row(tuple(-a for a in r.a), -r.b)])
        if part.poly_dim() == d:
            out.append(part)
        kept.append(r)
    return out


def _split_overlaps(group):
    """Cells [poly, expo, weights] of one stratum, dimension and affine
    hull, split along each other's facet rows until any two meet in lower
    dimension; an overlap's weights add up.  None when overlapping cells
    carry different exponents."""
    done, todo = [], list(group)
    while todo:
        P, E, w = todo.pop()
        for t, (Q, F, v) in enumerate(done):
            common = P.intersect(Q)
            if common.poly_dim() < P.poly_dim():
                continue
            if E != F:
                return None
            del done[t]
            total = dict(v)
            for k, x in w.items():
                total[k] = total.get(k, 0) + x
            done += [(common, E, total)] + [(R, F, v) for R in _minus(Q, P)]
            todo += [(R, E, w) for R in _minus(P, Q)]
            break
        else:
            done.append((P, E, w))
    return done


def _cell_matrices(T):
    """[(where, site, N, den)] for the exact positivity route, or None.

    Applies when every piece has a constant weight_poly, the pieces on one
    cell share one weight_expo and all co-coefficients one pi power; then
    the matrix (T^{IJ}) is pi^k exp(E) M on a cell with exponent E, and M
    at an atom point, with M the rational matrix over subsets(n, q) of
    the summed weights times the rational scales.  Cells are the closed
    polyhedra of the pieces, keyed by (stratum, polyhedron); cells of
    one stratum and affine hull that overlap are split by
    ``_split_overlaps``, while cells of other dimensions or affine hulls
    are mutually singular and stay apart.  ``where`` is ("cell", stratum,
    key) or ("atom", stratum, coords), strata as sorted tuples; ``site``
    is the cell's polyhedron, or the atom point's (stratum, coords).  M is
    cleared where it is built, M = N / den with N an integer matrix.  A
    point cell at an atom point gives None as well.
    """
    if len({mu.scale[1] for mu in T.cocoeffs.values()}) > 1:
        return None
    cells, points = {}, {}
    for (I, J), mu in T.cocoeffs.items():
        c = mu.scale[0]
        for a in mu.atoms:
            w = points.setdefault((a.stratum, a.coords), {})
            w[(I, J)] = w.get((I, J), 0) + c * a.weight
        for piece in mu.pieces:
            if piece.weight_poly.degree():
                return None
            if piece.poly.is_empty():
                continue
            poly = _closure(piece.poly)
            _, E, w = cells.setdefault((piece.stratum, poly), (poly, piece.weight_expo, {}))
            if E != piece.weight_expo:
                return None
            w[(I, J)] = w.get((I, J), 0) + c * sum(piece.weight_poly.exps.values())
    groups = {}
    for (stratum, _), cell in cells.items():
        groups.setdefault((stratum, cell[0].poly_dim()), []).append(cell)
    refined = []
    for (stratum, d), group in groups.items():
        if len(group) > 1:
            hulls = {}
            for cell in group:
                hulls.setdefault(cell[0].hull_key, []).append(cell)
            group = []
            for same_hull in hulls.values():
                split = _split_overlaps(same_hull)
                if split is None:
                    return None
                group += split
        for P, _, w in group:
            if d == 0 and (stratum, P.feasible_point()) in points:
                return None
            refined.append((("cell", tuple(sorted(stratum)), P.canonical_key()), P, w))
    refined += [(("atom", tuple(sorted(stratum)), coords), (stratum, coords), w)
                for (stratum, coords), w in points.items()]
    idx = subsets(T.n, T.q)
    pos = {K: t for t, K in enumerate(idx)}
    out = []
    for where, site, w in sorted(refined, key=lambda e: e[0]):
        den, ints = exact.integer_parts(list(w.values()))
        N = [[0] * len(idx) for _ in idx]
        for (I, J), x in zip(w, ints):
            N[pos[I]][pos[J]] = x
        out.append((where, site, N, den))
    return out


def _minor(N, den, i, j):
    """(M_ij, M_ii, M_jj) of M = N / den, as Fractions."""
    return Fraction(N[i][j], den), Fraction(N[i][i], den), Fraction(N[j][j], den)


def _exact_positivity(T, cells):
    """The exact verdict of positivity_check from ``_cell_matrices``, by exact.gram_verdict."""
    idx = subsets(T.n, T.q)
    entries = []
    for where, site, N, den in cells:
        v = exact.gram_verdict(idx, N, den)
        if v.yes:
            entries.append((where, tuple(v.certificate[1])))
            continue
        for (I, J), mu in T.cocoeffs.items():
            i, j = idx.index(I), idx.index(J)
            if I == J or N[i][j] ** 2 <= N[i][i] * N[j][j]:
                continue
            if where[0] == "atom":
                atom = next(a for a in mu.atoms if (a.stratum, a.coords) == site)
                return Verdict("positive", "no", "estimate fails on an atom",
                               witness=("estimate_atom", (I, J), atom), exact=True)
            return Verdict("positive", "no", "estimate fails pointwise on a density",
                           witness=("estimate_piece", (I, J), site.feasible_point(),
                                    _minor(N, den, i, j)), exact=True)
        return v.replace(reason="negative value on a positive test field", exact=True)
    return Verdict("positive", "yes", certificate=("cells", tuple(entries)), exact=True)


def reverify_positivity(T, verdict):
    """Exact re-check of an exact positivity verdict against T; bool.

    False unless T is a LagerbergCurrent and the verdict an exact one of
    the positive tier.  Rebuilds T's cell matrices.  A ("cells", entries)
    certificate must name exactly those cells and atom points, each with a
    decomposition of its matrix, and an evaluation witness must hold on one
    of them: exact.gram_claim_holds checks both.  An estimate_piece or
    estimate_atom witness must name a cell (by its feasible point) or atom
    point whose matrix fails that 2x2 minor.
    """
    data = verdict.certificate if verdict.yes else verdict.witness
    exact_route = (isinstance(T, LagerbergCurrent) and verdict.exact and data
                   and verdict.tier == "positive" and T.has_measure_model()
                   and T.is_measure_class())
    cells = _cell_matrices(T) if exact_route else None
    if cells is None:
        return False
    idx = subsets(T.n, T.q)
    if verdict.yes:
        kind, entries = data
        mats = {where: (N, den) for where, _, N, den in cells}
        return (kind == "cells" and len(entries) == len(mats)
                and {where for where, _ in entries} == set(mats)
                and all(exact.gram_claim_holds(idx, *mats[where], ("decomposition", terms))
                        for where, terms in entries))
    kind = data[0]
    if kind == "evaluation":
        return any(exact.gram_claim_holds(idx, N, den, data) for _, _, N, den in cells)
    if kind not in ("estimate_piece", "estimate_atom"):
        return False
    I, J = data[1]
    i, j = idx.index(I), idx.index(J)
    if kind == "estimate_piece":
        _, _, pt, values = data
        minors = [_minor(N, den, i, j) for where, site, N, den in cells
                  if where[0] == "cell" and site.feasible_point() == pt]
        minors = [m for m in minors if m == values]
    else:
        atom = data[2]
        minors = [_minor(N, den, i, j) for where, site, N, den in cells
                  if where[0] == "atom" and site == (atom.stratum, atom.coords)
                  and atom in T.cocoeff(I, J).atoms]
    return any(wIJ ** 2 > wII * wJJ for wIJ, wII, wJJ in minors)


# --- decomposition -------------------------------------------------------------------

def canonical_decomposition(T, assume_positive=False, samples=12, seed=0):
    """Unique stratum decomposition T = sum over strata of T_sigma.

    Each summand keeps exactly the piece mass sitting on its stratum; the
    complement of the stratum is a null set for the summand by
    construction.  Requires positivity.
    """
    if not assume_positive:
        verdict = positivity_check(T, samples=samples, seed=seed)
        if not verdict.yes:
            raise NotPositive("canonical decomposition needs a positive current",
                              payload=verdict.witness)
    return {M: LagerbergCurrent(T.chart, T.p, coco)
            for M, coco in split_by_stratum(T.chart, T.cocoeffs).items()}


def split_by_stratum(chart, measures):
    """{M: {k: the part of measures[k] on stratum M}} over the strata with mass."""
    out = {}
    for M in stratum_subsets(chart):
        parts = {}
        for k, mu in measures.items():
            part = restrict_measure(mu, M)
            if not part.is_zero():
                parts[k] = part
        if parts:
            out[M] = parts
    return out


def resum(parts, template):
    acc = LagerbergCurrent(template.chart, template.p, {})
    for cur in parts.values():
        acc = acc + cur
    return acc


# --- C-finite mass ---------------------------------------------------------------------

def c_finite_witness(chart, measures):
    """None when every boundary-weighted total variation
    |mu^{IJ}| exp(-sum u_I) exp(-sum u_J) admits an image Radon measure on
    the whole chart, else the first failing (I, J) with its ray.

    Read off the pieces in total-variation order, building no measure: the
    weighted |piece| is keyed only for the witness.  Each piece is checked
    by ``escape_failure`` along the rays of its one escape cone, computed
    once per polyhedron; a ray goes to the stratum of the axes it grows on."""
    n = len(chart.basis)
    for (I, J), mu in measures.items():
        weight = [-(i in I) - (i in J) for i in range(n)]
        for piece in sign_pure_pieces(mu):
            tilt = [weight[i] for i in range(n) if i not in piece.stratum]
            failure = escape_failure(piece, chart, tilt)
            if failure is not None:
                size = piece.weight_poly if piece.sign > 0 else piece.weight_poly.scale(-1)
                weighted = Piece(piece.stratum, piece.poly, size,
                                 piece.weight_expo + Poly.linear(tilt), max(piece.sign, 1))
                return {"I": I, "J": J, "stratum": failure[0], "ray": failure[1],
                        "piece": weighted.key()}
    return None


def c_finite_test(T):
    """Exact decision of C-finite local mass (callers ensure positivity).

    Every co-coefficient must pass ``c_finite_witness``; the first
    failing ray is the witness.
    """
    if not T.is_measure_class():
        raise NonMeasurePiece("c_finite_test needs measure co-coefficients")
    witness = c_finite_witness(T.chart, T.cocoeffs)
    return Verdict("c_finite", "yes" if witness is None else "no", witness=witness, exact=True)


# --- extension by zero ------------------------------------------------------------------

def extend_by_zero(T, seed=0):
    """Skoda-El-Mir style extension by zero across the boundary strata.

    T must be positive (positivity_check at 10 samples, else NotPositive)
    and have C-finite local mass on the chart (c_finite_test, else NotCFinite).
    The second check also gives each co-coefficient its image Radon
    measure on the chart minus its own exceptional locus E^{I u J}: the
    pieces avoid E^{I u J}, and along their escape rays the boundary
    weight of c_finite_test has rate zero.  The result restricts back to
    T and stays positive, with closedness re-checkable via closedness_test.
    """
    v = positivity_check(T, samples=10, seed=seed)
    if not v.yes:
        raise NotPositive("extension by zero needs a positive current",
                          payload=v.witness)
    cf = c_finite_test(T)
    if not cf.yes:
        raise NotCFinite("current does not have C-finite local mass on the chart",
                         payload=cf.witness)
    return LagerbergCurrent(T.chart, T.p, dict(T.cocoeffs))


# --- integration currents of weighted complexes ------------------------------------------

class WeightedComplex(Value):
    """Pure-dimensional weighted integral polyhedral complex in N_R.

    Nothing checks that the cells meet face to face: they may overlap, or
    meet in part of a face.
    """
    __slots__ = _fields = ("cells", "declared_dim")

    def __init__(self, cells, declared_dim=None):
        # cells: (Polyhedron, weight) pairs, exact integer weights only
        # (truncating 1/2 to 0 would empty the complex); _integrated_complex
        # passes Fractions whose denominator is 1
        for _, w in cells:
            if not isinstance(w, (int, Fraction)) or w.denominator != 1:
                raise ValidationError(f"cell weight {w!r} is not an integer")
        super().__init__(tuple((poly, int(w)) for poly, w in cells), declared_dim)

    def dim(self):
        dims = {poly.poly_dim() for poly, w in self.cells if w != 0}
        if not dims:
            return self.declared_dim if self.declared_dim is not None else -1
        if len(dims) > 1:
            raise MixedDimension(f"cells of mixed dimensions {sorted(dims)}")
        return dims.pop()


def integration_current(C, chart):
    """delta_C: the integration current of a weighted complex, on ``chart``.

    In an integral affine parametrization u = A t + b of a cell, the
    pullback of d'u_I ^ d''u_J contributes det(A_I) det(A_J), so the
    co-coefficients are Lebesgue densities on the cells with those
    constant weights (lattice-normalized by the direction lattice); the
    minors are each cell's ``Polyhedron.minors``, computed once per cell.
    The current keeps no reference to C: ``_integrated_complex`` reads a
    complex back from the co-coefficients.
    """
    p = max(C.dim(), 0)       # an empty complex gives the zero current
    n = len(chart.basis)
    if p > n:
        raise MixedDimension(f"cells of dimension {p} exceed the chart rank")
    pieces = {}
    for poly, w in C.cells:
        for (I, detI), (J, detJ) in itertools.product(poly.minors if w else (), repeat=2):
            weight = Fraction(w) * detI * detJ
            pieces.setdefault((I, J), []).append(Piece(
                frozenset(), poly, Poly.const(weight, n), Poly.zero(n), 1 if weight > 0 else -1))
    coco = {k: PieceMeasure(n, pieces=v, certify=False) for k, v in pieces.items()}
    return LagerbergCurrent(chart, n - p, coco)


def _integrated_complex(T):
    """The weighted complex C with T = integration_current(C), or None.

    The cells are the distinct polyhedra of T's pieces, in order of first
    appearance; each must carry a constant density on the open stratum and
    have dimension q.  One pass sums the weights c * w of the pieces per
    (I, J) and cell, dropping zero sums as the keys of equal measures do.
    A cell's weight is its sum in the first diagonal key (I, I) with
    det(A_I) != 0, divided by det(A_I)^2.  C is accepted only when the sums
    are exactly weight * det(A_I) * det(A_J) over the pairs of nonzero
    minors of the cells of nonzero weight, under the same (I, J) keys: an
    (I, J) whose pieces cancel is rejected.  The weights are brought to
    integers by their common denominator den, so rational multiples of
    integration currents are recognised too, and then
    T == integration_current(C).scale(1/den).  Atoms, derivative atoms, a
    pi power, a non-constant density or a nonzero exponent give None.
    """
    if not T.has_measure_model():
        return None
    cells, sums = {}, {}
    for (I, J), mu in T.cocoeffs.items():
        if mu.atoms or mu.derivative_atoms or mu.scale[1]:
            return None
        acc = {}
        for piece in mu.pieces:
            if piece.stratum or piece.weight_poly.degree() or piece.weight_expo.degree():
                return None
            cells.setdefault(piece.poly)
            w = sum(piece.weight_poly.exps.values())
            if w and not piece.weight_expo.is_zero():
                return None
            acc[piece.poly] = acc.get(piece.poly, 0) + mu.scale[0] * w
        sums[(I, J)] = {poly: w for poly, w in acc.items() if w}
    weights, expected = [], {}
    for poly in cells:
        if poly.poly_dim() != T.q:
            return None
        I, det = poly.minors[0]
        w = Fraction(sums.get((I, I), {}).get(poly, 0)) / det ** 2
        weights.append((poly, w))
        for (I, detI), (J, detJ) in itertools.product(poly.minors if w else (), repeat=2):
            expected.setdefault((I, J), {})[poly] = w * detI * detJ
    if sums != expected:
        return None
    den = math.lcm(*(w.denominator for _, w in weights))
    return WeightedComplex(tuple((poly, w * den) for poly, w in weights), declared_dim=T.q)


def balancing_check(C):
    """Exact rational balancing at every codimension-one face.

    Each cell's facets come with their primitive inward normals
    (``Polyhedron.facets``, computed once per cell).  When per facet key
    the weighted normals sum into the face's direction span, which the
    key's points and rays span, the complex balances, and no polyhedron is
    built.  A key that fails is decided on its affine hull H.  If no facet
    under another key lies in H, the key is the witness, with its residual
    sum.  Else every facet in H is taken as a polyhedron
    (``polyhedra.facet_polyhedron``), split where facets overlap
    (``_split_overlaps``), and the weighted normals must sum into the
    span on each piece; the witness is a piece that fails, with its key
    (``polyhedra.face_key``): the failing key itself when it is such a
    piece.
    """
    p = C.dim()
    if p <= 0:
        return Verdict("balanced", "yes", exact=True)
    sums, facets = {}, []
    for poly, w in C.cells:
        if w == 0:
            continue
        for key, normal in poly.facets:
            total = sums.get(key, (Fraction(0),) * len(normal))
            sums[key] = tuple(t + w * x for t, x in zip(total, normal))
            facets.append((poly, w, key, normal))
    settled = set()         # keys on a hull whose pieces balance
    for key, total in sums.items():
        span = face_directions(key)
        if key in settled or not _leaves_span(total, span):
            continue
        # the facets whose key lies in the affine hull of this one
        r, base = exact.rank(span), key[0][0]
        hull = [(poly, w, k, normal) for poly, w, k, normal in facets
                if exact.rank(span + face_directions(k) + [tuple(a - b for a, b in zip(k[0][0], base))]) == r]
        if any(k != key for _, _, k, _ in hull):
            pieces = _split_overlaps([(facet_polyhedron(poly, k), None, dict(enumerate(w * x for x in normal)))
                                      for poly, w, k, normal in hull])
            failing = {}
            for P, _, s in pieces:
                residual = tuple(Fraction(s.get(i, 0)) for i in range(len(total)))
                if _leaves_span(residual, span):
                    failing[face_key(P)] = residual
            if not failing:
                settled.update(k for _, _, k, _ in hull)
                continue
            if key not in failing:
                key, total = next(iter(failing.items()))
        return Verdict("balanced", "no", witness={"face": key, "residual": total}, exact=True)
    return Verdict("balanced", "yes", exact=True)


def _leaves_span(v, span):
    """Whether the vector v is not in the span of the vectors ``span``."""
    return any(v) and exact.rank(span + [v]) > exact.rank(span)

