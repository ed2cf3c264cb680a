"""Concrete signed Radon measures on chart strata: atoms + densities.

A PieceMeasure lives on the strata of a toric chart: finitely many
weighted atoms at compactified points, plus densities pol(u) exp(E(u))
(deg E <= 2) on rational polyhedra inside single strata, each carrying a
certified constant sign.  One extra exemplar kind, derivative atoms,
represents the single non-measure co-coefficient needed by the weakly
positive counterexample; every measure-semantics operation rejects it
unless explicitly told otherwise.

Measures carry an exact global prefactor c * pi^k so that the
trop-normalization constants of the correspondence module stay symbolic
and round trips compare bit-for-bit.

Local finiteness toward the boundary is decided exactly on the quadratic
exponent family: along every generator of each escape subcone of a
piece's recession cone, the exponent must decay (negative quadratic
part, or vanishing quadratic part and negative supremum of the linear
rate over the piece).
"""

import math
from fractions import Fraction
from functools import cached_property

from . import exact
from .coeffs import CoefficientFn, Poly
from .errors import (DimensionMismatch, Divergent, NonMeasurePiece, SignNotCertified,
                     ToleranceNotMet, ValidationError, Value, float_range)
from .exact import frac
from .polyhedra import Polyhedron, axis_range, midpoint, parametrize


class Atom(Value):
    """Weighted point: stratum (axes at infinity) + finite coordinates.

    ``coords`` lists the finite-axis coordinates in increasing axis
    order (length = chart dim - len(stratum)).
    """
    __slots__ = _fields = ("stratum", "coords", "weight")


class DerivativeAtom(Value):
    """Exemplar non-measure piece: f -> -weight * (directional derivative)."""
    __slots__ = _fields = ("stratum", "coords", "direction", "weight")


class Piece(Value):
    """Density pol * exp(expo) on a polyhedron inside one stratum.

    The polyhedron and both polynomials live in the stratum's finite-axis
    coordinates; ``sign`` is the certified constant sign of the density
    on the piece.
    """
    __slots__ = _fields = ("stratum", "poly", "weight_poly", "weight_expo", "sign")

    def key(self):
        return (tuple(sorted(self.stratum)), self.poly.canonical_key(),
                self.weight_poly.key(), self.weight_expo.key(), self.sign)

    def density_fn(self):
        return CoefficientFn.poly_exp(self.weight_poly, self.weight_expo)


def lebesgue_piece(stratum, poly, weight=1, expo=None, sign=None):
    """Constant-or-polynomial density piece with automatic sign handling."""
    d = poly.dim
    if isinstance(weight, Poly):
        wp = weight
    else:
        wp = Poly.const(weight, d)
    we = expo if expo is not None else Poly.zero(d)
    if sign is None:
        if len(wp.exps) <= 1:
            c = next(iter(wp.exps.values()), Fraction(0))
            sign = 1 if c >= 0 else -1
        else:
            raise SignNotCertified("pass sign= for non-monomial weights")
    return Piece(frozenset(stratum), poly, wp, we, sign)


class PieceMeasure:
    """Signed Radon measure: atoms + sign-pure density pieces (+ exemplars).

    The constructor merges atoms at one point, drops zero weights, checks
    the prefactor, dimensions and exponent degrees and certifies signs.
    ``certify=False`` trusts all of it, for results of operations on valid
    measures, whose atoms are merged and nonzero already and whose scale is
    a (Fraction >= 0, int) pair: ``__add__`` merges its atoms itself, and
    ``with_scale`` checks its factor.  The canonical key is computed once.
    """

    def __init__(self, n, atoms=(), pieces=(), derivative_atoms=(),
                 scale=(Fraction(1), 0), certify=True):
        self.n = n
        self.atoms = _merged(atoms) if certify else tuple(atoms)
        self.pieces = tuple(pieces)
        self.derivative_atoms = tuple(derivative_atoms)
        self.scale = (_prefactor(scale[0]), int(scale[1])) if certify else scale
        if not certify:
            return
        for a in self.atoms:
            if len(a.coords) != n - len(a.stratum):
                raise ValidationError("atom coords do not match its stratum")
        for p in self.pieces:
            if p.poly.dim != n - len(p.stratum):
                raise ValidationError("piece polyhedron dim does not match its stratum")
            if p.weight_expo.degree() > 2:
                raise ValidationError("exponent degree > 2 is outside the family")
            certify_sign(p)

    # --- structure ---------------------------------------------------------
    def is_measure(self):
        return not self.derivative_atoms

    def is_zero(self):
        return not (self.atoms or self.pieces or self.derivative_atoms)

    def scale_float(self):
        c, k = self.scale
        return float(c) * math.pi ** k

    def canonical_key(self):
        return self._key

    @cached_property
    def _key(self):
        """The key of the measure with its rational prefactor c folded into
        the weights, c * pi^k read as pi^k: each weight is read times c."""
        c, k = self.scale
        return (self.n, Fraction(1), k,
                tuple(sorted((tuple(sorted(a.stratum)), a.coords, a.weight * c)
                             for a in self.atoms if c)),
                tuple(sorted(self._piece_keys(c))),
                tuple(sorted((tuple(sorted(d.stratum)), d.coords, d.direction, d.weight * c)
                             for d in self.derivative_atoms)))

    def _piece_keys(self, c):
        """Piece keys, weights times c (> 0, or 0 to drop them), with
        constant-density pieces on one polyhedron merged into one key of the
        summed weight: equal measures, equal keys."""
        constant = {}       # by (stratum, polyhedron, exponent): each hash is cached
        for p in self.pieces:
            if p.weight_poly.is_zero() or not c:
                continue
            if p.weight_poly.degree() or not p.weight_expo.is_zero():
                key = p.key()
                yield key[:2] + (tuple((e, w * c) for e, w in key[2]),) + key[3:]
                continue
            (e, w), = p.weight_poly.exps.items()
            where = (p.stratum, p.poly, e)
            constant[where] = constant.get(where, 0) + w * c
        for (stratum, poly, e), w in constant.items():
            if w:
                yield (tuple(sorted(stratum)), poly.canonical_key(), ((e, w),), (), 1 if w > 0 else -1)

    def __eq__(self, other):
        return (isinstance(other, PieceMeasure)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def with_scale(self, cfrac, pipow):
        c, k = self.scale
        return PieceMeasure(self.n, self.atoms, self.pieces, self.derivative_atoms,
                            (c * _prefactor(cfrac), k + int(pipow)), certify=False)

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension mismatch: {self.n} vs {other.n}")
        a, b = self, other
        if a.scale != b.scale:
            if a.scale[1] != b.scale[1]:
                raise ValueError("cannot add measures with different pi powers")
            # each prefactor folded into its weights, pi^k kept
            one = (Fraction(1), a.scale[1])
            a, b = a._times(a.scale[0], one), b._times(b.scale[0], one)
        return PieceMeasure(self.n, _merged(a.atoms + b.atoms), a.pieces + b.pieces,
                            a.derivative_atoms + b.derivative_atoms, a.scale,
                            certify=False)

    def scale_weights(self, c):
        """Multiply all weights by a rational scalar (sign flags tracked)."""
        c = frac(c)
        return PieceMeasure.zero(self.n) if c == 0 else self._times(c, self.scale)

    def _times(self, c, scale):
        """All weights times c, sign flags flipped when c < 0, under ``scale``."""
        s = -1 if c < 0 else 1
        atoms = [Atom(a.stratum, a.coords, a.weight * c) for a in self.atoms]
        pieces = [Piece(p.stratum, p.poly, p.weight_poly.scale(c), p.weight_expo,
                        p.sign * s) for p in self.pieces]
        der = [DerivativeAtom(d.stratum, d.coords, d.direction, d.weight * c)
               for d in self.derivative_atoms]
        return PieceMeasure(self.n, atoms, pieces, der, scale, certify=False)

    def __repr__(self):
        return (f"PieceMeasure(n={self.n}, atoms={len(self.atoms)}, "
                f"pieces={len(self.pieces)}, der={len(self.derivative_atoms)}, "
                f"scale={self.scale})")

    @staticmethod
    def zero(n):
        return PieceMeasure(n)


def _prefactor(c):
    """c as a Fraction; a negative prefactor is a ValidationError."""
    c = frac(c)
    if c < 0:
        raise ValidationError("scale prefactor must be positive; fold signs into weights")
    return c


def _merged(atoms):
    """The atoms with those at one point added up and zero weights dropped,
    in order of first appearance."""
    merged = {}
    for a in atoms:
        key = (frozenset(a.stratum), tuple(frac(c) for c in a.coords))
        merged[key] = merged.get(key, 0) + frac(a.weight)
    return tuple(Atom(s, c, w) for (s, c), w in merged.items() if w != 0)


# --- sign certification ---------------------------------------------------------

def _univariate_profile(poly):
    """(axis, coefficient dict) when the polynomial uses one variable."""
    used = set()
    for e in poly.exps:
        used |= {i for i, x in enumerate(e) if x}
    if len(used) > 1:
        return None
    axis = next(iter(used), 0)
    coeffs = {}
    for e, c in poly.exps.items():
        coeffs[e[axis] if used else 0] = c
    deg = max(coeffs, default=0)
    return axis, [coeffs.get(d, Fraction(0)) for d in range(deg + 1)]


def _squarefree_part(coeffs):
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return p
    dp = [i * c for i, c in enumerate(p)][1:]
    g = _poly_gcd(p, dp)
    if len(g) <= 1:
        return p
    q, r = exact._poly_div(p, g)
    return q if not any(r) else p


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(b):
        _, r = exact._poly_div(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    if a and a[-1] != 0:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def certify_sign(piece):
    """Check the declared sign of a density piece.

    Exponentials are positive, so the sign comes from the polynomial:
    constants are trivial; univariate polynomials get exact root
    isolation (no root of the square-free part inside the open projection
    interval proves constant sign); anything else counts as a declared
    certificate and is re-checked on 1000 seeded rational samples; sign 0
    declares nothing, so there is nothing to check.  Raises
    SignNotCertified with a witness on failure.
    """
    poly = piece.weight_poly
    if poly.is_zero() or piece.sign == 0:
        return True
    if len(poly.exps) == 1 and sum(next(iter(poly.exps))) == 0:
        c = next(iter(poly.exps.values()))
        if (c > 0) == (piece.sign > 0):
            return True
        raise SignNotCertified("constant weight contradicts declared sign",
                               payload={"constant": c})
    prof = _univariate_profile(poly)
    if prof is not None:
        axis, coeffs = prof
        e = [Fraction(0)] * piece.poly.dim
        e[axis] = Fraction(1)
        lo, hi, empty = piece.poly.linear_bounds(tuple(e))
        if empty:
            return True
        sf = _squarefree_part(coeffs)
        interior = exact.sturm_roots_in(sf, lo, hi)        # roots in (lo, hi]
        if hi is not None and exact._poly_eval(sf, hi) == 0:
            interior -= 1
        if interior == 0:
            # constant sign inside: check one interior value exactly
            x = midpoint(lo, hi)
            val = exact._poly_eval(coeffs, x)
            if val != 0 and (val > 0) != (piece.sign > 0):
                raise SignNotCertified("sign flag contradicts the density",
                                       payload={"axis_value": x, "value": val})
            return True
        # interior roots of the square-free part: fall through to sampling
    import random as _random
    pts = piece.poly.sample_points(_random.Random(0), 1000)
    for pt in pts:
        val = poly.eval(pt)
        if val != 0 and (val > 0) != (piece.sign > 0):
            raise SignNotCertified("sampled density value contradicts sign flag",
                                   payload={"point": pt, "value": val})
    return True


# --- core operations -----------------------------------------------------------------

@float_range
def integrate_against(f, mu, tol=1e-8, allow_derivative_atoms=False):
    """sum of atom weights * f + sum over pieces of the density integral.

    ``f`` is a CoefficientFn on the chart coordinates or a dict stratum ->
    CoefficientFn.  Per piece the integral is computed in a lattice-adapted
    parametrization; bounded domains (after clipping by the integrand's
    support box) use closed forms when bump-free, else adaptive
    quadrature; unbounded domains require certified exponential decay and
    are truncated adaptively.
    """
    if mu.derivative_atoms and not allow_derivative_atoms:
        raise NonMeasurePiece("measure contains derivative-atom exemplars",
                              payload={"count": len(mu.derivative_atoms)})

    def table_for(stratum):
        if isinstance(f, dict):
            fn = f.get(frozenset(stratum))
            return fn
        return f

    total = 0.0
    n = mu.n
    for atom in mu.atoms:
        fn = table_for(atom.stratum)
        if fn is None:
            continue
        dead = fn.drop_axis_dependence() & atom.stratum
        if dead:
            raise ValueError(f"integrand depends on infinite axes {dead}")
        u = _embed_point(n, atom.stratum, atom.coords)
        total += float(atom.weight) * fn.eval_float(u)
    for datom in mu.derivative_atoms:
        fn = table_for(datom.stratum)
        if fn is None:
            continue
        finite_axes = [i for i in range(n) if i not in datom.stratum]
        dfn = CoefficientFn.zero(n)
        for t, axis in enumerate(finite_axes):
            c = frac(datom.direction[t])
            if c != 0:
                dfn = dfn + fn.diff(axis).scale(c)
        u = _embed_point(n, datom.stratum, datom.coords)
        total += float(datom.weight) * (-dfn.eval_float(u))
    for piece in mu.pieces:
        fn = table_for(piece.stratum)
        if fn is None or fn.is_zero():
            continue
        total += _integrate_piece(fn, piece, n, tol)
    return mu.scale_float() * total


def _embed_point(n, stratum, coords):
    u = [0.0] * n
    finite_axes = [i for i in range(n) if i not in stratum]
    for i, c in zip(finite_axes, coords):
        u[i] = float(c)
    return u


def _stratum_embedding(n, stratum):
    """Affine data (A, b) with u_chart = A t + b for stratum coordinates.

    Dead axes get value 0 (integrands never depend on them there)."""
    finite_axes = [i for i in range(n) if i not in stratum]
    A = [[Fraction(0)] * len(finite_axes) for _ in range(n)]
    for j, i in enumerate(finite_axes):
        A[i][j] = Fraction(1)
    b = [Fraction(0)] * n
    return A, b


def _integrate_piece(fn, piece, n, tol):
    dead = fn.drop_axis_dependence() & piece.stratum
    if dead:
        raise ValueError(f"integrand depends on infinite axes {dead}")
    d = piece.poly.dim
    # integrand on stratum coordinates
    A, b = _stratum_embedding(n, piece.stratum)
    f_strat = fn.substitute_affine(A, b, d)
    g = f_strat * piece.density_fn()
    dom = piece.poly
    # clip by the integrand's support box
    sup = g.support_box()
    clipped = dom.intersect(Polyhedron.box([s or (None, None) for s in sup])) if any(sup) else dom
    if clipped.is_empty():
        return 0.0
    par = parametrize(clipped)
    if par is None:
        return 0.0
    Amap, u0, domain = par
    k = domain.dim
    if k == 0:
        return g.eval_float(u0)
    h = g.substitute_affine(Amap, u0, k)
    if h.is_zero():
        return 0.0
    if domain.is_bounded():
        return _integrate_bounded(h, domain, tol)
    # unbounded: certify decay toward every recession direction, truncate
    _require_decay(h, domain)
    return _integrate_truncated(h, domain, tol)


def _axis_box(domain):
    """Per-axis exact bounds of a bounded nonempty box; None otherwise.

    A domain is a box exactly when every row is axis-aligned, and then its
    bounds are read from the rows, as they stand cleared in its last stage.
    """
    if any(sum(c != 0 for c in r.a) > 1 for r in domain.rows) or domain.is_empty():
        return None
    box = [axis_range(domain._stages[-1], i) for i in range(domain.dim)]
    return None if any(None in b for b in box) else box


def _integrate_bounded(h, domain, tol):
    from . import quadrature
    box = _axis_box(domain)
    if box is not None:
        return quadrature.box_integral(h, box, tol) if all(lo < hi for lo, hi in box) else 0.0
    verts = [tuple(float(x) for x in v) for v in domain.vertices()]
    if len(verts) < domain.dim + 1:
        return 0.0
    simplices = quadrature.triangulate_vertices(verts)
    total = 0.0
    per_tol = tol / max(len(simplices), 1)
    for s in simplices:
        total += quadrature.adaptive_simplex(h.eval_float, [verts[i] for i in s], per_tol)
    return total


def _expo_quadratic_on(expo, v):
    """Coefficient of t^2 in expo(u0 + t v) (u0-independent)."""
    out = Fraction(0)
    d = expo.nvars
    for e, c in expo.exps.items():
        if sum(e) != 2:
            continue
        idx = [i for i, x in enumerate(e) for _ in range(x)]
        out += c * frac(v[idx[0]]) * frac(v[idx[1]])
    return out


def _expo_linear_rate(expo, v):
    """gradient(expo)(u) . v as a Poly in u (affine when deg expo <= 2), built once."""
    out = {}
    for i, c in enumerate(map(frac, v[:expo.nvars])):
        for e, x in expo.exps.items() if c else ():
            if e[i]:
                key = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[key] = out.get(key, 0) + x * e[i] * c
    return Poly(out, expo.nvars)


def decay_along(expo, domain, v):
    """'decays' / 'neutral_or_grows' for exp(expo) along recession ray v."""
    q = _expo_quadratic_on(expo, v)
    if q < 0:
        return "decays"
    if q > 0:
        return "neutral_or_grows"
    rate = _expo_linear_rate(expo, v)
    # affine rate: sup over the domain must be negative
    const = rate.exps.get(tuple([0] * rate.nvars), Fraction(0))
    lin = [rate.exps.get(tuple(int(j == i) for j in range(rate.nvars)), Fraction(0))
           for i in range(rate.nvars)]
    if all(c == 0 for c in lin):
        return "decays" if const < 0 else "neutral_or_grows"
    lo, hi, empty = domain.linear_bounds(tuple(lin))
    if empty:
        return "decays"
    if hi is None:
        return "neutral_or_grows"
    return "decays" if const + hi < 0 else "neutral_or_grows"


def _require_decay(h, domain):
    gens = [g for g in domain.recession_generators() if any(g)]
    for _, expo, _ in h.terms:
        for v in gens:
            if decay_along(expo, domain, v) != "decays":
                raise Divergent("integrand does not decay along a recession ray",
                                payload={"ray": v, "exponent": repr(expo)})
        if expo.degree() == 2 and len(gens) > 1:
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    cross = _expo_quadratic_on(expo, tuple(a + b for a, b in
                                                           zip(gens[i], gens[j])))
                    ci = _expo_quadratic_on(expo, gens[i])
                    cj = _expo_quadratic_on(expo, gens[j])
                    if cross - ci - cj > 0:   # 2 Q(v_i, v_j) > 0
                        raise Divergent(
                            "indefinite quadratic exponent over a multi-ray cone",
                            payload={"rays": (gens[i], gens[j])})


def _integrate_truncated(h, domain, tol):
    verts = domain.vertices() or [domain.feasible_point()]
    base = max((abs(float(c)) for v in verts for c in v), default=1.0) + 1.0
    R = max(base, 4.0)
    prev = None
    for _ in range(30):
        bound = Fraction(int(math.ceil(R)))
        clipped = domain.intersect(Polyhedron.box([(-bound, bound)] * domain.dim))
        val = _integrate_bounded(h, clipped, tol / 4)
        if prev is not None and abs(val - prev) <= tol / 2:
            return val
        prev = val
        R *= 2
    raise ToleranceNotMet("truncated integral did not stabilize",
                          payload={"radius": R})


def sign_pure_pieces(mu):
    """mu's pieces in total-variation order, positive ones first; raises where |mu| is undefined."""
    if not mu.is_measure():
        raise NonMeasurePiece("derivative atoms have no total variation")
    for p in mu.pieces:
        if p.sign == 0:
            raise SignNotCertified("piece without a certified sign",
                                   payload={"piece": p.key()})
    return [p for p in mu.pieces if p.sign > 0] + [p for p in mu.pieces if p.sign < 0]


def total_variation_decompose(mu):
    """Hahn-Jordan split (mu_plus, mu_minus); exact because pieces are sign-pure."""
    pieces = sign_pure_pieces(mu)
    plus_atoms = [a for a in mu.atoms if a.weight > 0]
    minus_atoms = [Atom(a.stratum, a.coords, -a.weight) for a in mu.atoms if a.weight < 0]
    plus_pieces = [p for p in pieces if p.sign > 0]
    minus_pieces = [Piece(p.stratum, p.poly, p.weight_poly.scale(-1), p.weight_expo, 1)
                    for p in pieces if p.sign < 0]
    plus = PieceMeasure(mu.n, plus_atoms, plus_pieces, (), mu.scale, certify=False)
    minus = PieceMeasure(mu.n, minus_atoms, minus_pieces, (), mu.scale, certify=False)
    return plus, minus


def abs_measure(mu):
    p, m = total_variation_decompose(mu)
    return p + m


def boundary_escape_cones(piece, chart):
    """Nonzero escape subcones of a piece's recession cone, per limit stratum.

    Returns a list of (M, generators) for subsets M of the chart's
    remaining infinite axes: directions of the recession cone along which
    points converge to the stratum (piece.stratum | M).  Only the map to chart
    axes is redone per call: ``Polyhedron.escape_generators`` are computed once.
    """
    n = len(chart.basis)
    finite_axes = [i for i in range(n) if i not in piece.stratum]
    inf_positions = tuple(t for t, i in enumerate(finite_axes) if i in chart.infinite_axes)
    return [(frozenset(finite_axes[t] for t in pos), list(gens))
            for pos, gens in piece.poly.escape_generators(inf_positions)]


def escape_failure(piece, chart, tilt=()):
    """The first (stratum, ray) along which the piece's density times
    exp(tilt . u) does not decay toward a boundary stratum of ``chart``;
    None if it decays."""
    cones = () if piece.poly.is_bounded() else boundary_escape_cones(piece, chart)
    expo = piece.weight_expo + Poly.linear(tilt) if cones and any(tilt) else piece.weight_expo
    for M, gens in cones:
        for v in gens if piece.stratum | M <= chart.infinite_axes else ():
            if decay_along(expo, piece.poly, v) != "decays":
                return tuple(sorted(piece.stratum | M)), v
    return None


def restrict_measure(mu, M):
    """The part of mu on the stratum M; restricting to every stratum and
    summing the parts reproduces mu exactly."""
    M = frozenset(M)
    return PieceMeasure(mu.n, [a for a in mu.atoms if a.stratum == M],
                        [p for p in mu.pieces if p.stratum == M],
                        [d for d in mu.derivative_atoms if d.stratum == M],
                        mu.scale, certify=False)
