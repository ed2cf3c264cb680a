"""Form fields with symbolic coefficients on toric charts.

A Lagerberg form field on a chart U_rho in R_infty^n keeps one
coefficient table per stratum (indexed by the subset M of infinite axes
at infinity) together with declared boundary neighborhoods on which the
compatibility conditions hold: near the stratum M the field must be the
pullback of its stratum-M table, i.e. constant in the directions running
into the boundary, with every coefficient touching those axes vanishing.

Invariant complex fields on the matching chart of the toric variety are
stored against the pi-rescaled invariant frame

    Phi_{I,K} = pi^{-(|I|+|K|)/2} i^{|K|} dz_I ^ dzbar_K / (z_I zbar_K)

so that the normalized tropical pullback (d'u -> -dz/(2 sqrt(pi) z),
d''u -> -i dzbar/(2 sqrt(pi) zbar)) becomes an exact rational rescaling
of coefficients and the differential identities
trop* d' = pi^{-1/2} partial trop*, trop* d'' = pi^{-1/2} i partialbar trop*
hold term-for-term in exact arithmetic.  The complex differentials
exposed here ('del', 'idbar') are those pi^{-1/2}-scaled operators.
"""

import math
import random
from fractions import Fraction

from .coeffs import CoefficientFn, Poly, UniFn, window_on
from .errors import NonCompactSupport, ValidationError, Verdict, WrongAlgebra
from .exact import frac
from .indices import wedge_key


class LagerbergFormField:
    """(p,q) Lagerberg form on a toric chart with per-stratum tables.

    ``tables[M]`` maps index pairs (I, J) to CoefficientFn for each
    stratum subset M of the chart's infinite axes (absent tables are
    zero); ``neighborhoods[M]`` maps axes i in M to thresholds R_i with
    the compatibility region {u_i > R_i for i in M}.
    """

    algebra = "lagerberg"

    def __init__(self, chart, n, p, q, tables, neighborhoods=None):
        self.chart = chart
        self.n = n
        self.p = p
        self.q = q
        self.tables = {}
        for M, tab in tables.items():
            M = frozenset(M)
            clean = {}
            for (I, J), fn in tab.items():
                I, J = tuple(I), tuple(J)
                if len(I) != p or len(J) != q:
                    raise ValidationError(f"key ({I},{J}) does not match bidegree")
                if set(I) & M or set(J) & M:
                    raise ValidationError(f"stratum-{set(M)} table uses dead axes in ({I},{J})")
                if not fn.is_zero():
                    bad = fn.drop_axis_dependence() & M
                    if bad:
                        raise ValidationError(f"stratum table depends on dead axes {bad}")
                    clean[(I, J)] = fn
            if clean or not M:
                self.tables[M] = clean
        self.tables.setdefault(frozenset(), {})
        self.neighborhoods = {frozenset(M): {int(i): frac(r) for i, r in nb.items()}
                              for M, nb in (neighborhoods or {}).items()}

    # --- basic structure ---------------------------------------------------
    def dense(self):
        return self.tables.get(frozenset(), {})

    def coefficient(self, M, I, J):
        return self.tables.get(frozenset(M), {}).get((tuple(I), tuple(J)),
                                                     CoefficientFn.zero(self.n))

    def is_zero(self):
        return all(all(f.is_zero() for f in tab.values()) for tab in self.tables.values())

    def map_tables(self, fn):
        out = {}
        for M, tab in self.tables.items():
            new = {}
            for k, c in tab.items():
                r = fn(M, k, c)
                if r is not None and not r.is_zero():
                    new[k] = r
            out[M] = new
        return LagerbergFormField(self.chart, self.n, self.p, self.q, out,
                                  self.neighborhoods)

    def __add__(self, other):
        assert (self.n, self.p, self.q) == (other.n, other.p, other.q)
        out = {}
        for M in set(self.tables) | set(other.tables):
            tab = {}
            keys = set(self.tables.get(M, {})) | set(other.tables.get(M, {}))
            for k in keys:
                s = self.coefficient(M, *k) + other.coefficient(M, *k)
                if not s.is_zero():
                    tab[k] = s
            out[M] = tab
        nbhd = _merge_neighborhoods(self.neighborhoods, other.neighborhoods)
        return LagerbergFormField(self.chart, self.n, self.p, self.q, out, nbhd)

    def scale(self, s):
        return self.map_tables(lambda M, k, c: c.scale(s))

    # --- support -----------------------------------------------------------
    def support_box(self):
        """Per-axis (lo, hi) over all tables; hi may be None on plateau axes."""
        bounds = [None] * self.n
        for M, tab in self.tables.items():
            for (I, J), fn in tab.items():
                sb = fn.support_box()
                for i in range(self.n):
                    if i in M:
                        continue
                    cur = sb[i]
                    if bounds[i] == "unbounded":
                        continue
                    if cur is None:
                        bounds[i] = "unbounded"
                    elif bounds[i] is None:
                        bounds[i] = cur
                    else:
                        bounds[i] = (min(bounds[i][0], cur[0]), max(bounds[i][1], cur[1]))
        return [None if b == "unbounded" else b for b in bounds]

    def has_compact_support(self):
        """Compact support in the chart's partial compactification.

        Finite axes need two-sided bounds; infinite axes accept an
        unbounded-above support (the chart closes them up at +infinity)
        as long as a finite lower bound exists.
        """
        for i in range(self.n):
            lo = hi = None
            ok_axis = True
            for M, tab in self.tables.items():
                if i in M:
                    continue
                for fn in tab.values():
                    slabs = [fn._term_slab(wins, i) for _, _, wins in fn.terms]
                    for slab in slabs:
                        if slab is None:
                            ok_axis = False
                            break
                        slo, shi = slab
                        if slo is None:
                            ok_axis = False
                            break
                        lo = slo if lo is None else min(lo, slo)
                        if shi is None:
                            hi = "inf"
                        elif hi != "inf":
                            hi = shi if hi is None else max(hi, shi)
                    if not ok_axis:
                        break
                if not ok_axis:
                    break
            if not ok_axis:
                return False
            if hi == "inf" and i not in self.chart.infinite_axes:
                return False
        return True

    def __repr__(self):
        sizes = {tuple(sorted(M)): len(t) for M, t in self.tables.items() if t}
        return f"LagerbergFormField(({self.p},{self.q}), tables={sizes})"


def _merge_neighborhoods(a, b):
    out = {M: dict(nb) for M, nb in a.items()}
    for M, nb in b.items():
        cur = out.setdefault(M, {})
        for i, r in nb.items():
            cur[i] = max(cur.get(i, r), r)
    return out


class InvariantComplexFormField:
    """S-invariant complex (p,q)-field in the rescaled invariant frame.

    ``coeff[(I,K)]`` are real CoefficientFn in the tropical coordinates
    u_j = -log|z_j|; real coefficients make the field F-invariant.  A
    finite ``monomial_part`` of non-invariant inputs (z^a zbar^b times a
    frame coefficient) exists only to feed the averaging projector.
    """

    algebra = "complex"

    def __init__(self, chart, n, p, q, coeff, monomial_part=()):
        self.chart = chart
        self.n = n
        self.p = p
        self.q = q
        self.coeff = {}
        for (I, K), fn in coeff.items():
            if not fn.is_zero():
                self.coeff[(tuple(I), tuple(K))] = fn
        self.monomial_part = tuple(
            (tuple(a), tuple(b), (tuple(IK[0]), tuple(IK[1])), fn)
            for a, b, IK, fn in monomial_part)

    def is_zero(self):
        return not self.coeff and not self.monomial_part

    def __add__(self, other):
        assert (self.n, self.p, self.q) == (other.n, other.p, other.q)
        out = dict(self.coeff)
        for k, c in other.coeff.items():
            out[k] = out.get(k, CoefficientFn.zero(self.n)) + c
        return InvariantComplexFormField(self.chart, self.n, self.p, self.q, out,
                                         self.monomial_part + other.monomial_part)

    def scale(self, s):
        return InvariantComplexFormField(
            self.chart, self.n, self.p, self.q,
            {k: c.scale(s) for k, c in self.coeff.items()},
            tuple((a, b, IK, fn.scale(s)) for a, b, IK, fn in self.monomial_part))

    def __eq__(self, other):
        if not isinstance(other, InvariantComplexFormField):
            return NotImplemented
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            return False
        keys = set(self.coeff) | set(other.coeff)
        zero = CoefficientFn.zero(self.n)
        return (all((self.coeff.get(k, zero) - other.coeff.get(k, zero)).is_zero()
                    for k in keys)
                and sorted(self.monomial_part, key=str) == sorted(other.monomial_part, key=str))

    def apply_F(self):
        """F fixes the frame and conjugates coefficients (real: identity);
        a monomial z^a zbar^b swaps its exponents."""
        return InvariantComplexFormField(
            self.chart, self.n, self.p, self.q, dict(self.coeff),
            tuple((b, a, IK, fn) for a, b, IK, fn in self.monomial_part))

    def __repr__(self):
        return (f"InvariantComplexFormField(({self.p},{self.q}), "
                f"{len(self.coeff)} frame terms, {len(self.monomial_part)} monomials)")


# --- builders -------------------------------------------------------------------

def bump_box_field(chart, p, q, terms, box):
    """Interior-supported field: sum of poly terms times a bump box.

    ``terms`` is a list of ((I, J), poly); the bump box (per-axis (lo,hi))
    multiplies every coefficient, so the field is compactly supported in
    the dense stratum and trivially compatible.
    """
    n = len(chart.basis)
    window = {i: (lo, hi) for i, (lo, hi) in enumerate(box)}
    tab = {}
    for (I, J), poly in terms:
        fn = CoefficientFn.bump_box(n, window, poly)
        key = (tuple(I), tuple(J))
        tab[key] = tab.get(key, CoefficientFn.zero(n)) + fn
    nbhd = {}
    for M in _stratum_subsets(chart):
        if M:
            nbhd[M] = {i: frac(box[i][1]) + 1 for i in M}
    return LagerbergFormField(chart, n, p, q, {frozenset(): tab}, nbhd)


def boundary_window_field(chart, M, stratum_terms, box, ramp_at):
    """Field engaging the boundary stratum M: pi^*(g) times plateaus.

    ``stratum_terms`` is a list of ((I, J), poly) in the coordinates of
    the stratum (polynomials must not involve axes of M); ``box`` bumps
    the finite axes; the plateau along each axis of M rises on
    [ramp_at, ramp_at + 1] and holds the value 1 all the way to the
    stratum at infinity.
    """
    n = len(chart.basis)
    M = frozenset(M)
    if not M <= chart.infinite_axes:
        raise ValueError("boundary field needs M inside the chart's infinite axes")
    window = {i: (lo, hi) for i, (lo, hi) in box.items()}
    tables = {}
    for Mprime in _stratum_subsets(chart):
        if not Mprime <= M:
            continue
        tab = {}
        for (I, J), poly in stratum_terms:
            if set(I) & M or set(J) & M:
                raise ValueError("stratum terms must avoid the axes of M")
            fn = CoefficientFn.bump_box(n, window, poly)
            for i in sorted(M - Mprime):
                fn = fn * CoefficientFn(n, [(Poly.const(1, n), Poly.zero(n),
                                             (window_on(i, ramp_at, frac(ramp_at) + 1, n,
                                                        UniFn.plateau()),))])
            key = (tuple(I), tuple(J))
            if key in tab:
                tab[key] = tab[key] + fn
            else:
                tab[key] = fn
        tables[Mprime] = tab
    nbhd = {Mp: {i: frac(ramp_at) + 1 for i in Mp}
            for Mp in _stratum_subsets(chart) if Mp and Mp <= M}
    return LagerbergFormField(chart, n, len(stratum_terms[0][0][0]),
                              len(stratum_terms[0][0][1]), tables, nbhd)


def _stratum_subsets(chart):
    axes = sorted(chart.infinite_axes)
    out = []
    for mask in range(1 << len(axes)):
        out.append(frozenset(axes[i] for i in range(len(axes)) if mask >> i & 1))
    return out


# --- differentials ---------------------------------------------------------------

# kind: (algebra it acts on, block of the new generator, coefficient factor)
_DIFFERENTIALS = {"d'": ("lagerberg", 0, 1), "d''": ("lagerberg", 1, 1),
                  "del": ("complex", 0, Fraction(-1, 2)),
                  "idbar": ("complex", 1, Fraction(-1, 2))}


def differentiate(kind, a):
    """Exact symbolic differential of one of four kinds.

    Lagerberg fields take "d'" and "d''"; invariant complex fields take
    "del" and "idbar", the pi^{-1/2}-scaled partial and i partialbar
    matching the tropical correspondence.  Each puts the generator d'u_j
    (d''u_j for "d''" and "idbar") in front of every term, times the j-th
    partial of its coefficient, and times -1/2 for the complex kinds.  All
    four square to zero.
    """
    if kind not in _DIFFERENTIALS:
        raise ValueError(f"unknown differential {kind!r}")
    algebra, block, factor = _DIFFERENTIALS[kind]
    if a.algebra != algebra:
        noun = "Lagerberg" if algebra == "lagerberg" else "invariant complex"
        raise WrongAlgebra(f"{kind} acts on {noun} fields")
    if algebra == "complex" and a.monomial_part:
        raise WrongAlgebra("differentiate the averaged (invariant) part only")
    tables = a.tables if algebra == "lagerberg" else {frozenset(): a.coeff}
    out = {}
    for M, tab in tables.items():
        new = {}
        for (I, J), fn in tab.items():
            for j in range(a.n):
                if j in M:
                    continue
                d = fn.diff(j)
                if d.is_zero():
                    continue
                gen = ((j,), ()) if block == 0 else ((), (j,))
                hit = wedge_key(*gen, I, J)
                if hit is None:
                    continue
                sgn, key = hit
                new[key] = new.get(key, CoefficientFn.zero(a.n)) + d.scale(factor * sgn)
        out[M] = {k: v for k, v in new.items() if not v.is_zero()}
    p2, q2 = a.p + 1 - block, a.q + block
    if algebra == "lagerberg":
        return LagerbergFormField(a.chart, a.n, p2, q2, out, a.neighborhoods)
    return InvariantComplexFormField(a.chart, a.n, p2, q2, out[frozenset()])


def apply_J_field(a):
    """The Lagerberg involution on a form field: tables transposed with the
    algebra-homomorphism sign (-1)^{pq}."""
    if a.algebra != "lagerberg":
        raise WrongAlgebra("J acts on Lagerberg fields")
    tables = {}
    for M, tab in a.tables.items():
        new = {}
        for (I, J), fn in tab.items():
            sgn = (-1) ** (len(I) * len(J))
            key = (J, I)
            contrib = fn.scale(sgn)
            new[key] = contrib if key not in new else new[key] + contrib
        tables[M] = new
    return LagerbergFormField(a.chart, a.n, a.q, a.p, tables, a.neighborhoods)


def wedge_fields(a, b):
    """Wedge of two Lagerberg form fields (stratum tables multiply)."""
    if a.algebra != "lagerberg" or b.algebra != "lagerberg":
        raise WrongAlgebra("wedge_fields works on Lagerberg fields")
    out = {}
    for M in set(a.tables) | set(b.tables):
        ta, tb = a.tables.get(M, {}), b.tables.get(M, {})
        new = {}
        for (I1, J1), f1 in ta.items():
            for (I2, J2), f2 in tb.items():
                hit = wedge_key(I1, J1, I2, J2)
                if hit is None:
                    continue
                sgn, key = hit
                new[key] = new.get(key, CoefficientFn.zero(a.n)) + (f1 * f2).scale(sgn)
        out[M] = {k: v for k, v in new.items() if not v.is_zero()}
    nbhd = _merge_neighborhoods(a.neighborhoods, b.neighborhoods)
    return LagerbergFormField(a.chart, a.n, a.p + b.p, a.q + b.q, out, nbhd)


# --- tropical pullback -------------------------------------------------------------

def trop_pullback_field(a):
    """Normalized pullback to the invariant frame: exact coefficient map.

    In the rescaled frame the coefficient of Phi_{I,K} is
    (-1/2)^{|I|+|K|} times the Lagerberg coefficient; the result is real,
    hence S- and F-invariant, and the image of a (0,0)-function phi is
    phi o trop.
    """
    if a.algebra != "lagerberg":
        raise WrongAlgebra("trop_pullback_field takes a Lagerberg field")
    scale = Fraction(-1, 2) ** (a.p + a.q)
    coeff = {k: fn.scale(scale) for k, fn in a.dense().items()}
    return InvariantComplexFormField(a.chart, a.n, a.p, a.q, coeff)


def trop_pullback_preimage(w):
    """Inverse of trop_pullback_field on invariant fields (dense part)."""
    if w.algebra != "complex":
        raise WrongAlgebra("expected an invariant complex field")
    if w.monomial_part:
        raise WrongAlgebra("average first: preimage of a non-invariant field")
    scale = Fraction(-2, 1) ** (w.p + w.q)
    tab = {k: fn.scale(scale) for k, fn in w.coeff.items()}
    chart = w.chart
    n = w.n
    nbhd = {}
    return LagerbergFormField(chart, n, w.p, w.q, {frozenset(): tab}, nbhd)


def average_over_S(a):
    """Projection onto S-invariant fields: exact angular averaging.

    A monomial z^alpha zbar^beta times a frame coefficient survives iff
    alpha = beta, contributing exp(-2 <alpha, u>) times the coefficient;
    the invariant part is untouched, so the projection is idempotent.
    """
    if a.algebra != "complex":
        raise WrongAlgebra("average_over_S takes a complex field")
    out = dict(a.coeff)
    n = a.n
    for alpha, beta, IK, fn in a.monomial_part:
        if tuple(alpha) != tuple(beta):
            continue
        expo = Poly.linear([-2 * x for x in alpha])
        if expo.nvars != n:
            expo = Poly.linear([-2 * alpha[i] if i < len(alpha) else 0 for i in range(n)])
        contrib = fn.with_extra_exponent(expo)
        out[IK] = out.get(IK, CoefficientFn.zero(n)) + contrib
    return InvariantComplexFormField(a.chart, a.n, a.p, a.q, out)


# --- integration --------------------------------------------------------------------

def integrate_top(a, side="tropical", tol=1e-8):
    """Integral of a compactly supported (n,n) field, both routes.

    side='tropical': adaptive quadrature of the top coefficient over its
    support box in u-space.  side='complex': the invariant-frame integral
    computed in radial coordinates r_j = e^{-u_j} (the angular factor is
    exact), an independent change-of-variables route.  The two agree
    within twice the quadrature tolerance.
    """
    from . import quadrature
    if a.algebra == "lagerberg":
        if (a.p, a.q) != (a.n, a.n):
            raise WrongAlgebra("integrate_top needs an (n,n) field")
        full = tuple(range(a.n))
        fn = a.coefficient(frozenset(), full, full)
        box = fn.support_box()
        if any(b is None for b in box):
            raise NonCompactSupport("top coefficient has no finite support box",
                                    payload={"box": box})
        if fn.is_zero():
            return 0.0
        sgn = (-1) ** (a.n * (a.n - 1) // 2)
        if side == "tropical":
            if not fn.has_windows() and fn.max_exp_degree() <= 1:
                total = 0.0
                for poly, expo, _ in fn.terms:
                    total += quadrature.poly_exp_box(poly, expo, box)
                return sgn * total
            # the embedded error estimate can be optimistic: leave headroom
            return sgn * quadrature.adaptive_box(
                fn.eval_np, [(float(lo), float(hi)) for lo, hi in box], tol / 8)
        if side == "complex":
            return integrate_top(trop_pullback_field(a), side="complex", tol=tol)
        raise ValueError(f"unknown side {side!r}")

    # complex field in the rescaled frame
    if (a.p, a.q) != (a.n, a.n):
        raise WrongAlgebra("integrate_top needs an (n,n) field")
    if a.monomial_part:
        raise WrongAlgebra("average the field before integrating")
    full = tuple(range(a.n))
    fn = a.coeff.get((full, full), CoefficientFn.zero(a.n))
    if fn.is_zero():
        return 0.0
    box = fn.support_box()
    if any(b is None for b in box):
        raise NonCompactSupport("top coefficient has no finite support box",
                                payload={"box": box})
    sgn = (-1) ** (a.n * (a.n - 1) // 2)
    # integral = sgn * 4^n * int c(-log r) prod dr_j / r_j over r-space
    rbox = [(math.exp(-float(hi)) * (1 - 1e-12), math.exp(-float(lo)) * (1 + 1e-12))
            for lo, hi in box]

    import numpy as np

    def integrand(pts):
        u = -np.log(pts)
        vals = fn.eval_np(u)
        return vals / np.prod(pts, axis=1)

    val = quadrature.adaptive_box(integrand, rbox, tol / (8 * 4.0 ** a.n))
    return sgn * (4.0 ** a.n) * val


# --- compatibility -------------------------------------------------------------------

def check_compatibility(a, samples=40, seed=0, tol=1e-9):
    """Verify the declared boundary compatibility of a Lagerberg field.

    For every stratum M (declared region, or the region beyond the
    support box when undeclared): the stratum-M' tables must agree with
    the stratum-M table for all faces M' of M, and every coefficient
    whose indices meet M must vanish there.  Symbolic window-support
    proofs are tried first, then sampling within the region at the stated
    tolerance; violations carry a witness point.
    """
    if a.algebra != "lagerberg":
        raise WrongAlgebra("check_compatibility takes a Lagerberg field")
    rng = random.Random(seed)
    violations = []
    n = a.n
    sup = a.support_box()
    # per-axis thresholds collected from every declared neighborhood
    axis_thresholds = {}
    for nb in a.neighborhoods.values():
        for i, r in nb.items():
            axis_thresholds[i] = max(axis_thresholds.get(i, r), r)
    for M in _stratum_subsets(a.chart):
        if not M:
            continue
        region = {}
        nb = a.neighborhoods.get(M, {})
        usable = True
        for i in M:
            if i in nb:
                region[i] = nb[i]
            elif i in axis_thresholds:
                region[i] = axis_thresholds[i]
            elif sup[i] is not None:
                region[i] = sup[i][1] + 1
            else:
                usable = False
        if not usable:
            violations.append(("no-neighborhood", tuple(sorted(M)), None))
            continue
        for Mp in _stratum_subsets(a.chart):
            if not Mp < M:
                continue
            keys = set(a.tables.get(frozenset(Mp), {})) | set(a.tables.get(frozenset(M), {}))
            for (I, J) in sorted(keys):
                inner = a.coefficient(Mp, I, J)
                if set(I) & M or set(J) & M:
                    target = CoefficientFn.zero(n)
                else:
                    target = a.coefficient(M, I, J)
                diff = inner - target
                if diff.is_zero():
                    continue
                box_region = {i: (region[i], None) for i in M - Mp}
                if diff.vanishes_on_box(box_region):
                    continue
                # sampled check within the region
                bad = None
                for _ in range(samples):
                    u = [0.0] * n
                    for i in range(n):
                        if i in Mp:
                            u[i] = math.inf
                        elif i in M:
                            u[i] = float(region[i]) + rng.uniform(0.1, 3.0)
                        else:
                            span = sup[i] if sup[i] else (Fraction(-3), Fraction(3))
                            u[i] = rng.uniform(float(span[0]) - 1, float(span[1]) + 1)
                    pt = [0.0 if math.isinf(x) else x for x in u]
                    val = diff.eval_float(pt)
                    if abs(val) > tol:
                        bad = (tuple(u), val)
                        break
                if bad is not None:
                    violations.append(("mismatch", (tuple(sorted(Mp)), tuple(sorted(M)), I, J), bad))
    if violations:
        return Verdict("compatible", "no", witness=violations)
    return Verdict("compatible", "yes")
