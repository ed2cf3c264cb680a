"""The closed coefficient family: polynomial x exp(affine/quadratic) x windows.

Every smooth coefficient appearing in form fields and measure densities is
a finite sum of terms

    P(u) * exp(E(u)) * prod_w  W(l_w . u + c_w)

with P a rational-coefficient polynomial, E a rational polynomial of
degree <= 2 (degree <= 1 for form coefficients; quadratic exponents are
reserved for measure densities), and each window factor W an element of
the one-variable algebra generated by

    x = exp(-1/s) for s > 0,   y = exp(-1/(1-s)) for s < 1

extended by zero, i.e. finite sums R(s) x^a y^b / (x+y)^m with R rational
with poles only at 0 and 1.  This algebra contains the canonical bump
x*y = exp(-1/(s(1-s))) and the plateau x/(x+y) (0 below 0, 1 above 1) and
is closed under d/ds, so the whole family is closed under d', d'' and the
scaled complex differentials, with exact rational bookkeeping.  Float
values, one point at a time, come from ``eval_float`` in pure Python; each
object converts its coefficients to floats once, on its first call.
"""

import math
from fractions import Fraction

from .errors import DimensionMismatch, Value
from .exact import frac


# --- multivariate polynomials over Q -----------------------------------------

class Poly:
    """Sparse multivariate polynomial; keys are exponent tuples.  Built in
    one pass over {exponent: coefficient}, in its order: Fractions taken as
    they are, other exact scalars converted, zeros dropped."""

    __slots__ = ("nvars", "exps")

    def __init__(self, exps=None, nvars=None):
        exps = exps or {}
        self.nvars = len(next(iter(exps), ())) if nvars is None else nvars
        self.exps = out = {}
        for e, c in exps.items():
            if type(c) is not Fraction:
                c = frac(c)
            if c:
                out[tuple(e)] = c

    @staticmethod
    def zero(nvars):
        return Poly({}, nvars)

    @staticmethod
    def const(c, nvars):
        c = frac(c)
        if c == 0:
            return Poly.zero(nvars)
        return Poly({tuple([0] * nvars): c}, nvars)

    @staticmethod
    def var(i, nvars):
        e = [0] * nvars
        e[i] = 1
        return Poly({tuple(e): Fraction(1)}, nvars)

    @staticmethod
    def linear(coeffs, const=0):
        n = len(coeffs)
        exps = {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs)}
        exps[(0,) * n] = const
        return Poly(exps, n)

    def is_zero(self):
        return not self.exps

    def degree(self):
        return max((sum(e) for e in self.exps), default=0)

    def key(self):
        return tuple(sorted(self.exps.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.exps == other.exps

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def __add__(self, other):
        out = dict(self.exps)
        for e, c in other.exps.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return Poly(out, self.nvars)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for e1, c1 in self.exps.items():
            for e2, c2 in other.exps.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return Poly(out, self.nvars)

    def scale(self, s):
        s = frac(s)
        return Poly({e: c * s for e, c in self.exps.items()}, self.nvars)

    def diff(self, axis):
        # e -> e - 1_axis is one to one on the exponents it keeps
        return Poly({e[:axis] + (e[axis] - 1,) + e[axis + 1:]: c * e[axis]
                     for e, c in self.exps.items() if e[axis]}, self.nvars)

    def eval(self, u):
        out = Fraction(0)
        for e, c in self.exps.items():
            term = c
            for ei, ui in zip(e, u):
                for _ in range(ei):
                    term = term * ui
            out = out + term
        return out

    def substitute_affine(self, A, b, new_nvars):
        """Compose with u = A t + b (A a nvars x new_nvars rational matrix)."""
        images = []
        for i in range(self.nvars):
            coeffs = [frac(A[i][j]) for j in range(new_nvars)]
            images.append(Poly.linear(coeffs, frac(b[i])))
        out = Poly.zero(new_nvars)
        for e, c in self.exps.items():
            term = Poly.const(c, new_nvars)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    term = term * images[i]
            out = out + term
        return out

    def is_even_nonnegative(self):
        return all(c >= 0 and all(x % 2 == 0 for x in e) for e, c in self.exps.items())

    def __repr__(self):
        if not self.exps:
            return "0"
        bits = []
        for e, c in sorted(self.exps.items()):
            mono = "*".join(f"u{i}^{x}" for i, x in enumerate(e) if x)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


# --- the one-variable window algebra ------------------------------------------

class UniFn:
    """Finite sums R(s) x^a y^b / (x+y)^m on one variable.

    x = exp(-1/s) extended by 0 for s <= 0, y = exp(-1/(1-s)) extended by
    0 for s >= 1; R = P(s) / (s^al (1-s)^be).  Terms with al > 0 carry
    a >= 1 and terms with be > 0 carry b >= 1, which keeps every term
    smooth on all of R.  Closed under +, * and d/ds.
    """

    __slots__ = ("terms", "_floats")

    def __init__(self, terms=None):
        # terms: dict (a, b, m, al, be) -> {deg: Fraction}
        self.terms = {}
        for key, p in (terms or {}).items():
            p = {d: frac(c) for d, c in p.items() if frac(c) != 0}
            if not p:
                continue
            a, b, m, al, be = key
            if al > 0 and a == 0:
                raise ValueError("pole at 0 without an x factor is not smooth")
            if be > 0 and b == 0:
                raise ValueError("pole at 1 without a y factor is not smooth")
            cur = self.terms.setdefault(key, {})
            for d, c in p.items():
                cur[d] = cur.get(d, Fraction(0)) + c
        self.terms = {k: {d: c for d, c in p.items() if c != 0}
                      for k, p in self.terms.items()}
        self.terms = {k: p for k, p in self.terms.items() if p}
        self._floats = None         # the terms with float coefficients, for eval_float

    @staticmethod
    def bump():
        """exp(-1/(s(1-s))) on (0,1), zero outside."""
        return UniFn({(1, 1, 0, 0, 0): {0: Fraction(1)}})

    @staticmethod
    def plateau():
        """0 for s <= 0, 1 for s >= 1, smooth monotone transition."""
        return UniFn({(1, 0, 1, 0, 0): {0: Fraction(1)}})

    @staticmethod
    def plateau_down():
        """1 for s <= 0, 0 for s >= 1 (the mirrored step y/(x+y))."""
        return UniFn({(0, 1, 1, 0, 0): {0: Fraction(1)}})

    @staticmethod
    def one():
        return UniFn({(0, 0, 0, 0, 0): {0: Fraction(1)}})

    def is_zero(self):
        return not self.terms

    def vanishes_below(self):
        """True when the function is identically 0 for s <= 0."""
        return all(a >= 1 for (a, b, m, al, be) in self.terms)

    def vanishes_above(self):
        """True when the function is identically 0 for s >= 1."""
        return all(b >= 1 for (a, b, m, al, be) in self.terms)

    def key(self):
        return tuple(sorted((k, tuple(sorted(p.items()))) for k, p in self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, UniFn) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        out = {k: dict(p) for k, p in self.terms.items()}
        for k, p in other.terms.items():
            cur = out.setdefault(k, {})
            for d, c in p.items():
                cur[d] = cur.get(d, Fraction(0)) + c
        return UniFn(out)

    def scale(self, sc):
        sc = frac(sc)
        return UniFn({k: {d: c * sc for d, c in p.items()} for k, p in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (a1, b1, m1, al1, be1), p1 in self.terms.items():
            for (a2, b2, m2, al2, be2), p2 in other.terms.items():
                key = (a1 + a2, b1 + b2, m1 + m2, al1 + al2, be1 + be2)
                cur = out.setdefault(key, {})
                for d1, c1 in p1.items():
                    for d2, c2 in p2.items():
                        cur[d1 + d2] = cur.get(d1 + d2, Fraction(0)) + c1 * c2
        return UniFn(out)

    def diff(self):
        out = {}

        def acc(key, p):
            cur = out.setdefault(key, {})
            for d, c in p.items():
                cur[d] = cur.get(d, Fraction(0)) + c

        for (a, b, m, al, be), p in self.terms.items():
            # P' term
            dp = {d - 1: c * d for d, c in p.items() if d > 0}
            if dp:
                acc((a, b, m, al, be), dp)
            # -al P / s and +be P / (1-s)
            if al:
                acc((a, b, m, al + 1, be), {d: -al * c for d, c in p.items()})
            if be:
                acc((a, b, m, al, be + 1), {d: be * c for d, c in p.items()})
            # + a P / s^2 and - b P / (1-s)^2  (from x^a, y^b)
            if a:
                acc((a, b, m, al + 2, be), {d: a * c for d, c in p.items()})
            if b:
                acc((a, b, m, al, be + 2), {d: -b * c for d, c in p.items()})
            # -(m) (x/s^2 - y/(1-s)^2) /(x+y) part
            if m:
                acc((a + 1, b, m + 1, al + 2, be), {d: -m * c for d, c in p.items()})
                acc((a, b + 1, m + 1, al, be + 2), {d: m * c for d, c in p.items()})
        return UniFn(out)

    def eval_float(self, s):
        """The value at a float s.  A term that overflows, or that is not
        finite where x or y underflows, counts as 0."""
        if self._floats is None:
            self._floats = [(key, [(float(c), d) for d, c in p.items()])
                            for key, p in self.terms.items()]
        s = float(s)
        x = math.exp(-1.0 / s) if s > 0 else 0.0
        y = math.exp(-1.0 / (1.0 - s)) if s < 1 else 0.0
        out = 0.0
        for (a, b, m, al, be), p in self._floats:
            if (a and s <= 0) or (b and s >= 1):
                continue
            try:
                term = (sum(c * s ** d for c, d in p) * (x ** a * y ** b)
                        / ((x + y) ** m * s ** al * (1.0 - s) ** be))
            except (OverflowError, ZeroDivisionError):
                continue
            out += term if math.isfinite(term) else 0.0
        return out

    def __repr__(self):
        return f"UniFn({len(self.terms)} terms)"


# --- windows ------------------------------------------------------------------

class Window(Value):
    """A window factor W(l . u + c) with W in the one-variable algebra;
    ``lin`` holds nvars rational coefficients."""
    __slots__ = _fields = ("fn", "lin", "const")

    def key(self):
        return (self.fn.key(), self.lin, self.const)

    def support_slab(self):
        """(axis, lo, hi) with the window vanishing outside lo <= u <= hi.

        Axis-aligned windows only (None otherwise); lo/hi are None on a
        side where nothing vanishes (e.g. the upper side of a plateau).
        """
        nz = [i for i, c in enumerate(self.lin) if c != 0]
        if len(nz) != 1:
            return None
        i = nz[0]
        c = self.lin[i]
        u0 = (0 - self.const) / c      # u-value where s = 0
        u1 = (1 - self.const) / c      # u-value where s = 1
        below = self.fn.vanishes_below()   # zero for s <= 0
        above = self.fn.vanishes_above()   # zero for s >= 1
        if c > 0:
            lo = u0 if below else None
            hi = u1 if above else None
        else:
            lo = u1 if above else None
            hi = u0 if below else None
        if lo is None and hi is None:
            return None
        return i, lo, hi

    def diff(self, axis):
        c = self.lin[axis]
        if c == 0:
            return None
        return c, Window(self.fn.diff(), self.lin, self.const)

    def substitute_affine(self, A, b, new_nvars):
        lin = tuple(sum(self.lin[i] * frac(A[i][j]) for i in range(len(self.lin)))
                    for j in range(new_nvars))
        const = self.const + sum(self.lin[i] * frac(b[i]) for i in range(len(self.lin)))
        return Window(self.fn, lin, const)


def window_on(axis, lo, hi, nvars, fn=None):
    """Axis-aligned window rescaled from the unit interval to [lo, hi]."""
    lo, hi = frac(lo), frac(hi)
    if hi <= lo:
        raise ValueError("window needs lo < hi")
    lin = [Fraction(0)] * nvars
    lin[axis] = Fraction(1) / (hi - lo)
    return Window(fn or UniFn.bump(), tuple(lin), -lo / (hi - lo))


# --- coefficient functions ------------------------------------------------------

def _float_monomials(poly):
    """A polynomial's terms as (float coefficient, [(axis, power) with power > 0])."""
    return [(float(c), [(i, k) for i, k in enumerate(e) if k]) for e, c in poly.exps.items()]


def _float_value(monomials, u):
    out = 0.0
    for c, powers in monomials:
        for i, k in powers:
            c = c * u[i] ** k
        out += c
    return out


class CoefficientFn:
    """Finite sum of poly x exp(E) x windows terms on R^nvars.

    The exponent E is affine in form coefficients and of degree at most 2
    in measure densities.  Terms are kept in a canonical combined form so
    symbolic zero- and equality-checks are exact.
    """

    __slots__ = ("nvars", "terms", "_floats")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        combined = {}
        for poly, expo, windows in terms:
            wins = tuple(sorted(windows, key=lambda w: w.key()))
            key = (expo.key(), tuple(w.key() for w in wins))
            if key in combined:
                combined[key] = (combined[key][0] + poly, expo, wins)
            else:
                combined[key] = (poly, expo, wins)
        self.terms = tuple((p, e, w) for p, e, w in combined.values() if not p.is_zero())
        self._floats = None         # the terms with float coefficients, for eval_float

    # --- constructors ----------------------------------------------------
    @staticmethod
    def zero(nvars):
        return CoefficientFn(nvars, [])

    @staticmethod
    def const(c, nvars):
        return CoefficientFn(nvars, [(Poly.const(c, nvars), Poly.zero(nvars), ())])

    @staticmethod
    def from_poly(poly):
        return CoefficientFn(poly.nvars, [(poly, Poly.zero(poly.nvars), ())])

    @staticmethod
    def poly_exp(poly, expo):
        if expo.degree() > 2:
            raise ValueError("exponent degree > 2 is outside the family")
        return CoefficientFn(poly.nvars, [(poly, expo, ())])

    @staticmethod
    def bump_box(nvars, box, poly=None):
        """prod_i bump on [lo_i, hi_i] for the axes present in ``box``."""
        wins = tuple(window_on(i, lo, hi, nvars) for i, (lo, hi) in sorted(box.items()))
        p = poly if poly is not None else Poly.const(1, nvars)
        return CoefficientFn(nvars, [(p, Poly.zero(nvars), wins)])

    # --- algebra -----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def key(self):
        return tuple(sorted((p.key(), e.key(), tuple(w.key() for w in ws))
                            for p, e, ws in self.terms))

    def __eq__(self, other):
        return (isinstance(other, CoefficientFn) and self.nvars == other.nvars
                and self.key() == other.key())

    def __hash__(self):
        return hash((self.nvars, self.key()))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        return CoefficientFn(self.nvars, list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return CoefficientFn(self.nvars, [(p.scale(s), e, w) for p, e, w in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        out = []
        for p1, e1, w1 in self.terms:
            for p2, e2, w2 in other.terms:
                out.append((p1 * p2, e1 + e2, tuple(list(w1) + list(w2))))
        return CoefficientFn(self.nvars, out)

    def diff(self, axis):
        out = []
        for poly, expo, wins in self.terms:
            base = poly.diff(axis) + poly * expo.diff(axis)
            if not base.is_zero():
                out.append((base, expo, wins))
            for t, w in enumerate(wins):
                dw = w.diff(axis)
                if dw is None:
                    continue
                c, w2 = dw
                rest = wins[:t] + (w2,) + wins[t + 1:]
                out.append((poly.scale(c), expo, rest))
        return CoefficientFn(self.nvars, out)

    def substitute_affine(self, A, b, new_nvars):
        """Compose with u = A t + b; stays in the family."""
        out = []
        for poly, expo, wins in self.terms:
            p2 = poly.substitute_affine(A, b, new_nvars)
            e2 = expo.substitute_affine(A, b, new_nvars)
            w2 = tuple(w.substitute_affine(A, b, new_nvars) for w in wins)
            out.append((p2, e2, w2))
        return CoefficientFn(new_nvars, out)

    def drop_axis_dependence(self):
        """Axes the function actually depends on (symbolically)."""
        used = set()
        for poly, expo, wins in self.terms:
            for e in poly.exps:
                used |= {i for i, x in enumerate(e) if x}
            for e in expo.exps:
                used |= {i for i, x in enumerate(e) if x}
            for w in wins:
                used |= {i for i, c in enumerate(w.lin) if c != 0}
        return used

    # --- evaluation -----------------------------------------------------------
    def eval_float(self, u):
        """The value at one point: per term, its polynomial summed monomial by
        monomial, times exp of its exponent (inf where that overflows), times
        its windows; the terms summed in order."""
        if self._floats is None:
            self._floats = [(_float_monomials(poly), _float_monomials(expo),
                             [(w.fn, float(w.const), [(i, float(c)) for i, c in enumerate(w.lin)
                                                      if c != 0]) for w in wins])
                            for poly, expo, wins in self.terms]
        u = [float(x) for x in u]
        out = 0.0
        for poly, expo, wins in self._floats:
            val = _float_value(poly, u)
            if expo:
                try:
                    val *= math.exp(_float_value(expo, u))
                except OverflowError:
                    val *= math.inf
            for fn, s, lin in wins:
                for i, c in lin:
                    s = s + c * u[i]
                val *= fn.eval_float(s)
            out += val
        return out

    # --- support -----------------------------------------------------------
    def _term_slab(self, wins, axis):
        """Intersection of the window support slabs of one term on an axis."""
        lo = hi = None
        found = False
        for w in wins:
            slab = w.support_slab()
            if slab is None or slab[0] != axis:
                continue
            found = True
            _, wlo, whi = slab
            if wlo is not None:
                lo = wlo if lo is None else max(lo, wlo)
            if whi is not None:
                hi = whi if hi is None else min(hi, whi)
        return (lo, hi) if found else None

    def support_box(self):
        """Per-axis (lo, hi) bounds or None when unbounded on that axis.

        Conservative union over terms of the window support slabs.
        """
        if not self.terms:
            return [(Fraction(0), Fraction(0))] * self.nvars
        bounds = []
        for axis in range(self.nvars):
            lo = hi = None
            ok = True
            for _, _, wins in self.terms:
                slab = self._term_slab(wins, axis)
                if slab is None or slab[0] is None or slab[1] is None:
                    ok = False
                    break
                lo = slab[0] if lo is None else min(lo, slab[0])
                hi = slab[1] if hi is None else max(hi, slab[1])
            bounds.append((lo, hi) if ok else None)
        return bounds

    def vanishes_on_box(self, region):
        """Prove the function is 0 on a region {axis: (lo, hi)}; conservative.

        True when every term carries window support missing the region on
        some axis; False means 'could not prove'.
        """
        for _, _, wins in self.terms:
            term_dead = False
            for axis, (rlo, rhi) in region.items():
                slab = self._term_slab(wins, axis)
                if slab is None:
                    continue
                wlo, whi = slab
                rlo = frac(rlo) if rlo is not None else None
                rhi = frac(rhi) if rhi is not None else None
                if rlo is not None and whi is not None and whi <= rlo:
                    term_dead = True
                    break
                if rhi is not None and wlo is not None and wlo >= rhi:
                    term_dead = True
                    break
            if not term_dead:
                return False
        return True

    def __repr__(self):
        return f"CoefficientFn({self.nvars} vars, {len(self.terms)} terms)"


def bump(nvars, axis, lo, hi):
    """Canonical bump on [lo, hi] along one axis, as a CoefficientFn."""
    return CoefficientFn(nvars, [(Poly.const(1, nvars), Poly.zero(nvars),
                                  (window_on(axis, lo, hi, nvars),))])


def plateau(nvars, axis, lo, hi):
    """Smooth step: 0 below lo, 1 above hi, along one axis."""
    return CoefficientFn(nvars, [(Poly.const(1, nvars), Poly.zero(nvars),
                                  (window_on(axis, lo, hi, nvars, UniFn.plateau()),))])


def table(nvars, axis, lo, hi, ramp=1):
    """Smooth table: exactly 1 on [lo, hi], 0 outside [lo-ramp, hi+ramp].

    A product of an up-step and a down-step on the same axis; the support
    slab is the compact interval [lo-ramp, hi+ramp].
    """
    lo, hi, ramp = frac(lo), frac(hi), frac(ramp)
    up = window_on(axis, lo - ramp, lo, nvars, UniFn.plateau())
    down = window_on(axis, hi, hi + ramp, nvars, UniFn.plateau_down())
    return CoefficientFn(nvars, [(Poly.const(1, nvars), Poly.zero(nvars),
                                  (up, down))])
