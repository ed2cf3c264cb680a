"""Exterior algebra of Lagerberg and complex (p,q)-forms at a single fiber.

Forms are stored as sparse coefficient dictionaries over ordered
multi-index pairs.  A Lagerberg (p,q)-form is a combination of
``d'u_I ^ d''u_J`` with real coefficients; a complex (p,q)-form is a
combination of ``du_I ^ dubar_K`` with complex coefficients.  All degree-1
generators anticommute; the basis convention keeps both index blocks
strictly increasing with no interleaving sign.

The positivity machinery follows the three nested cones: strongly
positive (conic hull of decomposable products), positive (characterized
exactly by positive semidefiniteness of the associated Gram form), and
weakly positive (dual of the strongly positive cone).  The positive tier
is decided exactly over the rationals; the outer tiers return certified
Yes/No answers where an exact argument exists and Unknown otherwise.
"""

import math
import operator
import random
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import islice
from types import MappingProxyType

from . import exact
from .exact import QC
from .errors import (DimensionMismatch, WrongAlgebra, NotSquareBidegree,
                     BidegreeMismatch, ValidationError, Value, Verdict)
from .indices import _shuffle_sign, subsets, wedge_key


# --- multi-index helpers -----------------------------------------------------

@cache
def _complement(idx, n):
    return tuple(i for i in range(n) if i not in idx)


@cache
def _layout(n, p):
    """(idx, pos, offset) for (p,p)-forms on R^n: idx = subsets(n, p), pos[K] = K's
    place in idx and offset[(K, L)] = pos[K] len(idx) + pos[L], row-major."""
    pos = {K: t for t, K in enumerate(subsets(n, p))}
    return tuple(pos), pos, {(K, L): s * len(pos) + t for K, s in pos.items() for L, t in pos.items()}


# --- scalar dispatch ---------------------------------------------------------

def _exact_scalar(c):
    """c with a Python float read as its exact dyadic Fraction and a complex
    as the QC of its two parts; NaN and +-inf are a ValidationError."""
    if isinstance(c, complex):
        return QC(_exact_scalar(c.real), _exact_scalar(c.imag))
    if isinstance(c, float):
        if not math.isfinite(c):
            raise ValidationError(f"a fiber form coefficient is finite, not {c!r}")
        return Fraction(c)
    return c


def _parts(x):
    """The parts of a scalar: (real, imag) for a QC, else (x,)."""
    return (x.real, x.imag) if isinstance(x, QC) else (x,)


def _over_qi(m):
    """Whether a Gram matrix is over Q(i), not Q: some entry is a QC."""
    return any(isinstance(x, QC) for row in m for x in row)


def _negative(val):
    """A pairing value below zero; a complex value must be real."""
    return val.imag == 0 and val.real < 0


# --- form classes ------------------------------------------------------------

class _FiberForm:
    """Shared sparse-coefficient container; do not instantiate directly.

    A form is immutable: ``coeff`` is a read-only mapping, set once in
    __init__ or _new, so what is derived from it (_asymmetry, the cleared
    integer Gram matrix _gram, _pairing_polynomial) is computed once.  Every
    coefficient is exact: __init__ and scale read a Python float or complex
    as its exact value (_exact_scalar).
    """

    algebra = None
    _foreign = ()           # scalar types the algebra's coefficients cannot have

    def __init__(self, n, p, q, coeff=None):
        out = {}
        for (I, J), c in (coeff or {}).items():
            I, J = tuple(I), tuple(J)
            if isinstance(c, self._foreign):
                raise ValidationError(f"a {self.algebra} coefficient is real, not {c!r}")
            c = self._of(_exact_scalar(c))
            if len(I) != p or len(J) != q:
                raise ValidationError(f"index ({I},{J}) does not match bidegree ({p},{q})")
            if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                raise ValidationError(f"multi-indices must be strictly increasing: ({I},{J})")
            if any(i < 0 or i >= n for i in I + J):
                raise ValidationError(f"index out of range in ({I},{J}) for n = {n}")
            if c:
                out[(I, J)] = c
        vars(self).update(n=n, p=p, q=q, coeff=MappingProxyType(out))

    def __setattr__(self, name, value):
        raise AttributeError(f"fiber forms are immutable: cannot set {name!r}")

    @staticmethod
    def _of(c):
        """A coefficient as the algebra's scalar."""
        return c

    @cached_property
    def _gram(self):
        """(indices, N, den) for a (p,p)-form: N[K][L] = den (-1)^{p(p-1)/2}
        i^{-p} coeff[K,L] over indices = subsets(n, p), i = 1 for Lagerberg,
        den the lcm of the coefficients' denominators: integers (QC with
        integer parts if complex).  The coefficients are cleared once by
        exact.integer_parts into a flat row-major list at _layout's offsets."""
        p, coeff = self.p, self.coeff
        idx, _, offset = _layout(self.n, p)
        den, ints = exact.integer_parts(coeff.values())
        unit = self._i_pow(-p) * (-1) ** (p * (p - 1) // 2)
        flat = [self._zero()] * len(offset)
        for key, x in zip(coeff, ints):
            flat[offset[key]] = unit * x
        return idx, tuple(zip(*[iter(flat)] * len(idx))), den

    @cached_property
    def _asymmetry(self):
        """'' if a is symmetric, J a = (-1)^p a (Lagerberg), resp. real, conj a = a
        (complex), else the reason this (p,p)-form is not positive.  Either holds
        iff its integer Gram matrix N is conj(N)^T, as the unit of _gram makes
        c[J, I] == i^{2p} conj(c[I, J]) at every key (i = 1 for Lagerberg)."""
        if self.p != self.q:
            return self._asymmetric
        N = self._gram[1]
        return "" if N == tuple(tuple(x.conjugate() for x in c) for c in zip(*N)) else self._asymmetric

    @cached_property
    def _pairing_polynomial(self):
        """<self, strong generator> as an exact polynomial, built once per form:
        sum_t c'_t beta_k(x) beta_l(x) over _pairing_terms, in the q*n
        coordinates x_{j,i} (index j*n + i) of the vectors building the strong
        (q,q)-generator, beta(x) their symbolic minors.  Identically zero or
        even-positive polynomials give exact weak-positivity certificates."""
        from .coeffs import Poly
        n, q = self.n, self.n - self.p
        nv = q * n
        beta = ({(0,) * nv: 1},)        # each minor as {exponent tuple: coefficient}
        for j in range(q):
            beta = tuple(_symbolic_row_step(beta, row, j * n) for row in _expansion(n, j + 1))
        out = {}
        for c, k, l in _pairing_terms(self):
            for e1, c1 in beta[k].items():
                for e2, c2 in beta[l].items():
                    e = tuple(map(operator.add, e1, e2))
                    out[e] = out.get(e, 0) + c * c1 * c2
        return Poly(out, nv)

    def get(self, I, J):
        return self.coeff.get((tuple(I), tuple(J)), self._zero())

    def is_zero(self):
        return not self.coeff

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            return False
        keys = set(self.coeff) | set(other.coeff)
        return all(self.get(*k) == other.get(*k) for k in keys)

    def __hash__(self):
        raise TypeError("fiber forms are not hashable")

    @classmethod
    def basis_form(cls, n, I, J, c=1):
        return cls(n, len(I), len(J), {(tuple(I), tuple(J)): c})

    @classmethod
    def zero(cls, n, p, q):
        return cls(n, p, q, {})

    def _new(self, p, q, coeff):
        """A result of wedge, +, scale or positive_generator on valid forms:
        valid by construction, so only zeros drop.  Input is validated."""
        out = object.__new__(type(self))
        vars(out).update(n=self.n, p=p, q=q, coeff=MappingProxyType(
            {k: c for k, c in coeff.items() if c}))
        return out

    def __add__(self, other):
        assert type(other) is type(self) and (self.p, self.q) == (other.p, other.q)
        out = dict(self.coeff)
        for k, c in other.coeff.items():
            out[k] = out.get(k, 0) + c
        return self._new(self.p, self.q, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = _exact_scalar(s)
        return self._new(self.p, self.q, {k: c * s for k, c in self.coeff.items()})

    def __repr__(self):
        terms = ", ".join(f"{k}: {c}" for k, c in sorted(self.coeff.items())[:6])
        more = "..." if len(self.coeff) > 6 else ""
        return (f"{type(self).__name__}(n={self.n}, ({self.p},{self.q}), "
                f"{{{terms}{more}}})")


class LagerbergFiberForm(_FiberForm):
    """Real (p,q)-form on the basis d'u_I ^ d''u_J.

    The class attributes and static methods shared with ComplexFiberForm
    let one positivity path serve both algebras: ``bar`` names the
    involution pairing (p,0) with (0,p), and ``_i_pow`` is 1 here because
    embed_complex sends d''u to i dubar.
    """

    algebra = "lagerberg"
    bar = "J"
    _asymmetric = "not symmetric"
    _foreign = (QC, complex)

    @staticmethod
    def _zero():
        return 0

    @staticmethod
    def _i_pow(k):
        return 1


class ComplexFiberForm(_FiberForm):
    """Complex (p,q)-form on the basis du_I ^ dubar_K."""

    algebra = "complex"
    bar = "conjugation"
    _asymmetric = "not real"

    @staticmethod
    def _zero():
        return QC(0)

    @staticmethod
    def _of(c):
        return QC.of(c) if isinstance(c, (int, Fraction)) else c

    _i_pow = staticmethod(QC.i_pow)


_FORM_CLASSES = {"lagerberg": LagerbergFiberForm, "complex": ComplexFiberForm}


# --- core operations ---------------------------------------------------------

def wedge(a, b):
    """Graded-anticommutative product of two fiber forms."""
    if type(a) is not type(b):
        raise WrongAlgebra("cannot wedge forms from different algebras")
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")
    out = {}
    for (I1, J1), c1 in a.coeff.items():
        for (I2, J2), c2 in b.coeff.items():
            hit = wedge_key(I1, J1, I2, J2)
            if hit is None:
                continue
            sgn, key = hit
            out[key] = out.get(key, 0) + c1 * c2 * sgn
    return a._new(a.p + b.p, a.q + b.q, out)


_INVOLUTION_ALGEBRAS = {"J": "Lagerberg", "conjugation": "complex", "F": "complex"}


def apply_involution(kind, a):
    """One of the three involutions: J (Lagerberg), conjugation or F (complex).

    J is the algebra homomorphism swapping d' and d''; conjugation is the
    antilinear involution with du -> dubar; F is the antilinear involution
    fixing du and negating dubar.  J and conjugation swap the two index
    blocks, with sign (-1)^{pq}; F keeps them, with sign (-1)^q.
    """
    if kind not in _INVOLUTION_ALGEBRAS:
        raise ValueError(f"unknown involution {kind!r}")
    if a.algebra != _INVOLUTION_ALGEBRAS[kind].lower():
        raise WrongAlgebra(f"{kind} acts on {_INVOLUTION_ALGEBRAS[kind]} forms")
    swap = kind != "F"
    out = {}
    for (I, J), c in a.coeff.items():
        sgn = -1 if (len(I) * len(J) if swap else len(J)) % 2 else 1
        out[(J, I) if swap else (I, J)] = c.conjugate() * sgn
    return type(a)(a.n, *((a.q, a.p) if swap else (a.p, a.q)), out)


def embed_complex(a):
    """Algebra embedding d'u_j -> du_j, d''u_j -> i dubar_j.

    The image is exactly the F-fixed subspace; the Lagerberg orientation
    maps to the complex one.
    """
    if a.algebra != "lagerberg":
        raise WrongAlgebra("embed_complex takes a Lagerberg form")
    out = {}
    for (I, J), c in a.coeff.items():
        out[(I, J)] = QC.i_pow(len(J)) * QC.of(c)
    return ComplexFiberForm(a.n, a.p, a.q, out)


class GramForm(Value):
    """Square matrix of a (p,p)-form on the p-subset basis; ``kind`` is
    'symmetric', 'hermitian' or 'none'."""
    __slots__ = _fields = ("indices", "matrix", "kind")


def gram_form(a):
    """Bilinear/sesquilinear form |a| of a (p,p)-form as an explicit matrix.

    M[K][L] = (-1)^{p(p-1)/2} i^{-p} coeff[K,L], with i = 1 in the
    Lagerberg case; ``kind`` is 'symmetric' (Lagerberg) or 'hermitian'
    (complex) iff M = conj(M)^T, which holds iff a is symmetric (resp.
    real), and 'none' otherwise.
    """
    if a.p != a.q:
        raise NotSquareBidegree(f"bidegree ({a.p},{a.q}) is not (p,p)")
    idx, N, den = a._gram
    unit = Fraction(1, den)
    kind = "none" if a._asymmetry else "hermitian" if a.algebra == "complex" else "symmetric"
    return GramForm(idx, [[x * unit for x in row] for row in N], kind)


def _complementary_terms(a):
    """(sign, a_IJ, I^c, J^c) over the keys of the (p,p)-form a; <a, b> sums
    sign a_IJ b_{I^c J^c}.  sign = (-1)^{pq} eps(I) eps(J) (-1)^{n(n-1)/2}: b's
    q-block passes a's p-block, eps(I) is the sign of the shuffle (I, I^c),
    and (-1)^{n(n-1)/2} is tau_n's top coefficient."""
    n = a.n
    fixed = (-1) ** (a.p * (n - a.p) + n * (n - 1) // 2)
    for (I, J), c in a.coeff.items():
        yield fixed * _shuffle_sign(I) * _shuffle_sign(J), c, _complement(I, n), _complement(J, n)


def dual_pairing(a, b):
    """<a, b> defined by a ^ b = <a, b> tau_n (resp. omega_n).

    One pass over complementary indices (see _complementary_terms); the
    top coefficient of omega_n is i^n times that of tau_n.
    """
    if a.p != a.q or b.p != b.q:
        raise NotSquareBidegree("pairing needs (p,p) x (q,q) forms")
    if a.p + b.p != a.n:
        raise BidegreeMismatch(f"bidegrees ({a.p},{a.p}) and ({b.p},{b.p}) "
                               f"do not pair in dimension {a.n}")
    if type(a) is not type(b):
        raise WrongAlgebra("cannot pair forms from different algebras")
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")
    top = 0
    for sign, c, K, L in _complementary_terms(a):
        d = b.coeff.get((K, L))
        if d is not None:
            top = top + c * d * sign
    return top * a._i_pow(-a.n)


# --- positivity ---------------------------------------------------------------

PositivityVerdict = Verdict


def positive_generator(alpha):
    """i^p (-1)^{p(p-1)/2} alpha ^ bar(alpha) from a (p,0)-form of either algebra.

    That is (-1)^{p(p-1)/2} alpha ^ J(alpha) for a Lagerberg form and
    i^{p^2} alpha ^ conj(alpha) for a complex one.  alpha ^ bar(alpha) has
    coefficient a_I conj(a_J) at (I, J) (conj is the identity on Lagerberg
    scalars), so the product is one outer product of coefficients.
    """
    p, coeff = alpha.p, alpha.coeff
    s = alpha._i_pow(p) * (-1) ** (p * (p - 1) // 2)
    return alpha._new(p, p, {(I, J): a * b.conjugate() * s
                             for (I, _), a in coeff.items() for (J, _), b in coeff.items()})


@cache
def _expansion(n, p):
    """For each K in subsets(n, p): (sign, position of K - {k} in
    subsets(n, p - 1), k) over k in K; the sign moves d'u_k from the end of
    d'u_{K - {k}} ^ d'u_k into place."""
    prev = {K: t for t, K in enumerate(subsets(n, p - 1))}
    return tuple(tuple(((-1) ** (p - 1 - pos), prev[K[:pos] + K[pos + 1:]], k)
                       for pos, k in enumerate(K)) for K in subsets(n, p))


def plucker_vector(vectors, n):
    """The p-minors of the p x n matrix with rows ``vectors``, over subsets(n, p).

    These are the coefficients of the (p,0)-form a_1 ^ ... ^ a_p, built row
    by row: each step expands along the newest row.  No vectors give (1,).
    """
    beta = (1,)
    for p, v in enumerate(vectors, 1):
        beta = tuple(sum(s * beta[t] * v[k] for s, t, k in row) for row in _expansion(n, p))
    return beta


def _plucker_generator(beta, n, p, cls):
    """The strong (p,p)-generator of a Plucker vector over subsets(n, p)."""
    return positive_generator(cls(n, p, 0, {(K, ()): b for K, b in zip(subsets(n, p), beta) if b}))


def strong_generator(vectors, n, algebra="lagerberg"):
    """a_1 ^ J a_1 ^ ... ^ a_p ^ J a_p from degree-one coefficient vectors.

    In the complex case the factors are a_j ^ i conj(a_j).  They have even
    degree and commute; gathering the a_j in front moves J a_j past a_k
    once for each of the p(p-1)/2 pairs j < k, hence the block sign
    (-1)^{p(p-1)/2} of positive_generator(alpha), alpha = a_1 ^ ... ^ a_p
    the (p,0)-form of p-minors.  No vectors give the unit (0,0)-form.
    """
    return _plucker_generator(plucker_vector(vectors, n), n, len(vectors), _FORM_CLASSES[algebra])


def coordinate_strong_generators(n, p, algebra="lagerberg"):
    gens = []
    for I in subsets(n, p):
        vecs = [tuple(int(j == i) for j in range(n)) for i in I]
        gens.append((strong_generator(vecs, n, algebra), ("coordinate", I)))
    return gens


def strong_generator_pool(n, p, size=10_000, seed=0):
    """A seeded pool of strong (p,p)-generators, as Plucker vectors.

    Yields (beta, tag), beta an integer tuple over subsets(n, p) whose
    generator is positive_generator of the (p,0)-form beta (see
    strong_generator); the pool is the same for both algebras.  First comes
    one coordinate generator d'u_I ^ J d'u_I per I, tag ("coordinate", I);
    then, until ``size`` entries, the minors of p vectors with entries drawn
    uniformly from -3..3 by random.Random(seed), tag ("random", vectors),
    skipping draws whose minors all vanish.  Entries are immutable tuples.

    The pool is memoized per process, extended lazily: a bounded memo keyed
    by (n, p, size, seed) keeps the entries drawn so far, and a consumer
    draws a new one only when it reads past them.  So a consumer that stops
    early leaves the rest undrawn, and interleaved consumers each see the
    whole pool in order.
    """
    drawn, source = _pool_memo(n, p, size, seed)
    t = 0
    # next(source) appends the next entry to drawn, or gives None at the end
    while t < len(drawn) or next(source, None) is not None:
        yield drawn[t]
        t += 1


@lru_cache(maxsize=8)
def _pool_memo(n, p, size, seed):
    """([entries drawn so far], the draw that appends the rest one by one)."""
    drawn = []

    def draw():
        for entry in _draw_pool(n, p, size, seed):
            drawn.append(entry)
            yield entry
    return drawn, draw()


def _draw_pool(n, p, size, seed):
    """The entries of strong_generator_pool(n, p, size, seed), drawn afresh."""
    S = subsets(n, p)
    for I in S:
        yield tuple(int(K == I) for K in S), ("coordinate", I)
    rng = random.Random(seed)
    count = len(S)
    while count < size:
        vecs = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(p))
        beta = plucker_vector(vecs, n)
        if any(beta):
            count += 1
            yield beta, ("random", vecs)


def _positive_tier(a):
    """exact.gram_verdict on a._gram; a form that is not symmetric (resp.
    real), whose Gram matrix is not symmetric (resp. Hermitian), fails at once."""
    try:
        return exact.gram_verdict(*a._gram)
    except ValueError:
        return Verdict("positive", "no", reason=a._asymmetry)


def _pairing_terms(a):
    """(c'_t, k_t, l_t) with <a, g_beta> = sum_t c'_t beta_k conj(beta_l).

    g_beta is the strong (q,q)-generator, q = n - p, of a Plucker vector
    beta over subsets(n, q), whose coefficient at (K, L) is
    s beta_K conj(beta_L) with s = i^q (-1)^{q(q-1)/2}.  The terms are those
    of _complementary_terms, with s and the i^{-n} of dual_pairing folded
    into the coefficient, and k, l the positions of I^c, J^c.
    """
    n, q = a.n, a.n - a.p
    pos = _layout(n, q)[1]
    unit = a._i_pow(-a.p) * (-1) ** (q * (q - 1) // 2)
    return [(c * (unit * sign), pos[K], pos[L])
            for sign, c, K, L in _complementary_terms(a)]


def _negative_pairing(a):
    """beta -> whether <a, g_beta> < 0, for integer Plucker vectors beta.

    The terms are scaled by a common denominator (exact.integer_parts), so
    each test is integer arithmetic, Gaussian over Q(i), read by _negative.
    """
    terms = _pairing_terms(a)
    pairs = [(k, l) for _, k, l in terms]
    _, cs = exact.integer_parts([c for c, _, _ in terms])

    def negative(beta):
        return _negative(sum(map(operator.mul, cs, [beta[k] * beta[l] for k, l in pairs])))
    return negative


def _symbolic_row_step(beta, row, offset):
    """One step of plucker_vector on monomials: sum of s beta_t x_{j,k} over
    ``row``, x_{j,k} the variable at offset + k."""
    out = {}
    for s, t, k in row:
        for e, c in beta[t].items():
            e = list(e)
            e[offset + k] += 1
            out[tuple(e)] = s * c
    return out


def _gram_span_verdict(n, p, gram, terms):
    """Strong Yes, strong No or None for a positive (p,p)-form on R^n with
    Gram triple ``gram`` (a._gram) from the Gram row space W, spanned by the
    vectors of its LDL^T ``terms`` [(gamma, {K: v_K})].

    Any strong decomposition of a uses decomposable (p,0)-parts inside W.
    When every v is decomposable (_decomposable), the LDL^T is itself one.
    Otherwise, for a Lagerberg form at p = 2 with dim W <= 2, alpha = y w1 +
    z w2 in W is decomposable iff alpha ^ alpha = 0, a system of binary
    quadratics in (y, z).  Without a real root, W holds no decomposable: a
    No.  Two rational roots alpha_1, alpha_2 are a basis of W, so a strong
    decomposition can only be a = l_1 G(alpha_1) + l_2 G(alpha_2), that is
    gram(a) = l_1 alpha_1 alpha_1^T + l_2 alpha_2 alpha_2^T, solved exactly
    on the Gram entries between the LDL^T pivots, which fix W, so the
    solution is unique: a Yes when it has l >= 0.  Anything else gives None.
    """
    idx, N, den = gram
    if _over_qi(N):
        return None
    if all(_decomposable(v, n, p) for _, v in terms):
        return _gram_span_yes(terms)
    if p != 2 or len(terms) > 2:
        return None
    forms = [LagerbergFiberForm(n, p, 0, {(K, ()): c for K, c in v.items()}) for _, v in terms]
    basis = [dict(f.coeff) for f in forms]
    if len(forms) == 1:
        return Verdict(
            "strong", "no",
            witness=("kernel_obstruction", {"basis": basis, "quadratic": None}),
            reason="Gram row space is a line with no decomposable element")
    w1, w2 = forms
    q11, q12, q22 = wedge(w1, w1), wedge(w1, w2) + wedge(w2, w1), wedge(w2, w2)
    quadratics = [(Fraction(q11.get(*k)), Fraction(q12.get(*k)), Fraction(q22.get(*k)))
                  for k in set(q11.coeff) | set(q12.coeff) | set(q22.coeff)]
    roots = _common_real_roots(quadratics)
    if roots == []:
        return Verdict("strong", "no", witness=("kernel_obstruction",
                                                {"basis": basis, "quadratics": quadratics}),
                       reason="no real decomposable in the Gram row space")
    if roots is None or len(roots) != 2:
        return None
    alphas = [{K: c for (K, _), c in (w1.scale(y) + w2.scale(z)).coeff.items()} for y, z in roots]
    # both sides are V C V^T, V the LDL^T vectors, each starting at its pivot
    # and zero at the earlier ones: the entries between pivots force C = 0
    vecs = [[alpha.get(K, 0) for K in idx] for alpha in alphas]
    pivots = [idx.index(next(iter(v))) for _, v in terms]
    keys = [(t, u) for i, t in enumerate(pivots) for u in pivots[i:]]
    sol = exact.solve([[v[t] * v[u] for v in vecs] for t, u in keys],
                      [Fraction(N[t][u], den) for t, u in keys])
    return None if sol is None or min(sol) < 0 else _gram_span_yes(list(zip(sol, alphas)))


def _gram_span_yes(terms):
    """The strong Yes a = sum_k l_k positive_generator(alpha_k) over terms
    [(l_k, {K: alpha_K})], alpha_k decomposable; terms with l_k = 0 drop."""
    cert = [(lam, ("gram_span", alpha)) for lam, alpha in terms if lam]
    return Verdict("strong", "yes", certificate=("conic", cert),
                   reason="strong decomposition inside the Gram row space")


def _common_real_roots(quadratics):
    """The distinct common real projective roots (y, z) of binary quadratics
    A y^2 + B yz + C z^2, none identically zero, found among the first
    one's: a list of rational roots, or None for two irrational roots
    common to all, that is, every quadratic a multiple of the first (one
    vanishing at an irrational root vanishes at its conjugate too)."""
    A0, B0, C0 = quadratics[0]
    if A0 == 0:
        roots = [(1, 0)] + ([(-C0, B0)] if B0 else [])
    else:
        D = B0 * B0 - 4 * A0 * C0
        if D < 0:
            return []
        s = Fraction(math.isqrt(D.numerator), math.isqrt(D.denominator))
        if s * s != D:
            return None if all(A * B0 == A0 * B and A * C0 == A0 * C for A, B, C in quadratics) else []
        roots = [(-B0 + s, 2 * A0), (-B0 - s, 2 * A0)]
    return [(y, z) for y, z in dict.fromkeys(roots)
            if all(A * y * y + B * y * z + C * z * z == 0 for A, B, C in quadratics)]


def _pool_in_span(gram, pool):
    """The pool entries (beta, tag) whose beta lies in the row space W of the
    Gram triple ``gram`` of a positive form: the only generators a conic
    certificate can use, since each term's Gram matrix beta beta^T is real
    and PSD and they sum to the form's.  So none when that matrix is not
    real; else beta is in W iff orthogonal to each integer kernel vector."""
    if any(x.imag for row in gram[1] for x in row):
        return []
    kernel = [exact.primitive(v) for v in exact.nullspace([[x.real for x in row] for row in gram[1]])]
    return [(beta, tag) for beta, tag in pool
            if not any(sum(map(operator.mul, beta, k)) for k in kernel)]


def _strong_lp_certificate(p, gram, pool):
    """Exact conic-combination certificate [(lambda, tag)] over a pool of
    Plucker vectors (beta, tag) of the (p,p)-form with the real Gram triple
    ``gram`` = (idx, N, den), via LP + rational fit.

    LP column j is generator j at the sorted keys (K, L) where N or some
    generator has an entry, one row per part of a scalar (two over Q(i)):
    s beta_K beta_L = s N[K][L] / den, the coefficient, s as in
    positive_generator.  That is one float outer product per key (exact:
    the minors are small integers).  The exact refit on the LP's support
    solves N / den = sum lambda_j beta_j beta_j^T, so no form is built.
    """
    import numpy as np
    from scipy.optimize import linprog
    idx, N, den = gram
    B = np.array([beta for beta, _ in pool], dtype=float).reshape(len(pool), len(idx))
    nonzero = B != 0
    mask = nonzero.T @ nonzero | np.array([[bool(x) for x in row] for row in N])
    ti, tj = np.nonzero(mask)       # row-major: the keys in sorted order
    if not len(ti):
        return []                   # the form has no coefficient: the empty sum
    cells = list(zip(ti.tolist(), tj.tolist()))
    outer = B[:, ti] * B[:, tj]
    s = (QC.i_pow(p) if _over_qi(N) else 1) * (-1) ** (p * (p - 1) // 2)
    A_eq = np.stack([outer * float(x) for x in _parts(s)], axis=2).reshape(len(pool), -1).T + 0.0
    b_eq = np.array([float(Fraction(x, den)) for t, u in cells for x in _parts(s * N[t][u])])
    res = linprog(c=np.zeros(len(pool)), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(pool), method="highs")
    if not res.success:
        return None
    support = [j for j, x in enumerate(res.x) if x > 1e-9]
    rhs = [Fraction(_parts(N[t][u])[0], den) for t, u in cells]
    if not support:
        return [] if not any(rhs) else None
    betas = [pool[j][0] for j in support]
    sol = exact.solve([[b[t] * b[u] for b in betas] for t, u in cells], rhs)
    if sol is None or any(x < 0 for x in sol):
        return None
    return [(sol[t], pool[support[t]][1]) for t in range(len(support)) if sol[t] != 0]


def positivity_verdict(a, tier, *, seed=0, pool_size=2000):
    """Three-tier positivity decision with certificates.

    tier='positive' is always decided, by exact.gram_verdict on a._gram.
    tier='strong' delegates to 'positive' for p in {0,1,n-1,n}; otherwise
    a positive No is a strong No, and a form is tried first on the
    Gram row space W (_gram_span_verdict: a Yes when its decomposables
    give a decomposition, a No when it holds none), then by one LP for a
    conic decomposition over the entries of
    strong_generator_pool(n, p, pool_size, seed) that lie in W, none when
    a's Gram matrix is not real, skipped when fewer remain than the Gram
    rank; else Unknown.  A strong Yes carries ("conic", [(lambda, tag)]),
    each tag naming a decomposable (p,0)-form (_tag_vector); its weights
    are fit on Gram entries, so it builds no form.
    tier='weak' requires symmetry; a positive form is weakly positive, with
    the positive tier's certificate.  Otherwise it pairs a with
    strong_generator_pool(n, n - p, pool_size, seed) in pool order and
    stops at the first negative pairing, whose generator is the witness; a
    Lagerberg form's a._pairing_polynomial, whose Yes means no entry
    pairs negatively, is tried after the coordinate entries.  The pool is
    memoized per process and extended lazily, so a No draws it only up to
    its witness, and the witness is the only form built.  Else Unknown.
    """
    if a.p != a.q:
        raise NotSquareBidegree(f"bidegree ({a.p},{a.q}) is not (p,p)")
    n, p = a.n, a.p
    if tier == "positive":
        return _positive_tier(a)
    if tier in ("strong", "weak") and p in (0, 1, n - 1, n):
        v = _positive_tier(a)
        return v.replace(tier=tier, reason=v.reason or "tier equivalence p in {0,1,n-1,n}")

    if tier == "strong":
        base = _positive_tier(a)
        if base.no:
            return base.replace(tier="strong", reason="not even positive: " + base.reason)
        terms, gram = base.certificate[1], a._gram
        verdict = _gram_span_verdict(n, p, gram, terms)
        if verdict is not None:
            return verdict
        pool = _pool_in_span(gram, strong_generator_pool(n, p, pool_size, seed))
        cert = _strong_lp_certificate(p, gram, pool) if len(pool) >= len(terms) else None
        if cert is not None:
            return Verdict("strong", "yes", certificate=("conic", cert))
        return Verdict("strong", "unknown", reason="no certificate over the generator pool")

    if tier == "weak":
        if a._asymmetry:
            return Verdict("weak", "no", reason=a._asymmetry)
        base = _positive_tier(a)
        if base.yes:
            return base.replace(tier="weak", reason="positive, so weakly positive")
        q = n - p
        negative = _negative_pairing(a)
        pool = strong_generator_pool(n, q, pool_size, seed)
        for entries in (islice(pool, math.comb(n, q)), pool):   # coordinate entries, then random
            for beta, tag in entries:
                if negative(beta):
                    witness = ("generator", tag, _plucker_generator(beta, n, q, type(a)))
                    return Verdict("weak", "no", witness=witness,
                                   reason="negative pairing with a strongly positive form")
            if entries is not pool and a.algebra == "lagerberg":
                poly = a._pairing_polynomial
                if poly.is_zero():
                    return Verdict("weak", "yes", certificate=("pairing_polynomial_zero",),
                                   reason="pairing with every strong generator vanishes identically")
                if poly.is_even_nonnegative():
                    return Verdict("weak", "yes",
                                   certificate=("pairing_polynomial_even_positive", poly),
                                   reason="pairing polynomial is a nonnegative combination of squares of monomials")
        return Verdict("weak", "unknown", reason="no exact dual argument applies")

    raise ValidationError(f"unknown tier {tier!r}")


# The tiers each kind of certificate (Yes) or witness (No) proves, along
# strongly positive < positive < weakly positive: a Yes proves its cone and
# the larger ones, a No its cone and the smaller ones.  A No without a
# witness is structural (not symmetric, resp. not real).  For p in
# {0, 1, n - 1, n} the three cones coincide.
_TIERS = ("strong", "positive", "weak")
_PROVES = {("yes", "conic"): _TIERS, ("yes", "decomposition"): _TIERS[1:],
           ("yes", "pairing_polynomial_zero"): _TIERS[2:],
           ("yes", "pairing_polynomial_even_positive"): _TIERS[2:],
           ("no", "kernel_obstruction"): _TIERS[:1], ("no", "evaluation"): _TIERS[:2],
           ("no", "generator"): _TIERS, ("no", None): _TIERS}
_MALFORMED = (AttributeError, TypeError, ValueError, ValidationError)   # reading a malformed claim


def reverify(a, verdict):
    """Exact re-check of a verdict's certificate or witness; always a bool.

    ``a`` is the fiber form the verdict is about, or the current of an
    exact ``currents.positivity_check`` verdict, which
    ``reverify_positivity`` re-checks; a verdict about the other kind of
    object, or about a form that is not (p,p), is False.  The kind of
    certificate or witness must prove the verdict's answer at its tier
    (_PROVES).  A decomposition or an evaluation witness is checked on
    a._gram by exact.gram_claim_holds.  A conic certificate is one Gram fact
    too, checked by exact.gram_holds: a = sum gamma_k
    positive_generator(alpha_k) iff gram(a) = sum gamma_k alpha_k
    conj(alpha_k)^T, alpha_k the vector its tag names (_tag_vector).  A
    claim of the wrong shape, or with a scalar that is not exact, is False.
    A weak No's generator must be the one its tag names and pair negatively
    with a; a kernel obstruction and the pairing polynomials are re-derived
    from a.
    """
    if verdict.answer == "unknown":
        return True
    if not isinstance(a, _FiberForm):
        from .currents import reverify_positivity   # a current's exact verdict
        return reverify_positivity(a, verdict)
    if a.p != a.q:
        return False
    data = verdict.certificate if verdict.yes else verdict.witness
    kind = data[0] if data else None
    tiers = _PROVES.get((verdict.answer, kind), ())
    if verdict.tier not in (_TIERS if tiers and a.p in (0, 1, a.n - 1, a.n) else tiers):
        return False
    if kind in ("decomposition", "evaluation"):
        return exact.gram_claim_holds(*a._gram, data)
    if kind == "conic":
        try:                # a claim of the wrong shape fails
            terms = [(gamma, _tag_vector(v, a.n, a.p, type(a))) for gamma, v in data[1]]
        except _MALFORMED:
            return False
        return all(v is not None for _, v in terms) and exact.gram_holds(*a._gram[1:], terms)
    if kind == "pairing_polynomial_zero":
        return a._pairing_polynomial.is_zero()
    if kind == "pairing_polynomial_even_positive":
        return a._pairing_polynomial.is_even_nonnegative()
    if kind == "generator":
        # ("generator", tag, form): the form must be the one its tag names
        q = a.n - a.p
        try:
            _, tag, g = data
            beta = _tag_vector(tag, a.n, q, type(a))
        except _MALFORMED:
            return False
        return (beta is not None and _plucker_generator(beta, a.n, q, type(a)) == g
                and _negative(dual_pairing(a, g)))
    if kind == "kernel_obstruction":
        # re-derived from a's own LDL^T; the basis and quadratics carried are not read
        base = _positive_tier(a)
        span = _gram_span_verdict(a.n, a.p, a._gram, base.certificate[1]) if base.yes else None
        return span is not None and span.no
    # a structural No: a is not symmetric (resp. real)
    return bool(a._asymmetry) and verdict.reason.endswith(a._asymmetry)


def _tag_vector(tag, n, p, cls):
    """The vector over subsets(n, p) of the (p,0)-form whose strong
    generator a tag names, or None: the Plucker vector of a pool tag
    ("coordinate", I) or ("random", vectors), or the alpha of a Gram-span
    tag ("gram_span", {K: alpha_K}), which must be decomposable."""
    kind, data = tag
    if kind == "gram_span":
        idx, pos, _ = _layout(n, p)
        if not data.keys() <= pos.keys():
            return None
        alpha = cls(n, p, 0, {(K, ()): c for K, c in data.items()})
        return [data.get(K, 0) for K in idx] if decomposable_test(alpha) == "yes" else None
    if kind == "coordinate":
        data = [[int(j == i) for j in range(n)] for i in data]
    elif kind != "random":
        return None
    fits = len(data) == p and all(len(v) == n for v in data)
    return plucker_vector(data, n) if fits else None


def decomposable_test(a):
    """'yes' or 'no': whether the (p,0)-form a is decomposable (_decomposable)."""
    if a.q != 0:
        raise NotSquareBidegree("decomposable_test needs a (p,0)-form")
    return "yes" if _decomposable({K: c for (K, _), c in a.coeff.items()}, a.n, a.p) else "no"


def _decomposable(v, n, p):
    """Whether the p-vector v = {K: v_K} over subsets(n, p), rational or
    Gaussian, is decomposable: v = 0, p <= 1, p = n, or its contractions
    against the (p-1)-subsets S span p dimensions (exact.rank, over Q(i)
    for Gaussian entries).  They span the least space W with v in the p-th
    exterior power of W, so at least p dimensions when v != 0.  Row S has
    +-v_K in column k for K = S + {k}, with _expansion's sign; v is cleared
    to integers once, and rows that v's support misses are left out."""
    if not any(v.values()) or p <= 1 or p == n:
        return True
    cleared = dict(zip(v, exact.integer_parts(list(v.values()))[1]))
    rows = {}
    for K, expansion in zip(subsets(n, p), _expansion(n, p)):
        x = cleared.get(K)
        for s, t, k in expansion if x else ():
            rows.setdefault(t, [0] * n)[k] = s * x
    return exact.rank(list(rows.values())) == p
