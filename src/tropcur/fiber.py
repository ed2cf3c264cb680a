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
from .indices import _shuffle_sign, merge_indices, subsets, wedge_key


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


def _conj(x):
    return x.conj() if isinstance(x, QC) else x


def _negative(val):
    """A pairing value below zero; a complex value must be real."""
    if isinstance(val, QC):
        return val.im == 0 and val.re < 0
    return val < 0


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
        integer parts if complex).  One pass over coeff, reading
        as_integer_ratio, fills a flat row-major list at _layout's offsets."""
        p, coeff, hermitian = self.p, self.coeff, self.algebra == "complex"
        idx, _, offset = _layout(self.n, p)
        den, ints = 1, [y for c in coeff.values() for y in (c.re, c.im)] if hermitian else coeff.values()
        if not set(map(type, ints)) <= {int}:
            ratios = [x.as_integer_ratio() for x in ints]
            den = math.lcm(*{d for _, d in ratios if d != 1})
            ints = [a * (den // d) for a, d in ratios]
        unit = self._i_pow(-p) * (-1) ** (p * (p - 1) // 2)
        flat = [self._zero()] * len(offset)
        for key, x in zip(coeff, [*map(QC, ints[::2], ints[1::2])] if hermitian else ints):
            flat[offset[key]] = unit * x
        return idx, tuple(zip(*[iter(flat)] * len(idx))), den

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
    _foreign = (QC, complex)

    @staticmethod
    def _zero():
        return 0

    @staticmethod
    def _i_pow(k):
        return 1

    @staticmethod
    def _parts(c):
        return (c,)

    @cached_property
    def _asymmetry(self):
        """'' if J a = (-1)^p a, else the reason this (p,p)-form is not positive."""
        return "" if is_symmetric(self) else "not symmetric"


class ComplexFiberForm(_FiberForm):
    """Complex (p,q)-form on the basis du_I ^ dubar_K."""

    algebra = "complex"
    bar = "conjugation"

    @staticmethod
    def _zero():
        return QC(0)

    @staticmethod
    def _of(c):
        return QC.of(c) if isinstance(c, (int, Fraction)) else c

    _i_pow = staticmethod(QC.i_pow)

    @staticmethod
    def _parts(c):
        return (c.re, c.im)

    @cached_property
    def _asymmetry(self):
        """'' if conj a = a, else the reason this (p,p)-form is not positive:
        conj a = a when c[J, I] == (-1)^p conj(c[I, J]) at every key."""
        coeff, odd = self.coeff, self.p % 2
        real = self.p == self.q and all(coeff.get((J, I)) == (-_conj(c) if odd else _conj(c))
                                        for (I, J), c in coeff.items())
        return "" if real else "not real"


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
        out[(J, I) if swap else (I, J)] = _conj(c) * sgn
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


def is_symmetric(a):
    """J a = (-1)^p a for a Lagerberg (p,p)-form: c[J, I] == c[I, J] at every key."""
    if a.algebra != "lagerberg":
        raise WrongAlgebra("J acts on Lagerberg forms")
    coeff = a.coeff
    return a.p == a.q and all(coeff.get((J, I)) == c for (I, J), c in coeff.items())


def positive_generator(alpha):
    """i^p (-1)^{p(p-1)/2} alpha ^ bar(alpha) from a (p,0)-form of either algebra.

    That is (-1)^{p(p-1)/2} alpha ^ J(alpha) for a Lagerberg form and
    i^{p^2} alpha ^ conj(alpha) for a complex one.  alpha ^ bar(alpha) has
    coefficient a_I conj(a_J) at (I, J) (conj is the identity on Lagerberg
    scalars), so the product is one outer product of coefficients.
    """
    p, coeff = alpha.p, alpha.coeff
    s = alpha._i_pow(p) * (-1) ** (p * (p - 1) // 2)
    return alpha._new(p, p, {(I, J): a * _conj(b) * s
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
    """Exact PSD decision of the Gram form.

    A form fails at once when it is not symmetric (resp. real), that is when
    its Gram matrix is not symmetric (resp. Hermitian); psd_decompose takes
    the integer Gram matrix a._gram as it is.  Yes carries the LDL^T terms
    ("decomposition", [(gamma, {K: v_K})]) with gram(a) = sum gamma v
    conj(v)^T; No carries ("evaluation", {K: x_K}, value), the LDL^T witness
    x with value = conj(x)^T gram(a) x < 0.
    """
    idx, mat, den = a._gram
    try:
        res = exact.psd_decompose(mat, den)
    except ValueError:
        return Verdict("positive", "no", reason=a._asymmetry)
    if res.psd:
        terms = [(gamma, {K: x for K, x in zip(idx, v) if x}) for gamma, v in res.decomposition]
        return Verdict("positive", "yes", certificate=("decomposition", terms))
    return Verdict("positive", "no", witness=("evaluation", dict(zip(idx, res.witness)), res.value),
                   reason="Gram form not PSD")


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

    The terms' real and imaginary parts are scaled by a common denominator,
    so each test is integer arithmetic: negative iff the real sum is below
    zero and the imaginary sum vanishes, as in _negative.
    """
    terms = _pairing_terms(a)
    pairs = [(k, l) for _, k, l in terms]
    _, (re, *im) = exact.integer_parts([c for c, _, _ in terms], a.algebra == "complex")

    def negative(beta):
        xs = [beta[k] * beta[l] for k, l in pairs]
        return (sum(map(operator.mul, re, xs)) < 0
                and not any(sum(map(operator.mul, col, xs)) for col in im))
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


def _gram_span_verdict(a, terms):
    """Strong Yes, strong No or None for a positive form from the Gram
    row space W, spanned by the vectors of its LDL^T ``terms``
    [(gamma, {K: v_K})].

    Any strong decomposition of a uses decomposable (p,0)-parts inside W.
    When every v is decomposable, the LDL^T is itself one.  Otherwise, for
    a Lagerberg form at p = 2 with dim W <= 2, alpha = y w1 + z w2 in W is
    decomposable iff alpha ^ alpha = 0, a system of binary quadratics in
    (y, z).  Without a real root, W holds no decomposable: a No.  Two
    rational roots alpha_1, alpha_2 are a basis of W, so a strong
    decomposition can only be a = l_1 G(alpha_1) + l_2 G(alpha_2), that is
    gram(a) = l_1 alpha_1 alpha_1^T + l_2 alpha_2 alpha_2^T, solved exactly
    on the Gram entries between the LDL^T pivots, which fix W, so the
    solution is unique: a Yes when it has l >= 0.  Anything else gives None.
    """
    if a.algebra != "lagerberg":
        return None
    n, p = a.n, a.p
    forms = [LagerbergFiberForm(n, p, 0, {(K, ()): c for K, c in coeffs.items()})
             for _, coeffs in terms]
    if all(decomposable_test(w) == "yes" for w in forms):
        return _gram_span_yes([(gamma, w) for (gamma, _), w in zip(terms, forms)])
    if p != 2 or len(forms) > 2:
        return None
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
    alphas = [w1.scale(y) + w2.scale(z) for y, z in roots]
    # both sides are V C V^T, V the LDL^T vectors, each starting at its pivot
    # and zero at the earlier ones: the entries between pivots force C = 0
    idx, N, den = a._gram
    vecs = [[alpha.get(K, ()) for K in idx] for alpha in alphas]
    pivots = [idx.index(next(iter(v))) for _, v in terms]
    keys = [(t, u) for i, t in enumerate(pivots) for u in pivots[i:]]
    sol = exact.solve([[v[t] * v[u] for v in vecs] for t, u in keys],
                      [Fraction(N[t][u], den) for t, u in keys])
    return None if sol is None or min(sol) < 0 else _gram_span_yes(list(zip(sol, alphas)))


def _gram_span_yes(terms):
    """The strong Yes a = sum_k l_k positive_generator(alpha_k) over terms
    [(l_k, alpha_k)], alpha_k decomposable; terms with l_k = 0 drop."""
    cert = [(lam, ("gram_span", {K: c for (K, _), c in alpha.coeff.items()}))
            for lam, alpha in terms if lam]
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


def _pool_in_span(a, pool):
    """The pool entries (beta, tag) whose beta lies in the Gram row space W
    of the positive form a: the only generators a conic certificate
    of a can use, since each term's Gram matrix beta beta^T is real and PSD
    and their sum is a's.  So there are none when a's Gram matrix is not
    real, and otherwise beta is in W iff it is orthogonal to each integer
    kernel vector of that matrix."""
    parts = [[a._parts(x) for x in row] for row in a._gram[1]]
    if any(any(x[1:]) for row in parts for x in row):
        return []
    kernel = [exact.primitive(v) for v in exact.nullspace([[x[0] for x in row] for row in parts])]
    return [(beta, tag) for beta, tag in pool
            if not any(sum(map(operator.mul, beta, k)) for k in kernel)]


def _strong_lp_certificate(a, pool):
    """Exact conic-combination certificate [(lambda, tag)] over a pool of
    Plucker vectors (beta, tag) of a form a with a real Gram matrix, via
    LP + rational fit.

    LP column j is generator j at the sorted keys (I, J) where a or some
    generator has a coefficient, one row per part of a scalar: the parts
    of s beta_I beta_J, s as in positive_generator.  That is one float
    outer product per key (exact: the minors are small integers).  The
    exact refit on the LP's support solves gram(a) = sum lambda_j beta_j
    beta_j^T on the same keys, so no form is built.
    """
    import numpy as np
    from scipy.optimize import linprog
    n, p, parts = a.n, a.p, a._parts
    S, pos, _ = _layout(n, p)
    B = np.array([beta for beta, _ in pool], dtype=float).reshape(len(pool), len(S))
    nonzero = B != 0
    mask = nonzero.T @ nonzero
    for I, J in a.coeff:
        mask[pos[I], pos[J]] = True
    ti, tj = np.nonzero(mask)       # row-major: the keys in sorted order
    if not len(ti):
        return []                   # a has no coefficient: the empty sum
    keys = [(S[t], S[u]) for t, u in zip(ti, tj)]
    outer = B[:, ti] * B[:, tj]
    s = a._i_pow(p) * (-1) ** (p * (p - 1) // 2)
    A_eq = np.stack([outer * float(x) for x in parts(s)], axis=2).reshape(len(pool), -1).T + 0.0
    b_eq = np.array([float(x) for k in keys for x in parts(a.get(*k))])
    res = linprog(c=np.zeros(len(pool)), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(pool), method="highs")
    if not res.success:
        return None
    support = [j for j, x in enumerate(res.x) if x > 1e-9]
    _, N, den = a._gram
    cells = list(zip(ti.tolist(), tj.tolist()))
    rhs = [Fraction(parts(N[t][u])[0], den) for t, u in cells]
    if not support:
        return [] if not any(rhs) else None
    betas = [pool[j][0] for j in support]
    sol = exact.solve([[b[t] * b[u] for b in betas] for t, u in cells], rhs)
    if sol is None or any(x < 0 for x in sol):
        return None
    return [(sol[t], pool[support[t]][1]) for t in range(len(support)) if sol[t] != 0]


def positivity_verdict(a, tier, *, seed=0, pool_size=2000):
    """Three-tier positivity decision with certificates.

    tier='positive' is always decided: exact.psd_decompose runs its integer
    LDL^T on a._gram.  Its certificate is the LDL^T's (gamma, {K: v_K})
    terms, its witness ("evaluation", {K: x_K}, value) with
    value = conj(x)^T gram(a) x < 0.
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
        terms = base.certificate[1]
        verdict = _gram_span_verdict(a, terms)
        if verdict is not None:
            return verdict
        pool = _pool_in_span(a, strong_generator_pool(n, p, pool_size, seed))
        cert = _strong_lp_certificate(a, pool) if len(pool) >= len(terms) else None
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
    (_PROVES).  A decomposition, a conic certificate and an evaluation
    witness are each one Gram fact about a._gram, a function of a's
    coefficients alone, checked by exact.gram_holds: a = sum gamma_k
    positive_generator(alpha_k) iff gram(a) = sum gamma_k alpha_k
    conj(alpha_k)^T, with alpha_k a decomposition's {K: v_K} or the vector
    a conic term's tag names (_tag_vector), and ("evaluation", {K: x_K},
    value) needs conj(x)^T gram(a) x = value < 0.  A claim of the wrong
    shape, or with a scalar that is not exact, is False.  A weak No's
    generator must be the one its tag names and pair negatively with a; a
    kernel obstruction and the pairing polynomials are re-derived from a.
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
    if kind in ("decomposition", "conic", "evaluation"):
        idx, mat, den = a._gram
        pos = _layout(a.n, a.p)[1]

        def vector(v):      # {K: v_K} over idx, None when some K is not a p-subset
            return [v.get(K, 0) for K in idx] if v.keys() <= pos.keys() else None
        try:                # a claim of the wrong shape fails
            if kind == "evaluation":
                _, x, value = data
                x = vector(x)
                return x is not None and exact.gram_holds(mat, den, witness=(x, value))
            terms = [(gamma, vector(v) if kind == "decomposition" else _tag_vector(v, a.n, a.p, type(a)))
                     for gamma, v in data[1]]
        except _MALFORMED:
            return False
        return all(v is not None for _, v in terms) and exact.gram_holds(mat, den, terms)
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
        span = _gram_span_verdict(a, base.certificate[1]) if base.yes else None
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
    """'yes'/'no'/'unknown' for decomposability of a (p,0)-form.

    p = 2 uses the exact alternating-square criterion (the single Plucker
    relation in dimension 4 and its general-n analogue); other p use the
    exact support-space rank test, over Q(i) for a complex form.
    """
    if a.q != 0:
        raise NotSquareBidegree("decomposable_test needs a (p,0)-form")
    n, p = a.n, a.p
    if a.is_zero() or p <= 1 or p == n:
        return "yes"
    if p == 2:
        return "yes" if wedge(a, a).is_zero() else "no"
    # support space: spans of contractions against (p-1)-subsets
    rows = []
    for S in subsets(n, p - 1):
        row = [a._zero()] * n
        for j in range(n):
            if j in S:
                continue
            sgn, merged = merge_indices(S, (j,))
            c = a.get(merged, ())
            if c:
                row[j] = c * sgn
        rows.append(row)
    if a.algebra == "complex":
        # rows A + iB: the rank over Q(i) is half the rank of [[A, -B], [B, A]]
        dim = exact.rank([[c.re for c in row] + [-c.im for c in row] for row in rows]
                         + [[c.im for c in row] + [c.re for c in row] for row in rows]) // 2
    else:
        dim = exact.rank(rows)
    if dim == p:
        return "yes"
    if dim > p:
        return "no"
    return "unknown"
