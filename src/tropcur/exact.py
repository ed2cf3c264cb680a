"""Exact linear algebra over the rationals and integers.

Small dense routines used everywhere in the package: one fraction-free
Gauss-Jordan elimination behind the reduced row echelon form and the
determinant, Hermite normal form and basis completion over Z, a
fraction-free LDL^T positive-semidefiniteness decision with certificates,
the positive-tier verdict of a Gram matrix that fiber forms and the cells
of currents share, and Sturm root counting for sign certification of
univariate polynomials.

Matrices are lists of lists of ``int``/``Fraction``; vectors are tuples.
Everything here is pure and deterministic.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import Value, Verdict

_ZERO = Fraction(0)
_RATIONAL = frozenset({int, Fraction})


def frac(x):
    """Coerce ints, Fractions (returned as they are) and 'p/q' strings (ASCII or U+2212 minus)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x.replace("−", "-").replace(" ", ""))
    raise TypeError(f"not an exact scalar: {x!r}")


def _eliminate(m, cols=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss; G. C. Nakos, P. R.
    Turner and R. M. Williams, ACM SIGSAM Bull. 31(3), 1997): (a, pivots, d, q).

    The rows of m are cleared to integers, D m for row scales D > 0, and
    pivots sought in the first ``cols`` columns (all by default).  A pivot
    piv sends every other row to (piv row - row[c] top) / prev, prev the
    previous pivot, which divides exactly.  So every pivot entry of a ends
    at the last pivot d (1 if none), a / d is the rref of D m, and q is det D
    negated for each row swap: a square m of full rank has determinant d / q.
    A row holding a QC is cleared to Gaussian integers, over which the
    division is exact too (E. H. Bareiss, Math. Comp. 22, 1968).
    """
    a, q = [], 1
    for row in m:
        den, ints = integer_parts([x if type(x) in _EXACT else Fraction(x) for x in row])
        a.append(ints)
        q *= den
    pivots, prev = [], 1
    for c in range((len(a[0]) if a else 0) if cols is None else cols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k], q = a[k], a[r], -q
        top, piv = a[r], a[r][c]
        a = [row if i == r else [(piv * x - row[c] * y) // prev for x, y in zip(row, top)] if row[c]
             else [piv * x // prev for x in row] for i, row in enumerate(a)]
        prev = piv
        pivots.append(c)
    return a, pivots, prev, q


def det(m):
    """Determinant of a square matrix over the rationals (floats read exactly)."""
    _, pivots, d, q = _eliminate(m)
    return Fraction(d, q) if len(pivots) == len(m) else _ZERO


def rref(m, cols=None):
    """Reduced row echelon form of m by fraction-free Gauss-Jordan elimination.

    Pivots are sought in the first ``cols`` columns (all by default); the
    rest ride along, as for an augmented matrix.  Returns (a, pivots): the
    reduced copy of m over the rationals and its pivot columns, so the
    pivot rows are a[:len(pivots)].  A row past them is zero in the first
    ``cols`` columns, and only its other entries' zero-ness is meaningful.
    """
    a, pivots, d, _ = _eliminate(m, cols)
    return [[Fraction(x, d) for x in row] for row in a], pivots


def solve(m, rhs):
    """Solve m x = rhs exactly; returns None if inconsistent.

    For underdetermined systems returns one particular solution with free
    variables set to zero.
    """
    cols = len(m[0]) if m else 0
    a, pivots = rref([list(row) + [rhs[i]] for i, row in enumerate(m)], cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(a, pivots):
        x[c] = row[cols]
    return tuple(x)


def rank(m):
    """Rank over Q, or over Q(i) when an entry is a QC: _eliminate's pivot
    count.  Only rank is promised over Q(i); rref, det and the rest are rational."""
    return len(_eliminate(m)[1])


def nullspace(m):
    """Rational basis of the right kernel of m (list of tuples)."""
    a, pivots = rref(m)
    cols = len(a[0]) if a else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * cols
        v[fcol] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = -row[fcol]
        basis.append(tuple(v))
    return basis


def inverse(m):
    """Inverse of an invertible square matrix, over the rationals."""
    n = len(m)
    a, _ = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    return [row[n:] for row in a]


def primitive(v):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    _, ints = integer_parts([Fraction(x) for x in v])
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


# --- integer lattice routines --------------------------------------------

def hnf_columns(mat):
    """Column-style Hermite normal form of an integer matrix.

    Returns (h, u) with h = mat @ u, u unimodular, h lower triangular with
    nonnegative entries left of the pivot column.  ``mat`` is n x k given as
    list of rows.
    """
    n = len(mat)
    k = len(mat[0]) if n else 0
    h = [list(map(int, row)) for row in mat]
    u = [[int(i == j) for j in range(k)] for i in range(k)]

    def addmul_col(dst, src, f):
        for i in range(n):
            h[i][dst] += f * h[i][src]
        for i in range(k):
            u[i][dst] += f * u[i][src]

    def swap_col(a, b):
        for i in range(n):
            h[i][a], h[i][b] = h[i][b], h[i][a]
        for i in range(k):
            u[i][a], u[i][b] = u[i][b], u[i][a]

    def neg_col(a):
        for i in range(n):
            h[i][a] = -h[i][a]
        for i in range(k):
            u[i][a] = -u[i][a]

    r = 0
    for i in range(n):
        # eliminate along row i among columns >= r via gcd steps
        while True:
            nz = [j for j in range(r, k) if h[i][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(h[i][j]))
            j0 = nz[0]
            for j in nz[1:]:
                q = h[i][j] // h[i][j0]
                addmul_col(j, j0, -q)
        nz = [j for j in range(r, k) if h[i][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != r:
            swap_col(r, j0)
        if h[i][r] < 0:
            neg_col(r)
        for j in range(r):
            q = h[i][j] // h[i][r]
            if q != 0:
                addmul_col(j, r, -q)
        r += 1
        if r == k:
            break
    return h, u


def lattice_saturated(gens):
    """True if integer vectors are independent and generate a saturated
    sublattice, so that they extend to a Z-basis.

    That is, the gcd of the maximal minors is 1.  By Cauchy-Binet that gcd
    is |det H| for the Hermite form gens u = [H | 0], u unimodular, so every
    diagonal entry of H must be 1.  A dependent row leaves a 0 there (and
    more vectors than coordinates are dependent), so this also checks
    independence.
    """
    if not gens:
        return True
    h, _ = hnf_columns(gens)
    return len(gens) <= len(h[0]) and all(h[i][i] == 1 for i in range(len(gens)))


def extend_to_basis(gens, n):
    """Deterministically extend saturated integer vectors to a Z-basis.

    Appends standard basis vectors e_1, e_2, ... greedily, keeping the
    collection saturated, until n vectors are present.  When no standard
    vector fits (as for (2, 5, 0)), the collection c so far is completed by
    the trailing rows of u^-1, where c u = [H | 0] is its Hermite form with
    H unimodular.  Raises ValueError when ``gens`` themselves are not part
    of a basis.
    """
    cur = [tuple(map(int, v)) for v in gens]
    if not lattice_saturated(cur):
        raise ValueError("generators do not extend to a lattice basis")
    for i in range(n):
        if len(cur) == n:
            break
        trial = cur + [tuple(int(j == i) for j in range(n))]
        if lattice_saturated(trial):
            cur = trial
    if len(cur) < n:
        _, u = hnf_columns(cur)
        cur += [tuple(int(x) for x in row) for row in inverse(u)[len(cur):]]
    return cur


def integer_kernel_basis(mat):
    """Basis of the integer kernel {x in Z^k : mat x = 0}, saturated.

    The primitive Hermite columns of the rational kernel basis, when they
    are saturated (always, for one vector); otherwise the trailing columns
    of u in (mat scaled to integers) u = [H | 0], a basis of the whole
    integer kernel since u is unimodular.
    """
    rat = nullspace(mat)
    if not rat:
        return []
    prim = [primitive(v) for v in rat]
    k = len(prim[0])
    h, _ = hnf_columns([[prim[j][i] for j in range(len(prim))] for i in range(k)])
    cols = [primitive(c) for c in zip(*h) if any(c)]
    if len(cols) == 1 or lattice_saturated(cols):
        return cols
    _, u = hnf_columns([primitive(row) for row in mat])
    return [tuple(row[j] for row in u) for j in range(k - len(cols), k)]


# --- Gaussian rationals ------------------------------------------------------

class QC:
    """Exact complex scalar with rational real and imaginary parts, read as on
    ``int`` and ``Fraction`` by ``real``, ``imag`` and ``conjugate()``; ``//``
    by an integer divides each part, and by a QC k is x conj(k) // |k|^2,
    the exact quotient of Gaussian integers that divide."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = real if isinstance(real, (int, Fraction)) else frac(real)
        self.imag = imag if isinstance(imag, (int, Fraction)) else frac(imag)

    @staticmethod
    def of(x):
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction, str)):
            return QC(x, 0)        # __init__ reads a str with frac
        raise TypeError(f"not an exact complex scalar: {x!r}")

    @staticmethod
    def i_pow(k):
        k %= 4
        return (QC(1), QC(0, 1), QC(-1), QC(0, -1))[k]

    def __add__(self, other):
        other = QC.of(other)
        return QC(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.real, -self.imag)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __rsub__(self, other):
        return QC.of(other) + (-self)

    def __mul__(self, other):
        other = QC.of(other)
        return QC(self.real * other.real - self.imag * other.imag,
                  self.real * other.imag + self.imag * other.real)

    __rmul__ = __mul__

    def __floordiv__(self, k):
        if isinstance(k, QC):
            return self * k.conjugate() // (k.real * k.real + k.imag * k.imag)
        return QC(self.real // k, self.imag // k)

    def __rfloordiv__(self, other):
        return QC.of(other) // self

    def conjugate(self):
        return QC(self.real, -self.imag)

    def __eq__(self, other):
        try:
            other = QC.of(other)
        except TypeError:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((Fraction(self.real), Fraction(self.imag)))

    def __bool__(self):
        return self.real != 0 or self.imag != 0

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    def __repr__(self):
        if self.imag == 0:
            return f"{self.real}"
        return f"({self.real}{'+' if self.imag >= 0 else '-'}{abs(self.imag)}i)"


# --- PSD over Q and Q(i) ----------------------------------------------------

class PSDResult(Value):
    """Outcome of the exact LDL^T test.

    ``psd`` bool, ``rank`` int; on success ``decomposition`` is a list of
    (gamma, vector) with M = sum gamma * v conj(v)^T, gamma > 0; on failure
    ``witness`` is an exact vector x with ``value`` = conj(x)^T M x < 0, a
    Fraction.  gram_holds checks either fact.
    """
    __slots__ = _fields = ("psd", "rank", "decomposition", "witness", "value")

    def __init__(self, psd, rank=0, decomposition=None, witness=None, value=None):
        super().__init__(psd, rank, decomposition, witness, value)

    def __bool__(self):
        return self.psd


_EXACT = frozenset({int, Fraction, QC})


def psd_decompose(m, den=1):
    """Exact PSD decision for the symmetric rational or Hermitian QC matrix m / den.

    The scalars are QC if any entry of m is, else rationals (conjugate is
    the identity); ``den`` is a positive integer.  Rank-one peeling (LDL^T):
    a negative residual diagonal, or a zero residual diagonal with a nonzero
    residual row, gives an exact witness x with conj(x)^T M x < 0; otherwise
    the collected (d_k, v_k), d_k > 0 a Fraction, certify
    M = sum_k d_k v_k conj(v_k)^T, with v_k zero at earlier pivots.

    The peeling runs on integers, Gaussian integers over Q(i) (E. H. Bareiss,
    Math. Comp. 22, 1968: exact over any integral domain), and makes a
    Fraction only for an entry it returns.  An integer m is taken as it is,
    any other m cleared once by integer_parts.  The residual is N / q: the
    pivot d, the first with piv = N_dd != 0, sends N to
    N_ij <- (piv N_ij - conj(N_di) N_dj) // prev and q to q piv / prev, prev
    the previous pivot, which divides exactly (part by part); a row with
    N_di = 0 is only scaled, row d drops and column d comes out zero.  So
    d_k = piv / q and v_k = conj(N_d.) / piv.  The witness is X / D on
    integers, made orthogonal to each v_k, newest first: its recorded row
    sets X_d to -sum_{i != d} N_di X_i and scales the rest of X, and D, by
    piv.  So conj(x)^T M x is the residual's value at x.
    """
    n = len(m)
    types = set(map(type, chain.from_iterable(m)))
    hermitian = QC in types
    scale, N = 1, m
    if not types <= {int}:
        scale, flat = integer_parts(list(chain.from_iterable(m)))
        N = [flat[i:i + n] for i in range(0, n * n, n)]
    if list(map(tuple, N)) != ([tuple(x.conjugate() for x in c) for c in zip(*N)] if hermitian else list(zip(*N))):
        raise ValueError("matrix not Hermitian" if hermitian else "matrix not symmetric")
    # a returned entry x / d, x an integer (a QC with integer parts over Q(i))
    entry = (lambda x, d: QC(Fraction(x.real, d), Fraction(x.imag, d))) if hermitian else Fraction
    q, prev, zero = scale * den, 1, entry(0, 1)
    decomp, rows = [], []       # rows: (d, piv, [(i, N_di)] over row d's support)
    live = list(range(n))       # the index in m of each row left; rows keep m's columns

    def orthogonal(x, d):
        # the vector X / d, X = {i: X_i} integer, made orthogonal to every v_k
        X = [x.get(i, 0) for i in range(n)]
        for pivot, piv, support in reversed(rows):
            s = sum(a * X[i] for i, a in support if i != pivot)
            if s:
                X = [piv * y for y in X]
                X[pivot], d = -s, d * piv
        return tuple([entry(y, d) if y else zero for y in X])

    while True:
        k = next((t for t, row in enumerate(N) if row[live[t]]), None)
        if k is None:
            break
        d, top = live.pop(k), N[k]
        piv = top[d].real
        if piv < 0:
            return PSDResult(False, witness=orthogonal({d: 1}, 1), value=Fraction(piv, q))
        support = [(i, a) for i, a in enumerate(top) if a]
        v = [zero] * n
        for i, a in support:
            v[i] = entry(a.conjugate(), piv)
        decomp.append((Fraction(piv, q), tuple(v)))
        rows.append((d, piv, support))
        # the rows left; column d, and every column pivoted before, comes out zero
        N = [[(piv * x - c * b) // prev for x, b in zip(r, top)] if c else [piv * x // prev for x in r]
             for r, c in zip(N[:k] + N[k + 1:], [top[i].conjugate() for i in live])]
        q, prev = q * piv // prev, piv
    # the live diagonal is zero, so the first nonzero entry of a row left is off it
    for i, row in zip(live, N):
        if any(row):
            j = next(b for b, s in enumerate(row) if s)
            s = row[j]
            # M_ij = s / q.  Hermitian: x_i = -M_ij, x_j = 1, so conj(x)^T M x
            # = -2|M_ij|^2; symmetric: x_i = 1, x_j = -sign(s), so x^T M x = -2|s| / q
            x, d, value = (({i: -s, j: q}, q, Fraction(-2 * (s.real ** 2 + s.imag ** 2), q * q)) if hermitian
                           else ({i: 1, j: -1 if s > 0 else 1}, 1, Fraction(-2 * abs(s), q)))
            return PSDResult(False, witness=orthogonal(x, d), value=value)
    return PSDResult(True, rank=len(decomp), decomposition=decomp)


def integer_parts(values):
    """(den, ints) for a list of exact scalars, values[t] == ints[t] / den:
    integers, or QC with integer parts when some value is a QC.  Integers
    come back as they are, with den 1: nothing to clear.  One
    as_integer_ratio pass; den is the lcm of the denominators other than 1."""
    types = set(map(type, values))
    if QC in types:
        den, ints = integer_parts([y for x in values for y in (x.real, x.imag)])
        return den, list(map(QC, ints[::2], ints[1::2]))
    if types <= {int}:
        return 1, values
    ratios = [x.as_integer_ratio() for x in values]
    den = lcm(*{d for _, d in ratios if d != 1})
    return den, [a * (den // d) for a, d in ratios]


def gram_holds(m, den=1, terms=None, witness=None):
    """Exact check of one Gram fact about the symmetric rational or
    Hermitian QC matrix M = m / den, ``den`` a positive integer; bool.

    ``terms`` [(gamma, v)] claim that M is PSD: M == sum gamma v conj(v)^T
    with every gamma > 0.  ``witness`` (x, value) claims that it is not:
    conj(x)^T M x == value < 0.  Vectors run over M's rows; a claim with a
    scalar that is not exact (int or Fraction, or QC in a vector) fails.
    It runs on integers, Gaussian integers over Q(i): m and each vector are
    cleared once by integer_parts (an integer m is taken as it is), and a
    vector X is read over its support, with conj(X_i) taken once.  Terms add
    c X_i conj(X_j) into one flat list compared with N; a witness is
    evaluated as sum_i conj(X_i) (N X)_i.
    """
    size = len(m)
    claims = terms if witness is None else [(witness[1], witness[0])]
    kinds = set(map(type, chain.from_iterable(v for _, v in claims)))
    if not (kinds <= _EXACT and {type(s) for s, _ in claims} <= _RATIONAL
            and {len(v) for _, v in claims} <= {size}):
        return False
    e, flat = integer_parts(list(chain.from_iterable(m)))
    q, cleared = e * den, []    # M = N / q, N = flat by rows
    for s, v in claims:
        # s = num / d and v = X / f, X over its support [(i, X_i, conj(X_i))]
        f, ints = integer_parts(v)
        num, d = s.as_integer_ratio()
        cleared.append((num, d, f, [(i, x, x.conjugate()) for i, x in enumerate(ints) if x]))
    if witness is not None:
        [(num, d, f, support)] = cleared
        value = sum(c * sum(flat[i * size + j] * y for j, y, _ in support) for i, _, c in support)
        return value.imag == 0 and value.real < 0 and value.real * d == num * q * f * f
    if any(num <= 0 for num, *_ in cleared):
        return False
    L = lcm(q, *[d * f * f for _, d, f, _ in cleared])
    got = [0] * (size * size)
    for num, d, f, support in cleared:
        c = num * (L // (d * f * f))
        for i, a, _ in support:
            r, ca = i * size, c * a
            for j, _, y in support:
                got[r + j] += ca * y
    k = L // q
    return got == [y * k for y in flat]


def gram_verdict(idx, m, den=1):
    """The positive-tier Verdict of psd_decompose(m, den), M = m / den over
    ``idx``: Yes carries ("decomposition", [(gamma, {K: v_K})]), M = sum gamma
    v conj(v)^T, No ("evaluation", {K: x_K}, value), value = conj(x)^T M x < 0.
    A matrix that is not symmetric (resp. Hermitian) raises ValueError."""
    res = psd_decompose(m, den)
    if res.psd:
        terms = [(gamma, {K: x for K, x in zip(idx, v) if x}) for gamma, v in res.decomposition]
        return Verdict("positive", "yes", certificate=("decomposition", terms))
    return Verdict("positive", "no", witness=("evaluation", dict(zip(idx, res.witness)), res.value),
                   reason="Gram form not PSD")


def gram_claim_holds(idx, m, den, data):
    """Exact check, by gram_holds, of a claim of gram_verdict about m / den
    over ``idx``: a decomposition or an evaluation; bool.  A claim of the
    wrong shape, or with a key outside ``idx``, is False."""
    keys = set(idx)

    def vector(v):      # {K: v_K} over idx
        if not v.keys() <= keys:
            raise ValueError("a key outside the index list")
        return [v.get(K, 0) for K in idx]
    try:
        if data[0] == "evaluation":
            _, x, value = data
            return gram_holds(m, den, witness=(vector(x), value))
        kind, terms = data
        return kind == "decomposition" and gram_holds(m, den, [(gamma, vector(v)) for gamma, v in terms])
    except (AttributeError, IndexError, TypeError, ValueError):
        return False


# --- Sturm sequences --------------------------------------------------------

def _poly_div(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        k = len(num) - len(den)
        q[k] = c
        for i, dcoef in enumerate(den):
            num[k + i] -= c * dcoef
        num.pop()
    return q, num


def _poly_eval(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def sturm_roots_in(coeffs, lo, hi):
    """Number of distinct real roots of a rational polynomial in (lo, hi].

    ``coeffs`` ascending; lo/hi are Fractions or None for -/+infinity.
    """
    p = [Fraction(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) <= 1:
        return 0
    dp = [i * c for i, c in enumerate(p)][1:]
    chain = [p, dp]
    while True:
        _, rem = _poly_div(chain[-2], chain[-1])
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        chain.append([-c for c in rem])

    def signs_at(x, at_inf=0):
        out = []
        for q in chain:
            if at_inf:
                lead = q[-1]
                s = lead if (len(q) - 1) % 2 == 0 or at_inf > 0 else -lead
            else:
                s = _poly_eval(q, x)
            out.append(0 if s == 0 else (1 if s > 0 else -1))
        return out

    def variations(sgns):
        nonzero = [s for s in sgns if s]
        return sum(s != t for s, t in zip(nonzero, nonzero[1:]))

    s_lo = signs_at(lo) if lo is not None else signs_at(None, at_inf=-1)
    s_hi = signs_at(hi) if hi is not None else signs_at(None, at_inf=+1)
    return variations(s_lo) - variations(s_hi)
