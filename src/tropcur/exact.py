"""Exact linear algebra over the rationals and integers.

Small dense routines used everywhere in the package: one fraction-free
Gauss-Jordan elimination behind the reduced row echelon form and the
determinant, Hermite normal form and basis completion over Z, a
fraction-free LDL^T positive-semidefiniteness decision with
certificates, and Sturm root counting for sign certification of
univariate polynomials.

Matrices are lists of lists of ``int``/``Fraction``; vectors are tuples.
Everything here is pure and deterministic.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import Value

_ZERO, _ONE = Fraction(0), Fraction(1)
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
    """
    a, q = [], 1
    for row in m:
        den, (ints,) = integer_parts([x if type(x) in _RATIONAL else Fraction(x) for x in row])
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
    return len(rref(m)[1])


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
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
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
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, (int, Fraction)) else frac(re)
        self.im = im if isinstance(im, (int, Fraction)) else frac(im)

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
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __rsub__(self, other):
        return QC.of(other) + (-self)

    def __mul__(self, other):
        other = QC.of(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self):
        return QC(self.re, -self.im)

    def __eq__(self, other):
        try:
            other = QC.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((Fraction(self.re), Fraction(self.im)))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


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

    The scalars are QC if any entry of m is, else rationals (conj is the
    identity); ``den`` is a positive integer.  Rank-one peeling (LDL^T): a
    negative residual diagonal, or a zero residual diagonal with a nonzero
    residual row, gives an exact witness x with conj(x)^T M x < 0;
    otherwise the collected (d_k, v_k), d_k > 0 a Fraction, certify
    M = sum_k d_k v_k conj(v_k)^T, with v_k zero at earlier pivots.

    The peeling runs on integers (E. H. Bareiss, Math. Comp. 22, 1968) and
    makes a Fraction only for an entry it returns.  An integer m (QC with
    integer parts) is taken as it is, any other m cleared once.  The
    residual is N / q, N integer (a real and an imaginary part when
    Hermitian): the pivot d, the first with piv = N[d][d] != 0, and its
    column c send N to (piv N - c conj(c)^T) / prev and q to q piv / prev,
    prev the previous pivot, which divides exactly; a row with c_i = 0 is
    only scaled, row d drops and column d comes out zero.  So d_k = piv / q
    and v_k = c / piv.  The witness is X / D on integers, made orthogonal
    to each v_k, newest first: its recorded column c sets X_d to
    -sum_{i != d} conj(c_i) X_i and scales the rest of X, and D, by piv.
    So conj(x)^T M x is the residual's value at x.
    """
    n = len(m)
    types = set(map(type, chain.from_iterable(m)))
    hermitian = QC in types
    scale, re, im = 1, m, []
    if not types <= {int}:
        scale, parts = integer_parts(list(chain.from_iterable(m)), hermitian)
        re, *im = ([part[i:i + n] for i in range(0, n * n, n)] for part in parts)
        im = im[0] if hermitian else []
    if list(map(tuple, re)) != list(zip(*re)) or hermitian and im != [[-y for y in c] for c in zip(*im)]:
        raise ValueError("matrix not Hermitian" if hermitian else "matrix not symmetric")
    q, prev = scale * den, 1
    zero = QC(_ZERO, _ZERO) if hermitian else _ZERO
    decomp, columns = [], []    # columns: (d, piv, [(i, re c_i, im c_i)] over c's support)
    live = list(range(n))       # the index in m of each row left; columns keep m's indices

    def orthogonal(x, d):
        # the vector X / d, X = {i: (re, im)} integer, made orthogonal to every v_k
        xr, xi = ([x.get(i, (0, 0))[part] for i in range(n)] for part in (0, 1))
        for pivot, piv, support in reversed(columns):
            sr = sum(a * xr[i] + c * xi[i] for i, a, c in support if i != pivot)
            si = sum(a * xi[i] - c * xr[i] for i, a, c in support if i != pivot) if hermitian else 0
            if sr or si:
                xr, xi = [piv * y for y in xr], [piv * y for y in xi]
                xr[pivot], xi[pivot], d = -sr, -si, d * piv
        if hermitian:
            return tuple([QC(Fraction(a, d), Fraction(b, d)) if a or b else zero for a, b in zip(xr, xi)])
        return tuple([(_ONE if a == d else Fraction(a, d)) if a else zero for a in xr])

    while True:
        k = next((t for t, row in enumerate(re) if row[live[t]]), None)
        if k is None:
            break
        d = live.pop(k)
        piv, cre = re[k][d], re[k]      # column d is row d, conjugated
        if piv < 0:
            return PSDResult(False, witness=orthogonal({d: (1, 0)}, 1), value=Fraction(piv, q))
        cim = [-y for y in im[k]] if hermitian else [0] * n
        support = [(i, a, c) for i, (a, c) in enumerate(zip(cre, cim)) if a or c]
        v = [zero] * n
        for i, a, c in support:
            v[i] = QC(Fraction(a, piv), Fraction(c, piv)) if hermitian else Fraction(a, piv)
        decomp.append((Fraction(piv, q), tuple(v)))
        columns.append((d, piv, support))
        # the rows left; column d, and every column pivoted before, comes out zero
        rows, a_s = re[:k] + re[k + 1:], [cre[i] for i in live]
        if hermitian:
            left = list(zip(rows, im[:k] + im[k + 1:], a_s, [cim[i] for i in live]))
            re = [[(piv * x - (a * b + c * e)) // prev for x, b, e in zip(r, cre, cim)] if a or c
                  else [piv * x // prev for x in r] for r, _, a, c in left]
            im = [[(piv * y - (c * b - a * e)) // prev for y, b, e in zip(t, cre, cim)] if a or c
                  else [piv * y // prev for y in t] for _, t, a, c in left]
        else:
            re = [[(piv * x - a * b) // prev for x, b in zip(r, cre)] if a else [piv * x // prev for x in r]
                  for r, a in zip(rows, a_s)]
        q, prev = q * piv // prev, piv
    # the live diagonal is zero, so the first nonzero entry of a row left is off it
    for a, row in enumerate(re):
        if any(row) or hermitian and any(im[a]):
            j = next(b for b, x in enumerate(row) if x or hermitian and im[a][b])
            i, s, t = live[a], row[j], im[a][j] if hermitian else 0
            # M_ij = (s + i t) / q.  Hermitian: x_i = -M_ij, x_j = 1, so conj(x)^T M x
            # = -2|M_ij|^2; symmetric: x_i = 1, x_j = -sign(s), so x^T M x = -2|s| / q
            x, d, value = (({i: (-s, -t), j: (q, 0)}, q, Fraction(-2 * (s * s + t * t), q * q)) if hermitian
                           else ({i: (1, 0), j: (-1 if s > 0 else 1, 0)}, 1, Fraction(-2 * abs(s), q)))
            return PSDResult(False, witness=orthogonal(x, d), value=value)
    return PSDResult(True, rank=len(decomp), decomposition=decomp)


def integer_parts(values, hermitian=False):
    """(den, parts) for exact scalars: one integer list per part of a scalar
    (the real part, then the imaginary one when ``hermitian``), with
    values[t] == (parts[0][t] + i parts[1][t]) / den.  Integers (QC with
    integer parts) come back as they are, with den 1: nothing to clear."""
    if hermitian:
        values = [QC.of(x) for x in values]
        cols = ([x.re for x in values], [x.im for x in values])
    else:
        cols = (list(values),)
    if all(type(x) is int for col in cols for x in col):
        return 1, cols
    den = lcm(*(x.denominator for col in cols for x in col))
    return den, [[x.numerator * (den // x.denominator) for x in col] for col in cols]


def gram_holds(m, den=1, terms=None, witness=None):
    """Exact check of one Gram fact about the symmetric rational or
    Hermitian QC matrix M = m / den, ``den`` a positive integer; bool.

    ``terms`` [(gamma, v)] claim that M is PSD: M == sum gamma v conj(v)^T
    with every gamma > 0.  ``witness`` (x, value) claims that it is not:
    conj(x)^T M x == value < 0.  Vectors run over M's rows; a claim with a
    scalar that is not exact (int or Fraction, or QC in a vector) fails.
    It runs on integers.  The scalar kind is decided once, QC if any entry
    of m or of a vector is; an integer m (QC with integer parts) is taken as
    it is, and each vector is cleared once over its support.  Terms add
    their outer products over their supports into one flat list per part
    of N; a witness is evaluated as conj(X)^T N X over its support.
    """
    size = len(m)
    claims = terms if witness is None else [(witness[1], witness[0])]
    flat = list(chain.from_iterable(m))
    types, kinds = set(map(type, flat)), set(map(type, chain.from_iterable(v for _, v in claims)))
    if not (kinds <= _EXACT and {type(s) for s, _ in claims} <= _RATIONAL
            and {len(v) for _, v in claims} <= {size}):
        return False
    hermitian = QC in types or QC in kinds
    e, parts = integer_parts(flat, hermitian) if hermitian or not types <= {int} else (1, [flat])
    q, cleared = e * den, []    # M = N / q, N = parts[0] + i parts[1] flat by rows
    for s, v in claims:
        # s = num / d and v = (a + i b) / f over v's support [(i, a, b)]
        if hermitian:
            r = [(x.re.as_integer_ratio(), x.im.as_integer_ratio()) for x in map(QC.of, v)]
            f = lcm(*[d for (_, d), _ in r], *[d for _, (_, d) in r])
            support = [(i, a * (f // d), b * (f // g)) for i, ((a, d), (b, g)) in enumerate(r) if a or b]
        else:
            r = [x.as_integer_ratio() for x in v]
            f = lcm(*[d for _, d in r])
            support = [(i, a * (f // d), 0) for i, (a, d) in enumerate(r) if a]
        num, d = s.as_integer_ratio()
        cleared.append((num, d, f, support))
    if witness is not None:
        [(num, d, f, support)], (nr, *ni) = cleared, parts
        ni = ni[0] if hermitian else [0] * len(nr)
        re = im = 0
        for i, a, b in support:
            # (u + i w)_i = (N X)_i over X's support, and conj(X_i) (u + i w) adds to re + i im
            r = i * size
            u = sum(nr[r + j] * c - ni[r + j] * g for j, c, g in support)
            w = sum(nr[r + j] * g + ni[r + j] * c for j, c, g in support)
            re, im = re + a * u + b * w, im + a * w - b * u
        return im == 0 and re < 0 and re * d == num * q * f * f
    if any(num <= 0 for num, *_ in cleared):
        return False
    L = lcm(q, *[d * f * f for _, d, f, _ in cleared])
    got = [[0] * (size * size) for _ in parts]
    for num, d, f, support in cleared:
        c = num * (L // (d * f * f))
        for i, a, b in support:
            r = i * size
            if hermitian:
                for j, x, y in support:
                    got[0][r + j] += c * (a * x + b * y)
                    got[1][r + j] += c * (b * x - a * y)
            else:
                ca = c * a
                for j, x, _ in support:
                    got[0][r + j] += ca * x
    k = L // q
    return got == [[y * k for y in part] for part in parts]


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
