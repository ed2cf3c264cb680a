"""JSON (de)serialization for fans, forms, fields, measures, currents and scenes.

The wire formats use 1-based axis and multi-index labels and fraction
strings ("-1/2"; the U+2212 minus is accepted on input).  Internally
everything is 0-based and exact.  Each reader imports the model modules
of its own object kind, so parsing a form never loads the current layers.
"""

import json
from fractions import Fraction

from .errors import ParseError, ValidationError
from .exact import QC, frac


def _frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_frac(s):
    if isinstance(s, bool):
        raise ParseError(f"{s!r} is not a number")
    try:
        return frac(s)
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad rational literal {s!r}") from err


def _parse_int(s):
    x = _parse_frac(s)
    if x.denominator != 1:
        raise ParseError(f"{s!r} is not an integer")
    return int(x)


def _array(x):
    """``x`` when it is a JSON array; a string, which iterates too, is not."""
    if not isinstance(x, (list, tuple)):
        raise ParseError(f"expected an array, not {x!r}")
    return x


def jsonable(obj):
    """Recursively convert exact/report data into JSON-encodable values."""
    if isinstance(obj, Fraction):
        return _frac_str(obj)
    if isinstance(obj, QC):
        return {"re": _frac_str(obj.real), "im": _frac_str(obj.imag)}
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)


# --- rank caps -------------------------------------------------------------------

# The largest rank n of a fiber form literal, and of a fan (a literal's, or --rank): each
# tier reads a Gram matrix dense over the p-subsets (4,900 entries at n = 8), and the
# orthant's fan alone has 2^n cones.  Goldens, demos, tests and workloads use n <= 6.
FORM_RANK_CAP = FAN_RANK_CAP = 8

# The largest degree of a monomial in a polynomial literal, a density's or a field's: a
# density's sign certificate reads its dense coefficient list, and a chart substitution
# expands each power (u_1^1000 + 1 spent 8 s there).  Goldens, demos and workloads use
# degree <= 1; the largest in a test is 800, a field whose integral leaves the float range.
DEGREE_CAP = 900


def fan_rank(rank):
    """``rank``; one above FAN_RANK_CAP is a ValidationError."""
    if rank > FAN_RANK_CAP:
        raise ValidationError(f"fan rank {rank} is above the cap of {FAN_RANK_CAP}")
    return rank


# --- fans ---------------------------------------------------------------------

def fan_from_json(data):
    from .fans import validate_fan
    try:
        rank = _parse_int(data["rank"])
        cones = [[tuple(_parse_int(x) for x in _array(g)) for g in _array(cone)]
                 for cone in _array(data["cones"])]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError("fan file needs {'rank': n, 'cones': [[...]]}") from err
    if rank < 0:
        raise ParseError(f"fan rank {rank} is negative")
    return validate_fan(cones, rank=fan_rank(rank))


def chart_to_json(chart):
    return {"cone": chart.cone_id,
            "basis": [list(b) for b in chart.basis],
            "infinite_axes": sorted(i + 1 for i in chart.infinite_axes)}


# --- fiber forms -----------------------------------------------------------------

def fiber_form_to_json(form):
    terms = []
    for (I, J), c in sorted(form.coeff.items()):
        entry = {"I": [i + 1 for i in I], "J": [j + 1 for j in J]}
        if isinstance(c, QC):
            entry["c"] = {"re": _frac_str(c.real), "im": _frac_str(c.imag)}
        else:
            entry["c"] = _frac_str(c)
        terms.append(entry)
    return {"n": form.n, "p": form.p, "q": form.q,
            "algebra": form.algebra, "terms": terms}


def fiber_form_from_json(data):
    """The fiber form of a literal; a rank n above FORM_RANK_CAP is a ValidationError."""
    from .fiber import ComplexFiberForm, LagerbergFiberForm
    try:
        n, p, q = (_parse_int(data[key]) for key in "npq")
        algebra = data.get("algebra", "lagerberg")
        coeff = {}
        for t in _array(data.get("terms", ())):
            I = tuple(_parse_int(i) - 1 for i in _array(t["I"]))
            J = tuple(_parse_int(j) - 1 for j in _array(t["J"]))
            c = t["c"]
            if isinstance(c, dict):
                val = QC(_parse_frac(c.get("re", 0)), _parse_frac(c.get("im", 0)))
            elif isinstance(c, (list, tuple)):
                if len(c) != 2:
                    raise ParseError(f"complex coefficient {c!r} is not [re, im]")
                val = QC(_parse_frac(c[0]), _parse_frac(c[1]))
            else:
                val = _parse_frac(c)
            coeff[(I, J)] = coeff.get((I, J), 0) + val if (I, J) in coeff else val
    except (KeyError, TypeError, ValueError, IndexError) as err:
        raise ParseError("bad form literal") from err
    if not 0 <= p <= n or not 0 <= q <= n:
        raise ParseError(f"form bidegree ({p},{q}) is outside 0..{n}")
    if n > FORM_RANK_CAP:
        raise ValidationError(f"form rank {n} is above the cap of {FORM_RANK_CAP}")
    if algebra not in ("lagerberg", "complex"):
        raise ParseError(f"unknown form algebra {algebra!r}")
    cls = ComplexFiberForm if algebra == "complex" else LagerbergFiberForm
    return cls(n, p, q, coeff)


# --- polynomials, polyhedra, coefficient functions ---------------------------------

def poly_to_json(poly):
    return [{"exp": list(e), "c": _frac_str(c)} for e, c in sorted(poly.exps.items())]


def poly_from_json(data, nvars):
    from .coeffs import Poly
    exps = {}
    for t in data or ():
        e = tuple(_parse_int(x) for x in _array(t["exp"]))
        if len(e) != nvars:
            raise ParseError(f"exponent {e} has wrong arity (expected {nvars})")
        if min(e, default=0) < 0:
            raise ParseError(f"exponent {e} has a negative entry")
        if sum(e) > DEGREE_CAP:
            raise ValidationError(f"monomial of degree {sum(e)} is above the cap of {DEGREE_CAP}")
        exps[e] = exps.get(e, Fraction(0)) + _parse_frac(t["c"])
    return Poly(exps, nvars)


def polyhedron_to_json(poly):
    return {"dim": poly.dim,
            "ineqs": [{"a": [_frac_str(x) for x in r.a], "b": _frac_str(r.b),
                       "strict": r.strict} for r in poly.rows]}


def polyhedron_from_json(data):
    from .polyhedra import Polyhedron, Row
    try:
        dim = _parse_int(data["dim"])
        rows = []
        for r in data.get("ineqs", ()):
            a = tuple(_parse_frac(x) for x in r["a"])
            strict = r.get("strict", False)
            if not isinstance(strict, bool):
                raise ParseError(f"'strict' is a JSON boolean, not {strict!r}")
            rows.append(Row(a, _parse_frac(r["b"]), strict))
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError("bad polyhedron H-representation") from err
    return Polyhedron(dim, rows)


def coefficient_fn_from_json(data, nvars):
    from .coeffs import CoefficientFn, UniFn, window_on
    terms = []
    for t in data or ():
        poly = poly_from_json(t.get("poly", [{"exp": [0] * nvars, "c": "1"}]), nvars)
        expo = poly_from_json(t.get("expo", []), nvars)
        wins = []
        for w in t.get("windows", ()):
            axis = _parse_int(w["axis"]) - 1
            if not 0 <= axis < nvars:
                raise ParseError(f"window axis {axis + 1} is not in 1..{nvars}")
            kind = w.get("kind", "bump")
            if kind not in ("bump", "plateau"):
                raise ParseError(f"unknown window kind {kind!r}")
            fn = UniFn.plateau() if kind == "plateau" else UniFn.bump()
            wins.append(window_on(axis, _parse_frac(w["lo"]), _parse_frac(w["hi"]),
                                  nvars, fn))
        terms.append((poly, expo, tuple(wins)))
    return CoefficientFn(nvars, terms)


def field_from_json(data, chart):
    """A form field on ``chart``: {"p", "q", "tables": {"1,2": [{"I", "J", "coeff"}]}}.

    A table key lists the (1-based) stratum's infinite axes; "" is the open torus.
    """
    from .fields import LagerbergFormField
    n = len(chart.basis)
    try:
        tables = {}
        for key, terms in data.get("tables", {}).items():
            M = frozenset(_parse_int(i) - 1 for i in key.split(",") if i)
            tables[M] = {(tuple(_parse_int(i) - 1 for i in _array(t["I"])),
                          tuple(_parse_int(j) - 1 for j in _array(t["J"]))):
                         coefficient_fn_from_json(t["coeff"], n) for t in terms}
        p, q = _parse_int(data["p"]), _parse_int(data["q"])
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ParseError("bad form field literal") from err
    return LagerbergFormField(chart, n, p, q, tables)


# --- measures -----------------------------------------------------------------------

def measure_to_json(mu):
    out = {"n": mu.n, "atoms": [], "densities": [], "derivative_atoms": []}
    c, k = mu.scale
    if (c, k) != (1, 0):
        out["scale"] = {"frac": _frac_str(c), "pi_power": k}
    for a in mu.atoms:
        out["atoms"].append({"pt": {"stratum": sorted(i + 1 for i in a.stratum),
                                    "coords": [_frac_str(x) for x in a.coords]},
                             "w": _frac_str(a.weight)})
    for p in mu.pieces:
        out["densities"].append({
            "stratum": sorted(i + 1 for i in p.stratum),
            "poly": polyhedron_to_json(p.poly),
            "weight": {"pol": poly_to_json(p.weight_poly),
                       "quad": poly_to_json(p.weight_expo)},
            "sign": "+" if p.sign > 0 else ("-" if p.sign < 0 else "0")})
    for d in mu.derivative_atoms:
        out["derivative_atoms"].append({
            "pt": {"stratum": sorted(i + 1 for i in d.stratum),
                   "coords": [_frac_str(x) for x in d.coords]},
            "direction": [_frac_str(x) for x in d.direction],
            "w": _frac_str(d.weight)})
    return out


def measure_from_json(data, n=None):
    from .measures import Atom, DerivativeAtom, Piece, PieceMeasure
    try:
        n = _parse_int(data.get("n", n))
        atoms = []
        for a in data.get("atoms", ()):
            stratum = frozenset(_parse_int(i) - 1 for i in _array(a["pt"].get("stratum", ())))
            coords = tuple(_parse_frac(x) for x in _array(a["pt"].get("coords", ())))
            atoms.append(Atom(stratum, coords, _parse_frac(a["w"])))
        pieces = []
        for d in data.get("densities", ()):
            stratum = frozenset(_parse_int(i) - 1 for i in _array(d.get("stratum", ())))
            poly = polyhedron_from_json(d["poly"])
            dim = poly.dim
            wp = poly_from_json(d["weight"].get("pol", [{"exp": [0] * dim, "c": "1"}]), dim)
            we = poly_from_json(d["weight"].get("quad", []), dim)
            sign = {"+": 1, "-": -1, "0": 0}[d.get("sign", "+")]
            pieces.append(Piece(stratum, poly, wp, we, sign))
        ders = []
        for d in data.get("derivative_atoms", ()):
            stratum = frozenset(_parse_int(i) - 1 for i in _array(d["pt"].get("stratum", ())))
            coords = tuple(_parse_frac(x) for x in _array(d["pt"].get("coords", ())))
            direction = tuple(_parse_frac(x) for x in _array(d["direction"]))
            ders.append(DerivativeAtom(stratum, coords, direction, _parse_frac(d["w"])))
        scale = (Fraction(1), 0)
        if "scale" in data:
            scale = (_parse_frac(data["scale"]["frac"]),
                     _parse_int(data["scale"].get("pi_power", 0)))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ParseError("bad measure literal") from err
    return PieceMeasure(n, atoms, pieces, ders, scale)


# --- currents ---------------------------------------------------------------------------

def _key_to_str(I, J):
    return ",".join(str(i + 1) for i in I) + "|" + ",".join(str(j + 1) for j in J)


def _key_from_str(s):
    try:
        left, right = s.split("|")
        I = tuple(int(x) - 1 for x in left.split(",") if x)
        J = tuple(int(x) - 1 for x in right.split(",") if x)
        return I, J
    except ValueError as err:
        raise ParseError(f"bad co-coefficient key {s!r}") from err


def current_to_json(T, shadow=False):
    src = T.shadows if shadow else T.cocoeffs
    out = {"bidegree": [T.p, T.p], "n": T.n,
           "cocoeffs": {_key_to_str(I, J): measure_to_json(mu)
                        for (I, J), mu in sorted(src.items())}}
    if shadow:
        out["shadow"] = True
    return out


def current_from_json(data, chart):
    n = len(chart.basis)
    try:
        p, p2 = (_parse_int(x) for x in data["bidegree"])
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError("current needs a 'bidegree' [p, p]") from err
    if p != p2 or not 0 <= p <= n:
        raise ParseError(f"bidegree ({p},{p2}) is not (p,p) with 0 <= p <= {n}")
    coco = {}
    cocoeffs = data.get("cocoeffs", {})
    if not isinstance(cocoeffs, dict):
        raise ParseError("a current's 'cocoeffs' must be a JSON object")
    for key, mdata in cocoeffs.items():
        I, J = _key_from_str(key)
        coco[(I, J)] = measure_from_json(mdata, n)
    if data.get("shadow"):
        from .correspond import InvariantComplexCurrent
        return InvariantComplexCurrent(chart, p, coco)
    from .currents import LagerbergCurrent
    return LagerbergCurrent(chart, p, coco)


def weighted_complex_to_json(C):
    return {"dim": C.declared_dim if C.declared_dim is not None else C.dim(),
            "cells": [{"poly": polyhedron_to_json(poly), "weight": w}
                      for poly, w in C.cells]}


def weighted_complex_from_json(data):
    from .currents import WeightedComplex
    try:
        cells = tuple((polyhedron_from_json(c["poly"]), _parse_int(c["weight"]))
                      for c in data.get("cells", ()))
        dim = data.get("dim")
        dim = None if dim is None else _parse_int(dim)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ParseError("bad weighted complex literal") from err
    if len({poly.dim for poly, _ in cells}) > 1:
        raise ParseError("the cells of a weighted complex lie in spaces of several dimensions")
    C = WeightedComplex(cells, declared_dim=dim)
    found = C.dim()         # MixedDimension when the cells have several dimensions
    if dim is not None and found != dim:
        raise ParseError(f"declared dim {dim}, but the cells have dimension {found}")
    return C


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read JSON from {path}: {err}") from err
