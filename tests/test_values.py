"""The value types: plain classes on ``errors.Value`` that keep the
behaviour of the dataclasses they replace.

For one instance of each: the exact repr (reports print unknown objects
by their repr, so it is part of the output), equality and hash by value,
no assignment, ``replace``, copies and pickles, and no constructor that
takes more positional values than there are fields.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tropcur.coeffs import Poly, UniFn, Window
from tropcur.correspond import RoundTripReport
from tropcur.currents import WeightedComplex
from tropcur.errors import ValidationError, Verdict
from tropcur.fans import CompactifiedPoint, Cone, ToricChart
from tropcur.fiber import GramForm
from tropcur.measures import Atom, DerivativeAtom, Piece
from tropcur.polyhedra import Polyhedron, Row
from tropcur.scenes import Scene

# (builder, repr, a change for replace); the repr strings are those of the
# former dataclasses
CASES = [
    (lambda: Verdict("closed", "no", "sampled", witness=("d'", 1), residual=0.5),
     "Verdict(tier='closed', answer='no', reason='sampled', witness=(\"d'\", 1), "
     "certificate=None, exact=False, residual=0.5)", {"answer": "yes"}),
    (lambda: Scene(None, None, {}, [], tol=1e-6, seed=3),
     "Scene(fan=None, chart=None, objects={}, tasks=[], tol=1e-06, seed=3, samples=25)",
     {"seed": 4}),
    (lambda: GramForm(((0,), (1,)), [[Fraction(1), 0], [0, Fraction(2)]], "symmetric"),
     "GramForm(indices=((0,), (1,)), matrix=[[Fraction(1, 1), 0], [0, Fraction(2, 1)]], "
     "kind='symmetric')", {"kind": "none"}),
    (lambda: Window(UniFn.bump(), (Fraction(1), Fraction(0)), Fraction(-1, 2)),
     "Window(fn=UniFn(1 terms), lin=(Fraction(1, 1), Fraction(0, 1)), const=Fraction(-1, 2))",
     {"const": Fraction(0)}),
    (lambda: RoundTripReport(2, [(1, "lift/push raised")]),
     "RoundTripReport(total=2, failures=[(1, 'lift/push raised')])", {"failures": []}),
    (lambda: WeightedComplex(((Polyhedron(1, [((1,), 1)]), 2),), declared_dim=1),
     "WeightedComplex(cells=((Polyhedron(dim=1, rows=1), 2),), declared_dim=1)",
     {"declared_dim": None}),
    (lambda: Cone(((1, 0),), ((1, 0), (0, 1))), "Cone((1, 0),)",
     {"generators": ((0, 1),)}),
    (lambda: CompactifiedPoint(0, (1, Fraction(1, 2))),
     "CompactifiedPoint(stratum=0, coords=(Fraction(1, 1), Fraction(1, 2)))", {"stratum": 1}),
    (lambda: ToricChart(0, ((1, 0), (0, 1)), frozenset({0}), dual=((1, 0), (0, 1))),
     "ToricChart(cone_id=0, basis=((1, 0), (0, 1)), infinite_axes=frozenset({0}))",
     {"dual": ()}),
    (lambda: Atom(frozenset({0}), (Fraction(1),), Fraction(2)),
     "Atom(stratum=frozenset({0}), coords=(Fraction(1, 1),), weight=Fraction(2, 1))",
     {"weight": Fraction(3)}),
    (lambda: DerivativeAtom(frozenset(), (Fraction(0),), (1,), Fraction(-1)),
     "DerivativeAtom(stratum=frozenset(), coords=(Fraction(0, 1),), direction=(1,), "
     "weight=Fraction(-1, 1))", {"direction": (-1,)}),
    (lambda: Piece(frozenset(), Polyhedron.box([(0, 1)]), Poly.const(3, 1), Poly.zero(1), 1),
     "Piece(stratum=frozenset(), poly=Polyhedron(dim=1, rows=2), weight_poly=3, "
     "weight_expo=0, sign=1)", {"sign": -1}),
    (lambda: Row((Fraction(1), Fraction(-1)), Fraction(2), True),
     "Row(a=(Fraction(1, 1), Fraction(-1, 1)), b=Fraction(2, 1), strict=True)",
     {"strict": False}),
    (lambda: Polyhedron(2, [((1, 0), 1), ((0, 1), 1)]), "Polyhedron(dim=2, rows=2)",
     {"rows": [((1, 0), 2)]}),
]
IDS = [type(make()).__name__ for make, _, _ in CASES]
# a list or dict field makes a value unhashable, as it made the dataclass
UNHASHABLE = {"Scene", "GramForm", "RoundTripReport"}


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, text, change):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(make, text, change):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != a.replace(**change) and a != object()
    if type(a).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_values_refuse_assignment(make, text, change):
    a = make()
    (name, value), = change.items()
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == make()


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_replace_returns_a_changed_copy(make, text, change):
    a = make()
    b = a.replace(**change)
    (name, _), = change.items()
    assert type(b) is type(a) and getattr(b, name) != getattr(a, name)
    assert all(getattr(b, f) == getattr(a, f) for f in a._fields if f != name)
    assert a == make()
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_values_copy_and_pickle(make, text, change):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize("make, text, change", CASES, ids=IDS)
def test_one_positional_field_too_many_is_type_error(make, text, change):
    a = make()
    with pytest.raises(TypeError):
        type(a)(*a._values(a), None)


def test_replace_runs_the_constructor_checks():
    scene = Scene(None, None, {}, [])
    assert scene.replace(seed="5").seed == 5
    with pytest.raises(ValidationError):
        scene.replace(tol=-1.0)
    with pytest.raises(ValidationError):
        WeightedComplex(()).replace(cells=((Polyhedron(1), Fraction(1, 2)),))
