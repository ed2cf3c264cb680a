"""The named error surfaces carry usable witnesses."""

import ast
from pathlib import Path

import pytest

from tropcur.currents import LagerbergCurrent, evaluate
from tropcur.errors import (CompatibilityViolation, DimensionMismatch, NotSquareBidegree,
                            ParseError, ValidationError)
from tropcur.fans import orthant_fan
from tropcur.fiber import LagerbergFiberForm, gram_form, wedge
from tropcur.fields import LagerbergFormField
from tropcur.formats import fiber_form_from_json
from tropcur.measures import PieceMeasure, lebesgue_piece
from tropcur.polyhedra import Polyhedron


def test_wedge_dimension_mismatch():
    a = LagerbergFiberForm.basis_form(2, (0,), ())
    b = LagerbergFiberForm.basis_form(3, (0,), ())
    with pytest.raises(DimensionMismatch):
        wedge(a, b)


def test_gram_not_square_bidegree():
    a = LagerbergFiberForm.basis_form(2, (0,), ())
    with pytest.raises(NotSquareBidegree):
        gram_form(a)


def test_evaluate_rejects_incompatible_field():
    # dense coefficient does not vanish toward the boundary: the declared
    # neighborhood check fails at evaluation time
    fan = orthant_fan(1)
    chart = fan.toric_chart(fan.cone_id([(1,)]))
    mu = PieceMeasure(1, pieces=[lebesgue_piece((), Polyhedron.box([(0, 1)]))])
    T = LagerbergCurrent(chart, 0, {((0,), (0,)): mu})
    from tropcur.coeffs import plateau
    bad = LagerbergFormField(chart, 1, 1, 1,
                             {frozenset(): {((0,), (0,)): plateau(1, 0, 0, 1)}},
                             {frozenset({0}): {0: 2}})
    with pytest.raises(CompatibilityViolation):
        evaluate(T, bad)


def test_bad_form_literal():
    with pytest.raises(ParseError):
        fiber_form_from_json({"n": 2, "p": 1, "q": 0,
                              "terms": [{"I": [1], "J": [], "c": "one half"}]})


def test_scene_unknown_object():
    from tropcur.scenes import parse_scene
    with pytest.raises(ValidationError):
        parse_scene({"fan": {"rank": 1, "cones": [[[1]]]},
                     "objects": {"x": {"type": "widget"}}, "tasks": []})


def test_no_assert_statement_in_the_package():
    """Argument checks are typed errors: ``python -O`` strips an ``assert``,
    so none may stand in src/tropcur."""
    src = Path(__file__).resolve().parent.parent / "src" / "tropcur"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
