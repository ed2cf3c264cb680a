"""What a command-line call and the package root import.

Each subcommand imports only the modules it runs, and the package root
resolves its names lazily.  The checks read ``sys.modules`` in a fresh
interpreter; nothing here is timed.  No source module imports a name it
never reads, and neither does a test or a demo.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import CASES, _argv

import tropcur
from tropcur import fiber, formats, gallery

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tropcur"
INPUTS = ROOT / "tests" / "golden" / "inputs"

# the names the package root re-exported when it imported every module
ROOT_EXPORTS = {
    "fans": ["Cone", "Fan", "ToricChart", "CompactifiedPoint", "validate_fan"],
    "fiber": ["LagerbergFiberForm", "ComplexFiberForm", "GramForm", "Verdict",
              "PositivityVerdict", "wedge", "apply_involution", "embed_complex",
              "gram_form", "dual_pairing", "positivity_verdict", "decomposable_test",
              "reverify"],
    "coeffs": ["Poly", "UniFn", "CoefficientFn", "bump", "plateau"],
    "polyhedra": ["Polyhedron"],
    "fields": ["LagerbergFormField", "InvariantComplexFormField", "differentiate",
               "trop_pullback_field", "integrate_top", "check_compatibility",
               "bump_box_field", "boundary_window_field"],
    "measures": ["PieceMeasure", "Piece", "Atom", "DerivativeAtom", "integrate_against",
                 "total_variation_decompose", "abs_measure", "restrict_measure",
                 "lebesgue_piece"],
    "currents": ["LagerbergCurrent", "WeightedComplex", "evaluate", "closedness_test",
                 "positivity_check", "canonical_decomposition", "resum", "c_finite_test",
                 "extend_by_zero", "integration_current", "balancing_check"],
    "correspond": ["InvariantComplexCurrent", "push_forward", "lift", "round_trip_verify",
                   "complex_positivity_check", "compat_checks", "kernel_point_current",
                   "validate_shadow"],
}

# runs one command line in-process as ``python -m tropcur.cli`` would, then
# prints the names of the loaded modules
_WRAPPER = """
import json, runpy, sys
sys.argv = ["tropcur"] + sys.argv[1:]
try:
    runpy.run_module("tropcur.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(argv):
    """Exit code and loaded modules of one command line in a fresh interpreter."""
    result = json.loads(_python("-c", _WRAPPER, *argv))
    return result["code"], set(result["modules"])


@pytest.mark.parametrize("tier", ["positive", "strong", "weak"])
def test_check_positivity_on_exact_form_loads_no_numpy(tmp_path, tier):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(formats.fiber_form_to_json(gallery.omega_rank_two())))
    code, modules = _loaded(["check-positivity", "--form", str(form), "--tier", tier,
                             "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert "tropcur.fiber" in modules
    assert not modules & {"numpy", "scipy"}


@pytest.mark.parametrize("vectors", [
    # a coordinate sum and a rank-two generator sum, at n = 4, p = 2
    [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)], [(1, 0, 0, 0), (0, 0, 1, 0)]],
    [[(1, 2, 0, -1), (0, 1, 3, 1)], [(2, -1, 1, 0), (1, 1, -2, 3)]],
])
def test_strong_yes_on_generator_sums_loads_no_scipy(tmp_path, vectors):
    # the Gram span decides these; the pool LP, and with it scipy, never runs
    form = tmp_path / "form.json"
    gens = [fiber.strong_generator(vecs, 4) for vecs in vectors]
    form.write_text(json.dumps(formats.fiber_form_to_json(sum(gens[1:], gens[0]))))
    report = tmp_path / "report.json"
    code, modules = _loaded(["check-positivity", "--form", str(form), "--tier", "strong",
                             "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["tasks"][0]["verdict"] == "yes"
    assert "scipy" not in modules


# every tier on two gallery forms rebuilt with float coefficients
_FLOAT_TIERS = """
import sys
from tropcur.fiber import LagerbergFiberForm, positivity_verdict
from tropcur.gallery import omega_degenerate, omega_rank_two
for a in (omega_rank_two(), omega_degenerate()):
    f = LagerbergFiberForm(a.n, a.p, a.q, {k: float(c) for k, c in a.coeff.items()})
    print(*(positivity_verdict(f, tier).answer for tier in ("positive", "strong", "weak")))
print("numpy" in sys.modules)
"""


def test_float_coefficient_forms_load_no_numpy():
    # float coefficients are read as exact values, so every tier stays exact
    out = _python("-c", _FLOAT_TIERS)
    assert out.split() == ["yes", "no", "yes", "no", "no", "yes", "False"]


def _integrate_runs(tmp_path):
    """Loaded modules of ``integrate --side both`` on the rank-1 and rank-2
    golden fields, whose terms factor axis by axis: neither loads numpy."""
    for rank in (1, 2):
        code, modules = _loaded(["integrate", "--side", "both", "--rank", str(rank),
                                 "--field", str(INPUTS / f"field_rank{rank}.json"),
                                 "--out", str(tmp_path / f"report{rank}.json")])
        assert code == 0
        assert "tropcur.fields" in modules
        assert not modules & {"numpy", "scipy"}
        yield modules


def test_integrate_loads_no_current_layers(tmp_path):
    for modules in _integrate_runs(tmp_path):
        assert not modules & {"tropcur.currents", "tropcur.measures", "tropcur.correspond",
                              "tropcur.gallery", "tropcur.polyhedra"}


def test_integrate_loads_no_fiber_algebra(tmp_path):
    # fields takes its index signs from indices and Verdict from errors
    for modules in _integrate_runs(tmp_path):
        assert "tropcur.fiber" not in modules


def test_exact_current_verdicts_load_no_numpy(tmp_path):
    # positivity and closedness of a constant-density current are exact, and
    # currents imports fiber and fields only on its sampled routes
    code, modules = _loaded(["decompose", "--current", str(INPUTS / "current.json"),
                             "--rank", "2", "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert "tropcur.currents" in modules
    assert not modules & {"numpy", "scipy", "tropcur.fiber", "tropcur.fields"}


@pytest.mark.parametrize("name, code, args", CASES + [("counterexamples", 0, ["counterexamples"])],
                         ids=[c[0] for c in CASES] + ["counterexamples"])
def test_command_lines_load_no_dataclasses(tmp_path, name, code, args):
    # dataclasses loads inspect, ast, dis and tokenize, which a call compiles afresh
    exit_code, modules = _loaded(_argv(args) + ["--out", str(tmp_path / name)])
    assert exit_code == code
    if name == "positivity_strong_pool.json":   # its pool LP imports scipy, which loads both
        assert "scipy" in modules
    else:
        assert not modules & {"dataclasses", "inspect"}


def test_counterexamples_load_no_numpy(tmp_path):
    # the gallery's e^(x^2) and e^(2e^x) pairings run the pure-Python tensor rule
    code, modules = _loaded(["counterexamples", "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert "tropcur.quadrature" in modules
    assert not modules & {"numpy", "scipy"}


def test_complex_positivity_loads_no_numpy():
    out = _python("-c", "import sys; from tropcur.correspond import complex_positivity_check, "
                        "lift; from tropcur.gallery import tropical_line_current; "
                        "v = complex_positivity_check(lift(tropical_line_current())); "
                        "print(v.answer, v.exact, 'numpy' in sys.modules)")
    assert out.split() == ["yes", "True", "False"]


def test_root_names_resolve_to_their_modules():
    exported = [name for names in ROOT_EXPORTS.values() for name in names]
    assert sorted(tropcur.__all__) == sorted(exported)
    for module, names in ROOT_EXPORTS.items():
        mod = importlib.import_module(f"tropcur.{module}")
        for name in names:
            assert getattr(tropcur, name) is getattr(mod, name), name
    star = {}
    exec("from tropcur import *", star)
    assert set(star) - {"__builtins__"} == set(exported)


def test_root_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropcur.no_such_name
    assert not hasattr(tropcur, "no_such_name")


def test_root_import_loads_no_module_and_submodule_import_works():
    out = _python("-c", "import sys, tropcur; before = sorted(m for m in sys.modules "
                        "if m.startswith('tropcur.')); from tropcur import exact; "
                        "import tropcur.exact; print(before, exact is tropcur.exact)")
    assert out.split() == ["[]", "True"]


def _unread_imports(source):
    """(line, name) of each imported name its scope never reads."""
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)]
    scope_of = {}
    for scope in scopes:                  # outer scopes first: the innermost wins
        for node in ast.walk(scope):
            scope_of[node] = scope
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        scope = scope_of[node]
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, name) for name in
                   (alias.asname or alias.name.split(".")[0] for alias in node.names)
                   if name not in read]
    return unread


def test_unread_import_check_flags_dead_names():
    source = ("import random\nfrom .indices import subsets\nimport os.path\n"
              "def f():\n    import numpy as np\n    return os.path.sep\n"
              "def g(np):\n    return np\n")
    assert _unread_imports(source) == [(1, "random"), (2, "subsets"), (5, "np")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_source_modules_read_every_name_they_import(module):
    # every process compiles what it imports, so a dead import costs each command
    assert _unread_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix() for folder in
                                        ("tests", "demos") for p in (ROOT / folder).glob("*.py")))
def test_tests_and_demos_read_every_name_they_import(path):
    # a name left behind by a deleted test or API is a stale import
    assert _unread_imports((ROOT / path).read_text()) == []
