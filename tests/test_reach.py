"""What the product reaches: the functions of ``src/tropcur`` that no
product surface runs.

A fresh interpreter runs every command line of ``test_golden.CASES``, the
``counterexamples`` subcommand and each ``demos/demo_*.py`` in-process
under ``sys.setprofile``, and reports the (file, first line) of every code
object that was called.  Each named function of the package, found by
``ast`` and keyed ``module.qualname`` (a nested function is joined to its
parent by a dot), is matched to its code object by file and first line; a
decorated function's code starts at its first decorator.  Dunder methods
are left out: they implement a protocol (==, hash, repr) that a value type
keeps whether or not a surface uses it.

``UNREACHED`` lists the functions that never ran.  A change that deletes
a listed function, moves it into the tests or reaches it from a surface
takes it off the list, and one that adds a function no surface runs puts
it on.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import CASES, DEMOS, _argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tropcur"

# Not all of these are dead: the benchmark's cycles run seven of them
# (fiber.coordinate_strong_generators and _FiberForm.is_zero, the two
# formats writers, and LagerbergCurrent.scale through
# PieceMeasure.scale_weights and _times, which __add__ also calls on
# measures of different prefactors), and the complex fiber algebra is the
# paper's.
UNREACHED = frozenset({
    "coeffs.CoefficientFn.from_poly", "coeffs.CoefficientFn.key",
    "coeffs.CoefficientFn.vanishes_on_box", "coeffs.Poly.eval",
    "coeffs.Poly.is_even_nonnegative", "coeffs.UniFn.is_zero", "coeffs.UniFn.one",
    "coeffs.UniFn.plateau", "coeffs.UniFn.plateau_down", "coeffs.UniFn.scale",
    "coeffs.bump", "coeffs.plateau", "coeffs.table",
    "correspond._support_descriptor", "correspond.compat_checks",
    "correspond.complex_positivity_check",
    "correspond.kernel_point_current.evaluator",
    "currents.LagerbergCurrent.scale",
    "currents._on_relative_boundary", "currents._pair_constant_fiber",
    "currents._sampled_positivity", "currents.point_value", "currents.reverify_positivity",
    "exact._poly_div",
    "exact._poly_eval", "exact.sturm_roots_in",
    "exact.sturm_roots_in.signs_at", "exact.sturm_roots_in.variations",
    "fiber._FiberForm.basis_form", "fiber._FiberForm.is_zero", "fiber._FiberForm.zero",
    "fiber.apply_involution", "fiber.coordinate_strong_generators",
    "fiber.embed_complex",
    "fields.LagerbergFormField._axis_slabs",
    "fields.LagerbergFormField.has_compact_support",
    "fields.LagerbergFormField.is_zero", "fields.LagerbergFormField.support_box",
    "fields._merge_neighborhoods", "fields.boundary_window_field",
    "fields.check_compatibility",
    "formats.fiber_form_to_json", "formats.weighted_complex_to_json",
    "measures.PieceMeasure._times",
    "measures.PieceMeasure.scale_weights",
    "measures._embed_point", "measures._integrate_truncated", "measures._poly_gcd",
    "measures._squarefree_part", "measures._univariate_profile",
    "polyhedra.Polyhedron.contains", "polyhedra.Polyhedron.linear_bounds",
    "polyhedra.Polyhedron.sample_points", "polyhedra.Row.eval_slack",
    "polyhedra.Row.holds",
    "quadrature.adaptive_simplex", "quadrature.adaptive_simplex.g",
    "quadrature.poly_exp_axis_integral", "quadrature.poly_exp_axis_integral.anti",
    "quadrature.triangulate_vertices",
})

# runs the command lines and demos named in argv[1] under a profiler that
# keeps each called code object, then prints the exit codes and the
# (file, first line) of those code objects
_PROFILED = """
import io, json, runpy, sys
from contextlib import redirect_stdout
commands, demos = json.loads(sys.argv[1])
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
from tropcur.cli import main
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "called": sorted({(c.co_filename, c.co_firstlineno) for c in called})}))
"""


def _named_functions():
    """module.qualname -> (file, first line) of each function in src/tropcur
    that is not a dunder method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text()), path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    dunder = child.name.startswith("__") and child.name.endswith("__")
                    if not (isinstance(child, ast.ClassDef) or dunder):
                        lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                        found[name] = (str(path), min(lines))
                stack.append((child, name))
    return found


def _called(commands, demos):
    """Exit codes of the command lines, and the (file, first line) of every
    code object that they and the demos called, in one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _PROFILED, json.dumps([commands, demos])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["codes"], {tuple(c) for c in result["called"]}


def test_unreached_functions_are_the_committed_list(tmp_path):
    commands = [_argv(args) + ["--out", str(tmp_path / name)] for name, _, args in CASES]
    commands.append(["counterexamples", "--out", str(tmp_path / "counterexamples.json")])
    codes, called = _called(commands, [str(demo) for demo in DEMOS])
    assert codes == [code for _, code, _ in CASES] + [0]
    unreached = {name for name, where in _named_functions().items() if where not in called}
    # (newly unreached, reached or gone): both must be empty
    assert (sorted(unreached - UNREACHED), sorted(UNREACHED - unreached)) == ([], [])
