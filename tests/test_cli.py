import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropcur import formats, scenes
from tropcur.cli import main
from tropcur.fans import p2_fan
from tropcur.gallery import omega_rank_two, tropical_line_current


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(args):
    """The command line in a fresh interpreter that imports tropcur from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "tropcur.cli", *args],
                          capture_output=True, text=True, env=env)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def fan_to_json(fan):
    """The fan file of a fan: its rank and the generators of its nonzero cones."""
    return {"rank": fan.rank,
            "cones": [[list(g) for g in c.generators] for c in fan.cones if c.dim]}


def test_check_positivity_roundtrip(tmp_path, capsys):
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(formats.fiber_form_to_json(omega_rank_two())))
    code, out = run_cli(["check-positivity", "--form", str(form_file),
                         "--tier", "positive"], capsys)
    assert code == 0
    rec = json.loads(out)["tasks"][0]
    assert rec["verdict"] == "yes" and rec["reverified"]
    code, out = run_cli(["check-positivity", "--form", str(form_file),
                         "--tier", "strong", "--pool-size", "50"], capsys)
    rec = json.loads(out)["tasks"][0]
    assert rec["verdict"] == "no" and rec["reverified"]


def test_form_literal_minus_sign_variants(tmp_path):
    data = {"n": 2, "p": 1, "q": 1,
            "terms": [{"I": [1], "J": [1], "c": "−1/2"}]}
    form = formats.fiber_form_from_json(data)
    from fractions import Fraction
    assert form.get((0,), (0,)) == Fraction(-1, 2)


def test_scene_p2_limit_point(tmp_path, capsys):
    scene = {
        "fan": fan_to_json(p2_fan()),
        "tasks": [
            {"op": "limit_point", "point": ["17/5", "-3"], "direction": [0, 1],
             "expect": {"coords": ["17/5"]}},
            {"op": "locate_relint", "vector": [0, 1],
             "expect": {"generators": [[0, 1]]}},
        ],
    }
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["tasks"][0]["expected_ok"]
    assert report["tasks"][1]["expected_ok"]


def test_scene_empty_tasks(tmp_path, capsys):
    scene = {"fan": {"rank": 1, "cones": [[[1]]]}, "tasks": []}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["tasks"] == []


def test_scene_expect_mismatch_exit_code(tmp_path, capsys):
    scene = {
        "fan": {"rank": 2, "cones": [[[1, 0], [0, 1]]]},
        "tasks": [{"op": "locate_relint", "vector": [1, 1],
                   "expect": {"cone": 999}}],
    }
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 1


def test_scene_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code = main(["run", str(f)])
    assert code == 2


def _current_scaled_by_pi(pi_power):
    return {"type": "current", "bidegree": [0, 0],
            "cocoeffs": {"1|1": {"scale": {"frac": 1, "pi_power": pi_power}}}}


def _line_in_the_plane(dim):
    line = {"dim": 2, "ineqs": [{"a": [0, 1], "b": 0}, {"a": [0, -1], "b": 0}]}
    return {"type": "complex", "dim": dim, "cells": [{"poly": line, "weight": 1}]}


@pytest.mark.parametrize("literal, bad, good", [(_current_scaled_by_pi, 0.5, 1),
                                                (_line_in_the_plane, 2, 1)],
                         ids=["fractional-pi-power", "declared-dim"])
def test_contradictory_literal_is_input_error(tmp_path, capsys, literal, bad, good):
    """A fractional pi_power, or a declared dim that the cells contradict,
    ends in exit 2 as an input error; the consistent literal runs."""
    for value, code in ((bad, 2), (good, 0)):
        scene = {"fan": {"rank": 1, "cones": [[[1]]]}, "objects": {"x": literal(value)},
                 "tasks": [{"op": "locate_relint", "vector": [1]}]}
        f = tmp_path / "scene.json"
        f.write_text(json.dumps(scene))
        assert main(["run", str(f)]) == code
        assert ("input error: " in capsys.readouterr().err) == (code == 2)


def test_counterexamples_subcommand(capsys):
    code, out = run_cli(["counterexamples", "--samples", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    names = {rec["id"] for rec in report["tasks"]}
    assert {"density_exp_x2", "density_exp_2x", "evaluator_exp_2ex",
            "kernel_point", "degenerate_form_current",
            "derivative_atom"} <= names
    assert all(rec["expected_ok"] for rec in report["tasks"])
    exm1 = next(r for r in report["tasks"] if r["id"] == "density_exp_x2")
    assert exm1["c_finite_witness"]["ray"] == [1]
    golden = Path(__file__).parent / "golden" / "counterexamples.json"
    assert out == golden.read_text()


def test_readme_command_lines_parse(monkeypatch, capsys):
    """Every ``tropcur ...`` line of the README's command-line block gets
    past argument parsing (argparse exits on an unknown flag)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("tropcur ")]
    assert len(lines) == 8
    monkeypatch.setattr(scenes, "run", lambda scene, timings=False: ({"tasks": []}, 0))
    for argv in lines:
        capsys.readouterr()
        try:
            main(argv[1:])
        except SystemExit as exit:
            pytest.fail(f"{' '.join(argv)}: exit {exit.code}, {capsys.readouterr().err}")


def test_verify_correspondence_subcommand(capsys):
    code, out = run_cli(["verify-correspondence", "--count", "4", "--seed", "5"],
                        capsys)
    assert code == 0
    rec = json.loads(out)["tasks"][0]
    assert rec["ok"] and rec["total"] == 4


def test_report_determinism(tmp_path, capsys):
    scene = {
        "fan": fan_to_json(p2_fan()),
        "seed": 7,
        "tasks": [{"op": "limit_point", "point": [1, 2], "direction": [0, 1]}]
        + [{"op": "counterexample", "name": name} for name in scenes.COUNTEREXAMPLES],
    }
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    _, out1 = run_cli(["run", str(f)], capsys)
    _, out2 = run_cli(["run", str(f)], capsys)
    assert out1 == out2


def test_current_json_roundtrip():
    T = tropical_line_current()
    data = formats.current_to_json(T)
    back = formats.current_from_json(data, T.chart)
    assert back == T


def test_csv_output(tmp_path, capsys):
    scene = {"fan": {"rank": 1, "cones": [[[1]]]},
             "tasks": [{"op": "locate_relint", "vector": [1]}]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["--format", "csv", "run", str(f)], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("cone") or "op" in out.splitlines()[0]


def test_installed_entry_point():
    proc = run_cli_process(["verify-correspondence", "--count", "2"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag, value, attr", [("--seed", "0", 0), ("--tol", "1e-8", 1e-8),
                                               ("--samples", "3", 3)])
def test_run_flags_override_scene_at_any_value(tmp_path, monkeypatch, flag, value, attr):
    # the scene's own values differ from the flags and from their defaults
    scene = {"fan": {"rank": 1, "cones": [[[1]]]}, "seed": 7, "tol": 1e-6,
             "samples": 9, "tasks": []}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    seen = []

    def fake_run(scene, timings=False):
        seen.append(scene)
        return {"seed": scene.seed, "tol": scene.tol, "tasks": []}, 0

    monkeypatch.setattr(scenes, "run", fake_run)
    key = flag.lstrip("-")
    assert main(["run", str(f), flag, value]) == 0
    assert getattr(seen[-1], key) == attr
    assert main([flag, value, "run", str(f)]) == 0
    assert getattr(seen[-1], key) == attr
    assert main(["run", str(f)]) == 0
    assert getattr(seen[-1], key) == scene[key]


# each op's required fields, with values that would let the task run
REQUIRED_FIELDS = {
    "limit_point": {"point": [1], "direction": [1]},
    "locate_relint": {"vector": [1]},
    "toric_chart": {"cone": 1},
    "positivity": {"form": "w"},
    "pairing": {"left": "w", "right": "w"},
    "current_positivity": {"current": "T"},
    "closedness": {"current": "T"},
    "c_finite": {"current": "T"},
    "decompose": {"current": "T"},
    "push": {"shadow": "S"},
    "lift": {"current": "T"},
    "balancing": {"complex": "C"},
    "el_mir": {"current": "T"},
    "integrate": {"field": "F"},
    "counterexample": {"name": "kernel_point"},
}


@pytest.mark.parametrize("op, missing", [(op, key) for op, fields in REQUIRED_FIELDS.items()
                                         for key in fields])
def test_task_missing_field_is_error_record(tmp_path, capsys, op, missing):
    task = {"op": op, **{k: v for k, v in REQUIRED_FIELDS[op].items() if k != missing}}
    scene = {"fan": {"rank": 1, "cones": [[[1]]]},
             "objects": {"w": {"type": "gallery", "name": "omega_rank_two"}},
             "tasks": [task, {"op": "locate_relint", "vector": [1]}]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["status"] == "error" and bad["error"] == "ValidationError"
    assert repr(missing) in bad["message"]
    assert good["status"] == "ok" and good["cone"] == 1


@pytest.mark.parametrize("task", [
    {"op": "toric_chart", "cone": 99},
    {"op": "toric_chart", "cone": "first"},
    {"op": "positivity", "form": "w", "tier": "bogus"},
    {"op": "positivity", "form": "w", "pool_size": "many"},
    {"op": "limit_point", "point": ["x"], "direction": [1]},
    {"op": "positivity", "form": ["w"]},
    {"op": "limit_point", "point": [1, 2], "direction": [1]},
    {"op": "locate_relint", "vector": [1, -1]},
    {"op": "limit_point", "point": [1], "direction": []},
    "locate_relint",
    {"op": "locate_relint", "vector": [1], "expect": [1]},
    {"op": "positivity", "form": "w", "pool_size": -5},
    {"op": "round_trip", "count": -1},
    {"op": "limit_point", "point": ["17/0"], "direction": [1]},
    {"op": "positivity", "form": "w", "pool_size": 1.5},
    {"op": "toric_chart", "cone": 0.5},
    {"op": "closedness", "current": "T", "forms": -4},
    {"op": "closedness", "current": "T", "forms": 0},
    {"op": "closedness", "current": "T", "forms": 1.5},
    {"op": "positivity", "form": "w", "pool_size": True},
    {"op": "limit_point", "point": [True], "direction": [1]},
    {"op": "counterexample", "name": ["kernel_point"]},
], ids=["cone-range", "cone-type", "tier", "pool-size", "point", "name-type",
        "point-length", "vector-length", "direction-length", "task-type", "expect-type",
        "pool-size-negative", "count-negative", "point-zero-denominator", "pool-size-fraction",
        "cone-fraction", "forms-negative", "forms-zero", "forms-fraction",
        "pool-size-bool", "point-bool", "counterexample-name-list"])
def test_task_malformed_field_is_error_record(tmp_path, capsys, task):
    scene = {"fan": {"rank": 1, "cones": [[[1]]]},
             "objects": {"w": {"type": "gallery", "name": "omega_rank_two"},
                         "T": {"type": "current", "bidegree": [1, 1], "cocoeffs": {}}},
             "tasks": [task, {"op": "locate_relint", "vector": [1]}]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["status"] == "error" and bad["error"] == "ValidationError"
    assert good["status"] == "ok"


def test_el_mir_of_a_current_that_is_not_positive_is_error_record(tmp_path, capsys):
    scene = {"fan": {"rank": 1, "cones": [[[1]]]},
             "objects": {"T": {"type": "gallery", "name": "closed_not_positive"}},
             "tasks": [{"op": "el_mir", "current": "T"}, {"op": "locate_relint", "vector": [1]}]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["status"] == "error" and bad["error"] == "NotPositive"
    assert good["status"] == "ok" and good["cone"] == 1


@pytest.mark.parametrize("task, needs, got", [
    ({"op": "current_positivity", "current": "w"}, "LagerbergCurrent", "LagerbergFiberForm"),
    ({"op": "positivity", "form": "T"}, "LagerbergFiberForm or ComplexFiberForm",
     "LagerbergCurrent"),
    ({"op": "balancing", "complex": "T"}, "WeightedComplex", "LagerbergCurrent"),
    ({"op": "pairing", "left": "T", "right": "T"}, "LagerbergFiberForm or ComplexFiberForm",
     "LagerbergCurrent"),
], ids=["current-positivity-of-form", "positivity-of-current", "balancing-of-current",
        "pairing-of-currents"])
def test_object_of_the_wrong_kind_is_error_record(tmp_path, capsys, task, needs, got):
    # T is a (1,1)-current in rank 2, so p = q as for a (p,p)-form
    scene = {"fan": {"rank": 2, "cones": [[[1, 0], [0, 1]]]},
             "objects": {"w": {"type": "gallery", "name": "omega_rank_two"},
                         "T": {"type": "current", "bidegree": [1, 1], "cocoeffs": {}}},
             "tasks": [task, {"op": "locate_relint", "vector": [1, 1]}]}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code, out = run_cli(["run", str(f)], capsys)
    assert code == 2
    bad, good = json.loads(out)["tasks"]
    assert bad["status"] == "error" and bad["error"] == "ValidationError"
    assert f"needs a {needs}," in bad["message"] and bad["message"].endswith(f"is a {got}")
    assert good["status"] == "ok" and good["generators"] == [[1, 0], [0, 1]]


@pytest.mark.parametrize("args, needs, got", [
    (["tropicalize", "--mode", "push", "--shadow", "current.json"], "InvariantComplexCurrent",
     "LagerbergCurrent"),
    (["tropicalize", "--mode", "lift", "--current", "shadow.json"], "LagerbergCurrent",
     "InvariantComplexCurrent"),
    (["decompose", "--current", "shadow.json"], "LagerbergCurrent", "InvariantComplexCurrent"),
    (["el-mir", "--current", "shadow.json"], "LagerbergCurrent", "InvariantComplexCurrent"),
], ids=["push-of-current", "lift-of-shadow", "decompose-of-shadow", "el-mir-of-shadow"])
def test_subcommand_given_the_other_kind_of_current_is_error_record(args, needs, got):
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    proc = run_cli_process(args[:-1] + [str(inputs / args[-1]), "--rank", "2"])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    rec, = json.loads(proc.stdout)["tasks"]
    assert rec["status"] == "error" and rec["error"] == "ValidationError"
    assert f"needs a {needs}," in rec["message"] and rec["message"].endswith(f"is a {got}")


def test_integrate_at_zero_tolerance_is_error_record(capsys):
    # no rule meets tol 0: the one-dimensional rule stops at its cell budget
    field = Path(__file__).resolve().parent / "golden" / "inputs" / "field_rank2.json"
    code, out = run_cli(["integrate", "--field", str(field), "--rank", "2", "--tol", "0"], capsys)
    assert code == 2
    rec = json.loads(out)["tasks"][0]
    assert rec["status"] == "error" and rec["error"] == "ToleranceNotMet"
    assert rec["payload"]["cells"] == 20000 and rec["payload"]["error"] > 0


@pytest.mark.parametrize("command", [["verify-correspondence", "--count", "-1"],
                                     ["check-positivity", "--pool-size", "-5"]],
                         ids=["count", "pool-size"])
def test_negative_count_flag_is_error_record(tmp_path, capsys, command):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(formats.fiber_form_to_json(omega_rank_two())))
    if command[0] == "check-positivity":
        command = command + ["--form", str(form)]
    code, out = run_cli(command, capsys)
    assert code == 2
    (rec,) = json.loads(out)["tasks"]
    assert rec["status"] == "error" and rec["error"] == "ValidationError"
    assert "negative" in rec["message"]


def _form_index_out_of_range(tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 2, "p": 1, "q": 1,
                                "terms": [{"I": [5], "J": [1], "c": "1"}]}))
    return ["check-positivity", "--form", str(form)]


def _atom_with_extra_coordinate(tmp_path):
    data = json.loads((Path(__file__).parent / "golden" / "inputs" / "current.json").read_text())
    atom = next(a for a in data["cocoeffs"]["|"]["atoms"] if not a["pt"]["stratum"])
    atom["pt"]["coords"].append("0")
    current = tmp_path / "current.json"
    current.write_text(json.dumps(data))
    return ["decompose", "--rank", "2", "--current", str(current)]


def _shadow_key_of_wrong_degree(tmp_path):
    data = json.loads((Path(__file__).parent / "golden" / "inputs" / "shadow.json").read_text())
    data["cocoeffs"] = {"1|": data["cocoeffs"]["|"]}
    shadow = tmp_path / "shadow.json"
    shadow.write_text(json.dumps(data))
    return ["tropicalize", "--mode", "push", "--rank", "2", "--shadow", str(shadow)]


def _field_of_wrong_bidegree(tmp_path):
    data = json.loads((Path(__file__).parent / "golden" / "inputs" / "field_rank1.json").read_text())
    data["p"] = 0
    field = tmp_path / "field.json"
    field.write_text(json.dumps(data))
    return ["integrate", "--rank", "1", "--field", str(field)]


def _density_row(a):
    def command(tmp_path):
        data = json.loads((Path(__file__).parent / "golden" / "inputs" / "current.json").read_text())
        data["cocoeffs"]["|"]["densities"][0]["poly"]["ineqs"][0]["a"] = a
        current = tmp_path / "current.json"
        current.write_text(json.dumps(data))
        return ["decompose", "--rank", "2", "--current", str(current)]
    return command


def _scene(**entries):
    def command(tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"fan": {"rank": 1, "cones": [[[1]]]}, "tasks": [],
                                     **entries}))
        return ["run", str(scene)]
    return command


def _form(*flags, **entries):
    def command(tmp_path):
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"n": 2, "p": 1, "q": 1, "terms": [], **entries}))
        return ["check-positivity", "--form", str(form), *flags]
    return command


def _current(cocoeffs, bidegree=(0, 0), **entries):
    return _scene(objects={"T": {"type": "current", "bidegree": list(bidegree),
                                 "cocoeffs": cocoeffs}}, **entries)


# chart 0 of the rank-1 fan has no boundary stratum, so stratum [1] is not on it
_atom_off_chart = _current({"|": {"atoms": [{"pt": {"stratum": [1], "coords": []}, "w": "1"}]}},
                           bidegree=(1, 1), chart=0,
                           tasks=[{"op": "decompose", "current": "T"}])


@pytest.mark.parametrize("command", [_form_index_out_of_range, _atom_with_extra_coordinate,
                                     _shadow_key_of_wrong_degree, _field_of_wrong_bidegree,
                                     _density_row(["1"]), _density_row(["1", "0", "7"]),
                                     _scene(objects=[]), _scene(objects={"w": 5}),
                                     _scene(tasks={"t": {"op": "locate_relint"}}),
                                     _scene(objects={"w": {"type": "gallery"}}),
                                     _scene(objects={"w": {"type": "gallery",
                                                           "name": "random_closed_positive_suite"}}),
                                     _scene(objects={"w": {"type": "gallery",
                                                           "name": "shifted_tropical_line"}}),
                                     _scene(tol="abc"), _scene(chart=99), _scene(chart=-1),
                                     _current([]), _current({"1|1": []}), _atom_off_chart,
                                     _form(n=-1, p=0, q=0), _form(p=3, q=3),
                                     _scene(tol=float("nan")), _scene(tol=-1e-8),
                                     _scene(tol="inf"), _scene(samples=-1),
                                     _form("--tol", "nan"), _form("--tol", "-1"),
                                     _form("--samples", "-2"), _scene(tol=True)],
                         ids=["form-index", "atom-length", "shadow-key", "field-bidegree",
                              "row-short", "row-long", "objects-list", "object-type",
                              "tasks-object", "gallery-no-name", "gallery-suite",
                              "gallery-needs-argument", "tol", "chart-range", "chart-negative",
                              "cocoeffs-list", "measure-list", "atom-off-chart", "form-rank",
                              "form-bidegree", "tol-nan", "tol-negative", "tol-inf",
                              "samples-negative", "flag-tol-nan", "flag-tol-negative",
                              "flag-samples-negative", "tol-bool"])
def test_malformed_object_is_input_error(tmp_path, command):
    proc = run_cli_process(command(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- JSON literals of fiber forms and fans ------------------------------------------

def _cli_in_process(args, files):
    """(exit code, stderr) of ``main(args)`` with the JSON ``files`` written
    to a scratch directory; each ``{name}`` in args names one of them."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([a.format(**{name: str(Path(tmp, name)) for name in files})
                         for a in args])
    return code, err.getvalue()


def _spoilt(draw, good, bad):
    """``good`` seven times in eight, else a draw from the strategy ``bad``."""
    return draw(bad) if draw(st.integers(0, 7)) == 0 else good


_JUNK = st.sampled_from([None, "x", "", "1/0", 0.5, 1.5, [], {}, [1], True])


@st.composite
def _form_literals(draw):
    n = draw(st.integers(1, 4))
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    algebra = draw(st.sampled_from(["lagerberg", "lagerberg", "complex"]))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        I = sorted(draw(st.sets(st.integers(1, n), min_size=p, max_size=p)))
        J = sorted(draw(st.sets(st.integers(1, n), min_size=q, max_size=q)))
        c = draw(st.sampled_from(["1", "-2/3", "−1/2", 3, 0, "2.5", 2.0]))
        if draw(st.booleans()):     # a Lagerberg literal with one is an input error
            c = draw(st.sampled_from([{"re": c, "im": "1/2"}, [c, -1], {"im": 2}]))
        term = {"I": I, "J": J, "c": c}
        terms.append(_spoilt(draw, term, st.one_of(_JUNK, st.sampled_from(
            [{**term, "I": I + [n + 1]}, {**term, "I": I[::-1] + [1, 1]}, {**term, "J": [0]},
             {**term, "I": "12"}, {"I": I, "J": J}, {**term, "c": [1]}, {**term, "c": 0.5},
             {**term, "c": {"re": "x"}}, {**term, "I": [1.5] * p}]))))
    data = {"n": n, "p": p, "q": q, "algebra": algebra, "terms": terms}
    return _spoilt(draw, data, st.one_of(_JUNK, st.sampled_from(
        [{**data, "n": -1}, {**data, "p": n + 1}, {**data, "q": "x"}, {**data, "n": 2.5},
         {**data, "terms": 5}, {**data, "terms": "ab"}, {"n": n, "p": p}, [data]])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_form_literals())
def test_form_literal_round_trips_or_is_input_error(data):
    from tropcur.errors import TropcurError
    code, err = _cli_in_process(["check-positivity", "--form", "{form}"], {"form": data})
    assert "Traceback" not in err
    try:
        form = formats.fiber_form_from_json(data)
    except TropcurError:
        assert code == 2 and err.startswith("input error: ")
        return
    text = formats.fiber_form_to_json(form)
    again = formats.fiber_form_from_json(json.loads(json.dumps(text)))
    assert type(again) is type(form) and again.coeff == form.coeff
    assert formats.fiber_form_to_json(again) == text
    # a form parses, so the command line decides it or records an error for it
    assert code == 0 if form.p == form.q else code == 2


@st.composite
def _fan_literals(draw):
    rank = draw(st.integers(1, 3))
    cones = []
    for _ in range(draw(st.integers(0, 3))):
        gens = [draw(st.lists(st.integers(-1, 1), min_size=rank, max_size=rank))
                for _ in range(draw(st.integers(1, rank)))]
        cones.append(_spoilt(draw, gens, st.one_of(_JUNK, st.sampled_from(
            [gens + [[1] * (rank + 1)], [[1.5] + g[1:] for g in gens], [["1"] * rank],
             [[0] * rank], "ab", [], [g + g for g in gens]]))))
    data = {"rank": rank, "cones": cones}
    return _spoilt(draw, data, st.one_of(_JUNK, st.sampled_from(
        [{**data, "rank": -1}, {**data, "rank": 0}, {**data, "rank": "x"}, {**data, "rank": 2.5},
         {"cones": cones}, {"rank": rank}, {**data, "cones": 5}, [data]])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fan_literals())
def test_fan_literal_round_trips_or_is_input_error(data):
    from tropcur.errors import TropcurError
    try:
        fan = formats.fan_from_json(data)
    except TropcurError:
        fan = None
    # a top-degree zero current on the fan's chart: decompose only needs the fan
    zero = {"bidegree": [fan.rank, fan.rank] if fan else [1, 1], "cocoeffs": {}}
    code, err = _cli_in_process(["decompose", "--fan", "{fan}", "--current", "{T}"],
                                {"fan": data, "T": zero})
    assert "Traceback" not in err
    if fan is None:
        assert code == 2 and (err.startswith("input error: ") or err.startswith("error: "))
        return
    assert code == 0, err
    text = fan_to_json(fan)
    again = formats.fan_from_json(json.loads(json.dumps(text)))
    assert fan_to_json(again) == text and len(again) == len(fan)


def _current_on(poly):
    """A (1,1)-current in R^1 with one constant density on the polyhedron literal ``poly``."""
    return {"bidegree": [1, 1], "cocoeffs": {"|": {"densities": [{"poly": poly, "weight": {}}]}}}


def _field_with(p, I, windows, **term):
    """A (p,1)-field literal in R^1 with one coefficient at (I, [1]) cut off by
    ``windows``; ``term`` adds keys such as "poly" to that coefficient term."""
    return {"p": p, "q": 1,
            "tables": {"": [{"I": I, "J": [1], "coeff": [{"windows": windows, **term}]}]}}


def _measure_current(measure):
    """A (1,1)-current in R^1 whose one co-coefficient is the measure literal ``measure``."""
    return {"bidegree": [1, 1], "cocoeffs": {"|": measure}}


_POINT = {"dim": 0, "ineqs": []}
_WINDOW = {"axis": 1, "lo": "0", "hi": "1"}


@pytest.mark.parametrize("args, files, says", [
    (["check-positivity", "--form", "{form}"],
     {"form": {"n": 2, "p": 1, "q": 1, "terms": [{"I": [1.5], "J": [1], "c": "1"}]}}, "1.5"),
    (["check-positivity", "--form", "{form}"], {"form": {"n": 2.5, "p": 1, "q": 1}}, "2.5"),
    (["decompose", "--fan", "{fan}", "--current", "{T}"],
     {"fan": {"rank": 2, "cones": [[[1.5, 0]]]}, "T": {"bidegree": [2, 2], "cocoeffs": {}}},
     "1.5"),
    (["decompose", "--fan", "{fan}", "--current", "{T}"],
     {"fan": {"rank": -1, "cones": []}, "T": {"bidegree": [0, 0], "cocoeffs": {}}},
     "fan rank -1 is negative"),
    (["check-positivity", "--form", "{form}"],
     {"form": {"n": 2, "p": 1, "q": 1, "terms": [{"I": [1], "J": [1], "c": True}]}}, "True"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _current_on({"dim": 1.5, "ineqs": [{"a": ["1"], "b": "0"}]})}, "1.5"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _current_on({"dim": 1, "ineqs": [{"a": ["1"], "b": "0", "strict": "false"}]})},
     "'false'"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [{"axis": 1.5, "lo": "0", "hi": "1"}])}, "1.5"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1.5, [1], [])}, "1.5"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1.5], [])}, "1.5"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [_WINDOW], poly=[{"exp": [1.5], "c": "1"}])}, "1.5"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"n": 1.5, "densities": [{"poly": {"dim": 1}, "weight": {}}]})},
     "1.5"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"atoms": [{"pt": {"stratum": [1.5]}, "w": "1"}]})}, "1.5"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"densities": [{"stratum": [1.5], "poly": _POINT, "weight": {}}]})},
     "1.5"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"derivative_atoms": [{"pt": {"stratum": [1.5]}, "direction": [],
                                                   "w": "1"}]})}, "1.5")],
    ids=["form-index", "form-rank", "fan-generator", "fan-rank", "form-coefficient-bool",
         "current-polyhedron-dim", "current-polyhedron-strict", "field-window-axis",
         "field-degree", "field-index", "field-exponent", "measure-rank", "atom-stratum",
         "density-stratum", "derivative-atom-stratum"])
def test_non_integral_or_negative_integers_are_input_errors(args, files, says):
    code, err = _cli_in_process(args, files)
    assert code == 2 and err.startswith("input error: ") and says in err, err


@pytest.mark.parametrize("args, files, says", [
    (["check-positivity", "--form", "{form}"],
     {"form": {"n": 2, "p": 1, "q": 1, "terms": [{"I": "12", "J": [1], "c": "1"}]}}, "'12'"),
    (["check-positivity", "--form", "{form}"],
     {"form": {"n": 2, "p": 1, "q": 1, "algebra": "kahler"}}, "unknown form algebra 'kahler'"),
    (["decompose", "--fan", "{fan}", "--current", "{T}"],
     {"fan": {"rank": 1, "cones": "11"}, "T": {"bidegree": [1, 1], "cocoeffs": {}}}, "'11'"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [{**_WINDOW, "kind": "plato"}])}, "unknown window kind 'plato'"),
    (["integrate", "--side", "both", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [_WINDOW], poly=[{"exp": "1", "c": "1"}])}, "'1'"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"atoms": [{"pt": {"stratum": "1"}, "w": "1"}]})}, "'1'"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"atoms": [{"pt": {"coords": "5"}, "w": "1"}]})}, "'5'"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"densities": [{"stratum": "1", "poly": _POINT, "weight": {}}]})},
     "'1'"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"derivative_atoms": [{"pt": {"coords": "5"}, "direction": ["1"],
                                                   "w": "1"}]})}, "'5'"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"derivative_atoms": [{"pt": {"coords": ["5"]}, "direction": "1",
                                                   "w": "1"}]})}, "'1'"),
    (["check-positivity", "--form", "{form}"],
     {"form": {"n": 2, "p": 1, "q": 1, "algebra": "complex",
               "terms": [{"I": [1], "J": [1], "c": ["1", "2", "99"]}]}}, "'99'")],
    ids=["form-index-string", "form-algebra", "fan-cones-string", "field-window-kind",
         "field-exponent-string", "atom-stratum-string", "atom-coords-string",
         "density-stratum-string", "derivative-atom-coords-string",
         "derivative-atom-direction-string", "form-coefficient-triple"])
def test_strings_for_arrays_and_unknown_algebras_are_input_errors(args, files, says):
    code, err = _cli_in_process(args, files)
    assert code == 2 and err.startswith("input error: ") and says in err, err


_UNIT_INTERVAL = {"dim": 1, "ineqs": [{"a": ["1"], "b": "1"}, {"a": ["-1"], "b": "0"}]}


@pytest.mark.parametrize("args, files, says", [
    (["integrate", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [{**_WINDOW, "axis": 5}])}, "window axis 5"),
    (["integrate", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [{**_WINDOW, "axis": 0}])}, "window axis 0"),
    (["integrate", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [3], [_WINDOW])}, "key I=[3], J=[1] needs increasing subsets of 1..1"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": {"bidegree": [0, 0], "cocoeffs": {"2|1": {"atoms": [{"pt": {"coords": ["0"]}, "w": "1"}]}}}},
     "key I=[2], J=[1] needs two increasing 1-subsets of 1..1"),
    (["integrate", "--rank", "1", "--field", "{field}"],
     {"field": _field_with(1, [1], [_WINDOW], poly=[{"exp": [-1], "c": "1"}])}, "negative"),
    (["decompose", "--rank", "1", "--current", "{T}"],
     {"T": _measure_current({"densities": [{"poly": _UNIT_INTERVAL,
                                            "weight": {"pol": [{"exp": [-1], "c": "1"}]}}]})},
     "negative")],
    ids=["field-window-axis-above", "field-window-axis-zero", "field-index-off-the-chart",
         "current-index-off-the-chart", "field-negative-exponent", "density-negative-exponent"])
def test_literal_off_the_chart_or_with_negative_exponent_is_input_error(args, files, says):
    """An axis or index outside 1..n and a negative exponent are refused, not
    read as another axis or as a constant."""
    code, err = _cli_in_process(args, files)
    assert code == 2 and err.startswith("input error: ") and says in err, err


@pytest.mark.parametrize("key", ["0", "7", "1.5"])
def test_field_table_off_the_chart_is_input_error(key):
    """A table whose key is no boundary stratum of the chart is refused, not ignored."""
    field = _field_with(1, [1], [_WINDOW])
    field["tables"][key] = field["tables"][""]
    code, err = _cli_in_process(["integrate", "--rank", "1", "--field", "{field}"],
                                {"field": field})
    assert code == 2 and err.startswith("input error: "), err


@pytest.mark.parametrize("tier", ["positive", "strong", "weak"])
@pytest.mark.parametrize("c", [{"re": "1", "im": "1"}, ["1", "1"], {"re": "1", "im": "0"}])
def test_lagerberg_literal_with_complex_coefficient_is_input_error(tier, c):
    # a Lagerberg coefficient is real, so a complex one is bad input, not a crash
    form = {"n": 2, "p": 1, "q": 1, "algebra": "lagerberg", "terms": [{"I": [1], "J": [1], "c": c}]}
    code, err = _cli_in_process(["check-positivity", "--tier", tier, "--form", "{form}"],
                                {"form": form})
    assert code == 2 and err.startswith("input error: ") and "Traceback" not in err, err


# --- mutated scene files ------------------------------------------------------------

_SCENE_FIBER = json.loads((Path(__file__).resolve().parent / "golden" / "inputs"
                           / "scene_fiber.json").read_text())


def _paths(data, path=()):
    """Every path of keys and indices into a JSON value, its own () first."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


_TASK_FIELDS = ["op", "point", "direction", "vector", "pool_size", "tier", "form", "left",
                "right", "cone", "count", "strata", "expect", "id"]
_SCENE_FIELDS = ["seed", "samples", "tol", "chart", "fan", "objects", "tasks"]


@st.composite
def _scene_mutants(draw):
    """scene_fiber.json with one to three values replaced by junk, by a
    number of the wrong kind or by a bad rational, or dropped: a value in a
    task, a task field, a scene-level entry, or a value anywhere."""
    scene = json.loads(json.dumps(_SCENE_FIBER))
    for _ in range(draw(st.integers(1, 3))):
        tasks = scene.get("tasks") if isinstance(scene.get("tasks"), list) else []
        tasks = [t for t in tasks if isinstance(t, dict)]
        where = draw(st.sampled_from(["task", "task", "task field", "scene", "anywhere"]))
        if where == "task" and tasks:     # a value in a task, an entry of an array too
            task = draw(st.sampled_from(tasks))
            *head, key = draw(st.sampled_from(list(_paths(task))[1:] or [("op",)]))
            parent = task
            for k in head:
                parent = parent[k]
        elif where == "task field" and tasks:
            parent, key = draw(st.sampled_from(tasks)), draw(st.sampled_from(_TASK_FIELDS))
        elif where == "scene":
            parent, key = scene, draw(st.sampled_from(_SCENE_FIELDS))
        else:
            *head, key = draw(st.sampled_from(list(_paths(scene))[1:]))
            parent = scene
            for k in head:
                parent = parent[k]
        if isinstance(parent, dict) and draw(st.integers(0, 5)) == 0:
            parent.pop(key, None)
        else:
            parent[key] = draw(st.one_of(_JUNK, st.sampled_from(
                ["17/0", "-3", 2.5, -1, 3, ["17/0", "-3"], ["1", "2", "3"], [1.5, 2], "12"])))
    return scene


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scene_mutants())
def test_mutated_scene_runs_or_is_typed_error(scene):
    """A mutant of the golden fiber scene runs (exit 0, or 1 on a missed
    expectation), or exits 2 with an input error or with error records that
    name a TropcurError; it never raises, and the other tasks still report."""
    from tropcur import errors
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "scene.json").write_text(json.dumps(scene))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(Path(tmp, "scene.json"))])
    assert "Traceback" not in err.getvalue()
    if err.getvalue():
        assert code == 2 and err.getvalue().startswith(("input error: ", "error: ")), err.getvalue()
        return
    records = json.loads(out.getvalue())["tasks"]
    assert len(records) == len(scene.get("tasks", []))
    failed = [r for r in records if r["status"] == "error"]
    for r in failed:
        assert issubclass(getattr(errors, r["error"]), errors.TropcurError), r
    assert code == (2 if failed else 1 if any(r.get("expected_ok") is False for r in records) else 0)


def test_scene_seed_must_be_an_integer(tmp_path, capsys):
    scene = {**_SCENE_FIBER, "seed": 2.5}
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(scene))
    code = main(["run", str(f)])
    assert code == 2 and "2.5" in capsys.readouterr().err
