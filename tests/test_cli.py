import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "fan": formats.fan_to_json(p2_fan()),
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


def test_verify_correspondence_subcommand(capsys):
    code, out = run_cli(["verify-correspondence", "--count", "4", "--seed", "5"],
                        capsys)
    assert code == 0
    rec = json.loads(out)["tasks"][0]
    assert rec["ok"] and rec["total"] == 4


def test_report_determinism(tmp_path, capsys):
    scene = {
        "fan": formats.fan_to_json(p2_fan()),
        "seed": 7,
        "tasks": [{"op": "limit_point", "point": [1, 2], "direction": [0, 1]},
                  {"op": "counterexamples"}],
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
    {"op": "el_mir", "current": "T", "strata": [["x"]]},
    {"op": "positivity", "form": ["w"]},
    {"op": "limit_point", "point": [1, 2], "direction": [1]},
    {"op": "locate_relint", "vector": [1, -1]},
    {"op": "limit_point", "point": [1], "direction": []},
    "locate_relint",
    {"op": "locate_relint", "vector": [1], "expect": [1]},
    {"op": "positivity", "form": "w", "pool_size": -5},
    {"op": "round_trip", "count": -1},
], ids=["cone-range", "cone-type", "tier", "pool-size", "point", "strata", "name-type",
        "point-length", "vector-length", "direction-length", "task-type", "expect-type",
        "pool-size-negative", "count-negative"])
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
                                     _form("--samples", "-2")],
                         ids=["form-index", "atom-length", "shadow-key", "field-bidegree",
                              "row-short", "row-long", "objects-list", "object-type",
                              "tasks-object", "gallery-no-name", "gallery-suite",
                              "gallery-needs-argument", "tol", "chart-range", "chart-negative",
                              "cocoeffs-list", "measure-list", "atom-off-chart", "form-rank",
                              "form-bidegree", "tol-nan", "tol-negative", "tol-inf",
                              "samples-negative", "flag-tol-nan", "flag-tol-negative",
                              "flag-samples-negative"])
def test_malformed_object_is_input_error(tmp_path, command):
    proc = run_cli_process(command(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr
