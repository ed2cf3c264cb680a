"""Golden reports: each command line below must reproduce its stored report
byte for byte, and its exit code; each script in ``demos`` must print its
stored ``tests/golden/demo_*.txt`` byte for byte.

Inputs live in ``tests/golden/inputs``; the reports in ``tests/golden``.
To rewrite the reports and demo outputs after an intended change of
output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  The counterexample gallery's report is checked by
``test_cli.test_counterexamples_subcommand``, which already runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropcur.cli import main

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))

# (report file, exit code, command line; an input is named by its file name)
CASES = [
    ("positivity_positive.json", 0, ["check-positivity", "--form", "form.json"]),
    ("positivity_strong.json", 0, ["check-positivity", "--form", "form.json",
                                   "--tier", "strong", "--pool-size", "50"]),
    ("positivity_strong_pool.json", 0, ["check-positivity", "--form", "form_pool_sum.json",
                                        "--tier", "strong"]),
    ("positivity_weak.json", 0, ["check-positivity", "--form", "form.json",
                                 "--tier", "weak", "--pool-size", "50", "--seed", "4"]),
    ("decompose.json", 0, ["decompose", "--current", "current.json", "--rank", "2",
                           "--samples", "6"]),
    ("decompose_fan.json", 0, ["decompose", "--current", "current.json",
                               "--fan", "fan_p2.json"]),
    ("push.json", 0, ["tropicalize", "--mode", "push", "--shadow", "shadow.json",
                      "--rank", "2"]),
    ("lift.json", 0, ["tropicalize", "--mode", "lift", "--current", "current.json",
                      "--rank", "2", "--samples", "6"]),
    ("integrate_both.json", 0, ["integrate", "--field", "field_rank1.json"]),
    ("integrate_tropical.json", 0, ["integrate", "--field", "field_rank2.json",
                                    "--rank", "2", "--side", "tropical"]),
    ("integrate_complex.json", 0, ["integrate", "--field", "field_rank2.json",
                                   "--rank", "2", "--side", "complex"]),
    ("el_mir.json", 0, ["el-mir", "--current", "current.json", "--rank", "2"]),
    ("verify_correspondence.json", 0, ["verify-correspondence", "--count", "2",
                                       "--seed", "3"]),
    ("scene_fiber.json", 0, ["run", "scene_fiber.json"]),
    ("scene_currents.json", 0, ["run", "scene_currents.json"]),
    ("scene_errors.json", 2, ["run", "scene_errors.json"]),
    ("scene_errors.csv", 2, ["--format", "csv", "run", "scene_errors.json"]),
]


def _argv(args):
    inputs = GOLDEN / "inputs"
    return [str(inputs / a) if (inputs / a).is_file() else a for a in args]


def _run(args, out):
    return main(_argv(args) + ["--out", str(out)])


@pytest.mark.parametrize("name, code, args", CASES, ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, name, code, args):
    out = tmp_path / name
    assert _run(args, out) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _demo_output(demo):
    """What the demo script prints, run in a fresh interpreter on src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env,
                          check=True).stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_golden_demo(demo):
    assert _demo_output(demo) == (GOLDEN / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    for name, code, args in CASES:
        got = _run(args, target / name)
        print(f"{name}: exit {got}" + ("" if got == code else f" (expected {code})"))
    for demo in DEMOS:
        (target / f"{demo.stem}.txt").write_bytes(_demo_output(demo))
        print(f"{demo.stem}.txt: written")
