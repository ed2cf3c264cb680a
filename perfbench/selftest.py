"""Tamper self-test of the benchmark's correctness checks.

Feeds each check in ``workloads.py`` one honest and one tampered result and
returns the names of the cases it judged wrongly.  Every benchmark run
calls it and reports ``correct: false`` if any case fails; run it alone
with ``PYTHONPATH=src python3 perfbench/selftest.py``.
"""

import json
import sys

from tropcur import gallery
from tropcur.correspond import RoundTripReport
from tropcur.fiber import PositivityVerdict, positivity_verdict, reverify

from workloads import CliResult, Outcome, check_cli, check_passes, check_round_trip, check_verdict


def _report(*tasks, tol=1e-8):
    return json.dumps({"seed": 0, "tol": tol, "tasks": list(tasks)}).encode()


def cases():
    form = gallery.omega_rank_two()
    honest = positivity_verdict(form, "positive")
    forged = PositivityVerdict("positive", "yes", certificate=("decomposition", []))
    integrate = {"id": 0, "op": "integrate", "tropical": 0.5, "complex": 0.5 + 1e-8}
    apart = dict(integrate, complex=0.5 + 3e-8)
    gallery_ok = {"id": "kernel_point", "op": "counterexample", "expected_ok": True}
    gallery_bad = dict(gallery_ok, expected_ok=False)
    positivity = {"id": 0, "op": "positivity", "verdict": "no", "reverified": True}
    line = gallery.tropical_line_current()
    yield "round trip", check_round_trip((line, RoundTripReport(1, []))).ok, True
    yield "round trip that does not push back", check_round_trip((line, RoundTripReport(
        1, [(0, "pushforward of the lift differs from the input")]))).ok, False
    yield "lift that does not reproduce", check_round_trip((line, RoundTripReport(
        1, [(0, "lift is not reproducible on equal inputs")]))).ok, False
    yield "verdict", check_verdict((honest, reverify(form, honest)), "yes").ok, True
    yield "verdict reverify rejects", check_verdict((forged, reverify(form, forged))).ok, False
    yield "verdict contradicting the truth", check_verdict((honest, True), "no").ok, False
    yield "integrate", check_cli(CliResult(0, _report(integrate)),
                                 {"code": 0, "integrate": True}).ok, True
    yield "integrate routes beyond 2 tol", check_cli(CliResult(0, _report(apart)),
                                                     {"code": 0, "integrate": True}).ok, False
    yield "exit code", check_cli(CliResult(1, _report(integrate)), {"code": 0}).ok, False
    yield "gallery", check_cli(CliResult(0, _report(gallery_ok)),
                               {"code": 0, "expected_ok": True}).ok, True
    yield "gallery expected_ok false", check_cli(CliResult(0, _report(gallery_bad)),
                                                 {"code": 0, "expected_ok": True}).ok, False
    yield "cli verdict contradicting the truth", check_cli(
        CliResult(0, _report(positivity)), {"code": 0, "verdict": "yes"}).ok, False
    same = [("weak", 1.0, Outcome(True, "a1")), ("weak", 1.0, Outcome(True, "c3"))]
    changed = [same[0], ("weak", 1.0, Outcome(True, "b2"))]
    yield "same digest on repetition", check_passes(same, same) == [], True
    yield "digest changed on repetition", check_passes(same, changed) == [], False


def run_selftest():
    return [name for name, got, want in cases() if got != want]


if __name__ == "__main__":
    failures = run_selftest()
    for name in failures:
        print(f"FAILED {name}")
    print("selftest:", "failed" if failures else "all checks fire")
    sys.exit(1 if failures else 0)
