"""The three benchmark workloads: seeded inputs, operations and checks.

Every workload is a closed loop with one caller and one operation in
flight.  Inputs are drawn per cycle from
``random.Random(f"{seed}:{workload}:{cycle}")`` (string seeds hash the same
in every process; cycle -1 is the warm-up), and no input repeats within a
run.  A cycle has a fixed mix of operation kinds, so runs on different
seeds do the same kind of work; only the drawn inputs change.

Operations call the program through its modules (``fiber.reverify``), so
the benchmark's tracer sees them too.

Each workload class states ``cycle_seconds``, the wall time a run takes
per cycle on the reference machine (2 CPUs, Python 3.11), its set-up and
warm-up included, from which a run's number of cycles follows (at
``--seconds 25``: 6 for roundtrip, 2 for fiber_verdicts, 1 for
cli_gallery); ``min_cycles``, enough for ten latency samples beyond the
tail; and ``trace_cycles``, the fixed work of a traced run.

An operation is ``Op(kind, run, check)``: ``run()`` is the timed call and
``check(result)`` returns an ``Outcome`` saying whether the result is
correct, which verdicts it returned and a digest of the result.  The
checks are plain functions so that ``selftest.py`` can feed them tampered
results.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tropcur import correspond, fiber, formats, gallery
from tropcur.currents import LagerbergCurrent, WeightedComplex, integration_current
from tropcur.fans import ToricChart
from tropcur.fiber import (LagerbergFiberForm, coordinate_strong_generators,
                           strong_generator, subsets)
from tropcur.formats import jsonable
from tropcur.measures import Atom, PieceMeasure, lebesgue_piece
from tropcur.polyhedra import Polyhedron

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    ok: bool
    digest: str
    verdicts: list = field(default_factory=list)
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: object
    check: object


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed, label):
    return random.Random(f"{seed}:{label}")


def _rational(rng):
    return Fraction(rng.randint(1, 97), rng.randint(1, 13))


# --- checks -------------------------------------------------------------------

def check_round_trip(result):
    """``(T, report)``: the lift of T pushes back to T and reproduces."""
    T, report = result
    ok = report.ok and report.total == 1
    return Outcome(ok, _sha(repr((T.canonical_key(), report.total, report.failures))),
                   detail="" if ok else repr(report.failures))


def check_verdict(result, expected=None):
    """``(verdict, reverified)`` from positivity_verdict then reverify.

    Fails when reverify rejects the verdict, or when the answer contradicts
    a known truth (``expected`` is 'yes' or 'no'); Unknown never fails.
    """
    v, reverified = result
    contradicts = expected is not None and v.answer in ("yes", "no") and v.answer != expected
    ok = bool(reverified) and not contradicts
    text = json.dumps([v.tier, v.answer, v.reason, jsonable(v.certificate),
                       jsonable(v.witness), reverified], sort_keys=True)
    return Outcome(ok, _sha(text), [v.answer],
                   "" if ok else f"{v.tier}/{v.answer} reverified={reverified} expected={expected}")


@dataclass
class CliResult:
    code: int
    report: bytes
    stderr: str = ""


def check_cli(result, expect):
    """A CLI report: exit code, per-record expectations, verdicts and digest.

    ``expect`` maps 'code' to the exit code and may hold 'verdict' (the one
    positivity answer that must not be contradicted), 'integrate' (both
    routes within 2 tol) and 'expected_ok' (every record that declares
    expectations met them, and no record failed).
    """
    digest = _sha(f"{result.code}:{hashlib.sha256(result.report).hexdigest()}")
    if result.code != expect["code"]:
        return Outcome(False, digest, detail=f"exit {result.code}: {result.stderr[-300:]}")
    try:
        tasks = json.loads(result.report)["tasks"]
        tol = json.loads(result.report)["tol"]
    except (ValueError, KeyError) as err:
        return Outcome(False, digest, detail=f"unreadable report: {err}")
    verdicts, problems = [], []
    for rec in tasks:
        if rec.get("status", "ok") != "ok":
            problems.append(f"task {rec.get('id')} status {rec.get('status')}")
        if rec.get("expected_ok") is False:
            problems.append(f"task {rec.get('id')} missed its expectations")
        if rec.get("op") == "positivity":
            verdicts.append(rec["verdict"])
            if rec.get("reverified") is not True:
                problems.append("verdict not reverified")
            want = expect.get("verdict")
            if want in ("yes", "no") and rec["verdict"] in ("yes", "no") and rec["verdict"] != want:
                problems.append(f"verdict {rec['verdict']} contradicts {want}")
        if rec.get("op") == "counterexample" and "positive" in rec:
            verdicts.append(rec["positive"])
        if rec.get("op") == "integrate" and expect.get("integrate"):
            if abs(rec["tropical"] - rec["complex"]) > 2 * tol:
                problems.append(f"routes differ by {abs(rec['tropical'] - rec['complex'])}")
    if expect.get("expected_ok") and not any("expected_ok" in rec for rec in tasks):
        problems.append("no record declares expectations")
    return Outcome(not problems, digest, verdicts, "; ".join(problems))


def check_passes(plain, traced):
    """Indices of operations that failed in either of two passes over the
    same inputs and seed, or whose result digests differ between them.

    Each pass is a list of ``(kind, latency, Outcome)``.
    """
    failed = [i for i, (a, b) in enumerate(zip(plain, traced))
              if not (a[2].ok and b[2].ok and a[2].digest == b[2].digest)]
    return failed + list(range(min(len(plain), len(traced)), max(len(plain), len(traced))))


# --- roundtrip ----------------------------------------------------------------

def _current_kind(T):
    if T.n == 1:
        return "lebesgue"
    if T.q:
        return "line"
    # measures with only atoms take a twentieth of the time of the others
    return "measure" if any(mu.pieces for mu in T.cocoeffs.values()) else "atoms"


class RoundTrip:
    """``round_trip_verify([T])`` on currents from random_closed_positive_suite.

    A cycle has two positive measures with boundary atoms and a density
    box, two Lebesgue multiples and one tropical line, the three families
    the suite draws from.  A line takes about eight times as long as the
    others, so two of each fast family put the median among 24 fast
    operations of a run, not at the edge of a smaller group.  Measures with
    atoms only are skipped: they are twenty times cheaper, and their random
    share would make runs on different seeds do different amounts of work.
    The suite has only a few distinct Lebesgue currents, so a current
    already used in the run is rescaled by a seeded positive rational.
    """

    kinds = ("measure", "lebesgue", "line", "measure", "lebesgue")
    cycle_seconds, min_cycles, trace_cycles = 4.0, 3, 2

    def __init__(self, seed, workdir, launcher=None):
        self.seed = seed
        self.seen = set()

    def _draw(self, rng, kind):
        while True:
            suite = gallery.random_closed_positive_suite(count=6, seed=rng.randrange(2 ** 31))
            for T in suite:
                if _current_kind(T) != kind:
                    continue
                while T.canonical_key() in self.seen:
                    T = T.scale(_rational(rng))
                self.seen.add(T.canonical_key())
                return T

    def cycle(self, index):
        rng = _rng(self.seed, f"roundtrip:{index}")
        return [Op(kind, (lambda T=self._draw(rng, kind): (T, correspond.round_trip_verify([T]))),
                   check_round_trip) for kind in self.kinds]


# --- fiber_verdicts -------------------------------------------------------------

def random_symmetric_form(rng, n, p):
    """A random integer (p,p)-form with c[I,J] = c[J,I]."""
    S = subsets(n, p)
    coeff = {}
    for i, I in enumerate(S):
        for J in S[i:]:
            c = Fraction(rng.randint(-3, 3))
            if c:
                coeff[(I, J)] = coeff[(J, I)] = c
    if not coeff:
        coeff[(S[0], S[0])] = Fraction(1)
    return LagerbergFiberForm(n, p, p, coeff)


def generator_sum(rng, n, p, count):
    """A sum of ``count`` random strong generators: strongly positive."""
    acc = None
    while acc is None or acc.is_zero():
        acc = None
        for _ in range(count):
            vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(p)]
            g = strong_generator(vecs, n)
            acc = g if acc is None else acc + g
    return acc


def coordinate_sum(rng, n, p, count):
    """A positive combination of coordinate strong generators."""
    gens = [g for g, _ in coordinate_strong_generators(n, p)]
    acc = None
    for g in rng.sample(gens, count):
        g = g.scale(_rational(rng))
        acc = g if acc is None else acc + g
    return acc


def _verdict_op(kind, form, tier, expected=None):
    def run():
        v = fiber.positivity_verdict(form, tier)
        return v, fiber.reverify(form, v)
    return Op(kind, run, lambda result: check_verdict(result, expected))


class FiberVerdicts:
    """positivity_verdict then reverify, at the default pool_size=2000.

    A cycle is 540 positive-tier verdicts, thirty random symmetric forms and
    thirty sums of two strong generators (which are positive) for every
    3 <= n <= 5 and 0 < p < n.  They take milliseconds, but their latency
    depends on the drawn form, so many of them keep the median steady
    across seeds; the warm-up cycle (-1) draws one of each.  Then come the strong and the weak tier on n = 4
    forms: a sum of random strong generators, a random symmetric form, and
    omega_degenerate and omega_rank_two scaled by a seeded positive
    rational; the strong tier
    also gets a positive combination of coordinate generators, which the
    generator pool always contains.  Known answers: omega_degenerate is
    weakly positive and not positive; omega_rank_two is positive and not
    strongly positive.  A cycle runs in a seeded random order, so the
    positive-tier operations are timed over the run's whole length, not in
    two bursts.
    """

    cycle_seconds, min_cycles, trace_cycles = 13.0, 1, 1

    def __init__(self, seed, workdir, launcher=None):
        self.seed = seed

    def cycle(self, index):
        rng = _rng(self.seed, f"fiber:{index}")
        ops = []
        for n in (3, 4, 5):
            for p in range(1, n):
                for _ in range(1 if index < 0 else 30):
                    ops.append(_verdict_op("positive", random_symmetric_form(rng, n, p), "positive"))
                    ops.append(_verdict_op("positive", generator_sum(rng, n, p, 2), "positive", "yes"))
        degenerate = gallery.omega_degenerate().scale(_rational(rng))
        rank_two = gallery.omega_rank_two().scale(_rational(rng))
        ops += [
            _verdict_op("strong_slow", generator_sum(rng, 4, 2, rng.randint(2, 3)), "strong", None),
            _verdict_op("strong_slow", coordinate_sum(rng, 4, 2, 3), "strong", "yes"),
            _verdict_op("strong_fast", random_symmetric_form(rng, 4, 2), "strong"),
            _verdict_op("strong_fast", degenerate, "strong", "no"),
            _verdict_op("strong_fast", rank_two, "strong", "no"),
            _verdict_op("weak", generator_sum(rng, 4, 2, rng.randint(2, 3)), "weak", "yes"),
            _verdict_op("weak", random_symmetric_form(rng, 4, 2), "weak"),
            _verdict_op("weak", gallery.omega_degenerate().scale(_rational(rng)), "weak", "yes"),
            _verdict_op("weak", gallery.omega_rank_two().scale(_rational(rng)), "weak", "yes"),
        ]
        rng.shuffle(ops)
        return ops


# --- cli_gallery ----------------------------------------------------------------

def _signed_permutation(rng, r):
    """A random signed permutation matrix: a lattice automorphism.

    Its images of the base fans keep every cone's generators among the
    +-e_i and one +-1 vector, which the program's basis completion by
    standard basis vectors always handles; see ``scene_literal``.
    """
    perm = rng.sample(range(r), r)
    return [[rng.choice((-1, 1)) * int(j == perm[i]) for j in range(r)] for i in range(r)]


def _apply(M, v):
    return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]


def _base_fan(index, r):
    """The orthant's fan, or the complete fan of projective space."""
    e = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    if index % 2 == 0:
        return [e]
    rays = e + [tuple([-1] * r)]
    return [[g for g in rays if g is not skip] for skip in rays]


def _tropical_line(rng, r):
    """Rays -e_i and (1,...,1) from a random integer vertex: a balanced complex."""
    vertex = [Fraction(rng.randint(-2, 2)) for _ in range(r)]
    weight = rng.randint(1, 3)
    cells = []
    for v in [tuple(-int(i == j) for j in range(r)) for i in range(r)] + [(1,) * r]:
        k = next(i for i in range(r) if v[i])
        rows = []
        for i in range(r):
            if i != k:
                a = [Fraction(0)] * r
                a[i], a[k] = Fraction(v[k]), Fraction(-v[i])
                b = sum(x * y for x, y in zip(a, vertex))
                rows += [(tuple(a), b), (tuple(-x for x in a), -b)]
        a = [Fraction(0)] * r
        a[k] = Fraction(-v[k])
        rows.append((tuple(a), sum(x * y for x, y in zip(a, vertex))))
        cells.append((Polyhedron(r, rows), weight))
    return WeightedComplex(tuple(cells), declared_dim=1)


def _identity_chart(r):
    """The chart of a full-dimensional cone with the standard basis.

    A current's file format carries no chart, so the objects of a scene are
    built in these coordinates and read back in the scene's own chart.
    """
    e = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    return ToricChart(cone_id=0, basis=e, infinite_axes=frozenset(range(r)), dual=e)


def scene_literal(rng, index, r=3):
    """A rank-r scene: a random signed permutation of a base fan and seven tasks.

    The benchmark builds the inputs itself and never asks the program to
    validate them, so the drawn inputs do not depend on the program.  General
    unimodular images are not drawn: the program's fan validation rejects
    some smooth ones (for instance the ray (2, 5, 0)), a known defect that
    would make the operation fail.
    """
    U = _signed_permutation(rng, r)
    fan = {"rank": r, "cones": [[_apply(U, g) for g in c] for c in _base_fan(index, r)]}
    chart = _identity_chart(r)
    atoms = [Atom(frozenset({rng.randrange(r)}), tuple(Fraction(rng.randint(-2, 2)) for _ in range(r - 1)),
                  Fraction(rng.randint(1, 5))),
             Atom(frozenset(), tuple(Fraction(rng.randint(-2, 2)) for _ in range(r)),
                  Fraction(rng.randint(1, 5)))]
    lo = [rng.randint(-3, 0) for _ in range(r)]
    box = Polyhedron.box([(a, a + rng.randint(1, 2)) for a in lo])
    measure = LagerbergCurrent(chart, r, {((), ()): PieceMeasure(
        r, atoms=atoms, pieces=[lebesgue_piece((), box, weight=Fraction(rng.randint(1, 4)))])})
    line = integration_current(_tropical_line(rng, r), chart)
    inner = [rng.randint(1, 3) for _ in range(r)]
    return {
        "fan": fan, "seed": rng.randrange(1000),
        "objects": {
            "T": {"type": "current", **formats.current_to_json(measure)},
            "L": {"type": "current", **formats.current_to_json(line)},
            "C": {"type": "complex", **formats.weighted_complex_to_json(_tropical_line(rng, r))}},
        "tasks": [
            {"op": "limit_point", "point": [rng.randint(-5, 5) for _ in range(r)],
             "direction": _apply(U, [1] + [0] * (r - 1))},
            {"op": "locate_relint", "vector": _apply(U, inner)},
            {"op": "closedness", "current": "L", "forms": 6, "expect": {"verdict": "closed"}},
            {"op": "decompose", "current": "T", "expect": {"resum_exact": True}},
            {"op": "c_finite", "current": "T", "expect": {"verdict": "yes"}},
            {"op": "el_mir", "current": "T", "strata": [[1]], "expect": {"closed": True}},
            {"op": "balancing", "complex": "C", "expect": {"verdict": "balanced"}},
        ]}


def field_literal(rng, r):
    """A top-degree (r,r) field: a polynomial times bump windows on a box.

    Each window is a unit interval starting at -1, 0 or 1.  Wider windows
    and windows further out make the cost of integration swing by a factor
    of a hundred between draws (a rank-3 field took from 0.1 s to 27 s),
    so a run's time would depend on its seed more than on the program.
    """
    full = list(range(1, r + 1))
    poly = [{"exp": [0] * r, "c": str(rng.randint(1, 3))}]
    for i in range(r):
        e = [0] * r
        e[i] = 1
        poly.append({"exp": e, "c": str(rng.randint(-2, 2))})
    windows = []
    for i in range(r):
        lo = rng.randint(-1, 1)
        windows.append({"axis": i + 1, "lo": str(lo), "hi": str(lo + 1)})
    return {"p": r, "q": r, "tables": {"": [
        {"I": full, "J": full, "coeff": [{"poly": poly, "windows": windows}]}]}}


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, env):
    """Run a child to completion; (exit code, stderr, peak RSS in KB)."""
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.decode(errors="replace"), usage.ru_maxrss


class CliGallery:
    """One ``python -m tropcur.cli ...`` subprocess per operation.

    A cycle: the counterexample gallery; two scenes with seven tasks each,
    on rank-3 fans that are random signed permutations of the orthant's fan
    and of projective space's fan; ``integrate --side both`` on six
    generated fields of rank 1, 1, 2, 2, 2 and 3; and check-positivity once
    on each of omega_rank_two and omega_degenerate, scaled by a seeded
    positive rational, at each of the positive, strong and weak tiers.  The
    mix is a design choice, not a record of observed use: it covers every
    command kind, and its 15 operations put the median among the nine whose
    time is mostly start-up (the positive and strong checks and the
    integrations of rank 1 and 2), not between two kinds.  Every operation
    gets its own ``--seed``.
    ``launcher`` (a path) runs the operation through the tracing launcher
    instead of ``-m tropcur.cli``.
    """

    cycle_seconds, min_cycles, trace_cycles = 28.0, 1, 1

    def __init__(self, seed, workdir, launcher=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.launcher = launcher
        self.env = cli_env(BENCH_DIR.parent)
        self.peak_rss_kb = 0
        self.count = 0

    def _write(self, name, data):
        path = self.workdir / name
        path.write_text(json.dumps(data, sort_keys=True))
        return str(path)

    def _op(self, kind, args, expect):
        self.count += 1
        out = str(self.workdir / f"out-{self.count}.json")
        argv = [sys.executable]
        if self.launcher:
            argv += [str(self.launcher), str(self.workdir / f"spans-{self.count}.json")]
        else:
            argv += ["-m", "tropcur.cli"]
        argv += args + ["--out", out]

        def run():
            code, err, rss = run_child(argv, self.env)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            report = Path(out).read_bytes() if os.path.exists(out) else b""
            return CliResult(code, report, err)
        return Op(kind, run, lambda result: check_cli(result, expect))

    def cycle(self, index):
        rng = _rng(self.seed, f"cli:{index}")
        c = self.count

        def seed():
            return ["--seed", str(rng.randrange(1, 10 ** 6))]

        ops = [self._op("counterexamples", ["counterexamples"] + seed(),
                        {"code": 0, "expected_ok": True})]
        for base in (0, 1):
            scene = self._write(f"scene-{c}-{base}.json", scene_literal(rng, base))
            ops.append(self._op("scene", ["run", scene], {"code": 0, "expected_ok": True}))
        for r in (1, 1, 2, 2, 2, 3):
            fld = self._write(f"field-{c}-{len(ops)}.json", field_literal(rng, r))
            ops.append(self._op("integrate", ["integrate", "--field", fld, "--rank", str(r),
                                              "--side", "both"],
                                {"code": 0, "integrate": True}))
        forms = (("rank_two", gallery.omega_rank_two), ("degenerate", gallery.omega_degenerate))
        truth = {("positive", "rank_two"): "yes", ("positive", "degenerate"): "no",
                 ("strong", "rank_two"): "no", ("strong", "degenerate"): "no",
                 ("weak", "rank_two"): "yes", ("weak", "degenerate"): "yes"}
        for tier in ("positive", "strong", "weak"):
            for name, build in forms:
                form = self._write(f"form-{c}-{len(ops)}.json",
                                   formats.fiber_form_to_json(build().scale(_rational(rng))))
                ops.append(self._op(tier, ["check-positivity", "--form", form,
                                           "--tier", tier] + seed(),
                                    {"code": 0, "verdict": truth[(tier, name)]}))
        return ops


WORKLOADS = {"roundtrip": RoundTrip, "fiber_verdicts": FiberVerdicts,
             "cli_gallery": CliGallery}
