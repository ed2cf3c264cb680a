"""tropcur benchmark: one run of one workload.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run and every process it starts stay on one CPU.
With ``--trace 0`` the run measures the end-to-end metrics: it sets up
(import plus input generation, timed here and in four fresh processes), runs
one operation of each kind as a warm-up for the in-process workloads, then
a fixed number of whole cycles, sized so that the run takes about
``--seconds`` seconds on the reference machine (see ``workloads.py``).
Every timing is scaled to the reference machine's speed (see
``speed.py``).  With ``--trace 1`` it runs a fixed number of
cycles twice, each in a fresh process: once plain and once under the
outside-in tracer, and reports the per-layer metrics of the traced pass.
Both passes see the same inputs, so their per-operation digests must agree.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, plus the error rate and the Unknown share.  A record
of the run, with the environment, is written to ``.bench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - setup time counts from the first line
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("roundtrip", "fiber_verdicts", "cli_gallery")
# one thread per numeric library and a fixed hash seed, so counts repeat
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
SETUP_PROBES = 4        # fresh processes that repeat the set-up
NPROC = len(os.sched_getaffinity(0))    # before the run pins itself to one CPU


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the processes a run starts
    ap.add_argument("--role", choices=("run", "setup", "pass", "traced-pass"),
                    default="run", help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_environment(argv):
    """Re-execute this script once with the pinned environment."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def child_argv(args, role, result=None):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role]
    return argv + (["--result", str(result)] if result else [])


def run_checked(argv):
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[-4:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


# --- one operation, one pass ------------------------------------------------------

def execute(op, sampler=None):
    """Run one operation; (latency s, Outcome).  A raised error is a failure.

    The time ``sampler`` spent probing during the operation is not latency.
    """
    from workloads import Outcome

    def probing():
        return sampler.spent if sampler else 0.0

    t0, spent = time.perf_counter(), probing()
    try:
        result = op.run()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        latency = time.perf_counter() - t0 - (probing() - spent)
        return latency, Outcome(False, "raised", detail=traceback.format_exc(limit=3))
    latency = time.perf_counter() - t0 - (probing() - spent)
    try:
        return latency, op.check(result)
    except Exception:  # noqa: BLE001 - a malformed result fails its check
        return latency, Outcome(False, "unchecked", detail=traceback.format_exc(limit=3))


def run_ops(ops):
    """[(kind, latency s, Outcome)] for the operations, one at a time."""
    return [(op.kind, *execute(op)) for op in ops]


def run_cycles(workload, cycles, first_ops=None):
    """Run cycles 0 .. cycles-1 under the speed sampler.

    ``first_ops`` is cycle 0 if set-up made it.  Returns the records with
    latencies at the reference speed, the records as measured, and the
    sampler.
    """
    measured, spans = [], []
    with speed.Sampler(speed.RUN_PERIOD_S) as sampler:
        for index in range(cycles):
            for op in first_ops if index == 0 and first_ops else workload.cycle(index):
                start = time.perf_counter()
                measured.append((op.kind, *execute(op, sampler)))
                spans.append((start, time.perf_counter()))
    scaled = [(kind, latency * sampler.scale(*span), outcome)
              for (kind, latency, outcome), span in zip(measured, spans)]
    return scaled, measured, sampler


def planned_cycles(args):
    """The run's fixed amount of work: ``--seconds`` on the reference machine.

    A fixed number of cycles, not a deadline, keeps the mix, the sample
    count and so the tail percentile the same on every commit.
    """
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    return max(cls.min_cycles, round(args.seconds / cls.cycle_seconds))


def make_workload(args, workdir, launcher=None):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, workdir, launcher)


def in_process(args):
    return args.workload != "cli_gallery"


def import_program():
    import tropcur
    if not Path(tropcur.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tropcur was imported from {tropcur.__file__}, not from {SRC}")


def warm_up_ops(workload):
    """One operation of each kind, from cycle -1."""
    ops = {}
    for op in workload.cycle(-1):
        ops.setdefault(op.kind, op)
    return list(ops.values())


def setup(args, workdir):
    """Import the program and generate the first inputs.

    Those are the warm-up operations for the in-process workloads and the
    first timed cycle (cycle 0) for cli_gallery, which needs no warm-up:
    each of its operations starts a fresh process.
    """
    import_program()
    workload = make_workload(args, workdir)
    return workload, warm_up_ops(workload) if in_process(args) else workload.cycle(0)


# --- roles --------------------------------------------------------------------------

def timed_setup(args, workdir):
    """``setup`` under the speed sampler, timed from the process's start.

    Returns the workload, the first operations and the set-up time as
    measured and at the reference speed.
    """
    with speed.Sampler(speed.SETUP_PERIOD_S) as sampler:
        workload, first_ops = setup(args, workdir)
        end, spent = time.perf_counter(), sampler.spent
    measured = end - T_START - spent
    return workload, first_ops, measured, measured * sampler.scale(T_START, end)


def role_setup(args, workdir):
    _, _, measured, scaled = timed_setup(args, workdir)
    print(json.dumps({"measured_s": measured, "setup_s": scaled}))


def role_pass(args, workdir, traced):
    """A fixed number of cycles, plain or traced; writes the result file."""
    import tracer
    from workloads import WORKLOADS
    cycles = WORKLOADS[args.workload].trace_cycles
    launcher = BENCH_DIR / "launch.py" if traced and not in_process(args) else None
    workload = make_workload(args, workdir, launcher)
    tr = None
    if in_process(args):
        run_ops(warm_up_ops(workload))
    # inputs are generated before tracing starts, so spans cover operations only
    ops = [op for index in range(cycles) for op in workload.cycle(index)]
    if traced and in_process(args):
        tr = tracer.Tracer()
        tracer.install(tr)
    records = run_ops(ops)
    result = {"ops": [[k, lat, asdict(o)] for k, lat, o in records],
              "summary": None, "startup_s": 0.0}
    if tr is not None:
        result["summary"] = tr.summary()
        tr.dump(OUT_DIR / f"spans-{args.workload}.json")
    elif launcher is not None:
        result["summary"], result["startup_s"] = merge_launcher_spans(workdir, records)
    Path(args.result).write_text(json.dumps(result))


def merge_launcher_spans(workdir, records):
    """Sum the per-process traces of the CLI operations, in operation order."""
    merged = {"stats": {}, "keys": {}, "verdicts": {}, "conic_yes": 0, "missing": []}
    startup = 0.0
    spans = []
    for i, (_, latency, _) in enumerate(records, start=1):
        path = Path(workdir) / f"spans-{i}.json"
        if not path.exists():
            continue
        summary_line, spans_line = path.read_text().splitlines()
        part = json.loads(summary_line)
        spans.append(json.loads(spans_line))
        for name, s in part["stats"].items():
            m = merged["stats"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in m:
                m[k] += s[k]
        for name, keys in part["keys"].items():
            merged["keys"].setdefault(name, []).extend(keys)
        for answer, c in part["verdicts"].items():
            merged["verdicts"][answer] = merged["verdicts"].get(answer, 0) + c
        merged["conic_yes"] += part["conic_yes"]
        merged["missing"] = sorted(set(merged["missing"]) | set(part["missing"]))
        startup += latency - part["tracer_s"] - part["stats"].get("cli.main", {}).get("total_s", 0.0)
    (OUT_DIR / "spans-cli_gallery.json").write_text(json.dumps(spans))
    return merged, startup


# --- metrics ------------------------------------------------------------------------

def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC}


def tail(latencies):
    """Latency at the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(setups, records, measured, verdicts, peak_rss_kb):
    """Metrics, notes and extra figures; timings at the reference speed.

    ``setups`` holds (measured s, reference-speed s) pairs, one per set-up;
    ``records`` and ``measured`` are the operations at the reference speed
    and as measured.
    """
    latencies = [lat for _, lat, _ in records]
    measured = [lat for _, lat, _ in measured]
    failed = sum(1 for _, _, o in records if not o.ok)
    timed = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    total_verdicts = sum(verdicts.values())
    unknown = verdicts.get("unknown", 0)
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "ops_per_s": (len(records) - failed) / timed,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "decided_share": 1 - unknown / total_verdicts if total_verdicts else 1.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; "
                   f"measured {statistics.median(s for s, _ in setups):.4g} s",
        "ops_per_s": f"{len(records) - failed} completed in {timed:.2f} s in flight; "
                     f"measured {sum(measured):.2f} s",
        "op_p50_ms": f"measured {1000 * statistics.median(measured):.4g} ms",
        "op_tail_ms": f"p{tail_pct:.1f} of n={len(latencies)}, 10 samples beyond; "
                      f"measured {1000 * tail(measured)[0]:.4g} ms",
        "decided_share": f"{total_verdicts - unknown} of {total_verdicts} verdicts",
    }
    extra = [("error_rate", failed / len(records), "ratio", f"{failed} of {len(records)} operations"),
             ("unknown_share", unknown / total_verdicts if total_verdicts else 0.0, "ratio",
              f"{unknown} of {total_verdicts} verdicts")]
    return values, notes, extra, failed


def per_kind(records):
    kinds = {}
    for kind, lat, _ in records:
        kinds.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "median_ms": 1000 * statistics.median(v),
                "mean_ms": 1000 * statistics.mean(v)} for k, v in kinds.items()}


def repeat_share(keys):
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def layer_metrics(spec, summary, extras):
    out = {}
    for m in spec:
        name = m["name"]
        if name in extras:
            value = extras[name]
        else:
            span, stat = name.rsplit(".", 1)
            if stat == "repeat_share":
                value = repeat_share(summary["keys"].get(span, []))
            else:
                value = summary["stats"].get(span, {}).get(stat, 0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "tropcur").glob("*.py")))


def emit(args, lines, record, result):
    for line in lines:
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(result))


def role_run(args, workdir, spec):
    from selftest import run_selftest
    if args.trace:
        return run_traced(args, workdir, spec, run_selftest)
    import tracer
    workload, first_ops, *own = timed_setup(args, workdir)
    setups = [tuple(own)]
    for _ in range(SETUP_PROBES):
        child = json.loads(run_checked(child_argv(args, "setup")).splitlines()[-1])
        setups.append((child["measured_s"], child["setup_s"]))
    selftest_failures = run_selftest()
    counter = tracer.Tracer(record_spans=False)
    if in_process(args):
        tracer.install(counter, only=tracer.VERDICT_FUNCTIONS)
        run_ops(first_ops)
        counter.verdicts.clear()
        first_ops = None
    records, measured, sampler = run_cycles(workload, planned_cycles(args), first_ops=first_ops)
    if in_process(args):
        verdicts = counter.verdicts
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        verdicts = {}
        for _, _, o in records:
            for answer in o.verdicts:
                verdicts[answer] = verdicts.get(answer, 0) + 1
        peak_kb = workload.peak_rss_kb
    values, notes, extra, failed = end_to_end(setups, records, measured, verdicts, peak_kb)
    env = environment()
    probes = [p for _, p in sampler.samples]
    lines = [f"# workload={args.workload} seed={args.seed} trace=0 "
             + " ".join(f"{k}={v}" for k, v in env.items()),
             f"# timings at the reference speed (speed.py): {len(probes)} probes, "
             f"median {1000 * statistics.median(probes):.4f} ms, "
             f"reference {1000 * speed.REFERENCE_S:.4f} ms"]
    metrics = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        lines.append(f"{m['name']} = {v:.6g} {m['unit']}  {notes.get(m['name'], '')}".rstrip())
    lines += [f"{name} = {v:.6g} {unit}  {note}" for name, v, unit, note in extra]
    kinds = per_kind(records)
    lines += [f"# kind {k}: n={s['n']} median_ms={s['median_ms']:.1f} mean_ms={s['mean_ms']:.1f}"
              for k, s in kinds.items()]
    problems = [f"{kind}: {o.detail}" for kind, _, o in records if not o.ok]
    lines += [f"# FAILED {p}" for p in problems[:10]]
    lines += [f"# SELFTEST FAILED {f}" for f in selftest_failures]
    result = {"correct": failed == 0 and not selftest_failures, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "kinds": kinds, "notes": notes,
              "probe_s": probes, "setups": setups,
              "latencies_ms": [[1000 * a[1], 1000 * b[1], a[0]] for a, b in zip(records, measured)],
              "extra": {name: v for name, v, _, _ in extra},
              "digest": _run_digest(o.digest for _, _, o in records)}
    emit(args, lines, record, result)


def _run_digest(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def run_traced(args, workdir, spec, run_selftest):
    import_program()
    from workloads import Outcome, check_passes
    selftest_failures = run_selftest()
    passes = {}
    for role in ("pass", "traced-pass"):
        result = workdir / f"{role}.json"
        run_checked(child_argv(args, role, result))
        passes[role] = json.loads(result.read_text())
    plain, traced = ([(k, lat, Outcome(**o)) for k, lat, o in passes[role]["ops"]]
                     for role in ("pass", "traced-pass"))
    summary = passes["traced-pass"]["summary"]
    failures = check_passes(plain, traced)
    wall_plain = sum(lat for _, lat, _ in plain)
    wall_traced = sum(lat for _, lat, _ in traced)
    linprog_calls = summary["stats"].get("lp.linprog", {}).get("calls", 0)
    extras = {
        "lp.certificate_share": summary["conic_yes"] / linprog_calls if linprog_calls else 0.0,
        "cli.startup_s": passes["traced-pass"]["startup_s"],
        "trace.overhead_share": (wall_traced - wall_plain) / wall_plain,
        "code.src_lines": src_lines(),
    }
    metrics = layer_metrics(spec["per_layer"], summary, extras)
    env = environment()
    digests = (_run_digest(o.digest for _, _, o in plain), _run_digest(o.digest for _, _, o in traced))
    lines = [f"# workload={args.workload} seed={args.seed} trace=1 "
             + " ".join(f"{k}={v}" for k, v in env.items()),
             f"# verdict digest untraced={digests[0]} traced={digests[1]} "
             f"({'equal' if digests[0] == digests[1] else 'DIFFERENT'})",
             f"# passes: {len(plain)} operations each, untraced {wall_plain:.2f} s, "
             f"traced {wall_traced:.2f} s"]
    if summary["missing"]:
        lines.append(f"# not found in the program, reported as 0: {', '.join(summary['missing'])}")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    for i in failures[:10]:
        a, b = (p[i][2] if i < len(p) else None for p in (plain, traced))
        lines.append(f"# FAILED operation {i}: untraced {a} traced {b}")
    lines += [f"# SELFTEST FAILED {f}" for f in selftest_failures]
    result = {"correct": not failures and not selftest_failures, "attempted": len(traced),
              "failed": len(failures), "metrics": metrics}
    emit(args, lines, {"environment": env, "digests": digests}, result)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "tropcur" / "__init__.py").is_file():
        sys.stderr.write(f"no tropcur sources under {SRC}: run from a checkout of the repository\n")
        return 2
    pin_environment(argv)
    if args.role == "run":
        # one CPU for the run and every process it starts, so that the speed
        # probe runs on the CPU the operations run on (see speed.py)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM unwind, so children are stopped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{args.role}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.role == "setup":
            role_setup(args, workdir)
        elif args.role in ("pass", "traced-pass"):
            role_pass(args, workdir, args.role == "traced-pass")
        else:
            role_run(args, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
