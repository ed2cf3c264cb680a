"""Command line front end: one subcommand per theorem cluster.

    tropcur run scene.json                  scene-driven batch verification
    tropcur check-positivity --form f.json --tier weak
    tropcur decompose --current T.json --fan fan.json
    tropcur tropicalize --mode lift --current T.json --fan fan.json
    tropcur integrate --field field.json --fan fan.json
    tropcur el-mir --current T.json --fan fan.json --strata 1
    tropcur verify-correspondence --count 20
    tropcur counterexamples

Reports are JSON (default) or CSV, byte-identical across runs for a
fixed seed and tolerance.  Every subcommand runs as a scene through
``scenes.run``: exit code 2 on an input error or a task that ends in an
error record, else 1 on an expectation mismatch, else 0.
"""

import argparse
import json
import sys

from . import formats, scenes
from .errors import ParseError, TropcurError, ValidationError
from .fans import orthant_fan
from .formats import load_json


def _emit(report, fmt, out):
    if fmt == "csv":
        text = scenes.report_to_csv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_GLOBAL_DEFAULTS = {"tol": 1e-8, "seed": 0, "samples": 25, "format": "json",
                    "out": None, "timings": False}


def main(argv=None):
    # SUPPRESS keeps the subparser from clobbering flags given before the
    # subcommand; missing values are filled from _GLOBAL_DEFAULTS after parsing
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--samples", type=int)
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--out")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte-identity)")
    # the chart of a subcommand that reads a current or a field: the fan
    # file's, or the orthant's of the given rank, at its largest cone
    charted = argparse.ArgumentParser(add_help=False)
    charted.add_argument("--fan")
    charted.add_argument("--rank", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="tropcur", parents=[common],
        description="positivity, tropicalization and currents on toric charts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a scene file")
    p_run.add_argument("scene")

    p_pos = sub.add_parser("check-positivity", parents=[common],
                           help="fiber-form positivity verdict")
    p_pos.add_argument("--form", required=True)
    p_pos.add_argument("--tier", default="positive",
                       choices=("strong", "positive", "weak"))
    p_pos.add_argument("--pool-size", type=int, default=2000)

    p_dec = sub.add_parser("decompose", parents=[common, charted],
                           help="canonical stratum decomposition")
    p_dec.add_argument("--current", required=True)

    p_trop = sub.add_parser("tropicalize", parents=[common, charted],
                            help="pushforward or lift")
    p_trop.add_argument("--mode", choices=("push", "lift"), required=True)
    p_trop.add_argument("--current", help="Lagerberg current file (lift)")
    p_trop.add_argument("--shadow", help="shadow current file (push)")

    p_int = sub.add_parser("integrate", parents=[common, charted],
                           help="top-degree integral, both routes")
    p_int.add_argument("--field", required=True)
    p_int.add_argument("--side", choices=("tropical", "complex", "both"),
                       default="both")

    p_el = sub.add_parser("el-mir", parents=[common, charted],
                          help="extension by zero across strata closures")
    p_el.add_argument("--current", required=True)
    p_el.add_argument("--strata", default="1",
                      help="semicolon-separated strata, comma-separated axes (1-based)")

    p_ver = sub.add_parser("verify-correspondence", parents=[common],
                           help="random round-trip suite")
    p_ver.add_argument("--count", type=int, default=20)

    sub.add_parser("counterexamples", parents=[common],
                   help="run the counterexample gallery")

    args = parser.parse_args(argv)
    given = {key: getattr(args, key) for key in ("tol", "seed", "samples")
             if hasattr(args, key)}
    for key, val in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    try:
        report, code = scenes.run(_scene(args, given), timings=args.timings)
        _emit(report, args.format, args.out)
    except (ParseError, ValidationError, OSError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2
    except TropcurError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 2
    return code


def _scene(args, given):
    """The scene a command line stands for: a scene file, or one task per
    subcommand (one per gallery entry for ``counterexamples``) over the
    objects its files name.  ``given`` holds the global flags set on the
    command line, which override a scene file's own values.
    """
    if args.command == "run":
        scene = scenes.parse_scene(load_json(args.scene))
        for key, val in given.items():
            setattr(scene, key, val)
        return scene
    fan = chart = None
    if hasattr(args, "rank"):       # a subcommand with the chart flags
        if args.fan:
            fan = formats.fan_from_json(load_json(args.fan))
        else:
            fan = orthant_fan(args.rank)
        chart = scenes.top_chart(fan)

    def current(path, flag):
        if not path:
            raise ValidationError(f"{args.command} needs {flag}")
        return formats.current_from_json(load_json(path), chart)

    objects = {}
    if args.command == "check-positivity":
        objects["form"] = formats.fiber_form_from_json(load_json(args.form))
        tasks = [{"op": "positivity", "form": "form", "tier": args.tier,
                  "pool_size": args.pool_size}]
    elif args.command == "decompose":
        objects["T"] = current(args.current, "--current")
        tasks = [{"op": "decompose", "current": "T"}]
    elif args.command == "tropicalize" and args.mode == "push":
        objects["S"] = current(args.shadow, "--shadow")
        tasks = [{"op": "push", "shadow": "S"}]
    elif args.command == "tropicalize":
        objects["T"] = current(args.current, "--current")
        tasks = [{"op": "lift", "current": "T"}]
    elif args.command == "integrate":
        objects["field"] = formats.field_from_json(load_json(args.field), chart)
        tasks = [{"op": "integrate", "field": "field", "side": args.side}]
        if args.side == "both":
            tasks[0]["expect"] = {"agree_within_2tol": True}
    elif args.command == "el-mir":
        objects["T"] = current(args.current, "--current")
        strata = [[i for i in grp.split(",") if i] for grp in args.strata.split(";") if grp]
        tasks = [{"op": "el_mir", "current": "T", "strata": strata}]
    elif args.command == "verify-correspondence":
        tasks = [{"op": "round_trip", "count": args.count, "expect": {"ok": True}}]
    else:
        tasks = [{"op": "counterexample", "id": name, "name": name, "expect": expect}
                 for name, (_, expect) in scenes.COUNTEREXAMPLES.items()]
    return scenes.Scene(fan, chart, objects, tasks,
                        tol=args.tol, seed=args.seed, samples=args.samples)


if __name__ == "__main__":
    sys.exit(main())
