"""Scene runner: batch verification jobs with machine-readable reports.

A scene is a JSON object with a fan, named objects (forms, currents,
fields, complexes, shadows) and an ordered task list.  Each task runs one
verification and produces one report record with its verdict and any
witness or certificate; tasks may declare an ``expect`` mapping whose
entries are compared against the record.  Reports are deterministic for
a fixed seed and tolerance (timings are omitted unless requested).  Every
command-line subcommand runs as a scene through :func:`run`.  Each op
imports the model modules it runs, so a scene pays only for its own ops.
"""

import json
import math
import time
import types

from . import formats
from .errors import ParseError, TropcurError, ValidationError, Value
from .formats import jsonable, load_json


def _count(x):
    """A non-negative whole number: a count, a pool size or a sample count."""
    n = formats._parse_int(x)
    if n < 0:
        raise ValueError(f"{x!r} is negative")
    return n


def _tolerance(x):
    t = float(x)
    if isinstance(x, bool) or not (math.isfinite(t) and t >= 0):
        raise ValueError(f"tolerance {x!r} is not a finite non-negative number")
    return t


class Scene(Value):
    """Parsed scene: fan, chart, named objects and ordered tasks.

    ``fan`` and ``chart`` are None for a scene whose tasks need no chart.
    ``tol``, ``seed`` and ``samples`` are read on construction, from a
    scene file and from command-line flags alike.
    """
    __slots__ = _fields = ("fan", "chart", "objects", "tasks", "tol", "seed", "samples")

    def __init__(self, fan, chart, objects, tasks, tol=1e-8, seed=0, samples=25):
        try:
            tol, seed, samples = _tolerance(tol), formats._parse_int(seed), _count(samples)
        except (TypeError, ValueError, ParseError) as err:
            raise ValidationError(f"scene 'tol', 'seed' or 'samples' is malformed: {err}") from err
        super().__init__(fan, chart, objects, tasks, tol, seed, samples)


def top_chart(fan):
    """The chart of the fan's first cone of largest dimension."""
    return fan.toric_chart(max(range(len(fan)), key=lambda i: fan.cones[i].dim))


def parse_scene(data):
    if not isinstance(data, dict) or "fan" not in data:
        raise ParseError("scene needs a 'fan' entry")
    fan_data = data["fan"]
    if isinstance(fan_data, str):
        fan_data = load_json(fan_data)
    fan = formats.fan_from_json(fan_data)
    chart_id = data.get("chart")
    if chart_id is None:
        chart = top_chart(fan)
    elif isinstance(chart_id, int) and 0 <= chart_id < len(fan):
        chart = fan.toric_chart(chart_id)
    else:
        raise ValidationError(f"no cone {chart_id!r} in a fan of {len(fan)} cones")
    objects_data = data.get("objects", {})
    tasks = data.get("tasks", [])
    if not isinstance(objects_data, dict) or not isinstance(tasks, list):
        raise ParseError("scene 'objects' must be a JSON object and 'tasks' a list")
    objects = {}
    for name, od in objects_data.items():
        kind = od.get("type") if isinstance(od, dict) else None
        if kind == "form":
            objects[name] = formats.fiber_form_from_json(od)
        elif kind == "current":
            objects[name] = formats.current_from_json(od, chart)
        elif kind == "field":
            objects[name] = formats.field_from_json(od, chart)
        elif kind == "complex":
            objects[name] = formats.weighted_complex_from_json(od)
        elif kind == "gallery":
            objects[name] = _gallery_object(od.get("name"))
        else:
            raise ValidationError(f"object {name!r} has unknown type {kind!r}")
    return Scene(fan, chart, objects, tasks, tol=data.get("tol", 1e-8),
                 seed=data.get("seed", 0), samples=data.get("samples", 25))


def _gallery_object(name):
    """The form, current or complex a zero-argument gallery builder makes."""
    from . import gallery
    from .currents import LagerbergCurrent, WeightedComplex
    from .fiber import ComplexFiberForm, LagerbergFiberForm
    builder = getattr(gallery, name, None) if isinstance(name, str) else None
    code = builder.__code__ if isinstance(builder, types.FunctionType) else None
    # every parameter, positional or keyword-only, has a default
    if (code is not None and not name.startswith("_")
            and code.co_argcount + code.co_kwonlyargcount
            == len(builder.__defaults__ or ()) + len(builder.__kwdefaults__ or {})):
        obj = builder()
        if isinstance(obj, (LagerbergFiberForm, ComplexFiberForm, LagerbergCurrent,
                            WeightedComplex)):
            return obj
    raise ValidationError(f"unknown gallery object {name!r}")


def _field(task, key, convert, default=None):
    """A task field, converted; a malformed one, or a missing one without a
    default, is a ValidationError."""
    if key not in task:
        if default is None:
            raise ValidationError(f"task op {task.get('op')!r} needs a {key!r} field")
        return default
    try:
        return convert(task[key])
    except (TypeError, ValueError, ParseError) as err:
        raise ValidationError(f"task field {key!r} is malformed: {err}") from err


def _object(scene, task, key, *kinds):
    """The scene object a task field names; one of another kind than
    ``kinds`` is a ValidationError."""
    name = _field(task, key, str)
    if name not in scene.objects:
        raise ValidationError(f"task references unknown object {name!r}")
    obj = scene.objects[name]
    if not isinstance(obj, kinds):
        raise ValidationError(f"task field {key!r} needs a "
                              f"{' or '.join(kind.__name__ for kind in kinds)}, but "
                              f"object {name!r} is a {type(obj).__name__}")
    return obj


def _fracs(xs):
    return tuple(map(formats._parse_frac, formats._array(xs)))


def run_task(scene, task):
    """One task's record data; raises a TropcurError when the task fails."""
    if not isinstance(task, dict):
        raise ValidationError(f"a task must be a JSON object, not {task!r}")
    if not isinstance(task.get("expect", {}), dict):
        raise ValidationError(f"task field 'expect' must be a JSON object, not {task['expect']!r}")
    op = task.get("op")
    tol, seed, samples = scene.tol, scene.seed, scene.samples
    if op == "limit_point":
        p = _field(task, "point", _fracs)
        v = _field(task, "direction", _fracs)
        pt = scene.fan.limit_point(p, v)
        return {"stratum": pt.stratum,
                "stratum_generators": [list(g) for g in
                                       scene.fan.cones[pt.stratum].generators],
                "coords": [formats._frac_str(c) for c in pt.coords]}
    if op == "locate_relint":
        v = _field(task, "vector", _fracs)
        cid = scene.fan.locate_relint(v)
        return {"cone": cid,
                "generators": [list(g) for g in scene.fan.cones[cid].generators]}
    if op == "toric_chart":
        cone = _field(task, "cone", formats._parse_int)
        if not 0 <= cone < len(scene.fan):
            raise ValidationError(f"no cone {cone} in a fan of {len(scene.fan)} cones")
        return formats.chart_to_json(scene.fan.toric_chart(cone))
    if op == "positivity":
        from .fiber import ComplexFiberForm, LagerbergFiberForm, positivity_verdict, reverify
        form = _object(scene, task, "form", LagerbergFiberForm, ComplexFiberForm)
        tier = task.get("tier", "positive")
        v = positivity_verdict(form, tier, seed=seed,
                               pool_size=_field(task, "pool_size", _count, 400))
        return {"tier": tier, "verdict": v.answer, "reason": v.reason,
                "witness": jsonable(v.witness), "certificate": jsonable(v.certificate),
                "reverified": reverify(form, v)}
    if op == "pairing":
        from .fiber import ComplexFiberForm, LagerbergFiberForm, dual_pairing
        a = _object(scene, task, "left", LagerbergFiberForm, ComplexFiberForm)
        b = _object(scene, task, "right", LagerbergFiberForm, ComplexFiberForm)
        return {"value": jsonable(dual_pairing(a, b))}
    if op == "current_positivity":
        from .currents import LagerbergCurrent, positivity_check
        T = _object(scene, task, "current", LagerbergCurrent)
        v = positivity_check(T, samples=samples, seed=seed)
        return {"verdict": v.answer, "reason": v.reason, "witness": jsonable(v.witness)}
    if op == "closedness":
        from .currents import LagerbergCurrent, closedness_test
        T = _object(scene, task, "current", LagerbergCurrent)
        forms = _field(task, "forms", _count, 25)
        if forms < 1:
            raise ValidationError(f"task field 'forms' is {forms}, not at least 1")
        v = closedness_test(T, test_basis_size=forms, tol=tol, seed=seed)
        return {"verdict": "closed" if v.yes else "not_closed",
                "residual": v.residual, "exact": v.exact}
    if op == "c_finite":
        from .currents import LagerbergCurrent, c_finite_test
        T = _object(scene, task, "current", LagerbergCurrent)
        v = c_finite_test(T)
        return {"verdict": v.answer, "witness": jsonable(v.witness)}
    if op == "decompose":
        from .currents import LagerbergCurrent, canonical_decomposition, resum
        T = _object(scene, task, "current", LagerbergCurrent)
        parts = canonical_decomposition(T, samples=samples, seed=seed)
        exact = resum(parts, T) == T
        return {"strata": sorted(jsonable(sorted(i + 1 for i in M)) for M in parts),
                "resum_exact": exact}
    if op == "push":
        from .correspond import InvariantComplexCurrent, push_forward
        S = _object(scene, task, "shadow", InvariantComplexCurrent)
        T = push_forward(S)
        return {"result": formats.current_to_json(T)}
    if op == "lift":
        from .correspond import lift, push_forward
        from .currents import LagerbergCurrent
        T = _object(scene, task, "current", LagerbergCurrent)
        S = lift(T, samples=samples, seed=seed)
        back = push_forward(S)
        return {"round_trip_exact": back == T,
                "shadow_keys": sorted(formats._key_to_str(I, J) for (I, J) in S.shadows),
                "result": formats.current_to_json(S, shadow=True)}
    if op == "round_trip":
        from .correspond import round_trip_verify
        from .gallery import random_closed_positive_suite
        suite = random_closed_positive_suite(count=_field(task, "count", _count, 8), seed=seed)
        rep = round_trip_verify(suite, seed=seed)
        return {"total": rep.total, "failures": jsonable(rep.failures),
                "ok": rep.ok}
    if op == "balancing":
        from .currents import WeightedComplex, balancing_check
        C = _object(scene, task, "complex", WeightedComplex)
        v = balancing_check(C)
        return {"verdict": "balanced" if v.yes else "unbalanced",
                "witness": jsonable(v.witness)}
    if op == "el_mir":
        from .currents import LagerbergCurrent, closedness_test, extend_by_zero
        T = _object(scene, task, "current", LagerbergCurrent)
        ext = extend_by_zero(T, seed=seed)
        cv = closedness_test(ext, tol=tol, seed=seed)
        return {"extended": True, "closed": cv.yes, "residual": cv.residual}
    if op == "integrate":
        from .fields import LagerbergFormField, integrate_top
        fld = _object(scene, task, "field", LagerbergFormField)
        side = task.get("side", "both")
        if side not in ("tropical", "complex", "both"):
            raise ValidationError(f"unknown integration side {side!r}")
        rec = {route: integrate_top(fld, route, tol=tol)
               for route in ("tropical", "complex") if side in (route, "both")}
        if side == "both":
            rec["agree_within_2tol"] = abs(rec["tropical"] - rec["complex"]) <= 2 * tol
        return rec
    if op == "counterexample":
        name = _field(task, "name", str)
        if name not in COUNTEREXAMPLES:
            raise ValidationError(f"unknown counterexample {name!r}")
        return COUNTEREXAMPLES[name][0](tol, seed, samples)
    raise ValidationError(f"unknown task op {op!r}")


# --- the counterexample gallery ----------------------------------------------------

def _density_exp_x2(tol, seed, samples):
    from .currents import c_finite_test, closedness_test, positivity_check
    from .gallery import positive_not_liftable
    T = positive_not_liftable()
    v = positivity_check(T, samples=samples, seed=seed)
    cf = c_finite_test(T)
    cv = closedness_test(T, tol=tol, seed=seed, test_basis_size=10)
    return {"positive": v.answer, "c_finite": cf.answer,
            "c_finite_witness": jsonable(cf.witness),
            "closed": "closed" if cv.yes else "not_closed",
            "closedness_residual": cv.residual}


def _density_exp_2x(tol, seed, samples):
    from .currents import c_finite_test, positivity_check
    from .gallery import positive_not_positively_liftable
    T = positive_not_positively_liftable()
    return {"positive": positivity_check(T, samples=samples, seed=seed).answer,
            "c_finite": c_finite_test(T).answer}


def _evaluator_exp_2ex(tol, seed, samples):
    from .correspond import lift
    from .currents import closedness_test, positivity_check
    from .gallery import closed_not_positive
    T = closed_not_positive()
    cv = closedness_test(T, tol=tol, seed=seed)
    v = positivity_check(T, samples=samples, seed=seed)
    try:
        lift(T, samples=4, seed=seed)
        lift_rejected = False
    except TropcurError:
        lift_rejected = True
    return {"closed": "closed" if cv.yes else "not_closed",
            "positive": v.answer,
            "negative_value": jsonable(v.witness[2]) if v.witness else None,
            "lift_rejected": lift_rejected}


def _kernel_point(tol, seed, samples):
    from .correspond import kernel_point_current, push_forward
    from .fans import orthant_fan
    fan1 = orthant_fan(1)
    K = kernel_point_current(fan1.toric_chart(fan1.cone_id([(1,)])))
    return {"nonzero": not K.is_zero(), "pushforward_zero": push_forward(K).is_zero()}


def _degenerate_form_current(tol, seed, samples):
    from .currents import positivity_check
    from .gallery import degenerate_form_current
    v = positivity_check(degenerate_form_current(), samples=samples, seed=seed)
    return {"positive": v.answer, "witness_kind": v.witness[0] if v.witness else None}


def _derivative_atom(tol, seed, samples):
    from .currents import positivity_check
    from .gallery import derivative_atom_current
    T = derivative_atom_current()
    return {"is_measure_class": T.is_measure_class(),
            "positive": positivity_check(T, samples=4, seed=seed).answer}


# name -> (record builder, the published outcome each record must match)
COUNTEREXAMPLES = {
    "density_exp_x2": (_density_exp_x2, {"positive": "yes", "c_finite": "no",
                                         "closed": "not_closed"}),
    "density_exp_2x": (_density_exp_2x, {"c_finite": "no"}),
    "evaluator_exp_2ex": (_evaluator_exp_2ex, {"closed": "closed", "positive": "no",
                                               "lift_rejected": True}),
    "kernel_point": (_kernel_point, {"nonzero": True, "pushforward_zero": True}),
    "degenerate_form_current": (_degenerate_form_current, {"positive": "no"}),
    "derivative_atom": (_derivative_atom, {"is_measure_class": False}),
}


def run(scene, timings=False):
    """Execute a scene; returns (report dict, exit code).

    The exit code is 2 if a task ended in an error record, else 1 if a
    task missed its expectations, else 0.
    """
    records = []
    errors = mismatches = 0
    for idx, task in enumerate(scene.tasks):
        t0 = time.perf_counter()
        task_data = task if isinstance(task, dict) else {}
        record = {"id": task_data.get("id", idx), "op": task_data.get("op")}
        try:
            record.update(jsonable(run_task(scene, task)))
            record["status"] = "ok"
        except TropcurError as err:
            record["status"] = "error"
            record["error"] = type(err).__name__
            record["message"] = str(err)
            record["payload"] = jsonable(err.payload)
            errors += 1
        if timings:
            record["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        else:
            record["timing_ms"] = None
        expect = task_data.get("expect")
        if isinstance(expect, dict) and expect:
            bad = {k: (record.get(k), v) for k, v in expect.items()
                   if jsonable(record.get(k)) != jsonable(v)}
            record["expected_ok"] = not bad
            if bad:
                record["expect_mismatch"] = jsonable(bad)
                mismatches += 1
        records.append(record)
    report = {"seed": scene.seed, "tol": scene.tol, "tasks": records}
    return report, (2 if errors else 1 if mismatches else 0)


def report_to_csv(report):
    import csv
    import io
    buf = io.StringIO()
    fields = sorted({k for rec in report["tasks"] for k in rec})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for rec in report["tasks"]:
        writer.writerow({k: json.dumps(rec.get(k), sort_keys=True)
                         if isinstance(rec.get(k), (dict, list)) else rec.get(k)
                         for k in fields})
    return buf.getvalue()
