"""Outside-in call tracer for the tropcur benchmark.

The tracer never edits the program.  It wraps listed public functions and
methods of ``tropcur`` from the outside: every ``tropcur.*`` module
attribute bound to a listed function is replaced by one shared wrapper, so
calls through a module's own ``from .x import f`` copy are seen too.
Methods are wrapped once on their class.  ``scipy.optimize.linprog`` is
wrapped as the LP layer.

Each wrapped call records a span ``[name, parent index, start, end,
outermost]`` in memory; ``outermost`` is false when a span of the same name
is already open, so ``total_s`` never counts a recursive call twice.
Self time is a span's duration minus the durations of its direct child
spans, which in one thread never overlap.  For functions with an argument
key, the key digest of every call is kept in call order, so a caller can
compute ``repeat_share`` over a whole run, also across processes.
"""

import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter


def _self_key(self, *args, **kwargs):
    return self.canonical_key()


def _bounds_key(self, a):
    return self.canonical_key(), tuple(a)


def _fan_key(cone_generators, rank=None):
    if not isinstance(cone_generators, (list, tuple)):
        return None         # an iterator: reading it here would consume it
    return tuple(tuple(tuple(g) for g in c) for c in cone_generators), rank


def _pool_key(n, p, size=10_000, seed=0, algebra="lagerberg", hints=()):
    return n, p, size, seed, algebra, tuple(repr(sorted(h.coeff.items())) for h in hints)


def _mass_key(T, tol=1e-6):
    return T.n, T.p, T.canonical_key(), tol


# (module, attribute path in the module, argument key or None).  The span
# name is "<module>.<attribute path>".
TARGETS = (
    ("exact", "psd_decompose", None),
    ("exact", "solve", None),
    ("exact", "nullspace", None),
    ("polyhedra", "Polyhedron.is_empty", _self_key),
    ("polyhedra", "Polyhedron.linear_bounds", _bounds_key),
    ("polyhedra", "Polyhedron.recession_generators", _self_key),
    ("polyhedra", "Polyhedron.affine_hull", _self_key),
    ("polyhedra", "parametrize", None),
    ("fans", "validate_fan", _fan_key),
    ("fiber", "positivity_verdict", None),
    ("fiber", "strong_generator_pool", _pool_key),
    ("fiber", "strong_generator", None),
    ("fiber", "wedge", None),
    ("fiber", "dual_pairing", None),
    ("fiber", "reverify", None),
    ("coeffs", "CoefficientFn.eval_np", None),
    ("quadrature", "adaptive_box", None),
    ("quadrature", "adaptive_simplex", None),
    ("fields", "integrate_top", None),
    ("fields", "differentiate", None),
    ("measures", "integrate_against", None),
    ("currents", "positivity_check", None),
    ("currents", "closedness_test", None),
    ("currents", "c_finite_test", None),
    ("currents", "canonical_decomposition", None),
    ("currents", "mass_estimate", _mass_key),
    ("currents", "evaluate", None),
    ("correspond", "lift", None),
    ("correspond", "push_forward", None),
    ("scenes", "run_task", None),
    ("cli", "main", None),
)

# the functions whose answers the end-to-end verdict counts cover
VERDICT_FUNCTIONS = ("fiber.positivity_verdict", "currents.positivity_check")


def _digest(key):
    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


class Tracer:
    """Spans, argument-key digests and verdict counts of one process."""

    def __init__(self, record_spans=True):
        self.record_spans = record_spans
        self.spans = []
        self.keys = {}
        self.verdicts = Counter()
        self.conic_yes = 0
        self.missing = []
        self._stack = []
        self._open = Counter()

    def _on_result(self, name, result):
        if name not in VERDICT_FUNCTIONS:
            return
        self.verdicts[result.answer] += 1
        cert = getattr(result, "certificate", None)
        if (name == "fiber.positivity_verdict" and result.tier == "strong"
                and result.answer == "yes" and cert and cert[0] == "conic"):
            self.conic_yes += 1

    def wrap(self, name, fn, key_fn=None):
        keys = self.keys.setdefault(name, []) if key_fn is not None else None
        signature = inspect.signature(key_fn) if key_fn is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    keys.append(_digest(key_fn(*bound.args, **bound.kwargs)))
                except Exception:  # noqa: BLE001 - the call itself reports bad input
                    keys.append(_digest(("unkeyed", len(keys))))
            if not self.record_spans:
                result = fn(*args, **kwargs)
                self._on_result(name, result)
                return result
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0, self._open[name] == 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
            self._on_result(name, result)
            return result

        return wrapper

    # --- aggregation --------------------------------------------------------
    def stats(self):
        """{name: {"calls", "total_s", "self_s"}} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, parent, start, end, outermost) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i]
            if outermost:
                s["total_s"] += end - start
        return out

    def summary(self):
        return {"stats": self.stats(), "keys": self.keys,
                "verdicts": dict(self.verdicts), "conic_yes": self.conic_yes,
                "missing": self.missing}

    def dump(self, path, overhead_s=0.0):
        """Write the summary, then the raw spans, as two lines of JSON.

        The summary's ``tracer_s`` is ``overhead_s`` plus the time taken here.
        """
        t0 = time.perf_counter()
        spans = json.dumps(self.spans)
        summary = self.summary()
        summary["tracer_s"] = overhead_s + time.perf_counter() - t0
        with open(path, "w") as fh:
            fh.write(json.dumps(summary) + "\n" + spans + "\n")


def _tropcur_modules():
    import tropcur
    for info in pkgutil.iter_modules(tropcur.__path__):
        importlib.import_module(f"tropcur.{info.name}")
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "tropcur" or n.startswith("tropcur."))]


def _rebind(modules, orig, wrapper):
    """Point every module attribute bound to ``orig`` at ``wrapper``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer, only=None):
    """Wrap the listed functions (all of TARGETS, or the names in ``only``).

    A target the program no longer has is skipped and listed in
    ``tracer.missing``; its metrics then read zero.
    """
    modules = _tropcur_modules()
    targets = [(f"{m}.{path}", m, path, key) for m, path, key in TARGETS]
    formats = sys.modules["tropcur.formats"]
    targets += [("formats.parse", "formats", attr, None) for attr in sorted(vars(formats))
                if attr.endswith("_from_json") and callable(getattr(formats, attr))]
    for name, modname, path, key in targets:
        if only is not None and name not in only:
            continue
        owner = sys.modules.get(f"tropcur.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            tracer.missing.append(name)
            continue
        wrapper = tracer.wrap(name, orig, key)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(modules, orig, wrapper)
    if only is None or "lp.linprog" in only:
        import scipy.optimize
        scipy.optimize.linprog = tracer.wrap("lp.linprog", scipy.optimize.linprog)
