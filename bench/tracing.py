"""Layer spans recorded from outside the program.

`Tracer.install()` replaces public functions of the fracsymp modules with
timing wrappers, in the namespace each caller looks them up in:

* every public function a module imported by name from another fracsymp
  module (`symplectic.simplify`, `hall.fj_iterate`, `cli.render_json`, ...),
  so each such call is a layer crossing;
* the named entry points other modules reach through a module attribute
  (`cli` calls `symplectic.fj_iterate`, `dynamics.integrate`, ...), plus the
  steps inside `symplectic` and `dynamics` the per-layer metrics name;
* the right-hand-side closures `FractionalIVP.compiled_rhs` returns (always
  called inside `integrate`), and `Trajectory.to_csv`.

Spans live on an in-memory stack.  When one closes, its duration and its
self time (duration minus the time of the spans opened inside it) are added
to the totals of its name.  A call to a name already on top of the stack
(recursion inside a layer) opens no new span.  `uninstall()` restores every
original, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import os
import time
import types

from fracsymp import cli, dynamics, expr, frac, hall, modelfile, serialize, symplectic

MODULES = (cli, modelfile, symplectic, expr, frac, dynamics, hall, serialize)

# entry points wrapped in their defining module's namespace
OWN = {
    cli: ("main",),
    modelfile: ("parse_model_file",),
    symplectic: ("fj_iterate", "assemble_form", "invert_form", "extend_model",
                 "fractional_equations_of_motion"),
    dynamics: ("integrate", "simulate_landau", "measure_frequency"),
    hall: ("noncommutativity_report", "estimate_alpha_small",
           "estimate_alpha_near_one"),
    frac: ("gamma", "mrl_derivative_grid"),
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _csv_bytes(args, result):
    return os.path.getsize(args[1]) + os.path.getsize(result)


# counters fed from a span's arguments and result: name -> (counter, update)
COUNTERS = {
    "symplectic.invert_form": ("symplectic.max_form_dim",
                               lambda a, r, old: max(old, a[0].dimension)),
    "symplectic.fj_iterate": ("symplectic.constraint_levels",
                              lambda a, r, old: old + len(r[0].levels)),
    "dynamics.integrate": ("dynamics.steps",
                           lambda a, r, old: old + len(r.times) - 1),
    "dynamics.to_csv": ("dynamics.csv_bytes",
                        lambda a, r, old: old + _csv_bytes(a, r)),
    "serialize.render_json": ("serialize.json_bytes",
                              lambda a, r, old: old + len(r.encode())),
    "frac.mrl_derivative_grid": ("frac.grid_nodes",
                                 lambda a, r, old: old + len(a[0].xs)),
}


class Tracer:
    def __init__(self):
        self.stack = []     # open spans: [name, time spent in child spans]
        self.totals = {}    # name -> [calls, total seconds, self seconds]
        self.counters = {}
        self._saved = []    # (owner, attribute, original)

    def wrap(self, name: str, fn):
        stack, counters = self.stack, self.counters
        rec = self.totals.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0]
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - span[1]
                if stack:
                    stack[-1][1] += dt
            if counter is not None:
                key, update = counter
                counters[key] = update(args, result, counters.get(key, 0))
            return result

        return traced

    def wrap_rhs(self, fn):
        """A leaner span for the right-hand-side closures, which run about
        10^6 times a pass and cost well under a microsecond each: no stack
        entry of its own, so the wrapper's cost charged to the enclosing
        `integrate` span stays small.  Spans opened inside the closure are
        charged to the parent meanwhile; they are moved to this span."""
        stack = self.stack
        rec = self.totals.setdefault("dynamics.rhs", [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(y):
            parent = stack[-1]
            before = parent[1]
            t0 = clock()
            result = fn(y)
            dt = clock() - t0
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - (parent[1] - before)
            parent[1] = before + dt
            return result

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        targets = []
        for mod in MODULES:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ != mod.__name__
                        and obj.__module__.startswith("fracsymp.")):
                    targets.append((mod, attr, "%s.%s" % (_layer(obj.__module__),
                                                          obj.__name__)))
        for mod, attrs in OWN.items():
            for attr in attrs:
                targets.append((mod, attr, "%s.%s" % (_layer(mod.__name__), attr)))
        for owner, attr, name in targets:
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._set(dynamics.Trajectory, "to_csv",
                  self.wrap("dynamics.to_csv", dynamics.Trajectory.to_csv))
        compiled_rhs = dynamics.FractionalIVP.compiled_rhs

        def traced_rhs(ivp):
            return [self.wrap_rhs(f) for f in compiled_rhs(ivp)]

        self._set(dynamics.FractionalIVP, "compiled_rhs", traced_rhs)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_s(self, *names) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    c = tr.counters
    return {
        "symplectic.invert_form_s": tr.self_s("symplectic.invert_form"),
        "symplectic.invert_form_calls": tr.calls("symplectic.invert_form"),
        "symplectic.max_form_dim": c.get("symplectic.max_form_dim", 0),
        "symplectic.assemble_form_s": tr.self_s("symplectic.assemble_form"),
        "symplectic.extend_model_s": tr.self_s("symplectic.extend_model"),
        "symplectic.fj_iterate_s": tr.self_s("symplectic.fj_iterate"),
        "symplectic.constraint_levels": c.get("symplectic.constraint_levels", 0),
        "symplectic.eom_s": tr.self_s("symplectic.fractional_equations_of_motion"),
        "expr.simplify_s": tr.self_s("expr.simplify"),
        "expr.simplify_calls": tr.calls("expr.simplify"),
        "expr.diff_calls": tr.calls("expr.diff"),
        "expr.compile_expr_s": tr.self_s("expr.compile_expr"),
        "expr.to_text_s": tr.self_s("expr.to_text"),
        "dynamics.integrate_self_s": tr.self_s("dynamics.integrate"),
        "dynamics.rhs_s": tr.self_s("dynamics.rhs"),
        "dynamics.rhs_calls": tr.calls("dynamics.rhs"),
        "dynamics.steps": c.get("dynamics.steps", 0),
        "dynamics.to_csv_s": tr.self_s("dynamics.to_csv"),
        "dynamics.csv_bytes": c.get("dynamics.csv_bytes", 0),
        "dynamics.measure_frequency_s": tr.self_s("dynamics.measure_frequency"),
        "frac.mrl_derivative_grid_s": tr.self_s("frac.mrl_derivative_grid"),
        "frac.grid_nodes": c.get("frac.grid_nodes", 0),
        "frac.gamma_calls": tr.calls("frac.gamma"),
        "hall.report_s": tr.self_s("hall.noncommutativity_report"),
        "hall.estimate_s": tr.self_s("hall.estimate_alpha_small",
                                     "hall.estimate_alpha_near_one"),
        "modelfile.parse_s": tr.self_s("modelfile.parse_model_file"),
        "modelfile.parse_calls": tr.calls("modelfile.parse_model_file"),
        "cli.self_s": tr.self_s("cli.main"),
        "serialize.render_json_s": tr.self_s("serialize.render_json"),
        "serialize.json_bytes": c.get("serialize.json_bytes", 0),
    }
