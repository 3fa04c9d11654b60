"""Traced-run wrappers around polybohr's public functions, and the per-layer table.

Layers are the modules cli, radii, extremal, mvseries and bounds.  Each public
function a module defines is replaced in *every* polybohr namespace that bound
it by name: cli imports radius_for, majorant_functional and sharpness_witness,
and extremal imports radius_for, so patching polybohr.radii alone would miss
every call made from those modules.

A wrapped call records a span (name, start, end, parent span, op id, error).
Three hot paths are recorded as counters instead, attributed to the open span:
majorant_functional (called once per verify grid point; calls and busy time),
RhoPolynomial.__call__ and MultiIndex.__new__ (calls only).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "radii", "extremal", "mvseries", "bounds")
# TruncatedSeries methods traced as mvseries spans, under these names
SERIES_METHODS = ("eval", "multiply", "directional_derivative", "compose_power_map",
                  "bohr_majorant_sum")
TIMED_COUNTERS = {"extremal.majorant_functional"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, error, foreign_leaf_time]
        self.stack = []
        self.op = -1
        self.calls = {}          # counter name -> calls
        self.busy = {}           # timed counter name -> seconds
        self.terms_built = 0

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def timed_counter(self, name, fn):
        layer = name.split(".")[0]
        spans, stack, calls, busy = self.spans, self.stack, self.calls, self.busy
        calls[name] = 0
        busy[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                busy[name] += dt
                if stack and spans[stack[-1]][0].split(".")[0] != layer:
                    spans[stack[-1]][6] += dt
        return wrapper

    def counter(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every public function of each layer in every namespace that bound it."""
        import polybohr
        modules = {layer: importlib.import_module(f"polybohr.{layer}") for layer in LAYERS}
        namespaces = [polybohr, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue  # a generator's span would cover only its creation
                name = f"{layer}.{attr}"
                wrapped = (self.timed_counter(name, fn) if name in TIMED_COUNTERS
                           else self.span(name, fn))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)

        series = modules["mvseries"].TruncatedSeries
        for attr in SERIES_METHODS:
            setattr(series, attr, self.span(f"mvseries.{attr}", getattr(series, attr)))
        init = self.span("mvseries.TruncatedSeries", series.__init__)

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.terms_built += len(obj.coeffs)
        series.__init__ = counted_init

        multi_index = modules["mvseries"].MultiIndex
        multi_index.__new__ = staticmethod(self.counter("mvseries.multiindex_new",
                                                        multi_index.__new__))
        poly = modules["radii"].RhoPolynomial
        poly.__call__ = self.counter("radii.RhoPolynomial.__call__", poly.__call__)

    # -- aggregation -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time covered by work of other layers.

        Children of the same layer are looked through, so cli.main's self time
        includes cmd_verify's own loop (and its private _functional_value calls)
        but not the radii or extremal calls made from it.
        """
        spans = self.spans
        foreign = [s[6] for s in spans]
        own = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):  # children come after their parent
            name, start, end, parent = spans[i][:4]
            own[i] = (end - start) - foreign[i]
            if parent >= 0:
                if spans[parent][0].split(".")[0] == name.split(".")[0]:
                    foreign[parent] += foreign[i]
                else:
                    foreign[parent] += end - start
        return own

    def table(self):
        """Per span name: calls, busy seconds, self seconds, calls that raised."""
        own = self.self_times()
        out = {}
        for rec, self_s in zip(self.spans, own):
            row = out.setdefault(rec[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += rec[2] - rec[1]
            row["self_s"] += self_s
            row["errors"] += rec[5] is not None
        for name, calls in self.calls.items():
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] = calls
            if name in self.busy:
                row["busy_s"] = row["self_s"] = self.busy[name]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, error, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")
            fh.write(json.dumps({"counters": self.calls, "counter_busy_s": self.busy,
                                 "terms_built": self.terms_built}) + "\n")


def layer_metrics(tracer, verify_grid_points):
    """The per-layer metrics of the benchmark from one traced pass.

    verify_grid_points is the sum of a_grid x rho_grid over the verify calls
    the pass made; extremal.majorant_functional.calls must equal it.
    """
    t = tracer.table()

    def row(name):
        return t.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})

    solves = row("radii.radius_for")["calls"]
    witness = row("extremal.sharpness_witness")
    metrics = {
        "cli.main.calls": row("cli.main")["calls"],
        "cli.main.busy_s": row("cli.main")["busy_s"],
        "cli.main.self_s": row("cli.main")["self_s"],
        "radii.radius_for.calls": solves,
        "radii.radius_for.busy_s": row("radii.radius_for")["busy_s"],
        "radii.poly_evals_per_solve":
            tracer.calls["radii.RhoPolynomial.__call__"] / solves if solves else 0.0,
        "extremal.majorant_functional.calls": row("extremal.majorant_functional")["calls"],
        "extremal.majorant_functional.busy_s": row("extremal.majorant_functional")["busy_s"],
        "extremal.sharpness_witness.busy_s": witness["busy_s"],
        "extremal.sharpness_witness.found_ratio":
            (witness["calls"] - witness["errors"]) / witness["calls"] if witness["calls"] else 0.0,
        "extremal.empirical_radius.busy_s": row("extremal.empirical_radius")["busy_s"],
        "extremal.extremal_functional_from_series.busy_s":
            row("extremal.extremal_functional_from_series")["busy_s"],
        "extremal.extremal_functional_from_series.self_s":
            row("extremal.extremal_functional_from_series")["self_s"],
        "extremal.extremal_series.busy_s": row("extremal.extremal_series")["busy_s"],
        "mvseries.compose_power_map.busy_s": row("mvseries.compose_power_map")["busy_s"],
        "mvseries.directional_derivative.busy_s": row("mvseries.directional_derivative")["busy_s"],
        "mvseries.eval.calls": row("mvseries.eval")["calls"],
        "mvseries.eval.busy_s": row("mvseries.eval")["busy_s"],
        "mvseries.bohr_majorant_sum.busy_s": row("mvseries.bohr_majorant_sum")["busy_s"],
        "mvseries.multiindex_new.calls": tracer.calls["mvseries.multiindex_new"],
        "mvseries.terms_built": tracer.terms_built,
        "bounds.zero_multiplicity_bound_check.busy_s":
            row("bounds.zero_multiplicity_bound_check")["busy_s"],
        "bounds.coefficient_bound_check.busy_s": row("bounds.coefficient_bound_check")["busy_s"],
    }
    self_check = metrics["extremal.majorant_functional.calls"] == verify_grid_points
    return metrics, self_check
