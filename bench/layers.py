"""Per-layer tracing of natstate from outside its source tree.

The layers are natstate's modules.  :func:`instrument` wraps the public
functions and methods of each module in place (module attributes, class
attributes, every re-export and the ``EXPERIMENTS`` table) so that each call
becomes a span of a named *group*, such as ``sysop.poly`` or
``seminorm.window``.  Spans are aggregated per group as they close, never
stored one by one: ``norm-axioms`` opens over a million of them.

A group's self time is the duration of its spans minus the part covered by
wrapped child spans.  A group's call count counts *entries*: a call made
from inside a span of the same group is not counted again, so ``apply`` ->
``apply_at`` is one polynomial call and ``past_norm`` -> ``seminorm`` is
one window-norm call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("timegrid", "seminorm", "sysop", "kernel", "states", "calculus",
           "probes", "catalog", "experiments", "cli")

# Dunder methods that do a layer's work; every other dunder is left alone.
WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__",
                   "__neg__"}

# Private names wrapped anyway because a metric is defined on them.
EXTRA = {("cli", "_write_reports"): "cli.write"}

NAMED_GROUPS = {
    ("sysop", "LTISystem.apply"): "sysop.lti",
    ("sysop", "LimsupConvolution.apply"): "sysop.conv",
    ("sysop", "estimate_npower"): "sysop.estimate",
    ("sysop", "npower_global"): "sysop.estimate",
    ("sysop", "npower_centered"): "sysop.estimate",
    ("sysop", "check_causality"): "sysop.estimate",
    ("sysop", "hypothesis_uniformity_check"): "sysop.estimate",
    ("seminorm", "FittedFamily.seminorm"): "seminorm.window",
    ("seminorm", "FittedFamily.past_norm"): "seminorm.window",
    ("seminorm", "FittedFamily.future_norm"): "seminorm.window",
    ("seminorm", "FittedFamily.past_norms_all_t"): "seminorm.all_t",
    ("seminorm", "FittedFamily.bounding_norm"): "seminorm.all_t",
    ("seminorm", "check_ff_axioms"): "seminorm.axioms",
    ("timegrid", "TimeFunction.__init__"): "timegrid.construct",
    ("timegrid", "splice"): "timegrid.splice",
    ("timegrid", "shift_left"): "timegrid.shift",
    ("timegrid", "shift_right"): "timegrid.shift",
    ("states", "NaturalState.evaluate"): "states.evaluate",
    ("states", "NaturalState.evaluate_at"): "states.evaluate",
    ("kernel", "PolyKernel.grid_values"): "kernel.grid_values",
}

# Layers whose unnamed spans fall into "<layer>.other" rather than "<layer>".
SPLIT_LAYERS = {"sysop", "seminorm", "timegrid", "states", "kernel"}

POLY_METHODS = {"PolyIntegralOperator.apply", "PolyIntegralOperator.apply_at"}


class Tracer:
    """Aggregating span recorder: entries and self time per group.

    ``stack`` holds one frame per open span, ``[child_s, group]``, where
    ``child_s`` is the time covered by the span's closed children.  The
    bottom frame stands for "outside every span", so its ``child_s`` is the
    total time covered by top-level spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[0.0, None]]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.eval_depth = 0

    @property
    def covered_s(self) -> float:
        """Time covered by top-level spans: the sum of every self time."""
        return self.stack[0][0]

    def wrap(self, fn, group):
        """Return ``fn`` recording a span of ``group`` per call.

        ``group`` is a name, or a function of the call's first argument
        that returns one (used to split the polynomial operator by
        time variance).
        """
        stack, clock = self.stack, self.clock
        calls, self_s = self.calls, self.self_s
        fixed = isinstance(group, str)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            g = group if fixed else group(args[0])
            parent = stack[-1]
            if parent[1] != g:
                calls[g] += 1
            frame = [0.0, g]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                parent[0] += d
                self_s[g] += d - frame[0]

        return span

    def attribution(self, wall_s: float) -> dict:
        """Split a traced wall time into group self times plus a remainder.

        ``ok`` holds when no self time is negative and the self times plus
        the uninstrumented remainder add back up to ``wall_s``.
        """
        total = sum(self.self_s.values())
        rest = wall_s - self.covered_s
        tol = 1e-9 * max(1.0, wall_s) + 1e-12 * len(self.self_s)
        ok = (len(self.stack) == 1 and rest >= -tol
              and all(v >= -tol for v in self.self_s.values())
              and abs(total + rest - wall_s) <= tol)
        return {"self_total_s": total, "uninstrumented_s": rest, "ok": ok}


# -- counters added around selected methods ------------------------------------


def _count_poly(tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def apply_at(self, u, t_indices):
        n = len(t_indices)
        if self.time_invariant:
            counters["sysop.poly.instants"] += n
        if tracer.eval_depth:
            counters["states.computed"] += n
        return fn(self, u, t_indices)

    return apply_at


def _count_full_apply(tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def apply(self, u):
        if tracer.eval_depth:
            counters["states.computed"] += u.grid.n
        return fn(self, u)

    return apply


def _count_evaluate(tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def evaluate(self, *args):
        tracer.eval_depth += 1
        try:
            out = fn(self, *args)
        finally:
            tracer.eval_depth -= 1
        counters["states.returned"] += (out.grid.n if hasattr(out, "grid")
                                        else len(out))
        return out

    return evaluate


def _count_grid_values(tracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def grid_values(self, dt, at_time=None):
        if not self.time_varying and ("grid", dt) in self._cache:
            counters["kernel.grid_values.hits"] += 1
        return fn(self, dt, at_time)

    return grid_values


COUNTERS = {
    ("sysop", "PolyIntegralOperator.apply_at"): _count_poly,
    ("sysop", "LTISystem.apply"): _count_full_apply,
    ("sysop", "LimsupConvolution.apply"): _count_full_apply,
    ("states", "NaturalState.evaluate"): _count_evaluate,
    ("states", "NaturalState.evaluate_at"): _count_evaluate,
    ("kernel", "PolyKernel.grid_values"): _count_grid_values,
}


def _poly_group(op) -> str:
    return "sysop.poly" if op.time_invariant else "sysop.poly_tv"


def group_of(layer: str, qualname: str):
    if layer == "sysop" and qualname in POLY_METHODS:
        return _poly_group
    if (layer, qualname) in NAMED_GROUPS:
        return NAMED_GROUPS[(layer, qualname)]
    if (layer, qualname) in EXTRA:
        return EXTRA[(layer, qualname)]
    return f"{layer}.other" if layer in SPLIT_LAYERS else layer


def _targets(mod, layer):
    """(owner, attribute name, function, qualname, is_static) to wrap."""
    out = []
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                not name.startswith("_") or (layer, name) in EXTRA):
            out.append((mod, name, obj, name, False))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                    continue
                qual = f"{obj.__name__}.{attr}"
                if inspect.isfunction(member):
                    out.append((obj, attr, member, qual, False))
                elif isinstance(member, staticmethod):
                    out.append((obj, attr, member.__func__, qual, True))
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of natstate's modules in ``tracer`` spans.

    Must run after ``natstate.cli`` is imported and before any experiment.
    Module-level references in every natstate module (``from .x import f``
    re-exports) and dict values such as ``EXPERIMENTS`` are redirected to
    the wrappers, so no caller keeps reaching an unwrapped original.
    """
    wrapped = {}
    for layer in MODULES:
        mod = sys.modules[f"natstate.{layer}"]
        for owner, attr, fn, qual, static in _targets(mod, layer):
            w = fn
            if (layer, qual) in COUNTERS:
                w = COUNTERS[(layer, qual)](tracer, w)
            w = tracer.wrap(w, group_of(layer, qual))
            setattr(owner, attr, staticmethod(w) if static else w)
            if owner is mod:
                wrapped[fn] = w
    for name, mod in list(sys.modules.items()):
        if name != "natstate" and not name.startswith("natstate."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if inspect.isfunction(v) and v in wrapped:
                        val[k] = wrapped[v]


# -- per-layer metrics ----------------------------------------------------------


CALL_METRICS = ("sysop.poly", "sysop.poly_tv", "sysop.lti", "sysop.conv",
                "sysop.estimate", "seminorm.window", "seminorm.all_t",
                "timegrid.construct", "timegrid.splice", "timegrid.shift",
                "states.evaluate", "kernel.grid_values")
GROUP_SELF_METRICS = ("sysop.poly", "sysop.poly_tv", "sysop.lti", "sysop.conv",
                      "sysop.estimate", "seminorm.axioms")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, bool]:
    """Per-layer numbers of one traced pass, and the attribution verdict.

    ``<layer>.self_s`` sums every group of the layer; ``calculus.calls``
    counts entries into the calculus layer.  Ratios with nothing to divide
    by read 0.
    """
    by_layer = defaultdict(float)
    for g, s in tracer.self_s.items():
        by_layer[g.split(".")[0]] += s
    out = {f"{g}.calls": tracer.calls.get(g, 0) for g in CALL_METRICS}
    out["sysop.poly.instants"] = tracer.counters.get("sysop.poly.instants", 0)
    out.update({f"{g}.self_s": tracer.self_s.get(g, 0.0)
                for g in GROUP_SELF_METRICS})
    out.update({f"{layer}.self_s": by_layer.get(layer, 0.0)
                for layer in MODULES})
    out["calculus.calls"] = tracer.calls.get("calculus", 0)
    out["cli.write_s"] = tracer.self_s.get("cli.write", 0.0)
    out["states.useful_ratio"] = _ratio(tracer.counters.get("states.returned", 0),
                                        tracer.counters.get("states.computed", 0))
    out["kernel.grid_values.hit_ratio"] = _ratio(
        tracer.counters.get("kernel.grid_values.hits", 0),
        tracer.calls.get("kernel.grid_values", 0))
    att = tracer.attribution(wall_s)
    out["trace.uninstrumented_s"] = att["uninstrumented_s"]
    out["trace.wall_s"] = wall_s
    return out, att["ok"]
