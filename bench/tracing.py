"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer from outside the
program: class methods are replaced on their class, and module-level
functions are replaced under every name a ``walkergeom`` module bound them
to (``curvature_components`` is called as
``walkergeom.distributions.curvature_components``, not only through
``walkergeom.tensor``).  An entry point that no longer exists is listed as
absent and its metrics read 0; the run goes on.

Spans are kept in memory as ``[name, start, end, parent, op]`` and reduced
when the run ends.  A span's self time is its duration minus the durations
of its direct children.  Counting done by the wrappers is itself recorded as
``trace.hook`` spans, so it is charged to no layer.

Every time and count is reported per op; ratios are over the whole traced
run and read 0 where their layer did no work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" names a method
ENTRY_POINTS = [
    ("expr.parse", "walkergeom.expr", "parse_expression"),
    ("expr.partial", "walkergeom.expr", "ScalarField.partial"),
    ("expr.eval", "walkergeom.expr", "evaluate_fields"),
    ("expr.eval", "walkergeom.expr", "ScalarField.evaluate"),
    ("tensor.value", "walkergeom.tensor", "MetricField.value"),
    ("tensor.partial_value", "walkergeom.tensor", "MetricField.partial_value"),
    ("tensor.second_partial_value", "walkergeom.tensor", "MetricField.second_partial_value"),
    ("tensor.inverse", "walkergeom.tensor", "MetricField.inverse_value"),
    ("tensor.gamma", "walkergeom.tensor", "LeviCivitaConnection.gamma"),
    ("tensor.gamma", "walkergeom.tensor", "SymbolicConnection.gamma"),
    ("tensor.gamma", "walkergeom.tensor", "RestrictedConnection.gamma"),
    ("tensor.gamma_partial", "walkergeom.tensor", "LeviCivitaConnection.gamma_partial"),
    ("tensor.gamma_partial", "walkergeom.tensor", "SymbolicConnection.gamma_partial"),
    ("tensor.gamma_partial", "walkergeom.tensor", "RestrictedConnection.gamma_partial"),
    ("tensor.curvature", "walkergeom.tensor", "curvature_components"),
    ("distributions.check", "walkergeom.distributions", "check_null"),
    ("distributions.check", "walkergeom.distributions", "check_parallel"),
    ("distributions.check", "walkergeom.distributions", "check_projectable"),
    ("distributions.check", "walkergeom.distributions", "curvature_condition"),
    ("distributions.check", "walkergeom.distributions", "walker_projectability"),
    ("distributions.check", "walkergeom.distributions", "restrict_connection"),
    ("distributions.walker_form", "walkergeom.distributions", "check_walker_form"),
    ("extensions.build", "walkergeom.extensions", "build_pullback_extension"),
    ("extensions.transformation_rule", "walkergeom.extensions", "transformation_rule_residual"),
    ("sampling.sample", "walkergeom.sampling", "sample_points"),
    ("transport.rk4", "walkergeom.transport", "parallel_transport"),
    ("transport.euler", "walkergeom.transport", "euler_transport"),
    ("transport.coeff", "walkergeom.transport", "_coefficients"),
    ("cli.main", "walkergeom.cli", "main"),
    ("cli.load", "walkergeom.cli", "load_spec"),
    ("cli.run_checks", "walkergeom.cli", "run_checks"),
    ("cli.run_transport", "walkergeom.cli", "run_transport"),
    ("cli.emit", "walkergeom.cli", "Report.to_json"),
    ("cli.emit", "walkergeom.cli", "Report.to_text"),
    ("cli.emit", "walkergeom.cli", "_emit"),
]

CHECK_NAMES = ["null", "parallel", "projectable", "curvature_condition", "walker_form",
               "walker_projectability", "projected_connection", "transformation_rule",
               "vertical_metric"]

# (metric, unit, how): "self"/"incl" are per-op milliseconds of a span name,
# "calls" per-op span counts, "count" per-op counter values, "ratio"
# counter over counter, "check" per-op CheckRecord.wall_time sums.
PER_LAYER = [
    ("tensor.gamma_partial_ms", "ms/op", ("self", "tensor.gamma_partial")),
    ("tensor.curvature_ms", "ms/op", ("self", "tensor.curvature")),
    ("tensor.second_partial_value_ms", "ms/op", ("self", "tensor.second_partial_value")),
    ("tensor.inverse_ms", "ms/op", ("self", "tensor.inverse")),
    ("tensor.partial_value_ms", "ms/op", ("self", "tensor.partial_value")),
    ("tensor.value_ms", "ms/op", ("self", "tensor.value")),
    ("tensor.gamma_ms", "ms/op", ("self", "tensor.gamma")),
    ("tensor.inverse_calls_per_op", "count/op", ("calls", "tensor.inverse")),
    ("tensor.partial_value_calls_per_op", "count/op", ("calls", "tensor.partial_value")),
    ("tensor.second_partial_value_calls_per_op", "count/op",
     ("calls", "tensor.second_partial_value")),
    ("tensor.bytes_returned", "B_computed/op", ("count", "tensor.bytes")),
    ("expr.eval_ms", "ms/op", ("self", "expr.eval")),
    ("expr.fields_evaluated", "count/op", ("count", "expr.fields")),
    ("expr.distinct_field_ratio", "ratio", ("ratio", "expr.distinct", "expr.fields")),
    ("expr.const_field_ratio", "ratio", ("ratio", "expr.const", "expr.fields")),
    ("expr.parse_ms", "ms/op", ("self", "expr.parse")),
    ("expr.parse_calls", "count/op", ("calls", "expr.parse")),
    ("expr.partial_ms", "ms/op", ("self", "expr.partial")),
    ("expr.partial_calls", "count/op", ("calls", "expr.partial")),
    ("cli.main_self_ms", "ms/op", ("self", "cli.main")),
    ("cli.load_ms", "ms/op", ("self", "cli.load")),
    ("cli.emit_ms", "ms/op", ("self", "cli.emit")),
    ("cli.run_checks_self_ms", "ms/op", ("self", "cli.run_checks")),
    ("cli.run_transport_self_ms", "ms/op", ("self", "cli.run_transport")),
    ("extensions.build_ms", "ms/op", ("self", "extensions.build")),
    *[(f"cli.check.{name}_ms", "ms/op",
       ("incl", "distributions.walker_form") if name == "walker_form" else ("check", name))
      for name in CHECK_NAMES],
    ("distributions.self_ms", "ms/op", ("self", "distributions.check", "distributions.walker_form")),
    ("extensions.transformation_rule_ms", "ms/op", ("self", "extensions.transformation_rule")),
    ("sampling.sample_ms", "ms/op", ("self", "sampling.sample")),
    ("sampling.accept_ratio", "ratio", ("ratio", "sampling.accepted", "sampling.rows")),
    ("transport.rk4_step_ms", "ms/op", ("self", "transport.rk4")),
    ("transport.euler_step_ms", "ms/op", ("self", "transport.euler")),
    ("transport.coeff_ms", "ms/op", ("incl", "transport.coeff")),
    ("transport.steps", "count/op", ("count", "transport.steps")),
]
OVERHEAD = ("trace.overhead_frac", "ratio")


# -- counting hooks: pre(tracer, args, kwargs), post(tracer, result, args, kwargs)


def _count_fields(tracer, args, kwargs):
    fields = np.asarray(args[0], dtype=object).reshape(-1)
    tracer.counts["expr.fields"] += len(fields)
    tracer.counts["expr.distinct"] += len({f.node for f in fields})
    tracer.counts["expr.const"] += sum(f.max_var == 0 for f in fields)


def _count_sampled_rows(tracer, args, kwargs):
    parent = tracer.parent()
    if parent is not None and parent[0] == "sampling.sample":
        tracer.counts["sampling.rows"] += np.shape(args[1])[0]


def _count_bytes(tracer, result, args, kwargs):
    tracer.counts["tensor.bytes"] += getattr(result, "nbytes", 0)


def _count_accepted(tracer, result, args, kwargs):
    tracer.counts["sampling.accepted"] += len(result)


def _count_rk4_steps(tracer, result, args, kwargs):
    tracer.counts["transport.steps"] += len(result.times) - 1


def _count_euler_steps(tracer, args, kwargs):
    from walkergeom import transport

    call = inspect.signature(transport.euler_transport).bind(*args, **kwargs)
    call.apply_defaults()
    grid = call.arguments["curve"].grid(call.arguments["step"])
    tracer.counts["transport.steps"] += len(grid) - 1


def _sum_check_times(tracer, report, args, kwargs):
    for record in report.checks:
        tracer.check_wall[record.name.split(":")[0]] += record.wall_time


HOOKS = {
    "expr.eval": (_count_fields, None),
    "tensor.value": (_count_sampled_rows, _count_bytes),
    "tensor.partial_value": (None, _count_bytes),
    "tensor.second_partial_value": (None, _count_bytes),
    "tensor.inverse": (None, _count_bytes),
    "tensor.gamma": (None, _count_bytes),
    "tensor.gamma_partial": (None, _count_bytes),
    "tensor.curvature": (None, _count_bytes),
    "sampling.sample": (None, _count_accepted),
    "transport.rk4": (None, _count_rk4_steps),
    "transport.euler": (_count_euler_steps, None),
    "cli.run_checks": (None, _sum_check_times),
}


class Tracer:
    """Records spans while installed and ``op`` is set (during the timed call
    of an op)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counts = defaultdict(float)
        self.check_wall = defaultdict(float)
        self.absent = []
        self._stack = []
        self._patches = None

    def parent(self):
        return self.spans[self._stack[-1]] if self._stack else None

    def install(self) -> None:
        """Replace every entry point by its traced wrapper."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, key, original, _ in self._patches or ():
            setattr(owner, key, original)

    def _find_patches(self) -> list:
        patches = []
        for name, module_name, attr in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{attr}")
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}:{attr}")
                continue
            wrapped = self._wrap(name, original, *HOOKS.get(name, (None, None)))
            if owner_name:
                patches.append((owner, method, original, wrapped))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "walkergeom" or mod_name.startswith("walkergeom."):
                    patches += [(mod, key, original, wrapped)
                                for key, value in vars(mod).items() if value is original]
        return patches

    def _wrap(self, name, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if pre is not None:
                tracer._hook(pre, args, kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if post is not None:
                tracer._hook(post, result, args, kwargs)
            return result

        return traced

    def _hook(self, hook, *args):
        start = time.perf_counter()
        hook(self, *args)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(["trace.hook", start, time.perf_counter(), parent, self.op])

    def summary(self, ops: int, overhead_frac: float) -> dict:
        """Per-layer metrics over ``ops`` traced ops, as {name: (value, unit)}."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        incl = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            incl[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1

        def ratio(num, den):
            return self.counts[num] / self.counts[den] if self.counts[den] else 0.0

        out = {}
        for metric, unit, (how, *names) in PER_LAYER:
            if how == "self":
                value = 1e3 * sum(own[n] for n in names) / ops
            elif how == "incl":
                value = 1e3 * incl[names[0]] / ops
            elif how == "check":
                value = 1e3 * self.check_wall[names[0]] / ops
            elif how == "calls":
                value = calls[names[0]] / ops
            elif how == "count":
                value = self.counts[names[0]] / ops
            else:
                value = ratio(*names)
            out[metric] = (value, unit)
        out[OVERHEAD[0]] = (overhead_frac, OVERHEAD[1])
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
