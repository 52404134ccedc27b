"""Per-layer spans, taken from outside the oqn package.

``Tracer.install`` swaps the module attributes that oqn looks up at call
time (for example ``oqn.driver.tr_solve``) for timing wrappers, and
``Tracer.uninstall`` puts the originals back.  Every wrapped call records one
span ``(op_id, span_id, parent_id, name, start, end, matvecs)``; spans of one
op share ``op_id``.  The matvec delta of a call is read off the ``Counter``
that its operator or state argument already carries, so no file of the
package changes.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict


def _first_counter(args):
    return args[0].counter


def _min_evec_outcome(tracer, result, args):
    tracer.tags["eig.min_evec"][result.case.value] += 1


def _sep_outcome(tracer, result, args):
    tracer.tags["eig.sep"][result.case.value] += 1


def _tr_outcome(tracer, result, args):
    tracer.record_solve(result, args[0].delta)


# (module, attribute, span name, counter getter, outcome hook)
TARGETS = (
    ("driver", "step", "driver.step", lambda a: a[0].matvec_counter, None),
    ("driver", "eval_gradient", "problems.eval_gradient", None, None),
    ("driver", "learner_step", "hessian_learner.learner_step", _first_counter, None),
    ("driver", "tr_solve", "trsolver.tr_solve", lambda a: a[0].a_op.counter, _tr_outcome),
    ("driver", "audit_regret", "driver.audit_regret", None, None),
    ("driver", "SymOperator", "linops.sym_build", None, None),
    ("trsolver", "min_evec", "eig.min_evec", _first_counter, _min_evec_outcome),
    ("trsolver", "fista", "trsolver.fista", _first_counter, None),
    ("trsolver", "sfg", "trsolver.sfg", _first_counter, None),
    ("trsolver", "residual_of", "trsolver.residual_of", _first_counter, None),
    ("hessian_learner", "sep", "eig.sep", _first_counter, _sep_outcome),
    ("hessian_learner", "SymOperator", "linops.sym_build", None, None),
)


class Tracer:
    """Collects spans while installed; aggregates them per layer."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.tags = defaultdict(lambda: defaultdict(int))
        self.residual_ratio_max = 0.0
        self.ops = 0
        self._stack = []
        self._op_id = -1
        self._saved = []

    def install(self) -> None:
        for module_name, attr, name, counter_of, outcome in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter_of, outcome))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def record_solve(self, sol, delta: float) -> None:
        tags = self.tags["trsolver.tr_solve"]
        tags["branch." + sol.branch.value] += 1
        tags["retries"] += int(sol.retried)
        self.residual_ratio_max = max(self.residual_ratio_max, sol.residual / delta)

    def op(self, name, outcome, fn, *args):
        """Run one op as the root span of a fresh op id, with the wrappers
        installed only for its duration."""
        self.ops += 1
        self._op_id += 1
        self.install()
        try:
            return self._wrap(name, fn, None, outcome)(*args)
        finally:
            self.uninstall()

    def _wrap(self, name, fn, counter_of, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            counter = counter_of(args) if counter_of is not None else None
            start_count = counter.count if counter is not None else 0
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                matvecs = counter.count - start_count if counter is not None else 0
                spans[span_id] = (self._op_id, span_id, parent, name, start, end, matvecs)
            if outcome is not None:
                outcome(self, result, args)
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, matvecs, and
        the list of durations.  Self time is a span's duration minus the
        durations of its direct children."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "matvecs": 0, "durations": []})
        for _, span_id, _, name, start, end, matvecs in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            entry["matvecs"] += matvecs
            entry["durations"].append(end - start)
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["op_id", "span_id", "parent_id", "name",
                                 "start_s", "end_s", "matvecs"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def per_layer_metrics(tracer: Tracer, op_matvecs: float, overhead_frac: float) -> list:
    """(name, value, unit) for every per-layer metric.  Counts, seconds and
    matvecs are per traced op; ``op_matvecs`` is the mean op matvec count."""
    totals = tracer.layer_totals()
    ops = max(tracer.ops, 1)
    tags = tracer.tags

    def per_op(name, key):
        return totals[name][key] / ops if name in totals else 0.0

    def frac(name, tag):
        calls = totals[name]["calls"] if name in totals else 0
        return tags[name][tag] / calls if calls else 0.0

    out = [
        ("problems.eval_gradient.calls", per_op("problems.eval_gradient", "calls"), "count/op"),
        ("problems.eval_gradient.self_s", per_op("problems.eval_gradient", "self_s"), "s/op"),
        ("linops.matvecs", op_matvecs, "matvec/op"),
        ("linops.sym_builds", per_op("linops.sym_build", "calls"), "count/op"),
        ("linops.sym_build_s", per_op("linops.sym_build", "s"), "s/op"),
    ]
    for name, tag, frac_name in (("eig.min_evec", "psd_certified", "psd_frac"),
                                 ("eig.sep", "separated", "separated_frac")):
        out += [
            (f"{name}.calls", per_op(name, "calls"), "count/op"),
            (f"{name}.s", per_op(name, "s"), "s/op"),
            (f"{name}.matvecs", per_op(name, "matvecs"), "matvec/op"),
            (f"{name}.{frac_name}", frac(name, tag), "ratio"),
        ]
    tr = "trsolver.tr_solve"
    out += [
        (f"{tr}.calls", per_op(tr, "calls"), "count/op"),
        (f"{tr}.s", per_op(tr, "s"), "s/op"),
        (f"{tr}.self_s", per_op(tr, "self_s"), "s/op"),
        (f"{tr}.matvecs", per_op(tr, "matvecs"), "matvec/op"),
        (f"{tr}.retries", tags[tr]["retries"] / ops, "count/op"),
        (f"{tr}.residual_ratio_max", tracer.residual_ratio_max, "ratio"),
    ]
    for branch in ("convex", "regularized_interior", "regularized_boundary"):
        out.append((f"trsolver.branch.{branch}", tags[tr]["branch." + branch] / ops,
                    "count/op"))
    for name in ("trsolver.fista", "trsolver.sfg", "trsolver.residual_of"):
        out += [
            (f"{name}.calls", per_op(name, "calls"), "count/op"),
            (f"{name}.s", per_op(name, "s"), "s/op"),
            (f"{name}.matvecs", per_op(name, "matvecs"), "matvec/op"),
        ]
    learner = "hessian_learner.learner_step"
    steps = totals["driver.step"]["durations"] if "driver.step" in totals else []
    out += [
        (f"{learner}.calls", per_op(learner, "calls"), "count/op"),
        (f"{learner}.s", per_op(learner, "s"), "s/op"),
        (f"{learner}.self_s", per_op(learner, "self_s"), "s/op"),
        ("driver.step.calls", per_op("driver.step", "calls"), "count/op"),
        ("driver.step.s", per_op("driver.step", "s"), "s/op"),
        ("driver.step.s_p50", nearest_rank(steps, 50), "s"),
        ("driver.step.s_p99", nearest_rank(steps, 99), "s"),
        ("driver.step.self_s", per_op("driver.step", "self_s"), "s/op"),
        ("driver.audit_regret.s", per_op("driver.audit_regret", "s"), "s/op"),
        ("driver.run.self_s", per_op("driver.run", "self_s"), "s/op"),
        ("trace.overhead_frac", overhead_frac, "ratio"),
    ]
    return out
