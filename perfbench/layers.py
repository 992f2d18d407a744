"""hcalc's layers as the traced run sees them, and the per-layer metrics.

The layers are hcalc's modules.  :func:`instrument` wraps every public
function in every hcalc namespace that binds it (``metric.group_mul`` and
``group.group_mul`` are separate bindings, so each gets its own wrapper),
plus ``HorizontalPath.__post_init__``, ``ScalarField.__call__``, the
``Cover`` methods and the ``enumerate_lines`` generator.  A span is named
after the layer that defines the function, so time spent in a function
counts for that layer whichever module called it.
"""

from __future__ import annotations

import inspect
import types

import numpy as np

from spans import Tracer, self_times

LAYERS = ("group", "curves", "metric", "calculus", "uds", "maximizer", "suites")

# The registered suites of hcalc.suites.SUITES; a test keeps the two in step.
SUITE_NAMES = (
    "algorithm", "almostmax", "closedirection", "differentiabilityofdistance", "goodcurve",
    "group", "holder", "horizontaldistances", "lift", "lipismaximal", "lipschitzhorizontal",
    "maximality", "meanvalue", "newcurveg", "scalarlip", "uds", "welldefined",
)

# name -> (unit, better); the order is the order BENCHMARK.json lists them in
PER_LAYER = {
    "group.group_mul.points": ("count", "lower"),
    "group.group_mul.ns_per_point": ("ns", "lower"),
    "group.self_s": ("s", "lower"),
    "curves.paths": ("count", "lower"),
    "curves.knots": ("count", "lower"),
    "curves.us_per_knot": ("us", "lower"),
    "curves.gamma_y.calls": ("count", "lower"),
    "curves.modify_line.calls": ("count", "lower"),
    "curves.self_s": ("s", "lower"),
    "metric.cc_upper.calls": ("count", "lower"),
    "metric.cc_upper.ms_per_call": ("ms", "lower"),
    "metric.witness_knots": ("count", "lower"),
    "metric.self_s": ("s", "lower"),
    "metric.batch.pairs": ("count", "lower"),
    "metric.batch.us_per_pair": ("us", "lower"),
    "metric.rel_width_p50": ("ratio", "lower"),
    "metric.rel_width_max": ("ratio", "lower"),
    "calculus.field_points": ("count", "lower"),
    "calculus.derivative.candidates": ("count", "lower"),
    "calculus.mean_value_search.calls": ("count", "lower"),
    "calculus.self_s": ("s", "lower"),
    "uds.lines_enumerated": ("count", "lower"),
    "uds.volume_bound.calls": ("count", "lower"),
    "uds.build_s": ("s", "lower"),
    "uds.point_line_pairs": ("count", "lower"),
    "uds.refined_pairs": ("count", "lower"),
    "uds.refine_ratio": ("ratio", "higher"),
    "uds.contains_batch.us_per_point": ("us", "lower"),
    "uds.self_s": ("s", "lower"),
    "maximizer.steps": ("count", "lower"),
    "maximizer.step.ms_per_step": ("ms", "lower"),
    "maximizer.candidates": ("count", "lower"),
    "maximizer.indeterminate": ("count", "lower"),
    "maximizer.retained_steps": ("count", "lower"),
    "maximizer.tube_checks": ("count", "lower"),
    "maximizer.verify_trajectory.self_s": ("s", "lower"),
    "maximizer.self_s": ("s", "lower"),
    **{f"suites.{name}.s": ("s", "lower") for name in SUITE_NAMES},
    "suites.self_s": ("s", "lower"),
    "suites.emit_report_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# -- counters taken at the span boundaries -------------------------------------
# Each hook receives (tracer, span index, args, kwargs, result).


def _count_points(t, i, a, k, r):
    t.counts["group.group_mul.points"] += r.size // r.shape[-1]


def _count_path(t, i, a, k, r):
    t.counts["curves.paths"] += 1
    t.counts["curves.knots"] += len(a[0].knots)


def _count_witness(t, i, a, k, r):
    t.counts["metric.witness_knots"] += len(r[1].knots)


def _sample_width(t, i, a, k, r):
    t.samples["metric.rel_width"].append((r.upper - r.lower) / r.upper if r.upper > 0.0 else 0.0)


def _count_batch(t, i, a, k, r):
    t.counts["metric.batch.pairs"] += np.size(r)


def _count_field(t, i, a, k, r):
    t.counts["calculus.field_points"] += np.size(r)


def _count_derivative(t, i, a, k, r):
    t.counts["calculus.derivative.candidates"] += 1


def _count_derivative_batch(t, i, a, k, r):
    t.counts["calculus.derivative.candidates"] += len(r[0])


def _count_line(t, i, a, k, r):
    t.counts["uds.lines_enumerated"] += 1


def _count_distances(t, i, a, k, r):
    needed = k["needed"] if "needed" in k else a[2]
    refined = np.isfinite(r)
    t.counts["uds.point_line_pairs"] += r.size
    t.counts["uds.refined_pairs"] += int(np.sum(refined))
    t.counts["uds.useful_pairs"] += int(np.sum(refined & (r <= np.asarray(needed)[None, :])))


def _count_contains(t, i, a, k, r):
    t.counts["uds.contains_batch.points"] += len(r)


def _count_step(t, i, a, k, r):
    t.counts["maximizer.candidates"] += r.candidates
    t.counts["maximizer.indeterminate"] += r.indeterminate
    t.counts["maximizer.retained_steps"] += int("incumbent retained" in r.flag)


def _label_suite(t, i, a, k, r):
    t.labels[i] = a[0] if a else k["suite"]


HOOKS = {
    "group.group_mul": _count_points,
    "curves.HorizontalPath.__post_init__": _count_path,
    "metric.cc_upper": _count_witness,
    "metric.cc_bounds": _sample_width,
    "metric.cc_upper_quick": _count_batch,
    "metric.cc_upper_value_batch": _count_batch,
    "metric.cc_lower_batch": _count_batch,
    "calculus.ScalarField.__call__": _count_field,
    "calculus.directional_derivative": _count_derivative,
    "calculus.directional_derivative_batch": _count_derivative_batch,
    "uds.enumerate_lines": _count_line,
    "uds.Cover.upper_distances": _count_distances,
    "uds.Cover.contains_batch": _count_contains,
    "maximizer.step": _count_step,
    "suites.run_suite": _label_suite,
}


def _layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        return tracer.wrap_generator(name, fn, HOOKS.get(name))
    return tracer.wrap(name, fn, HOOKS.get(name))


def _wrap_method(tracer: Tracer, cls, attr: str) -> None:
    raw = cls.__dict__[attr]
    name = f"{_layer_of(cls.__module__)}.{cls.__name__}.{attr}"
    if isinstance(raw, (classmethod, staticmethod)):
        tracer.patch(cls, attr, type(raw)(_wrap(tracer, name, raw.__func__)))
    else:
        tracer.patch(cls, attr, _wrap(tracer, name, raw))


def instrument(tracer: Tracer, hcalc) -> None:
    """Wrap hcalc's public functions and the listed methods; undo with ``tracer.uninstall()``."""
    for layer in LAYERS:
        module = getattr(hcalc, layer)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__.startswith("hcalc."):
                tracer.patch(module, attr, _wrap(tracer, f"{_layer_of(obj.__module__)}.{obj.__name__}", obj))
    _wrap_method(tracer, hcalc.curves.HorizontalPath, "__post_init__")
    _wrap_method(tracer, hcalc.calculus.ScalarField, "__call__")
    for attr, raw in list(vars(hcalc.uds.Cover).items()):
        if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
            _wrap_method(tracer, hcalc.uds.Cover, attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Every metric of :data:`PER_LAYER` from one traced pass, as plain numbers.

    ``traced_s`` and ``untraced_s`` are the wall times of the same job with and
    without tracing; they give ``trace.overhead_frac``.
    """
    sp = tracer.arrays()
    own = self_times(sp["start"], sp["end"], sp["parent"])
    dur = sp["end"] - sp["start"]
    span_names = np.array(tracer.names, dtype=object)[sp["name"]]
    layer = np.array([n.split(".")[0] for n in tracer.names], dtype=object)[sp["name"]]

    def total(name):
        return float(np.sum(dur[span_names == name]))

    def calls(name):
        return int(np.sum(span_names == name))

    def self_of(prefix):
        return float(np.sum(own[layer == prefix]))

    c = tracer.counts
    widths = np.asarray(tracer.samples["metric.rel_width"], dtype=float)
    batch_s = sum(total(f"metric.{f}") for f in ("cc_upper_quick", "cc_upper_value_batch", "cc_lower_batch"))

    # Cover.upper_distances calls made inside maximizer.step: the delta halvings
    tube_checks = 0
    for idx in np.nonzero(span_names == "uds.Cover.upper_distances")[0]:
        p = sp["parent"][idx]
        while p >= 0 and not span_names[p].startswith("maximizer."):
            p = sp["parent"][p]
        tube_checks += int(p >= 0 and span_names[p] == "maximizer.step")

    suite_s = {name: 0.0 for name in SUITE_NAMES}
    for idx, suite in tracer.labels.items():
        suite_s[suite] = suite_s.get(suite, 0.0) + float(dur[idx])

    out = {
        "group.group_mul.points": c["group.group_mul.points"],
        "group.group_mul.ns_per_point": 1e9 * _ratio(total("group.group_mul"), c["group.group_mul.points"]),
        "group.self_s": self_of("group"),
        "curves.paths": c["curves.paths"],
        "curves.knots": c["curves.knots"],
        "curves.us_per_knot": 1e6 * _ratio(total("curves.HorizontalPath.__post_init__"), c["curves.knots"]),
        "curves.gamma_y.calls": calls("curves.gamma_y"),
        "curves.modify_line.calls": calls("curves.modify_line"),
        "curves.self_s": self_of("curves"),
        "metric.cc_upper.calls": calls("metric.cc_upper"),
        "metric.cc_upper.ms_per_call": 1e3 * _ratio(total("metric.cc_upper"), calls("metric.cc_upper")),
        "metric.witness_knots": c["metric.witness_knots"],
        "metric.self_s": self_of("metric"),
        "metric.batch.pairs": c["metric.batch.pairs"],
        "metric.batch.us_per_pair": 1e6 * _ratio(batch_s, c["metric.batch.pairs"]),
        "metric.rel_width_p50": float(np.median(widths)) if len(widths) else 0.0,
        "metric.rel_width_max": float(np.max(widths)) if len(widths) else 0.0,
        "calculus.field_points": c["calculus.field_points"],
        "calculus.derivative.candidates": c["calculus.derivative.candidates"],
        "calculus.mean_value_search.calls": calls("calculus.mean_value_search"),
        "calculus.self_s": self_of("calculus"),
        "uds.lines_enumerated": c["uds.lines_enumerated"],
        "uds.volume_bound.calls": calls("uds.Cover.volume_bound"),
        "uds.build_s": total("uds.Cover.build"),
        "uds.point_line_pairs": c["uds.point_line_pairs"],
        "uds.refined_pairs": c["uds.refined_pairs"],
        "uds.refine_ratio": _ratio(c["uds.useful_pairs"], c["uds.refined_pairs"]),
        "uds.contains_batch.us_per_point": 1e6 * _ratio(total("uds.Cover.contains_batch"), c["uds.contains_batch.points"]),
        "uds.self_s": self_of("uds"),
        "maximizer.steps": calls("maximizer.step"),
        "maximizer.step.ms_per_step": 1e3 * _ratio(total("maximizer.step"), calls("maximizer.step")),
        "maximizer.candidates": c["maximizer.candidates"],
        "maximizer.indeterminate": c["maximizer.indeterminate"],
        "maximizer.retained_steps": c["maximizer.retained_steps"],
        "maximizer.tube_checks": tube_checks,
        "maximizer.verify_trajectory.self_s": float(np.sum(own[span_names == "maximizer.verify_trajectory"])),
        "maximizer.self_s": self_of("maximizer"),
        **{f"suites.{name}.s": suite_s[name] for name in SUITE_NAMES},
        "suites.self_s": self_of("suites"),
        "suites.emit_report_s": total("suites.emit_report"),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    return {name: float(out[name]) for name in PER_LAYER}
