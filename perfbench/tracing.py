"""Span tracing of the tlstrack layers, done entirely from the benchmark.

The tracer replaces a layer's public callable by a wrapper *at the site that
imports it* (``tlstrack.cli.fit_trace``, ``tlstrack.tracker.levenberg_marquardt``
...), so the package itself is not edited.  Patching each importing module
separately is what attributes one solver to its caller: the Levenberg-Marquardt
calls made from ``trace_fit`` and from ``tracker`` land in different spans.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of the
enclosing span (-1 for a root).  Spans stay in memory until :meth:`Tracer.dump`.
Sites that a later version of the package no longer has are skipped, and their
metrics read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
from time import perf_counter

#: Per-layer metrics (name -> unit), in the order they are reported.
PER_LAYER_UNITS = {
    "readout.classify_points.calls": "count",
    "readout.classify_points.points": "count",
    "readout.classify_points.s": "s",
    "readout.simulate_confusion_matrix.s": "s",
    "synth.synthesize_experiment.s": "s",
    "synth.write_run_directory.self_s": "s",
    "readout.mitigate_trace.calls": "count",
    "readout.mitigate_trace.s": "s",
    "trace_fit.fit_trace.calls": "count",
    "trace_fit.fit_trace.s": "s",
    "trace_fit.fit_trace.p50_ms": "ms",
    "trace_fit.fit_trace.tail_ms": "ms",
    "trace_fit.fit_trace.unconverged": "count",
    "dynamics.closed_form_populations.calls": "count",
    "dynamics.closed_form_populations.s": "s",
    "optimize.grid_refine_1d.calls": "count",
    "optimize.grid_refine_1d.s": "s",
    "optimize.grid_refine_1d.objective_evals": "count",
    **{
        f"optimize.levenberg_marquardt.{caller}.{what}": unit
        for caller in ("trace", "epoch", "joint")
        for what, unit in (("calls", "count"), ("s", "s"), ("iterations", "count"),
                           ("residual_evals", "count"))
    },
    **{
        f"tracker.track_tls.order{order}.{what}": unit
        for order in (1, 2)
        for what, unit in (("s", "s"), ("outer_iterations", "count"), ("converged", "ratio"))
    },
    "tracker.select_model.s": "s",
    "tracker.self_s": "s",
    "cli.self_s": "s",
}


def _first_arg(args, kwargs, name, index):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _count_calls(fn, attrs, key):
    attrs[key] = 0

    @functools.wraps(fn)
    def counted(*a, **kw):
        attrs[key] += 1
        return fn(*a, **kw)

    return counted


def _points_before(args, kwargs, attrs):
    points = _first_arg(args, kwargs, "points", 1)
    attrs["points"] = int(getattr(points, "size", 0) // 2)
    return args, kwargs


def _lm_before(args, kwargs, attrs):
    problem = _first_arg(args, kwargs, "problem", 0)
    if not (dataclasses.is_dataclass(problem) and hasattr(problem, "residual")):
        return args, kwargs
    counted = dataclasses.replace(problem, residual=_count_calls(problem.residual, attrs,
                                                                 "residual_evals"))
    if "problem" in kwargs:
        return args, {**kwargs, "problem": counted}
    return (counted, *args[1:]), kwargs


def _grid_before(args, kwargs, attrs):
    objective = _count_calls(_first_arg(args, kwargs, "objective", 0), attrs,
                             "objective_evals")
    if "objective" in kwargs:
        return args, {**kwargs, "objective": objective}
    return (objective, *args[1:]), kwargs


def _iterations_after(result, attrs):
    attrs["iterations"] = int(getattr(result, "iterations", 0))


def _converged_after(result, attrs):
    attrs["converged"] = bool(getattr(result, "converged", True))


def _track_after(result, attrs):
    attrs["outer_iterations"] = int(getattr(result, "iterations", 0))
    attrs["converged"] = bool(getattr(result, "converged", False))


def _lm_tracker_name(args, kwargs):
    problem = _first_arg(args, kwargs, "problem", 0)
    # the joint update supplies an analytic Jacobian; per-epoch solves do not
    caller = "epoch" if getattr(problem, "jacobian", None) is None else "joint"
    return f"optimize.levenberg_marquardt.{caller}"


def _track_name(args, kwargs):
    return f"tracker.track_tls.order{int(_first_arg(args, kwargs, 'order', 2))}"


#: (importing module, attribute, span name or name function, before, after)
SITES = [
    ("cli", "write_run_directory", "synth.write_run_directory", None, None),
    ("synth", "synthesize_experiment", "synth.synthesize_experiment", None, None),
    ("synth", "simulate_confusion_matrix", "readout.simulate_confusion_matrix", None, None),
    ("synth", "classify_points", "readout.classify_points", _points_before, None),
    ("readout", "classify_points", "readout.classify_points", _points_before, None),
    ("synth", "closed_form_populations", "dynamics.closed_form_populations", None, None),
    ("trace_fit", "closed_form_populations", "dynamics.closed_form_populations", None, None),
    ("cli", "mitigate_trace", "readout.mitigate_trace", None, None),
    ("cli", "fit_trace", "trace_fit.fit_trace", None, _converged_after),
    ("trace_fit", "levenberg_marquardt", "optimize.levenberg_marquardt.trace",
     _lm_before, _iterations_after),
    ("tracker", "grid_refine_1d", "optimize.grid_refine_1d", _grid_before, None),
    ("tracker", "levenberg_marquardt", _lm_tracker_name, _lm_before, _iterations_after),
    ("cli", "select_model", "tracker.select_model", None, None),
    ("cli", "track_tls", _track_name, None, _track_after),
    ("tracker", "track_tls", _track_name, None, _track_after),
]


class Tracer:
    """Records spans around the layer calls of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs: dict = {}
            if before is not None:
                args, kwargs = before(args, kwargs, attrs)
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, attrs)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every import site that exists in this version of the package."""
        for module_name, attr, name, before, after in SITES:
            module = getattr(package, module_name, None)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "span_fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see PER_LAYER_UNITS).

    Times and counts are totals over the pass; the ``track_tls`` iteration
    count and converged share are means per call; ``p50_ms`` and ``tail_ms``
    are taken over every ``fit_trace`` call.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    track_calls = {1: 0, 2: 0}
    fit_ms = []
    for (name, start, end, _, attrs), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        if layer in ("cli", "tracker"):
            out[f"{layer}.self_s"] += own
        if name == "synth.write_run_directory":
            out["synth.write_run_directory.self_s"] += own
            continue
        if f"{name}.s" not in out:
            continue
        out[f"{name}.s"] += end - start
        for key in ("calls", "points", "iterations", "residual_evals", "objective_evals"):
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] += attrs.get(key, 1 if key == "calls" else 0)
        if name.startswith("tracker.track_tls.order"):
            track_calls[int(name[-1])] += 1
            out[f"{name}.outer_iterations"] += attrs.get("outer_iterations", 0)
            out[f"{name}.converged"] += attrs.get("converged", False)
        if name == "trace_fit.fit_trace":
            fit_ms.append(1e3 * (end - start))
            out["trace_fit.fit_trace.unconverged"] += not attrs.get("converged", True)
    for key, unit in PER_LAYER_UNITS.items():
        if key.startswith("tracker.track_tls.order") and unit != "s":
            calls = track_calls[int(key.split(".")[2][-1])]
            out[key] = out[key] / calls if calls else 0.0
    if fit_ms:
        fit_ms.sort()
        out["trace_fit.fit_trace.p50_ms"] = statistics.median(fit_ms)
        out["trace_fit.fit_trace.tail_ms"] = fit_ms[tail_index(len(fit_ms))]
    return out


def tail_index(n: int) -> int:
    """Index of the highest order statistic with at least ten samples above it
    (the maximum when fewer than eleven samples exist)."""
    return n - 11 if n > 10 else n - 1
