"""Span recording around the program's public functions, installed from outside.

``Tracer.install(package)`` wraps every public function and every public
method of the classes defined in each traced module.  A wrapper replaces the
original in every module namespace that holds it, because callers look a
function up where they imported it (``evaluate`` and ``export`` both import
``train_random_forest`` by name).  Spans live in memory as parallel lists and
are written out once, when the run ends.

A span is (name, start, end, parent).  A layer is the module part of a span
name.  A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum of its spans' self times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import sys
import time

#: modules whose public functions are wrapped; ``topology`` holds constants and
#: lookups too small to be a layer
TRACED_MODULES = ("simulate", "detect", "features", "learn", "evaluate", "export",
                  "importance", "cli")


def _svm_steps(args) -> int:
    n = len(args["x"])
    return args["epochs"] * math.ceil(n / args["batch_size"])


#: per-span counts taken from a call's arguments or result, keyed by span name
COUNTERS = {
    "detect.process_bundle": lambda args, result: len(result[0]),
    "learn.train_svm_binary": lambda args, result: _svm_steps(args),
    "learn.train_random_forest": lambda args, result: (len(result.trees), result.n_nodes),
    "evaluate.cross_validate": lambda args, result: len(result.fold_accuracies),
    "evaluate.subset_evaluation": lambda args, result: len(result),
    "export.grid_search": lambda args, result: len(result),
}


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[int, object] = {}
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def end(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[span] = counter(bound.arguments, result)
            return result

        return traced

    def install(self, package_name: str = "rftraffic") -> None:
        """Wrap the public functions and methods of the traced modules."""
        modules = [sys.modules[f"{package_name}.{m}"] for m in TRACED_MODULES]
        every = [sys.modules[name] for name in list(sys.modules)
                 if name == package_name or name.startswith(package_name + ".")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    for holder in every:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, key, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "spans": [[n, s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Stand-in for untraced runs: the benchmark's phase spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# per-layer metrics


class SpanView:
    """Queries over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer.names)
        self.dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i, parent in enumerate(tracer.parents):
            if parent >= 0:
                child_time[parent] += self.dur[i]
        self.self_time = [self.dur[i] - child_time[i] for i in range(n)]
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(tracer.names):
            self.by_name.setdefault(name, []).append(i)

    def ids(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def has_ancestor(self, span: int, predicate) -> bool:
        parent = self.t.parents[span]
        while parent >= 0:
            if predicate(self.t.names[parent]):
                return True
            parent = self.t.parents[parent]
        return False

    def matching(self, predicate) -> list[int]:
        return [i for name, ids in self.by_name.items() if predicate(name) for i in ids]

    def busy(self, predicate) -> float:
        """Time covered by matching spans, counting nested matches once."""
        return sum(self.dur[i] for i in self.matching(predicate)
                   if not self.has_ancestor(i, predicate))

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.ids(name))

    def mean_ms(self, name: str) -> float:
        ids = self.ids(name)
        return 1000.0 * self.total(name) / len(ids) if ids else 0.0

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_time[i] for i in self.matching(lambda n: n.startswith(prefix)))


def _named(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _is_writer(name: str) -> bool:
    return name.split(".")[-1].startswith("write_") or name == "learn.save_model"


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as (value, unit).

    A metric whose layer did not run in the workload reads 0.
    """
    v = SpanView(tracer)
    counts = tracer.counts

    svm_fits = v.ids("learn.train_svm_binary")
    rf_fits = v.ids("learn.train_random_forest")
    trees = sum(counts[i][0] for i in rf_fits)
    rf_busy = v.total("learn.train_random_forest")
    extract_calls = len(v.ids("features.extract_features"))
    extract_time = (v.total("features.segments_for_observation")
                    + v.total("features.extract_features")
                    + v.total("features.ScalingTransform.apply"))
    in_grid = lambda name: name == "export.grid_search"  # noqa: E731
    in_cli = lambda name: name.startswith("cli.")  # noqa: E731

    m = {
        "simulate.generate_ms": (v.mean_ms("simulate.generate_trace"), "ms"),
        "simulate.write_trace_ms": (v.mean_ms("simulate.write_trace_csv"), "ms"),
        "simulate.read_trace_ms": (v.mean_ms("simulate.read_trace_csv"), "ms"),
        "detect.process_bundle_ms": (v.mean_ms("detect.process_bundle"), "ms"),
        "detect.vehicles": (sum(counts[i] for i in v.ids("detect.process_bundle")), "count"),
        "features.extract_ms": (
            1000.0 * extract_time / extract_calls if extract_calls else 0.0, "ms"),
        "features.dataset_s": (v.busy(_named("features.dataset_features")), "s"),
        "learn.svm_fits": (len(svm_fits), "count"),
        "learn.svm_steps": (sum(counts[i] for i in svm_fits), "count"),
        "learn.svm_busy_s": (v.busy(_named("learn.train_svm_binary")), "s"),
        "learn.svm_fit_ms_p50": (
            1000.0 * statistics.median(v.dur[i] for i in svm_fits) if svm_fits else 0.0, "ms"),
        "learn.rf_fits": (len(rf_fits), "count"),
        "learn.trees_grown": (trees, "count"),
        "learn.rf_nodes": (sum(counts[i][1] for i in rf_fits), "count"),
        "learn.rf_busy_s": (rf_busy, "s"),
        "learn.tree_ms": (1000.0 * rf_busy / trees if trees else 0.0, "ms"),
        "learn.svm_predict_ms": (v.mean_ms("learn.SvmEnsemble.predict"), "ms"),
        "learn.rf_predict_ms": (v.mean_ms("learn.RandomForest.predict"), "ms"),
        "evaluate.folds": (sum(counts[i] for i in v.ids("evaluate.cross_validate")), "count"),
        "evaluate.cv_busy_s": (v.busy(_named("evaluate.cross_validate")), "s"),
        "evaluate.cv_self_s": (sum(v.self_time[i] for i in v.ids("evaluate.cross_validate")), "s"),
        "evaluate.subset_cells": (
            sum(counts[i] for i in v.ids("evaluate.subset_evaluation")), "count"),
        "evaluate.subset_busy_s": (v.busy(_named("evaluate.subset_evaluation")), "s"),
        "export.grid_cells": (sum(counts[i] for i in v.ids("export.grid_search")), "count"),
        "export.grid_trees_grown": (
            sum(counts[i][0] for i in rf_fits if v.has_ancestor(i, in_grid)), "count"),
        "export.grid_busy_s": (v.busy(in_grid), "s"),
        "export.count_operations_ms": (1000.0 * v.total("export.count_operations"), "ms"),
        "export.emit_ms": (1000.0 * v.total("export.emit_inference_source"), "ms"),
        "importance.busy_ms": (1000.0 * v.busy(lambda n: n.startswith("importance.")), "ms"),
        "cli.reproduce_self_s": (v.layer_self("cli"), "s"),
        "cli.write_s": (sum(v.dur[i] for i in v.matching(_is_writer)
                            if v.has_ancestor(i, in_cli) and not v.has_ancestor(i, _is_writer)),
                        "s"),
        "trace.spans": (len(tracer.names), "count"),
    }
    return {name: (int(value) if unit == "count" else float(value), unit)
            for name, (value, unit) in m.items()}
