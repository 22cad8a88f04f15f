"""Tracing from outside the program: wrap each layer's public functions.

A layer is a module of `driftcast`. Tracer.install() replaces every public
function of every layer module with a wrapper, in every module namespace that
holds a reference to it (`driftcast.pipeline.decide` as well as
`driftcast.drift.decide`), so calls between layers are seen too. Each call
made while a run id is set records a span [layer, name, start, end, parent,
run, work], timed in CPU seconds like the end-to-end metrics; spans stay in
memory and are written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import inspect
import statistics
from collections import defaultdict
from time import process_time

import numpy as np

LAYERS = ("ingest", "density", "divergence", "drift", "forecaster", "hpo",
          "evaluation", "pipeline", "cli")

LAYER, NAME, START, END, PARENT, RUN, WORK = range(7)


def _kernel_evals(args, result):
    return int(np.size(args["values"])) * args["grid"].n_points


# Work counted at a boundary, from the call's arguments or its result.
WORK_COUNTERS = {
    "density.estimate_kde": _kernel_evals,
    "ingest.parse_load_csv": lambda args, result: len(result),
    "hpo.optimize": lambda args, result: len(result[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run: str | None = None  # spans are recorded only while this is set
        self._stack: list[int] = []

    def install(self, package) -> None:
        """Wrap the public functions of every layer of a freshly imported package."""
        modules = [package, *(getattr(package, layer) for layer in LAYERS)]
        wrapped = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[fn] = self._wrap(layer, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        work = WORK_COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = process_time()
                stack.pop()
            if work is not None:
                span[WORK] = work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


class SpanView:
    """Queries over the spans of a set of runs."""

    def __init__(self, spans: list[list], runs):
        self.all = spans
        self.self_s = self_times(spans)
        runs = set(runs)
        self.index = [i for i, s in enumerate(spans) if s[RUN] in runs]

    def duration(self, i) -> float:
        return self.all[i][END] - self.all[i][START]

    def select(self, name=None, run=None, layer=None):
        return [i for i in self.index
                if (name is None or self.all[i][NAME] == name)
                and (run is None or self.all[i][RUN] == run)
                and (layer is None or self.all[i][LAYER] == layer)]

    def durations(self, name) -> list[float]:
        return [self.duration(i) for i in self.select(name)]

    def total(self, name) -> float:
        return sum(self.durations(name))

    def count(self, name) -> int:
        return len(self.select(name))

    def p50_ms(self, name) -> float:
        durations = self.durations(name)
        return 1e3 * statistics.median(durations) if durations else 0.0

    def work(self, name, run=None) -> int:
        return sum(self.all[i][WORK] for i in self.select(name, run))

    def self_total(self, layer=None, name=None, run=None) -> float:
        return sum(self.self_s[i] for i in self.select(name, run, layer))

    def top_total(self, layer) -> float:
        """Time in a layer's spans whose caller is outside the layer."""
        return sum(self.duration(i) for i in self.select(layer=layer)
                   if self.all[i][PARENT] < 0
                   or self.all[self.all[i][PARENT]][LAYER] != layer)

    def parent_layer(self, i) -> str | None:
        parent = self.all[i][PARENT]
        return self.all[parent][LAYER] if parent >= 0 else None


def layer_metrics(spans: list[list], runs) -> dict[str, float]:
    """The per-layer metrics of one traced journey (runs = its CLI call labels)."""
    v = SpanView(spans, runs)
    decides = v.durations("drift.decide")
    predict_starts = [spans[i][START] for i in v.select("forecaster.predict_day", "passive")]
    steps = [b - a for a, b in zip(predict_starts, predict_starts[1:])]
    adaptations = [i for i in v.select("forecaster.incremental_update")
                   if v.parent_layer(i) == "pipeline"]
    metrics = {
        "ingest.parse_s": v.total("ingest.parse_load_csv"),
        "ingest.segment_s": v.total("ingest.segment_days"),
        "ingest.readings": v.work("ingest.parse_load_csv", "ingest"),
        "density.kde_calls": v.count("density.estimate_kde"),
        "density.kernel_evals": v.work("density.estimate_kde"),
        "density.kde_s": v.total("density.estimate_kde"),
        "divergence.jsd_s": v.top_total("divergence"),
        "drift.init_s": v.total("drift.init_drift_state"),
        "drift.decide_ms.p50": v.p50_ms("drift.decide"),
        "drift.decide_ms.last": 1e3 * decides[-1] if decides else 0.0,
        "drift.p_value_ms": v.p50_ms("drift.p_value"),
        "forecaster.batches": v.count("forecaster.loss_and_gradients"),
        "forecaster.fwd_bwd_ms": v.p50_ms("forecaster.loss_and_gradients"),
        "forecaster.train_s": v.total("forecaster.train"),
        "forecaster.incremental_s": v.total("forecaster.incremental_update"),
        "forecaster.forward_s": v.total("forecaster.batch_forward"),
        "forecaster.predict_ms": v.p50_ms("forecaster.predict_day"),
        "hpo.trials": v.work("hpo.optimize"),
        "hpo.propose_ms": v.p50_ms("hpo.propose"),
        "hpo.self_s": v.self_total(name="hpo.optimize"),
        "evaluation.daily_error_ms": v.p50_ms("evaluation.daily_error"),
        "pipeline.prepare_s": v.total("pipeline.prepare_run"),
        "pipeline.self_s": v.self_total(layer="pipeline"),
        "pipeline.day_step_ms.p50": 1e3 * statistics.median(steps) if steps else 0.0,
        "pipeline.adaptations": len(adaptations),
        "cli.self_s": v.self_total(layer="cli"),
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = v.self_total(layer=layer)
    return metrics


def run_breakdown(spans: list[list], runs) -> dict[str, dict[str, float]]:
    """Per CLI call: its duration, self time per layer, and the pipeline phases.

    `initial` is the first hpo.optimize of a run (initial HPO and training),
    `adaptation` every later optimize plus the resumed fits the pipeline
    calls directly, `detector` the drift-layer calls the pipeline makes.
    """
    v = SpanView(spans, runs)
    out = {}
    for run in runs:
        row = {"call_s": sum(v.duration(i) for i in v.select("cli.main", run))}
        for layer in LAYERS:
            row[f"self_s.{layer}"] = v.self_total(layer=layer, run=run)

        def from_pipeline(indexes):
            return [v.duration(i) for i in indexes if v.parent_layer(i) == "pipeline"]

        optimizes = from_pipeline(v.select("hpo.optimize", run))
        row["initial_s"] = optimizes[0] if optimizes else 0.0
        row["adaptation_s"] = sum(optimizes[1:]) + sum(
            from_pipeline(v.select("forecaster.incremental_update", run)))
        row["detector_s"] = sum(from_pipeline(v.select(run=run, layer="drift")))
        out[run] = row
    return out


def tally(spans: list[list]) -> dict[str, list]:
    """Per "run:span name": [calls, total seconds, self seconds], for the trace file."""
    selfs = self_times(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, selfs):
        row = table[f"{span[RUN]}:{span[NAME]}"]
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += own
    return dict(sorted(table.items()))
