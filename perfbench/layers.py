"""Per-layer metrics of a traced run.

Two sources feed them:

* spans recorded by :class:`tracing.Tracer` around the public functions
  :func:`install` wraps -- self times, inclusive times, call and
  row counts;
* counters the program already reports on every estimate:
  ``metadata["perf"]`` (device-model evaluations, screening, solve
  cache, stage spans), ``metadata["execution"]`` (chunk statistics) and
  the per-stage simulation counts.

Additive figures are averaged per operation (one sweep, one Monte-Carlo
pass, one estimate job), so runs of different lengths compare.  A layer
a workload never reaches reports 0.
"""

from __future__ import annotations

from summary import ratio
from tracing import LayerTotals, Tracer

#: every per-layer metric, in report order (units: BENCHMARK.json).
METRICS = (
    "spice.model.evals",
    "spice.model.self_s",
    "spice.model.ns_per_eval",
    "sram.butterfly.rows",
    "sram.butterfly.evals_per_row",
    "sram.butterfly.self_s",
    "sram.margins.rows",
    "sram.margins.self_s",
    "perf.adaptive.screened_fraction",
    "perf.adaptive.refined",
    "sram.evaluator.labels_s",
    "perf.cache.hit_rate",
    "perf.cache.entries",
    "perf.cache.self_s",
    "ml.svm.fits",
    "ml.svm.fit_s",
    "ml.svm.s_per_fit",
    "ml.blockade.predict_rows",
    "ml.blockade.predict_s",
    "core.boundary_s",
    "core.stage1_s",
    "core.stage2_s",
    "core.filter_s",
    "core.sims_boundary",
    "core.sims_stage1",
    "core.sims_stage2",
    "runtime.chunks",
    "runtime.chunk_busy_s",
    "runtime.dispatch_s",
    "runtime.overhead_s",
    "runtime.shm_bytes",
    "checkpoint.saves",
    "service.queue_wait_ms",
    "service.run_ms",
    "service.stream_lag_ms",
    "service.streams_without_done",
    "service.jobs_in_store",
    "service.job_p50_ms",
    "service.hit_p50_ms",
    "service.healthz_p50_ms",
    "service.list_p50_ms",
    "service.estimate_job_s",
    "trace.ops",
    "trace.overhead_s",
    "trace.overhead_ratio",
)


def _rows_of_shifts(solver, delta_vth, *args, **kwargs) -> int:
    return len(delta_vth)


def _rows_of_curves(curves, *args, **kwargs) -> int:
    return curves.batch_size


def _rows_of_points(model, x, *args, **kwargs) -> int:
    return len(x)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every traced layer."""
    import repro.sram.margins as margins
    from repro.ml.blockade import ClassifierBlockade
    from repro.ml.svm import LinearSvm
    from repro.perf.adaptive import AdaptiveMarginEvaluator
    from repro.perf.cache import SolveCache
    from repro.spice.model import MosfetModel
    from repro.sram.butterfly import ReadButterflySolver
    from repro.sram.evaluator import CellEvaluator

    tracer.wrap_method(MosfetModel, "ids", "spice.model")
    tracer.wrap_method(MosfetModel, "ids_into", "spice.model")
    for name in ("solve", "solve_with_state", "resume"):
        tracer.wrap_method(ReadButterflySolver, name, "sram.butterfly",
                           rows=_rows_of_shifts)
    tracer.wrap_function(margins, "lobe_margins", "sram.margins",
                         rows=_rows_of_curves)
    tracer.wrap_method(CellEvaluator, "failure_labels", "sram.evaluator")
    tracer.wrap_method(AdaptiveMarginEvaluator, "failure_labels",
                       "sram.evaluator")
    tracer.wrap_method(SolveCache, "lookup", "perf.cache")
    tracer.wrap_method(SolveCache, "store", "perf.cache")
    tracer.wrap_method(LinearSvm, "fit", "ml.svm")
    tracer.wrap_method(ClassifierBlockade, "predict", "ml.blockade",
                       rows=_rows_of_points)


def zero() -> dict[str, float]:
    return {name: 0.0 for name in METRICS}


def from_spans(totals: dict[str, LayerTotals], ops: int) -> dict:
    """Span-derived metrics, per operation."""
    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    svm = get("ml.svm")
    return {
        "spice.model.self_s": get("spice.model").self_s / ops,
        "sram.butterfly.rows": get("sram.butterfly").rows / ops,
        "sram.butterfly.self_s": get("sram.butterfly").self_s / ops,
        "sram.margins.rows": get("sram.margins").rows / ops,
        "sram.margins.self_s": get("sram.margins").self_s / ops,
        "sram.evaluator.labels_s":
            get("sram.evaluator").inclusive_s / ops,
        "perf.cache.self_s": get("perf.cache").self_s / ops,
        "ml.svm.fits": svm.calls / ops,
        "ml.svm.fit_s": svm.inclusive_s / ops,
        "ml.svm.s_per_fit": ratio(svm.inclusive_s, svm.calls),
        "ml.blockade.predict_rows": get("ml.blockade").rows / ops,
        "ml.blockade.predict_s": get("ml.blockade").inclusive_s / ops,
    }


def _span_s(spans: dict, *names: str) -> float:
    return sum(float(spans.get(name, {}).get("total_s", 0.0))
               for name in names)


def from_metadata(metas: list[dict], ops: int) -> dict:
    """Counter-derived metrics from estimate metadata, per operation.

    ``metas`` holds the ``metadata`` dict of every estimate the
    operations produced (a live estimate's or a service result's).
    """
    perf_sum: dict[str, float] = {}
    entries = 0
    spans: dict[str, dict] = {}
    out = {"core.sims_boundary": 0.0, "core.sims_stage1": 0.0,
           "core.sims_stage2": 0.0, "runtime.chunks": 0.0,
           "runtime.chunk_busy_s": 0.0, "runtime.dispatch_s": 0.0,
           "runtime.overhead_s": 0.0, "runtime.shm_bytes": 0.0}
    for meta in metas:
        perf = meta.get("perf", {})
        for key in ("device_model_evals", "screened", "refined",
                    "cache_hits", "cache_misses"):
            perf_sum[key] = perf_sum.get(key, 0) + perf.get(key, 0)
        entries = max(entries, perf.get("cache_entries", 0))
        for name, span in perf.get("spans", {}).items():
            spans.setdefault(name, {"total_s": 0.0})
            spans[name]["total_s"] += span.get("total_s", 0.0)
        for stage in ("boundary", "stage1", "stage2"):
            out[f"core.sims_{stage}"] += meta.get(
                f"{stage}_simulations", 0)
        execution = meta.get("execution")
        if execution:
            busy = execution.get("chunk_time_s", 0.0)
            wall = execution.get("wall_time_s", 0.0)
            out["runtime.chunks"] += execution.get("n_chunks", 0)
            out["runtime.chunk_busy_s"] += busy
            out["runtime.dispatch_s"] += wall
            out["runtime.overhead_s"] += \
                wall - busy / max(1, execution.get("workers", 1))
            out["runtime.shm_bytes"] += execution.get("shm_bytes", 0)
    out = {key: value / ops for key, value in out.items()}
    evals = perf_sum.get("device_model_evals", 0)
    labelled = perf_sum.get("screened", 0) + perf_sum.get("refined", 0)
    lookups = perf_sum.get("cache_hits", 0) + perf_sum.get(
        "cache_misses", 0)
    out.update({
        "spice.model.evals": evals / ops,
        "perf.adaptive.screened_fraction":
            ratio(perf_sum.get("screened", 0), labelled),
        "perf.adaptive.refined": perf_sum.get("refined", 0) / ops,
        "perf.cache.hit_rate": ratio(perf_sum.get("cache_hits", 0),
                                      lookups),
        "perf.cache.entries": float(entries),
        "core.boundary_s": _span_s(spans, "boundary-search") / ops,
        "core.stage1_s": _span_s(spans, "stage1-predict", "stage1-label",
                                 "stage1-resample") / ops,
        "core.stage2_s": _span_s(spans, "stage2-sample",
                                 "stage2-label") / ops,
        "core.filter_s": _span_s(spans, "stage1-predict",
                                 "stage1-resample") / ops,
    })
    return out


def derive(metrics: dict) -> dict:
    """Fill the ratios that combine span and counter figures."""
    evals = metrics["spice.model.evals"]
    metrics["spice.model.ns_per_eval"] = \
        ratio(metrics["spice.model.self_s"] * 1e9, evals)
    metrics["sram.butterfly.evals_per_row"] = \
        ratio(evals, metrics["sram.butterfly.rows"])
    return metrics
