"""repro.perf -- hot-path acceleration for estimator workloads.

Three cooperating pieces, all result-neutral:

* :class:`~repro.perf.adaptive.AdaptiveMarginEvaluator` -- labels
  each sample at the shallowest bisection depth whose brackets enclose
  its exact margin on one side of zero (labels bit-identical to the
  exact path);
* :class:`~repro.perf.cache.SolveCache` -- an LRU memo of butterfly
  solves keyed on exact ΔVth bytes plus a solve-configuration
  fingerprint, shared across sweeps, repeats and checkpoint resume;
* :class:`~repro.perf.profile.StageProfiler` -- ``perf_counter`` spans
  around the estimator stages, surfaced through ``--perf-report``.

:func:`build_evaluator` assembles an evaluator from a
:class:`~repro.perf.config.PerfConfig`; the CLI's ``--exact-eval`` flag
maps to :meth:`PerfConfig.exact`, which reproduces the legacy
fixed-budget path exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.perf.adaptive import AdaptiveMarginEvaluator
from repro.perf.batch import BatchPlanner
from repro.perf.cache import SolveCache
from repro.perf.config import PerfConfig
from repro.xp import resolve_backend
from repro.perf.profile import StageProfiler, merge_spans
from repro.perf.report import (collect_perf, merge_perf, render_json,
                               render_text)
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.variability.space import VariabilitySpace

__all__ = [
    "AdaptiveMarginEvaluator",
    "BatchPlanner",
    "CellEvaluator",
    "PerfConfig",
    "SolveCache",
    "StageProfiler",
    "build_evaluator",
    "collect_perf",
    "merge_perf",
    "merge_spans",
    "render_json",
    "render_text",
    "save_registered_caches",
]

#: caches opened with on-disk persistence, keyed by (directory,
#: fingerprint) so repeated builds under one CLI run share the instance.
_REGISTERED_CACHES: dict[tuple[str, str], SolveCache] = {}


def build_evaluator(cell: SramCell, space: VariabilitySpace,
                    vdd: float | None = None, grid_points: int = 61,
                    perf: PerfConfig | None = None) -> CellEvaluator:
    """Assemble a (possibly accelerated) cell evaluator.

    ``perf=None`` means the default :class:`PerfConfig` -- adaptive
    screening and an in-memory cache, both on.  With
    ``PerfConfig.exact()`` this returns a plain uncached
    :class:`~repro.sram.evaluator.CellEvaluator`, byte-for-byte the
    legacy construction.
    """
    if perf is None:
        perf = PerfConfig()
    backend = resolve_backend(perf.array_backend)
    planner = (BatchPlanner(max_batch=perf.label_batch)
               if perf.label_batch is not None else None)
    if perf.adaptive:
        evaluator = AdaptiveMarginEvaluator(
            cell, space, vdd=vdd, grid_points=grid_points,
            batched=perf.batched, array_backend=backend,
            planner=planner)
    else:
        evaluator = CellEvaluator(cell, space, vdd=vdd,
                                  grid_points=grid_points,
                                  batched=perf.batched,
                                  array_backend=backend,
                                  planner=planner)
    if perf.caching:
        # Attach the cache after construction: the fingerprint comes
        # from the finished evaluator, so the cascade's settling rule
        # participates and stale bound entries can never be loaded.
        fingerprint = evaluator.solve_fingerprint()
        if perf.cache_path is not None:
            key = (str(Path(perf.cache_path).resolve()), fingerprint)
            cache = _REGISTERED_CACHES.get(key)
            if cache is None:
                cache = SolveCache.load(perf.cache_path, fingerprint,
                                        max_entries=perf.cache_entries)
                _REGISTERED_CACHES[key] = cache
        else:
            cache = SolveCache(fingerprint,
                               max_entries=perf.cache_entries)
        evaluator.cache = cache
    return evaluator


def save_registered_caches() -> list[Path]:
    """Persist every on-disk cache opened via :func:`build_evaluator`.

    The CLI calls this once after each subcommand finishes, so a sweep
    warms the cache file for the next invocation.  Returns the written
    paths.
    """
    written = []
    for (directory, _), cache in _REGISTERED_CACHES.items():
        written.append(cache.save(directory))
    return written
