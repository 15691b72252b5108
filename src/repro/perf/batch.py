"""Label-batch planning for the batched evaluator core.

The estimators hand the evaluator label requests of wildly different
sizes -- a few boundary-bisection lanes here, tens of thousands of
stage-2 samples there.  :class:`BatchPlanner` turns each request into
solver-call slices large enough that one fused ``(2B, G)`` array
program per slice amortises the Python-level bisection loop, yet small
enough that a slice's scratch stays cache-resident
(:data:`SLICE_ROWS`), optionally under an explicit peak-scratch-bytes
budget.  It is the one stride loop shared by the evaluator, the
adaptive labeller and the write indicator.

Slicing is a pure cost decision: the butterfly solve and the margin
extraction are row-independent elementwise programs, so any
decomposition of a request returns bit-identical results (the PR 5
neutrality contract; asserted by ``tests/perf/test_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["SLICE_ROWS", "BatchPlanner"]

#: default rows per solver call.  One fused solve keeps ~18 float64
#: ``(2B, 61)`` lanes live, about 17.6 kB per row: 256 rows keep the
#: per-step working set near the L2 cache while still amortising the
#: Python-level bisection loop, where 4096-row slices stream ~72 MB of
#: scratch through memory on every step.  On a 2-core Xeon (2 MiB L2
#: per core) 128-512 rows labelled fastest, within noise of each
#: other, and 4096 rows about 1.4x slower (docs/PERFORMANCE.md).
SLICE_ROWS = 256


@dataclass(frozen=True)
class BatchPlanner:
    """Plan solver-call slices for a label/margin request.

    Parameters
    ----------
    max_batch:
        Hard per-slice row cap (default :data:`SLICE_ROWS`).
    bytes_budget:
        Optional peak-scratch bound; with a per-row cost estimate the
        effective slice size becomes
        ``min(max_batch, bytes_budget // row_bytes)``.  ``None`` leaves
        ``max_batch`` in charge: a plain stride loop.
    """

    max_batch: int = SLICE_ROWS
    bytes_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.bytes_budget is not None and self.bytes_budget < 1:
            raise ValueError(
                f"bytes_budget must be >= 1, got {self.bytes_budget}")

    def batch_size(self, row_bytes: int | None = None) -> int:
        """Effective rows per slice for a given per-row scratch cost."""
        size = self.max_batch
        if self.bytes_budget is not None and row_bytes:
            size = min(size, max(1, self.bytes_budget // row_bytes))
        return size

    def plan(self, n_items: int, row_bytes: int | None = None
             ) -> Iterator[tuple[int, int]]:
        """Yield ``(start, stop)`` slices covering ``range(n_items)``."""
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        step = self.batch_size(row_bytes)
        for start in range(0, n_items, step):
            yield start, min(start + step, n_items)

    def with_(self, **changes) -> "BatchPlanner":
        from dataclasses import replace

        return replace(self, **changes)
