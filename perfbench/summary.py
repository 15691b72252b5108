"""Timing summaries, the percentile rule and operation tallies.

Every timing the benchmark reports is a median plus the highest
percentile that still has at least ten samples beyond it, with the
sample count stated next to it.  Percentiles use the nearest-rank
definition, so "samples beyond" is an exact integer count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

#: percentiles the tail is chosen from, highest qualifying one wins.
LADDER = ("50", "75", "90", "95", "99", "99.9")

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(n: int, percentile: str) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` sorted samples."""
    return max(1, math.ceil(Fraction(percentile) * n / 100))


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for percentile in LADDER:
        if n - nearest_rank(n, percentile) >= MIN_BEYOND:
            best = percentile
    return best


def percentile(values, pct: str) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def describe(values, unit: str, scale: float = 1.0) -> str:
    """``"p50 12.3 ms  p90 15.1 ms  (n=120)"`` under the percentile rule."""
    values = [v * scale for v in values]
    if not values:
        return "no samples"
    text = f"p50 {statistics.median(values):.4g} {unit}"
    tail = tail_percentile(len(values))
    if tail is not None and tail != "50":
        text += f"  p{tail} {percentile(values, tail):.4g} {unit}"
    return f"{text}  (n={len(values)})"


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    An operation fails when it raises, when its output fails a check,
    when a job ends in any state but ``done``, or when a duplicate
    submit is not served from the result cache.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return ratio(self.failed, self.attempted)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        """Count one operation that raised."""
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")
