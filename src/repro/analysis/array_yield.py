"""Array-level yield from cell-level failure probability.

The paper's introduction motivates the 1e-8-and-below cell failure
probabilities with on-chip caches of "tens of mega bytes": even a tiny
per-cell probability multiplies across millions of cells.  This module
provides that last conversion step:

* plain arrays -- every cell must work;
* row-redundancy repair -- a handful of spare rows absorb the worst rows;
* SECDED-style ECC -- each word tolerates one bad cell.

Everything is exact binomial/Poisson arithmetic, no sampling, and the
survival paths run in log space (``repro.analysis.ecc`` primitives),
so the functions are safe to call with the estimator outputs'
confidence bounds -- down to cell pfail ~ 1e-15 at gigabit geometries
-- without the yield silently saturating to 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ecc import log1mexp, log_binom_sf


def _check_probability(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return float(p)


def array_failure_probability(cell_pfail: float, n_cells: int) -> float:
    """P(any of ``n_cells`` fails) = 1 - (1 - p)^N, computed stably.

    >>> round(array_failure_probability(1e-9, 1_000_000), 4)
    0.001
    """
    p = _check_probability(cell_pfail)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if p >= 1.0:
        return 1.0
    return float(-np.expm1(n_cells * np.log1p(-p)))


def yield_with_row_redundancy(cell_pfail: float, rows: int,
                              cells_per_row: int, spare_rows: int) -> float:
    """Array yield when up to ``spare_rows`` defective rows can be
    repaired.

    A row is defective if any of its cells fails; the array survives when
    at most ``spare_rows`` rows are defective (binomial over rows).
    """
    p = _check_probability(cell_pfail)
    if rows < 1 or cells_per_row < 1:
        raise ValueError("rows and cells_per_row must be >= 1")
    if spare_rows < 0:
        raise ValueError("spare_rows must be >= 0")
    return float(-math.expm1(_log_redundancy_failure(
        p, rows, cells_per_row, spare_rows)))


def array_failure_with_row_redundancy(cell_pfail: float, rows: int,
                                      cells_per_row: int,
                                      spare_rows: int) -> float:
    """``1 - yield_with_row_redundancy``, without the cancellation.

    At small pfail the yield rounds to 1.0 and the failure information
    is gone; this path keeps it (log-space binomial survival).
    """
    return float(math.exp(_log_redundancy_failure(
        _check_probability(cell_pfail), rows, cells_per_row,
        spare_rows)))


def _log_redundancy_failure(p: float, rows: int, cells_per_row: int,
                            spare_rows: int) -> float:
    if rows < 1 or cells_per_row < 1:
        raise ValueError("rows and cells_per_row must be >= 1")
    if spare_rows < 0:
        raise ValueError("spare_rows must be >= 0")
    row_fail = array_failure_probability(p, cells_per_row)
    return log_binom_sf(spare_rows, rows, row_fail)


def yield_with_ecc(cell_pfail: float, words: int, bits_per_word: int,
                   correctable_bits: int = 1) -> float:
    """Array yield when each word corrects up to ``correctable_bits``.

    A word fails when more than ``correctable_bits`` of its cells fail;
    the array survives when no word fails.
    """
    p = _check_probability(cell_pfail)
    if words < 1 or bits_per_word < 1:
        raise ValueError("words and bits_per_word must be >= 1")
    if correctable_bits < 0:
        raise ValueError("correctable_bits must be >= 0")
    return float(math.exp(_log_ecc_survival(p, words, bits_per_word,
                                            correctable_bits)))


def array_failure_with_ecc(cell_pfail: float, words: int,
                           bits_per_word: int,
                           correctable_bits: int = 1) -> float:
    """``1 - yield_with_ecc``, computed failure-first so it stays
    meaningful when the yield is within machine epsilon of 1.0."""
    p = _check_probability(cell_pfail)
    if words < 1 or bits_per_word < 1:
        raise ValueError("words and bits_per_word must be >= 1")
    if correctable_bits < 0:
        raise ValueError("correctable_bits must be >= 0")
    return float(-math.expm1(_log_ecc_survival(
        p, words, bits_per_word, correctable_bits)))


def _log_ecc_survival(p: float, words: int, bits_per_word: int,
                      correctable_bits: int) -> float:
    log_word_fail = log_binom_sf(correctable_bits, bits_per_word, p)
    return words * log1mexp(log_word_fail)


def required_cell_pfail(array_yield_target: float, n_cells: int) -> float:
    """Cell failure probability needed for a plain array to hit a yield
    target -- the spec the paper says makes naive MC hopeless.

    >>> p = required_cell_pfail(0.99, 64 * 2**20 * 8)   # 64 MiB of cells
    >>> p < 1e-10
    True
    """
    if not 0.0 < array_yield_target < 1.0:
        raise ValueError("yield target must lie in (0, 1)")
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    return float(-np.expm1(np.log(array_yield_target) / n_cells))


@dataclass(frozen=True)
class CacheSpec:
    """A cache organisation for yield studies.

    Attributes
    ----------
    capacity_bits:
        Total data bits.
    word_bits:
        ECC word size (data + check bits all count as cells).
    rows, spare_rows:
        Physical row organisation for redundancy repair.
    """

    capacity_bits: int
    word_bits: int = 72
    rows: int = 8192
    spare_rows: int = 8

    def __post_init__(self):
        if self.capacity_bits < 1 or self.word_bits < 1 or self.rows < 1:
            raise ValueError("sizes must be >= 1")
        if self.spare_rows < 0:
            raise ValueError("spare_rows must be >= 0")

    @property
    def cells_per_row(self) -> int:
        return max(self.capacity_bits // self.rows, 1)

    @property
    def words(self) -> int:
        return max(self.capacity_bits // self.word_bits, 1)

    def yield_report(self, cell_pfail: float) -> dict:
        """Yields under the three protection schemes."""
        return {
            "no_protection": 1.0 - array_failure_probability(
                cell_pfail, self.capacity_bits),
            "row_redundancy": yield_with_row_redundancy(
                cell_pfail, self.rows, self.cells_per_row,
                self.spare_rows),
            "secded_ecc": yield_with_ecc(cell_pfail, self.words,
                                         self.word_bits),
        }


def expected_failures(cell_pfail: float, n_cells: int) -> float:
    """Expected number of failing cells (Poisson mean)."""
    p = _check_probability(cell_pfail)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    return p * n_cells


def failures_quantile(cell_pfail: float, n_cells: int,
                      quantile: float = 0.99) -> int:
    """Upper quantile of the failing-cell count (Poisson approximation)."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    from scipy.stats import poisson

    mean = expected_failures(cell_pfail, n_cells)
    return int(poisson.ppf(quantile, mean))
