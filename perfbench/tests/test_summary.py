"""The percentile rule and failure counting."""

import pytest

from summary import Tally, describe, nearest_rank, percentile, \
    tail_percentile


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None),        # the median has < 10 samples beyond
    (20, "50"), (39, "50"),
    (40, "75"), (99, "75"),
    (100, "90"), (199, "90"),
    (200, "95"), (999, "95"),
    (1000, "99"), (9999, "99"),
    (10000, "99.9"),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 40, 100, 200, 1000, 10000])
def test_exactly_ten_samples_lie_beyond_at_each_boundary(n):
    tail = tail_percentile(n)
    assert n - nearest_rank(n, tail) == 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, "50") == 50
    assert percentile(values, "90") == 90
    assert percentile(values[::-1], "99") == 99


def test_describe_states_the_count_and_only_qualifying_tails():
    assert describe([1.0] * 19, "ms") == "p50 1 ms  (n=19)"
    text = describe(list(range(100)), "ms")
    assert "p90 89 ms" in text and text.endswith("(n=100)")


def test_tally_counts_checks_errors_and_ratio():
    tally = Tally()
    assert tally.fail_ratio == 0.0
    tally.check(True, "fine")
    tally.check(False, "duplicate not cached")
    tally.error("submit", ValueError("boom"))
    tally.check(True, "fine again")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5
    assert tally.failures[1] == "submit: ValueError: boom"
