"""The percentile helper: highest percentile with >= 10 samples beyond."""

import pytest

import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (1000, 90),  # capped: p95/p99 qualify but the metric is p90
        (100, 90),   # exactly ten beyond
        (99, 80),    # 9.9 beyond p90 is not ten
        (52, 80),
        (50, 80),
        (40, 75),
        (34, 70),
        (33, 60),
        (25, 60),
        (20, 50),
        (5, 50),     # not even the median keeps ten; the floor is p50
    ],
)
def test_tail_percentile_keeps_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if count >= 20:
        assert count * (100 - expected) >= stats.MIN_BEYOND * 100


def test_tail_percentile_cap():
    assert stats.tail_percentile(1000, cap=99) == 99
    assert stats.tail_percentile(1000, cap=75) == 75


def test_each_workload_reports_the_tail_its_op_count_allows():
    import wl_fabric
    import wl_serve
    import wl_train

    assert wl_train.TAIL == stats.tail_percentile(wl_train.MIN_STEPS) == 90
    assert wl_serve.TAIL == stats.tail_percentile(wl_serve.MIN_JOBS) == 80
    assert wl_fabric.CELLS_PER_PASS == 40
    assert wl_fabric.TAIL == stats.tail_percentile(40) == 75


def test_nearest_rank_percentile_leaves_the_expected_count_beyond():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert sum(v > stats.percentile(values, 90) for v in values) == 10
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_iqr_over_median():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)
    assert stats.spread([1.0]) is None
