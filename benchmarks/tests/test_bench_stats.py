import pytest

from stats import MIN_BEYOND, TAIL_LADDER, _rank, tail, tail_percentile


@pytest.mark.parametrize("n", [20, 99, 100, 999, 1000, 1001, 9999, 10000, 23000, 99999, 100000, 250000])
def test_tail_percentile_keeps_ten_samples_beyond_and_is_the_highest_such(n):
    pct = tail_percentile(n)
    milli = round(pct * 1000)
    assert n - _rank(n, milli) >= MIN_BEYOND
    higher = [m for m in TAIL_LADDER if m > milli]
    assert all(n - _rank(n, m) < MIN_BEYOND for m in higher)


@pytest.mark.parametrize("n, expected", [(20, 50.0), (100, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)])
def test_tail_percentile_rungs(n, expected):
    assert tail_percentile(n) == expected


def test_too_few_samples_are_refused():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_tail_value_is_the_nearest_rank_sample():
    samples = [float(v) for v in range(1000, 0, -1)]
    assert tail(samples) == (99.0, 990.0)
