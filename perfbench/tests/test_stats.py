import pytest

from perfbench.stats import (
    TooFewSamples,
    median,
    min_samples,
    percentile,
    quartile_spread,
)


def test_p90_needs_one_hundred_samples():
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    with pytest.raises(TooFewSamples, match="p90 needs at least 100"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_percentile_rejects_non_tail_quantiles():
    with pytest.raises(ValueError):
        min_samples(50)


def test_median_of_nothing_is_refused():
    with pytest.raises(TooFewSamples):
        median([])


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(n=4) gives 2.75 and 8.25; the median is 5.5.
    assert quartile_spread(values) == pytest.approx(5.5 / 5.5)
