"""Tests for repro.metrics.aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.aggregation import (
    Cdf,
    bin_by,
    boxplot_stats,
    percentile_summary,
)

SAMPLES = st.lists(st.floats(min_value=-100, max_value=100,
                             allow_nan=False), min_size=1, max_size=50)


class TestCdf:
    def test_fraction_below(self):
        cdf = Cdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_below(2.5) == pytest.approx(0.5)
        assert cdf.fraction_below(0.0) == 0.0
        assert cdf.fraction_below(10.0) == 1.0

    def test_inclusive_at_sample(self):
        cdf = Cdf.from_samples([1.0, 2.0])
        assert cdf.fraction_below(1.0) == pytest.approx(0.5)

    def test_value_at_quantile(self):
        cdf = Cdf.from_samples([10.0, 20.0, 30.0, 40.0])
        assert cdf.value_at(0.5) == 20.0
        assert cdf.value_at(1.0) == 40.0

    def test_value_at_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([1.0]).value_at(0.0)

    def test_empty(self):
        cdf = Cdf.from_samples([])
        assert np.isnan(cdf.fraction_below(1.0))
        assert np.isnan(cdf.value_at(0.5))

    @given(SAMPLES)
    @settings(max_examples=40, deadline=None)
    def test_monotone_nondecreasing(self, samples):
        cdf = Cdf.from_samples(samples)
        grid = np.linspace(min(samples) - 1, max(samples) + 1, 20)
        values = [cdf.fraction_below(threshold) for threshold in grid]
        assert np.all(np.diff(values) >= 0)

    @given(SAMPLES)
    @settings(max_examples=40, deadline=None)
    def test_quantile_inverse_consistency(self, samples):
        cdf = Cdf.from_samples(samples)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            value = cdf.value_at(fraction)
            assert cdf.fraction_below(value) >= fraction - 1e-9


class TestPercentiles:
    def test_known_values(self):
        data = np.arange(1, 101)
        summary = percentile_summary(data)
        assert summary[50] == pytest.approx(50.5)
        assert summary[10] == pytest.approx(10.9)

    def test_empty_gives_nan(self):
        summary = percentile_summary([])
        assert all(np.isnan(v) for v in summary.values())

    def test_boxplot_stats_structure(self):
        stats = boxplot_stats([1.0, 2.0, 3.0])
        assert set(stats) == {"whisker_low", "q1", "median", "q3",
                              "whisker_high", "count"}
        assert stats["count"] == 3
        assert stats["whisker_low"] <= stats["median"] \
            <= stats["whisker_high"]


class TestBinBy:
    def test_partition(self):
        values = np.array([10, 20, 30, 40])
        keys = np.array([1.0, 5.0, 5.5, 9.0])
        bins = bin_by(values, keys, [0, 5, 10])
        np.testing.assert_array_equal(bins[(0.0, 5.0)], [10])
        np.testing.assert_array_equal(bins[(5.0, 10.0)], [20, 30, 40])

    def test_half_open_intervals(self):
        bins = bin_by(np.array([1]), np.array([5.0]), [0, 5, 10])
        assert len(bins[(0.0, 5.0)]) == 0
        assert len(bins[(5.0, 10.0)]) == 1

    def test_out_of_range_dropped(self):
        bins = bin_by(np.array([1, 2]), np.array([-5.0, 100.0]), [0, 10])
        assert len(bins[(0.0, 10.0)]) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_by(np.array([1]), np.array([1.0, 2.0]), [0, 1])
        with pytest.raises(ValueError):
            bin_by(np.array([1]), np.array([1.0]), [5, 1])
