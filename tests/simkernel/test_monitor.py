"""Tally and Counter instrumentation."""

import math

import pytest

from repro.simkernel import Counter, Tally


class TestTally:
    def test_empty_tally(self):
        t = Tally()
        assert t.count == 0
        assert math.isnan(t.mean)
        assert t.variance == 0.0

    def test_streaming_stats_match_reference(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        t = Tally()
        for v in values:
            t.observe(v)
        assert t.count == len(values)
        assert t.mean == pytest.approx(5.0)
        assert t.min == 2.0
        assert t.max == 9.0
        assert t.total == pytest.approx(sum(values))
        # sample stdev of this classic dataset
        ref_var = sum((v - 5.0) ** 2 for v in values) / (len(values) - 1)
        assert t.variance == pytest.approx(ref_var)

    def test_kept_samples(self):
        t = Tally(keep_samples=True)
        for v in (1.0, 2.0, 3.0):
            t.observe(v)
        assert t.samples == [1.0, 2.0, 3.0]

    def test_summary_keys(self):
        t = Tally()
        t.observe(1.0)
        summary = t.summary()
        assert set(summary) == {"count", "mean", "stdev", "min", "max", "total"}

    def test_summary_has_percentiles_with_kept_samples(self):
        t = Tally(keep_samples=True)
        for v in range(1, 101):
            t.observe(float(v))
        summary = t.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    def test_percentile_interpolates(self):
        t = Tally(keep_samples=True)
        for v in (1.0, 2.0, 3.0, 4.0):
            t.observe(v)
        assert t.percentile(0.0) == 1.0
        assert t.percentile(1.0) == 4.0
        assert t.percentile(0.5) == pytest.approx(2.5)

    def test_percentile_requires_kept_samples(self):
        t = Tally()
        t.observe(1.0)
        with pytest.raises(ValueError):
            t.percentile(0.5)
        assert "p50" not in t.summary()

    def test_percentile_empty_is_nan(self):
        t = Tally(keep_samples=True)
        assert math.isnan(t.percentile(0.5))

    @pytest.mark.parametrize("q", [-0.1, 1.1, 100.0])
    def test_percentile_validates_quantile(self, q):
        t = Tally(keep_samples=True)
        t.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            t.percentile(q)

    def test_percentiles_batch_single_sort(self):
        t = Tally(keep_samples=True)
        for v in range(1, 1001):
            t.observe(float(v))
        p50, p99, p999 = t.percentiles((0.50, 0.99, 0.999))
        assert p50 == t.percentile(0.50)
        assert p99 == t.percentile(0.99)
        assert p999 == pytest.approx(999.001)

    def test_percentiles_validate_every_quantile(self):
        t = Tally(keep_samples=True)
        t.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            t.percentiles((0.5, 2.0))

    def test_percentiles_empty_is_nan_list(self):
        t = Tally(keep_samples=True)
        assert all(math.isnan(v) for v in t.percentiles((0.1, 0.9)))

    def test_summary_includes_p999(self):
        t = Tally(keep_samples=True)
        for v in range(1, 101):
            t.observe(float(v))
        assert t.summary()["p999"] == pytest.approx(99.901)


class TestCounter:
    def test_incr_and_lookup(self):
        c = Counter()
        c.incr("messages")
        c.incr("messages", 4)
        c.incr("bytes", 100)
        assert c["messages"] == 5
        assert c["bytes"] == 100
        assert c["missing"] == 0

    def test_items_sorted(self):
        c = Counter()
        c.incr("z")
        c.incr("a")
        assert [k for k, _ in c.items()] == ["a", "z"]

    def test_clear(self):
        c = Counter()
        c.incr("x")
        c.clear()
        assert c["x"] == 0
