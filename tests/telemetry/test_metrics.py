"""Tests for repro.telemetry.metrics: series, registry, timing helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    MetricsRegistry,
    Stopwatch,
    snapshot_values,
    throughput_mbs,
)

pytestmark = pytest.mark.telemetry


class TestThroughputHelper:
    def test_paper_number(self):
        # 8 MB in ~20.5 ms is the paper's ~390 MB/s.
        assert throughput_mbs(8_000_000, 0.02051) == pytest.approx(390.0, abs=0.5)

    def test_empty_interval_is_zero_not_an_error(self):
        assert throughput_mbs(1_000, 0.0) == 0.0
        assert throughput_mbs(1_000, -1.0) == 0.0

    def test_stopwatch_measures_injected_clock(self):
        ticks = iter([10.0, 10.5])
        with Stopwatch(wall_clock=lambda: next(ticks)) as sw:
            pass
        assert sw.elapsed_s == pytest.approx(0.5)
        assert sw.throughput_mbs(5_000_000) == pytest.approx(10.0)


class TestSeries:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_stats(self):
        hist = MetricsRegistry().histogram("lat_ms", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 1]  # one overflow
        assert hist.count == 4
        assert hist.min == 0.5
        assert hist.max == 500.0
        assert hist.mean == pytest.approx(138.875)

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", bounds=(10.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("empty", bounds=())


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("drops", detector="vehicle")
        b = registry.counter("drops", detector="vehicle")
        other = registry.counter("drops", detector="pedestrian")
        assert a is b
        assert a is not other
        assert len(registry) == 2

    def test_lookup_ignores_label_order_and_renders_values_as_str(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", site="dma", engine="veh")
        assert registry.counter("hits", engine="veh", site="dma") is a
        assert registry.counter("hits", site="dma", engine="veh") is a
        one = registry.counter("n", value=1)
        assert registry.counter("n", value="1") is one
        assert registry.counter("n", value=1) is one
        # Equal as Python values, different as labels.
        assert registry.counter("n", value=True) is not one
        assert registry.counter("n", value=1.0) is not one
        assert registry.counter("hits", site="dma") is not a
        assert registry.gauge("hits", site="dma", engine="veh") is not a
        assert [s.labels for s in registry.series()] == [
            {"site": "dma", "engine": "veh"},
            {"value": "1"},
            {"value": "True"},
            {"value": "1.0"},
            {"site": "dma"},
            {"site": "dma", "engine": "veh"},
        ]

    def test_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("drops", detector="vehicle").inc(3)
        registry.gauge("mbs", controller="paper-pr").set(390.0)
        assert registry.value("drops", detector="vehicle") == 3.0
        assert registry.value("mbs", controller="paper-pr") == 390.0
        assert registry.value("missing") is None

    def test_snapshot_round_trips_through_snapshot_values(self):
        registry = MetricsRegistry()
        registry.counter("faults", site="dma-error").inc(2)
        registry.histogram("reconfig_ms").observe(20.5)
        table = snapshot_values(registry.snapshot())
        assert table["faults"][(("site", "dma-error"),)] == 2.0
        assert table["reconfig_ms"][()] == pytest.approx(20.5)


class TestHistogramPercentiles:
    def _hist(self, values, bounds=(1.0, 10.0, 100.0)):
        hist = MetricsRegistry().histogram("lat_ms", bounds=bounds)
        for value in values:
            hist.observe(value)
        return hist

    def test_empty_histogram_has_no_percentiles(self):
        hist = MetricsRegistry().histogram("lat_ms", bounds=(1.0,))
        assert hist.percentile(50.0) is None
        assert hist.percentiles() == {}

    def test_q_out_of_range_rejected(self):
        hist = self._hist([5.0])
        with pytest.raises(ConfigurationError):
            hist.percentile(-1.0)
        with pytest.raises(ConfigurationError):
            hist.percentile(100.5)

    def test_interpolates_within_bucket(self):
        # 10 samples uniform in the (1, 10] bucket: the p50 estimate lands
        # mid-bucket by linear interpolation.
        hist = self._hist([float(v) for v in range(1, 11)], bounds=(0.0, 10.0, 100.0))
        estimate = hist.percentile(50.0)
        assert 4.0 <= estimate <= 6.0

    def test_estimates_bounded_by_observations(self):
        hist = self._hist([5.0, 6.0, 7.0])
        assert hist.min <= hist.percentile(0.0) <= hist.max
        assert hist.percentile(100.0) <= hist.max

    def test_overflow_bucket_uses_observed_max(self):
        hist = self._hist([500.0, 600.0])
        assert hist.percentile(99.0) <= 600.0
        assert hist.percentile(99.0) > 100.0

    def test_percentiles_table_keys(self):
        hist = self._hist([1.0, 2.0, 3.0])
        table = hist.percentiles()
        assert set(table) == {"p50", "p90", "p99"}
        table_custom = hist.percentiles(qs=(25.0,))
        assert set(table_custom) == {"p25"}

    def test_to_dict_gains_percentiles_keeps_existing_keys(self):
        hist = self._hist([5.0, 50.0])
        doc = hist.to_dict()
        for key in ("kind", "name", "labels", "bounds", "bucket_counts",
                    "count", "sum", "min", "max"):
            assert key in doc
        assert set(doc["percentiles"]) == {"p50", "p90", "p99"}
