"""Tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (
    COUNT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BOUNDS,
    Metrics,
)


class TestInstruments(object):
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.add(0.5)
        assert gauge.value == 4.0

    def test_histogram_tracks_count_sum_max_mean(self):
        hist = Histogram("h")
        for value in (1e-6, 2e-3, 0.5):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(1e-6 + 2e-3 + 0.5)
        assert hist.max == 0.5
        assert hist.mean == pytest.approx(hist.sum / 3)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_bucket_placement_is_log_scale(self):
        hist = Histogram("h")
        # One observation per bound, exactly on the inclusive upper edge.
        for bound in LATENCY_BOUNDS:
            hist.observe(bound)
        assert hist.buckets == [1] * len(LATENCY_BOUNDS) + [0]

    def test_overflow_bucket_catches_the_tail(self):
        hist = Histogram("h")
        hist.observe(LATENCY_BOUNDS[-1] * 10)
        assert hist.buckets[-1] == 1

    def test_bucket_totals_match_count(self):
        hist = Histogram("h", bounds=COUNT_BOUNDS)
        for value in (1, 2, 3, 5, 8, 1000, 99999):
            hist.observe(value)
        assert sum(hist.buckets) == hist.count == 7


class TestRegistry(object):
    def test_create_then_return_same_instrument(self):
        metrics = Metrics()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.gauge("b") is metrics.gauge("b")
        assert metrics.histogram("c") is metrics.histogram("c")

    def test_type_mismatch_raises(self):
        metrics = Metrics()
        metrics.counter("x")
        with pytest.raises(TypeError):
            metrics.gauge("x")

    def test_iteration_sorted_by_name(self):
        metrics = Metrics()
        metrics.counter("z")
        metrics.gauge("a")
        assert [i.name for i in metrics] == ["a", "z"]

    def test_value_lookup(self):
        metrics = Metrics()
        metrics.counter("c").inc(7)
        metrics.gauge("g").set(1.5)
        metrics.histogram("h").observe(2.0)
        assert metrics.value("c") == 7
        assert metrics.value("g") == 1.5
        assert metrics.value("h") == 2.0  # histogram sum
        assert metrics.value("missing", default=-1) == -1

    def test_to_dict_is_json_serializable(self):
        metrics = Metrics()
        metrics.counter("c").inc()
        metrics.gauge("g").set(2.0)
        metrics.histogram("h").observe(1e-4)
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert payload["c"] == {"type": "counter", "value": 1}
        assert payload["g"] == {"type": "gauge", "value": 2.0}
        assert payload["h"]["type"] == "histogram"
        assert payload["h"]["count"] == 1
        assert sum(payload["h"]["buckets"]) == 1

    def test_render_lists_and_filters(self):
        metrics = Metrics()
        metrics.counter("replay.actions").inc(3)
        metrics.counter("storage.reads").inc()
        text = metrics.render()
        assert "replay.actions" in text and "storage.reads" in text
        assert "storage.reads" not in metrics.render(prefix="replay.")
