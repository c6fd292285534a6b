"""Tests for repro.obs -- the metrics registry and the no-op facade."""

import json
import random
import zlib

import pytest

from repro import obs
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceEvent,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("x")
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_exact_stats_small_sample(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0

    def test_percentiles_exact_until_reservoir_fills(self):
        histogram = Histogram("h", reservoir=1000)
        for value in range(1, 1001):
            histogram.observe(float(value))
        assert histogram.percentile(50) == 500.0
        assert histogram.percentile(95) == 950.0
        assert histogram.percentile(99) == 990.0

    def test_reservoir_stays_bounded(self):
        histogram = Histogram("h", reservoir=64)
        for value in range(10_000):
            histogram.observe(float(value))
        assert len(histogram._sample) == 64
        assert histogram.count == 10_000
        assert histogram.minimum == 0.0
        assert histogram.maximum == 9_999.0

    def test_reservoir_percentiles_representative(self):
        histogram = Histogram("h", reservoir=512)
        for value in range(20_000):
            histogram.observe(float(value))
        # Uniform input: the sampled median should land near the middle.
        assert 5_000 < histogram.percentile(50) < 15_000

    def test_deterministic_across_instances(self):
        a = Histogram("same-name", reservoir=32)
        b = Histogram("same-name", reservoir=32)
        for value in range(5_000):
            a.observe(float(value))
            b.observe(float(value))
        assert a._sample == b._sample
        assert a.summary() == b.summary()

    def test_rng_is_built_at_the_first_draw_with_the_name_seed(self):
        histogram = Histogram("lazy", reservoir=8)
        for value in range(8):
            histogram.observe(float(value))
        assert histogram._rng is None
        # Algorithm R over the same stream with the rng built up front.
        rng = random.Random(zlib.crc32(b"lazy"))
        expected = [float(value) for value in range(8)]
        for count, value in enumerate(range(8, 200), 9):
            histogram.observe(float(value))
            slot = int(rng.random() * count)
            if slot < 8:
                expected[slot] = float(value)
        assert histogram._sample == expected

    def test_invalid_reservoir_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", reservoir=0)

    def test_invalid_percentile_rejected(self):
        histogram = Histogram("h")
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_empty_summary_is_zeroes(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p50"] == 0.0


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.inc("a.counter")
        registry.set_gauge("a.gauge", 5.0)
        registry.observe("a.histogram", 1.0)
        assert registry.counter("a.counter").value == 1.0
        assert registry.gauge("a.gauge").value == 5.0
        assert registry.histogram("a.histogram").count == 1

    def test_snapshot_schema_uniform(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.set_gauge("g", 7.0)
        for value in [1.0, 2.0, 3.0]:
            registry.observe("h", value)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"c", "g", "h"}
        for row in snapshot.values():
            assert set(row) == {
                "count", "mean", "p50", "p95", "p99", "min", "max", "total",
            }
        # Counters/gauges fold into point rows.
        assert snapshot["c"]["mean"] == 3.0
        assert snapshot["c"]["p99"] == 3.0
        assert snapshot["g"]["p50"] == 7.0
        assert snapshot["h"]["count"] == 3
        assert snapshot["h"]["mean"] == 2.0

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.5)
        decoded = json.loads(registry.to_json())
        assert decoded["h"]["count"] == 1

    def test_trace_events_and_filter(self):
        registry = MetricsRegistry()
        registry.trace("split", parent=1, child=2)
        registry.trace("route", hops=4)
        events = registry.events()
        assert [event.kind for event in events] == ["split", "route"]
        assert all(isinstance(event, TraceEvent) for event in events)
        routes = registry.events("route")
        assert len(routes) == 1
        assert routes[0].fields == {"hops": 4}
        assert routes[0].as_dict() == {"kind": "route", "hops": 4}

    def test_trace_field_named_kind_does_not_collide(self):
        # Regression: the transport layer traces the *message* kind as a
        # field called "kind"; the event-kind parameter is positional-only
        # so the two never clash.
        registry = MetricsRegistry()
        registry.trace("delivery", kind="heartbeat", latency=0.5)
        (event,) = registry.events("delivery")
        assert event.kind == "delivery"
        assert event.fields["kind"] == "heartbeat"

    def test_trace_ring_is_bounded(self):
        registry = MetricsRegistry(trace_capacity=10)
        for i in range(100):
            registry.trace("tick", i=i)
        events = registry.events()
        assert len(events) == 10
        assert registry.trace_appended == 100
        assert [event.fields["i"] for event in events] == list(range(90, 100))

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 1.0)
        registry.trace("t")
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.events() == ()
        assert registry.trace_appended == 0


class TestFacade:
    def teardown_method(self):
        obs.disable()

    def test_disabled_by_default_calls_are_noops(self):
        obs.disable()
        assert obs.active() is None
        # None of these should raise or allocate a registry.
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)
        obs.trace("t", x=1)
        assert obs.active() is None

    def test_enable_and_disable(self):
        registry = obs.enable()
        assert obs.active() is registry
        obs.inc("c", 2)
        assert registry.counter("c").value == 2.0
        obs.disable()
        assert obs.active() is None

    def test_enable_accepts_existing_registry(self):
        mine = MetricsRegistry()
        returned = obs.enable(mine)
        assert returned is mine
        assert obs.active() is mine

    def test_capture_restores_previous(self):
        outer = obs.enable()
        with obs.capture() as inner:
            assert obs.active() is inner
            assert inner is not outer
            obs.inc("inner.only")
        assert obs.active() is outer
        assert outer.counter("inner.only").value == 0.0
        assert inner.counter("inner.only").value == 1.0

    def test_capture_restores_on_exception(self):
        obs.disable()
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.active() is None
