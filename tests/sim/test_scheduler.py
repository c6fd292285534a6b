"""Tests for repro.sim.scheduler."""

import gc
import random
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Event, EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.at(3.0, lambda: fired.append("c"))
        scheduler.at(1.0, lambda: fired.append("a"))
        scheduler.at(2.0, lambda: fired.append("b"))
        scheduler.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_equal_timestamps_fifo(self):
        scheduler = EventScheduler()
        fired = []
        for label in "abcde":
            scheduler.at(1.0, lambda l=label: fired.append(l))
        scheduler.run_until(1.0)
        assert fired == list("abcde")

    def test_heap_never_compares_events(self, monkeypatch):
        """Equal-time events fire FIFO on the sequence number alone: the
        heap orders ``(time, sequence, event)`` entries and never falls
        through to the events or their (unorderable) callbacks."""

        def refuse(self, other):
            raise AssertionError("heap compared two events")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Event, name, refuse)

        class Opaque:
            def __init__(self, label, fired):
                self.label, self.fired = label, fired

            def __call__(self):
                self.fired.append(self.label)

        scheduler = EventScheduler()
        fired = []
        rng = random.Random(5)
        times = {label: float(rng.choice([1, 2])) for label in range(300)}
        for label, when in times.items():
            scheduler.at(when, Opaque(label, fired))
        scheduler.run_all()
        # Time order first; within one timestamp, scheduling order.
        assert fired == sorted(times, key=lambda label: (times[label], label))

    def test_clock_advances_to_event_times(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.at(2.5, lambda: seen.append(scheduler.now))
        scheduler.run_until(5.0)
        assert seen == [2.5]
        assert scheduler.now == 5.0

    def test_after_is_relative(self):
        scheduler = EventScheduler(start_time=10.0)
        seen = []
        scheduler.after(1.5, lambda: seen.append(scheduler.now))
        scheduler.run_until(20.0)
        assert seen == [11.5]

    def test_past_scheduling_rejected(self):
        scheduler = EventScheduler(start_time=5.0)
        with pytest.raises(SimulationError):
            scheduler.at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.after(-1.0, lambda: None)

    def test_run_until_respects_horizon(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.at(1.0, lambda: fired.append(1))
        scheduler.at(9.0, lambda: fired.append(9))
        scheduler.run_until(5.0)
        assert fired == [1]
        scheduler.run_until(10.0)
        assert fired == [1, 9]

    def test_events_scheduled_during_run_fire_same_run(self):
        scheduler = EventScheduler()
        fired = []

        def cascade():
            fired.append("first")
            scheduler.after(1.0, lambda: fired.append("second"))

        scheduler.at(1.0, cascade)
        scheduler.run_until(10.0)
        assert fired == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.at(1.0, lambda: fired.append(1))
        event.cancel()
        scheduler.run_until(5.0)
        assert fired == []

    def test_pending_ignores_cancelled(self):
        scheduler = EventScheduler()
        event = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        assert scheduler.pending() == 2
        event.cancel()
        assert scheduler.pending() == 1


class TestPeriodic:
    def test_every_rearms(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.every(1.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_cancel_stops(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.every(1.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(2.5)
        handle.cancel()
        scheduler.run_until(10.0)
        assert fired == [1.0, 2.0]

    def test_every_with_jitter(self):
        scheduler = EventScheduler()
        rng = random.Random(1)
        fired = []
        scheduler.every(
            1.0, lambda: fired.append(scheduler.now), jitter=0.2, rng=rng
        )
        scheduler.run_until(10.0)
        assert len(fired) >= 7
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(0.7 <= gap <= 1.3 for gap in gaps)

    def test_every_rejects_nonpositive_interval(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.every(0.0, lambda: None)

    def test_every_cancel_from_its_own_callback_stops(self):
        scheduler = EventScheduler()
        fired = []

        def tick():
            fired.append(scheduler.now)
            if len(fired) == 2:
                handle.cancel()

        handle = scheduler.every(1.0, tick)
        scheduler.run_until(10.0)
        assert fired == [1.0, 2.0]
        assert scheduler.pending() == 0


def lattice_run(drive, until=12.0):
    """Fire times of a 0.3-period timer started at 0.1 (a lattice whose
    floats are inexact, so a re-derived tick would show); ``drive(
    scheduler, handle, fired)`` may put the timer to sleep and wake it."""
    scheduler = EventScheduler(start_time=0.1)
    fired = []

    def tick():
        fired.append(scheduler.now)
        drive(scheduler, handle, fired)

    handle = scheduler.every(0.3, tick)
    scheduler.run_until(until)
    return fired


class TestPeriodicSleep:
    def setup_method(self):
        self.plain = lattice_run(lambda *_: None)

    def test_sleep_then_wake_fires_on_the_uninterrupted_ticks(self):
        plain = self.plain
        wake_at = (plain[9] + plain[10]) / 2

        def drive(scheduler, handle, fired):
            if len(fired) == 3:
                handle.sleep(20)
                scheduler.at(wake_at, handle.wake)

        assert lattice_run(drive) == plain[:3] + plain[10:]

    def test_wake_on_a_tick_pulls_to_the_next_one(self):
        plain = self.plain

        def drive(scheduler, handle, fired):
            if len(fired) == 3:
                handle.sleep(20)
                scheduler.at(plain[7], handle.wake)

        assert lattice_run(drive) == plain[:3] + plain[8:]

    def test_sleep_outside_the_callback_skips_armed_ticks(self):
        plain = self.plain

        def drive(scheduler, handle, fired):
            if len(fired) == 2:
                # Runs after the re-arm: the timer is armed at plain[2].
                scheduler.after(0.0, lambda: handle.sleep(4))

        assert lattice_run(drive) == plain[:2] + plain[6:]

    def test_wake_from_the_callback_cancels_its_sleep(self):
        def drive(scheduler, handle, fired):
            handle.sleep(5)
            handle.wake()

        assert lattice_run(drive) == self.plain

    def test_due_names_the_next_tick(self):
        plain = self.plain
        seen = []

        def drive(scheduler, handle, fired):
            if len(fired) == 1:
                handle.sleep(2)
                seen.append(handle.due)

        assert lattice_run(drive)[1] == seen[0] == plain[3]

    def test_cancel_after_sleep_stops(self):
        fired = []
        scheduler = EventScheduler()
        handle = scheduler.every(1.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(1.5)
        handle.sleep(3)
        handle.cancel()
        handle.wake()
        scheduler.run_until(20.0)
        assert fired == [1.0]
        assert scheduler.pending() == 0

    def test_jittered_timer_cannot_sleep(self):
        scheduler = EventScheduler()
        handle = scheduler.every(1.0, lambda: None, jitter=0.1, rng=random.Random(1))
        for call in (lambda: handle.sleep(1), handle.wake):
            with pytest.raises(SimulationError):
                call()


class TestCancelReleases:
    class Payload:
        pass

    def test_cancelled_event_drops_its_callback(self):
        scheduler = EventScheduler()
        payload = self.Payload()
        ref = weakref.ref(payload)
        event = scheduler.at(1.0, lambda payload=payload: None)
        del payload
        gc.disable()
        try:
            assert ref() is not None
            event.cancel()
            assert ref() is None
        finally:
            gc.enable()

    def test_cancelled_periodic_is_freed_without_the_collector(self):
        scheduler = EventScheduler()
        payload = self.Payload()
        ref = weakref.ref(payload)
        handle = scheduler.every(1.0, lambda payload=payload: None)
        scheduler.run_until(2.5)
        del payload
        gc.disable()
        try:
            handle.cancel()
            del handle
            assert ref() is None
        finally:
            gc.enable()


class TestGuards:
    def test_runaway_loop_detected(self):
        scheduler = EventScheduler()

        def rearm():
            scheduler.after(0.0, rearm)

        scheduler.at(0.0, rearm)
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0, max_events=1000)

    def test_run_all_drains_queue(self):
        scheduler = EventScheduler()
        fired = []
        for t in (5.0, 1.0, 3.0):
            scheduler.at(t, lambda t=t: fired.append(t))
        count = scheduler.run_all()
        assert count == 3
        assert fired == [1.0, 3.0, 5.0]
        assert scheduler.pending() == 0

    def test_not_reentrant(self):
        scheduler = EventScheduler()

        def nested():
            scheduler.run_until(10.0)

        scheduler.at(1.0, nested)
        with pytest.raises(SimulationError):
            scheduler.run_until(5.0)


class TestCancellationAccounting:
    """Regression: pending() was an O(N) scan and cancelled events sat in
    the heap forever; both are now O(1) with lazy compaction."""

    def test_cancel_thousands_purges_queue(self):
        scheduler = EventScheduler()
        events = [
            scheduler.at(float(t), lambda: None) for t in range(1, 5001)
        ]
        keep = events[::10]
        for event in events:
            if event not in keep:
                event.cancel()
        assert scheduler.pending() == len(keep)
        # Lazy compaction keeps the heap proportional to the live events
        # instead of retaining all 5000 entries.
        assert len(scheduler._queue) <= 2 * len(keep) + 1
        assert scheduler.cancelled_total == len(events) - len(keep)

    def test_pending_tracks_cancel_and_fire(self):
        scheduler = EventScheduler()
        a = scheduler.at(1.0, lambda: None)
        b = scheduler.at(2.0, lambda: None)
        scheduler.at(3.0, lambda: None)
        assert scheduler.pending() == 3
        b.cancel()
        assert scheduler.pending() == 2
        scheduler.run_until(1.5)
        assert scheduler.pending() == 1
        scheduler.run_all()
        assert scheduler.pending() == 0
        assert a.cancelled is False

    def test_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        event = scheduler.at(1.0, lambda: None)
        scheduler.at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert scheduler.pending() == 1
        assert scheduler.cancelled_total == 1

    def test_cancel_after_fire_is_noop(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.at(1.0, lambda: fired.append(1))
        scheduler.at(2.0, lambda: None)
        scheduler.run_until(1.5)
        assert fired == [1]
        event.cancel()
        assert scheduler.pending() == 1
        assert scheduler.cancelled_total == 0

    def test_cancelled_events_do_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        for t in range(1, 101):
            event = scheduler.at(float(t), lambda t=t: fired.append(t))
            if t % 2 == 0:
                event.cancel()
        scheduler.run_all()
        assert fired == list(range(1, 101, 2))
        assert scheduler.pending() == 0

    def test_heavy_timer_churn_stays_bounded(self):
        scheduler = EventScheduler()
        for _ in range(50):
            batch = [
                scheduler.after(1.0, lambda: None) for _ in range(200)
            ]
            for event in batch:
                event.cancel()
            assert len(scheduler._queue) <= 201
        assert scheduler.pending() == 0
