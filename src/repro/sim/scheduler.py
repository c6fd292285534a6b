"""The discrete-event scheduler: a virtual clock and an event queue.

Plain priority-queue design: the heap holds ``(time, sequence, event)``
tuples, so every heap comparison runs on the leading float and int in C
and never reaches the :class:`Event` itself; ``run_until`` pops them in
timestamp order and advances the clock.  Sequence numbers are unique and
break timestamp ties FIFO, so simulations are deterministic under
equal-time events.

Cancelled events are not removed from the heap eagerly (that would be
O(N) per cancel); instead the scheduler keeps a live-event counter so
``pending()`` is O(1), and lazily compacts the heap whenever cancelled
entries outnumber live ones -- long-running simulations with heavy timer
churn (heartbeats re-armed and cancelled millions of times) stay bounded
in memory.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.obs import causal

#: An event body; receives no arguments (close over what you need).
EventCallback = Callable[[], None]


class Event:
    """One scheduled event; the queue orders it by ``(time, sequence)``.

    A slotted class with no generated comparisons: one is built for
    every scheduled callback, and the heap never compares events (its
    entries are ``(time, sequence, event)`` tuples with unique sequences).
    """

    __slots__ = (
        "time", "sequence", "callback", "cancelled", "ctx", "_scheduler",
        "_fired",
    )

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        ctx: Optional[causal.SpanContext] = None,
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        #: Causal context captured at scheduling time and restored around
        #: the callback, so timer-driven retries stay attributed to the
        #: operation that armed them.  ``None`` whenever tracing is off.
        self.ctx = ctx
        #: Back-reference so ``cancel`` can keep the owning scheduler's
        #: live-event accounting exact; ``None`` for detached events.
        self._scheduler = scheduler
        #: Set once the callback has run; cancelling afterwards is a no-op.
        self._fired = False

    def cancel(self) -> None:
        """Cancel the event; it will not fire.

        Idempotent, and a no-op after the event has fired.  The entry may
        linger in the owning scheduler's queue until it is popped or
        lazily purged, but it no longer counts as pending, and the
        callback is dropped at once so it stops pinning what it closed
        over.
        """
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        self.callback = None
        if self._scheduler is not None:
            self._scheduler._on_cancel()


class EventScheduler:
    """A virtual clock driving callbacks in timestamp order."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: The current virtual time.  A plain attribute, not a property:
        #: it is read on nearly every event, and only :meth:`run_until`
        #: moves it.
        self.now = start_time
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._running = False
        #: Cancelled entries still sitting in the queue.
        self._cancelled_pending = 0
        #: Number of events fired over the scheduler's lifetime.
        self.fired = 0
        #: Number of cancellations over the scheduler's lifetime.
        self.cancelled_total = 0

    def pending(self) -> int:
        """Number of queued (non-cancelled) events; O(1)."""
        return len(self._queue) - self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: now={self.now}, "
                f"requested={time}"
            )
        sequence = next(self._sequence)
        # Direct module-global read (not causal.current()) keeps the
        # disabled-mode cost of this hot path to one attribute lookup.
        event = Event(time, sequence, callback, causal._current, self)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def after(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.at(self.now + delay, callback)

    def every(
        self,
        interval: float,
        callback: EventCallback,
        jitter: float = 0.0,
        rng=None,
    ) -> "Periodic":
        """Schedule a periodic callback (heartbeats, stat exchanges).

        Returns the timer's :class:`Periodic` handle; its ``cancel``
        stops the timer.  With ``jitter`` > 0 and an ``rng``, each period
        is perturbed uniformly by up to ``+- jitter`` to avoid lock-step
        synchronization artifacts.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        return Periodic(self, interval, callback, jitter, rng)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """Account one cancellation and compact the queue when stale
        entries exceed half of it."""
        self._cancelled_pending += 1
        self.cancelled_total += 1
        obs.inc("scheduler.cancelled")
        if self._cancelled_pending > len(self._queue) // 2:
            self._purge_cancelled()

    def _purge_cancelled(self) -> None:
        """Drop cancelled entries and re-heapify (amortized O(1) per
        cancel: each purge is linear but halves the queue at least)."""
        # In place: ``run_until`` holds the list while callbacks cancel.
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Fire events up to and including virtual time ``time``.

        Returns the number of events fired.  ``max_events`` guards against
        runaway feedback loops (an event scheduling itself at the same
        timestamp forever).
        """
        if self._running:
            raise SimulationError("run_until is not re-entrant")
        self._running = True
        fired = 0
        try:
            queue = self._queue
            while queue and queue[0][0] <= time:
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before reaching "
                        f"t={time}; runaway event loop?"
                    )
                when, _, event = heapq.heappop(queue)
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                event._fired = True
                self.now = when
                if event.ctx is not None:
                    with causal.using(event.ctx):
                        event.callback()
                else:
                    event.callback()
                fired += 1
                self.fired += 1
            if math.isfinite(time):
                self.now = max(self.now, time)
        finally:
            self._running = False
            registry = obs.active()
            if registry is not None:
                registry.inc("scheduler.fired", fired)
                registry.set_gauge("scheduler.pending", self.pending())
                registry.set_gauge("scheduler.now", self.now)
        return fired

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Fire every queued event (bounded by ``max_events``)."""
        return self.run_until(float("inf"), max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventScheduler(now={self.now:g}, pending={self.pending()})"


class Periodic:
    """The handle of one periodic timer (see :meth:`EventScheduler.every`).

    Each firing re-arms the timer at ``now + period`` through the
    scheduler's ``at``, so a jitter-free timer ticks on a fixed lattice
    of floats: the origin plus the interval, added once per tick.

    A jitter-free timer can also ``sleep`` through lattice ticks its
    callback knows to be no-ops and be woken back onto the lattice; it
    then fires on exactly the floats an uninterrupted timer would, minus
    the ticks slept through.  The callback's return value is ignored.
    """

    __slots__ = (
        "interval", "_scheduler", "_callback", "_jitter", "_rng", "_event",
        "_last", "_skip", "_cancelled",
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        interval: float,
        callback: EventCallback,
        jitter: float,
        rng,
    ) -> None:
        self.interval = interval
        self._scheduler = scheduler
        self._callback = callback
        self._jitter = jitter
        #: Only a jittered timer draws on ``rng``; ``None`` marks the
        #: jitter-free (lattice) timers that may sleep.
        self._rng = rng if jitter > 0.0 else None
        #: The last tick fired (the lattice origin before the first).
        self._last = scheduler.now
        #: Ticks the re-arm skips; set by ``sleep`` from the callback.
        self._skip = 0
        self._cancelled = False
        #: The armed event; ``None`` while the callback runs.
        self._event: Optional[Event] = scheduler.after(interval, self._fire)

    def _fire(self) -> None:
        # Periodic timers run *detached* from whatever context armed
        # them: heartbeats and sweeps are causal roots, otherwise every
        # firing for the rest of the run would accrete onto the trace
        # that happened to start the timer.  The re-arm happens while
        # detached too, so the chain stays clean.  (Module global set
        # inline, as causal.detach/restore do, to spare two calls per
        # firing; the re-arm still goes through ``at`` so anything
        # wrapping it sees every event.)
        previous = causal._current
        causal._current = None
        scheduler = self._scheduler
        self._last = scheduler.now
        self._event = None
        try:
            self._callback()
            if self._cancelled:
                return
            period = self.interval
            if self._rng is not None:
                period = max(1e-9, period + self._rng.uniform(-self._jitter, self._jitter))
            when = scheduler.now + period
            for _ in range(self._skip):
                when += period
            self._skip = 0
            self._event = scheduler.at(when, self._fire)
        finally:
            causal._current = previous

    @property
    def due(self) -> float:
        """The time of the next tick that will fire (jitter-free timers)."""
        self._check_lattice()
        if self._event is not None:
            return self._event.time
        when = self._last + self.interval
        for _ in range(self._skip):
            when += self.interval
        return when

    def sleep(self, ticks: int) -> None:
        """Skip the next ``ticks`` lattice ticks that have not fired yet."""
        self._check_lattice()
        if ticks <= 0 or self._cancelled:
            return
        event = self._event
        if event is None:
            # Called from the callback: the re-arm skips them.
            self._skip += ticks
            return
        when = event.time
        for _ in range(ticks):
            when += self.interval
        self._rearm(when)

    def wake(self) -> None:
        """Pull the timer back to the first lattice tick strictly after
        ``now`` (a no-op unless it is asleep)."""
        self._check_lattice()
        if self._cancelled:
            return
        event = self._event
        if event is None:
            self._skip = 0
            return
        now = self._scheduler.now
        when = self._last + self.interval
        while when <= now:
            when += self.interval
        if when < event.time:
            self._rearm(when)

    def cancel(self) -> None:
        """Stop the timer, also from inside its own callback."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _rearm(self, when: float) -> None:
        assert self._event is not None
        self._event.cancel()
        self._event = self._scheduler.at(when, self._fire)

    def _check_lattice(self) -> None:
        if self._rng is not None:
            raise SimulationError("only a jitter-free timer can sleep")
