"""Runtime observability: metrics registry, trace events, flight recorder.

The paper's entire evaluation is metric-driven (hop counts, workload-index
convergence, per-mechanism adaptation counts), and the ROADMAP's north star
-- a production-scale GeoGrid -- demands that every perf PR can *prove* its
win.  This package is the substrate for that: a lightweight metrics
registry (counters, gauges, bounded histograms with p50/p95/p99) plus
structured trace events, threaded through the routing, partition, overlay,
adaptation, and simulation layers.

Instrumentation is **off by default** and near-zero-cost when off: the
module-level facade functions (:func:`inc`, :func:`observe`,
:func:`set_gauge`, :func:`trace`) check one module global and return
immediately when no registry is installed.  Enable collection with::

    from repro import obs

    registry = obs.enable()
    ... run an experiment ...
    print(registry.to_json())
    obs.disable()

or scoped::

    with obs.capture() as registry:
        ... run an experiment ...
    snapshot = registry.snapshot()

``python -m repro <figure> --metrics`` dumps the registry after any
experiment.  Host-time benchmarks live outside the package, in
``perfbench/``.

Alongside the metrics registry lives a second, independently switchable
collector: the **flight recorder** (:mod:`repro.obs.flightrec`), a
bounded deterministic journal of causally-linked events that
:mod:`repro.obs.causal` turns into per-request span trees and
:mod:`repro.obs.audit` feeds with invariant-violation reports.  Enable it
with :func:`enable_flightrec` / :func:`flight_capture`; like the
registry, it is off by default and every instrumentation site checks one
module global.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.flightrec import FlightRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceEvent,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "active",
    "capture",
    "disable",
    "disable_flightrec",
    "enable",
    "enable_flightrec",
    "flight_capture",
    "flightrec",
    "inc",
    "observe",
    "record",
    "set_gauge",
    "trace",
]

#: The currently installed registry, or ``None`` (the no-op default).
_active: Optional[MetricsRegistry] = None

#: The currently installed flight recorder, or ``None`` (journal off).
_flightrec: Optional[FlightRecorder] = None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when collection is off.

    Hot paths that want to amortize the facade's per-call check (or record
    several related metrics atomically) fetch the registry once through
    this and skip their whole instrumentation block when it is ``None``.
    """
    return _active


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the collection target."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Remove the installed registry; all facade calls become no-ops."""
    global _active
    _active = None


@contextmanager
def capture(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Context manager: collect into ``registry`` for the block's duration.

    Restores whatever registry (or no-op state) was installed before.
    """
    global _active
    previous = _active
    _active = registry if registry is not None else MetricsRegistry()
    try:
        yield _active
    finally:
        _active = previous


def inc(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (no-op when collection is off)."""
    if _active is not None:
        _active.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when off)."""
    if _active is not None:
        _active.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when off)."""
    if _active is not None:
        _active.set_gauge(name, value)


def trace(kind: str, /, **fields: object) -> None:
    """Append a structured trace event (no-op when off).

    ``kind`` is positional-only, so ``kind=...`` may appear in ``fields``.
    """
    if _active is not None:
        _active.trace(kind, **fields)


# ----------------------------------------------------------------------
# Flight recorder facade (independent switch from the metrics registry)
# ----------------------------------------------------------------------
def flightrec() -> Optional[FlightRecorder]:
    """The installed flight recorder, or ``None`` when the journal is off.

    Like :func:`active`, hot paths fetch this once and skip their whole
    journal block when it is ``None``.
    """
    return _flightrec


def enable_flightrec(
    recorder: Optional[FlightRecorder] = None,
    capacity: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
) -> FlightRecorder:
    """Install ``recorder`` (or a fresh one) as the journal target.

    ``capacity``/``clock`` configure the fresh recorder when none is
    passed; ``clock`` is typically ``lambda: scheduler.now`` so events
    recorded by clock-less layers still carry simulation time.
    """
    global _flightrec
    if recorder is None:
        kwargs = {} if capacity is None else {"capacity": capacity}
        recorder = FlightRecorder(clock=clock, **kwargs)
    _flightrec = recorder
    return recorder


def disable_flightrec() -> None:
    """Remove the installed recorder; journal calls become no-ops."""
    global _flightrec
    _flightrec = None


@contextmanager
def flight_capture(
    recorder: Optional[FlightRecorder] = None,
    capacity: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Iterator[FlightRecorder]:
    """Context manager: journal into ``recorder`` for the block's duration.

    Restores whatever recorder (or off state) was installed before, also
    on exceptions -- nesting works the same way as :func:`capture`.
    """
    global _flightrec
    previous = _flightrec
    installed = enable_flightrec(recorder, capacity=capacity, clock=clock)
    try:
        yield installed
    finally:
        _flightrec = previous


def record(kind: str, t: Optional[float] = None, /, **fields: object) -> None:
    """Append a journal event (no-op when the flight recorder is off).

    ``kind``/``t`` are positional-only; with ``t=None`` the recorder's
    attached clock supplies the timestamp.
    """
    if _flightrec is not None:
        _flightrec.record(kind, t, **fields)
