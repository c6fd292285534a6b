"""The metrics registry: counters, gauges, bounded histograms, traces.

Design constraints, in order:

1. **Cheap when on.**  Recording is a dict lookup plus an attribute
   update; histograms keep a bounded reservoir (algorithm R with a
   deterministic internal RNG) so memory stays flat no matter how many
   observations arrive.
2. **Deterministic.**  The reservoir RNG is seeded per histogram, so two
   identical runs produce identical snapshots -- experiments here are
   reproducible and the metrics must be too.
3. **Machine-readable.**  ``snapshot()`` maps every metric name to
   ``{count, mean, p50, p95, p99}`` (plus min/max/total), the schema the
   ``BENCH_*.json`` trajectory files use.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "TraceEvent"]

#: Default bound on the per-histogram sample reservoir.
DEFAULT_RESERVOIR = 4096

#: Default bound on the trace-event ring buffer.
DEFAULT_TRACE_CAPACITY = 10_000


class Counter:
    """A monotonically increasing count (messages sent, splits, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A point-in-time level (pending events, live endpoints, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest level."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """A bounded-memory distribution with exact count/mean and
    reservoir-sampled percentiles.

    ``count``, ``total``, ``minimum`` and ``maximum`` are exact over every
    observation; percentiles are computed over a reservoir of at most
    ``reservoir`` values maintained with Vitter's algorithm R, so they are
    exact until the reservoir fills and statistically representative
    afterwards.
    """

    __slots__ = (
        "name", "count", "total", "minimum", "maximum", "_sample", "_limit",
        "_rng",
    )

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._sample: List[float] = []
        self._limit = reservoir
        #: Built at the first draw, once the reservoir is full: most
        #: histograms never draw, and a ``Random`` weighs 2.5 KB.
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        count = self.count + 1
        self.count = count
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        sample = self._sample
        if len(sample) < self._limit:
            sample.append(value)
        else:
            # Algorithm R, drawn with one C-level random() call: slot is
            # uniform over [0, count), kept when it lands in the reservoir.
            rng = self._rng
            if rng is None:
                # Seeded per histogram from a process-independent hash
                # (str hash is randomized per process): snapshots are
                # deterministic across runs.
                rng = self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
            slot = int(rng.random() * count)
            if slot < self._limit:
                sample[slot] = value

    @property
    def mean(self) -> float:
        """Exact mean over all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def samples(self) -> Tuple[float, ...]:
        """The current reservoir contents (for merging across histograms).

        A pooled percentile over several nodes' reservoirs (e.g. the
        cluster-wide SLO tiles of ``repro top``) needs the raw samples;
        summaries cannot be merged.
        """
        return tuple(self._sample)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` in [0, 100] over the reservoir."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must lie in [0, 100], got {q!r}")
        if not self._sample:
            return 0.0
        data = sorted(self._sample)
        rank = max(0, math.ceil(q / 100.0 * len(data)) - 1)
        return data[rank]

    def summary(self) -> Dict[str, float]:
        """The snapshot row: count/mean/p50/p95/p99 plus min/max/total."""
        data = sorted(self._sample)

        def rank(q: float) -> float:
            if not data:
                return 0.0
            return data[max(0, math.ceil(q / 100.0 * len(data)) - 1)]

        return {
            "count": self.count,
            "mean": self.mean,
            "p50": rank(50.0),
            "p95": rank(95.0),
            "p99": rank(99.0),
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:g})"


class TraceEvent:
    """One structured trace record (a routing hop, a split, a delivery).

    The constructor takes ownership of ``fields`` without copying (the
    registry hands it a fresh kwargs dict); pass a private dict when
    constructing events directly.
    """

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, fields: Mapping[str, object]) -> None:
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (``kind`` folded in) for JSON dumps."""
        record: Dict[str, object] = {"kind": self.kind}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceEvent({self.kind}, {self.fields})"


class MetricsRegistry:
    """Named counters, gauges, histograms, and a bounded trace ring.

    One registry spans an experiment (or a benchmark run); metric names are
    dotted paths (``routing.route.hops``, ``transport.delivered``).  All
    accessors create the instrument on first use, so instrumentation sites
    never need setup code.
    """

    def __init__(
        self,
        reservoir: int = DEFAULT_RESERVOIR,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self._reservoir = reservoir
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Raw (kind, fields) pairs; TraceEvent views are built lazily in
        # events() so the hot recording path skips one allocation.
        self._events: Deque[Tuple[str, Dict[str, object]]] = deque(
            maxlen=trace_capacity
        )
        #: Trace events appended over the registry's lifetime (the ring
        #: only retains the most recent ``trace_capacity`` of them).
        self.trace_appended = 0

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, reservoir=self._reservoir
            )
        return instrument

    # ------------------------------------------------------------------
    # Recording shorthands (what the instrumentation sites call)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    def trace(self, kind: str, /, **fields: object) -> None:
        """Append a structured trace event to the bounded ring.

        ``kind`` is positional-only so instrumentation sites may also use
        ``kind=...`` as an ordinary event field (message kinds do).
        """
        self._events.append((kind, fields))
        self.trace_appended += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters(self) -> Tuple[Counter, ...]:
        """Every counter, sorted by name (for exporters)."""
        return tuple(self._counters[k] for k in sorted(self._counters))

    def gauges(self) -> Tuple[Gauge, ...]:
        """Every gauge, sorted by name (for exporters)."""
        return tuple(self._gauges[k] for k in sorted(self._gauges))

    def histograms(self) -> Tuple[Histogram, ...]:
        """Every histogram, sorted by name (for exporters)."""
        return tuple(self._histograms[k] for k in sorted(self._histograms))

    def events(self, kind: Optional[str] = None) -> Tuple[TraceEvent, ...]:
        """Retained trace events, optionally filtered by ``kind``."""
        if kind is None:
            return tuple(TraceEvent(k, f) for k, f in self._events)
        return tuple(
            TraceEvent(k, f) for k, f in self._events if k == kind
        )

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Uniform view: metric name -> ``{count, mean, p50, p95, p99, ...}``.

        Counters and gauges are folded into the same schema as one-sample
        distributions (their ``count`` is 1 and every percentile equals
        the value), so consumers of ``BENCH_*.json`` files can treat every
        row identically.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for name, counter in self._counters.items():
            rows[name] = _point_row(counter.value)
        for name, gauge in self._gauges.items():
            rows[name] = _point_row(gauge.value)
        for name, histogram in self._histograms.items():
            rows[name] = histogram.summary()
        return dict(sorted(rows.items()))

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every instrument and trace event."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._events.clear()
        self.trace_appended = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)}, "
            f"events={len(self._events)})"
        )


def _point_row(value: float) -> Dict[str, float]:
    """The snapshot row of a single-valued instrument."""
    return {
        "count": 1,
        "mean": value,
        "p50": value,
        "p95": value,
        "p99": value,
        "min": value,
        "max": value,
        "total": value,
    }
