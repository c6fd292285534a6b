"""Shared pieces of the benchmark: percentiles, RSS, result records.

Everything here is benchmark-side.  The program under test is only ever
reached through its public API, from the workload modules.
"""

from __future__ import annotations

import gc
import heapq
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: The smallest sample count a reported tail percentile may rest on: ten
#: samples beyond it (the p99 of 1 000 samples, the p90 of 100).
TAIL_SAMPLES_BEYOND = 10


class CheckFailed(Exception):
    """An output check found the program's result wrong."""


#: Side of the square service area (the paper's 64 x 64 miles).
AREA_SIDE = 64.0
#: Side of a range-lookup rectangle (miles).
RANGE_SIDE = 4.0


def uniform_point(rng, side: float = AREA_SIDE):
    """A point drawn uniformly from ``[0, side)^2``."""
    from repro.geometry import Point

    return Point(rng.uniform(0.0, side), rng.uniform(0.0, side))


def range_rect(rng):
    """A ``RANGE_SIDE`` square drawn uniformly inside the service area."""
    from repro.geometry import Rect

    corner = uniform_point(rng, AREA_SIDE - RANGE_SIDE)
    return Rect(corner.x, corner.y, RANGE_SIDE, RANGE_SIDE)


def covers(rect, point) -> bool:
    """Closed containment: a point on a shared edge belongs to both sides."""
    return rect.x <= point.x <= rect.x2 and rect.y <= point.y <= rect.y2


def check_in_rect(rect, records) -> None:
    """A range answer may only hold records inside the asked rectangle."""
    for record in records:
        if not covers(rect, record.point):
            raise CheckFailed(f"range lookup {rect} answered with {record} outside it")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90/p50 with ten samples beyond it."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100.0 >= TAIL_SAMPLES_BEYOND:
            return q
    return 50


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


#: Seconds the reference loop takes on the calibration machine (a 2-vCPU
#: x86 VM at 2.1 GHz, Python 3.11) in a quiet phase.
REF_NOMINAL_S = 0.00305


class _RefItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _reference_loop() -> int:
    """A fixed slice of interpreter work: objects, a dict, a heap, a sort."""
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(3000):
        item = _RefItem((i * 7919) % 1009, i)
        table[item.key] = item
        heapq.heappush(heap, (item.value * 3 % 101, i, item))
        if len(heap) > 64:
            _, _, popped = heapq.heappop(heap)
            total += table.get(popped.key, popped).value
    ordered = sorted(table.items(), key=lambda kv: (kv[1].value % 13, kv[0]))
    return total + len(ordered)


class SteadyClock:
    """Host seconds with the host's speed phases divided out.

    The machine this benchmark was built on runs in phases: for seconds
    to minutes at a time another tenant slows every instruction by up to
    2x (CPU time slows exactly as wall time does), so two runs of the
    same work can differ by half.  Each :meth:`lap` therefore times a
    fixed reference loop next to the work and scales the work's host
    time by ``REF_NOMINAL_S`` over the reference's time around it.  With
    a busy loop added on the second vCPU for a third of a 90 s probe,
    raw chunk times moved by +-25 % and scaled ones by +-3 %.  Time spent
    in the reference itself is not counted.
    """

    def __init__(self) -> None:
        self._ref = self._time_reference()
        self._mark = time.perf_counter()

    @staticmethod
    def _time_reference() -> float:
        # A collection of the program's heap inside the reference would
        # read as a slow phase, so the collector waits until it is done.
        # The faster of two passes: an interrupt inflates one, not both.
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                _reference_loop()
                best = min(best, time.perf_counter() - started)
            return best
        finally:
            if enabled:
                gc.enable()

    def lap(self) -> float:
        """Scaled host seconds since the previous lap, skip or creation."""
        raw = time.perf_counter() - self._mark
        ref = self._time_reference()
        scaled = raw * REF_NOMINAL_S / ((self._ref + ref) / 2.0)
        self._ref = ref
        self._mark = time.perf_counter()
        return scaled

    def skip(self) -> None:
        """Leave the time since the previous lap out of the next one."""
        self._mark = time.perf_counter()


@dataclass
class RunResult:
    """What one workload run produced.

    ``metrics`` are the gated end-to-end values (name -> (value, unit));
    ``report`` holds every other named end-to-end figure of the workload
    (name -> (value, unit)); ``deterministic`` is the subset of outputs
    that must repeat exactly for a given seed; ``layers`` holds the
    per-layer figures, all of which only the traced run fills in.
    """

    attempted: int
    failed: int
    metrics: Dict[str, Any] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    deterministic: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    #: Scaled host seconds of each timing chunk of the timed phase.
    chunk_host_s: List[float] = field(default_factory=list)
    #: Outputs of the run that the per-layer table is derived from.
    trace_inputs: Dict[str, Any] = field(default_factory=dict)


def latency_figures(name: str, samples: List[float]) -> Dict[str, Any]:
    """``<name>_p50_t`` and the highest supported tail, in simulated time."""
    tail = tail_percentile(len(samples))
    return {
        f"{name}_p50_t": (percentile(samples, 50), "t"),
        f"{name}_p{tail}_t": (percentile(samples, tail), "t"),
    }
