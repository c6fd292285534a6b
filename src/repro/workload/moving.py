"""Moving-object traffic for the location store.

The store's whole reason to exist is absorbing position reports from a
large population of *moving* objects -- vehicles, phones, assets --
interleaved with range lookups asking "who is near here right now?".
This module models that population: each object walks the service area
along a heading (with occasional turns, bouncing off the bounds) and
reports its position every step, so consecutive updates are spatially
correlated and routinely cross region boundaries -- the case that
exercises the store's cross-region eviction path.

:class:`MovingObjectWorkload` is deliberately engine-agnostic: it yields
:class:`StepReport` values describing *what happened* (object, old
position, new position, version) and leaves delivery to the caller, so
the same trajectory stream drives the protocol benchmark workloads
and the message-level protocol tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.geometry import Point, Rect

__all__ = ["MovingObjectWorkload", "StepReport"]


@dataclass(frozen=True)
class StepReport:
    """One object's position report after a movement step."""

    object_id: str
    point: Point
    prev_point: Optional[Point]
    version: int


class MovingObjectWorkload:
    """A population of objects random-walking the service area.

    Parameters
    ----------
    bounds:
        The service area; objects bounce off its edges.
    population:
        Number of moving objects.
    rng:
        Source of randomness (trajectories are deterministic per seed).
    speed_range:
        Distance an object covers per step, drawn uniformly per object
        (objects have stable speeds, like real vehicles).
    turn_sigma:
        Standard deviation of the per-step heading perturbation in
        radians -- small values give smooth, road-like trajectories.
    """

    def __init__(
        self,
        bounds: Rect,
        population: int,
        rng: random.Random,
        speed_range: tuple = (0.2, 1.5),
        turn_sigma: float = 0.35,
    ) -> None:
        if population <= 0:
            raise ValueError(f"population must be positive, got {population}")
        lo, hi = speed_range
        if not (0 < lo <= hi):
            raise ValueError(f"invalid speed range {speed_range!r}")
        self.bounds = bounds
        self.rng = rng
        self.turn_sigma = turn_sigma
        self._positions: Dict[str, Point] = {}
        self._headings: Dict[str, float] = {}
        self._speeds: Dict[str, float] = {}
        self._versions: Dict[str, int] = {}
        for index in range(population):
            object_id = f"mob{index}"
            self._positions[object_id] = Point(
                rng.uniform(bounds.x, bounds.x2),
                rng.uniform(bounds.y, bounds.y2),
            )
            self._headings[object_id] = rng.uniform(0.0, 2.0 * math.pi)
            self._speeds[object_id] = rng.uniform(lo, hi)
            self._versions[object_id] = 0

    # ------------------------------------------------------------------
    # Population views
    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        """Number of objects in the workload."""
        return len(self._positions)

    def object_ids(self) -> List[str]:
        """All object identifiers, in stable order."""
        return list(self._positions)

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def initial_reports(self) -> Iterator[StepReport]:
        """Version-1 reports placing every object at its start position."""
        for object_id in self._positions:
            self._versions[object_id] = 1
            yield StepReport(
                object_id=object_id,
                point=self._positions[object_id],
                prev_point=None,
                version=1,
            )

    def step(self) -> Iterator[StepReport]:
        """Advance every object one step and yield its position report."""
        for object_id in self._positions:
            yield self.step_one(object_id)

    def step_one(self, object_id: str) -> StepReport:
        """Advance a single object along its (slightly turned) heading."""
        heading = self._headings[object_id] + self.rng.gauss(
            0.0, self.turn_sigma
        )
        prev = self._positions[object_id]
        moved = prev.moved_toward(heading, self._speeds[object_id])
        if not self.bounds.covers(moved, closed_low_x=True, closed_low_y=True):
            # Bounce: turn back toward the middle of the plane.
            center = self.bounds.center
            heading = math.atan2(center.y - prev.y, center.x - prev.x)
            moved = prev.moved_toward(heading, self._speeds[object_id])
        moved = moved.clamped(
            self.bounds.x, self.bounds.y, self.bounds.x2, self.bounds.y2
        )
        self._headings[object_id] = heading
        self._positions[object_id] = moved
        self._versions[object_id] += 1
        return StepReport(
            object_id=object_id,
            point=moved,
            prev_point=prev,
            version=self._versions[object_id],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MovingObjectWorkload(population={self.population}, "
            f"bounds={self.bounds})"
        )
