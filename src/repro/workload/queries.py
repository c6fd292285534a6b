"""Location-query traffic generation.

Turns the hot-spot field into an actual stream of
:class:`~repro.core.query.LocationQuery` objects: query centers are drawn
proportionally to the cell workload (queries concentrate on hot spots, the
paper's Super-Bowl-parking intuition), with a configurable uniform
background fraction for everyday traffic.

Used by the routing-workload experiments and the example applications.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.geometry import Point
from repro.core.node import Node
from repro.core.query import LocationQuery
from repro.workload.hotspot import HotspotField

if TYPE_CHECKING:
    import numpy as np


class QueryGenerator:
    """Draws location queries whose spatial density follows the hot spots.

    Parameters
    ----------
    field:
        The hot-spot field defining the spatial query density.
    radius_range:
        Query radius range in miles; each query asks about a circular area
        (submitted as its bounding rectangle, per the paper).
    background_fraction:
        Fraction of queries drawn uniformly over the plane instead of from
        the hot-spot density (also the fallback when the field is empty).
    """

    def __init__(
        self,
        field: HotspotField,
        radius_range: Tuple[float, float] = (0.25, 2.0),
        background_fraction: float = 0.1,
    ) -> None:
        lo, hi = radius_range
        if not (0 < lo <= hi):
            raise ValueError(f"invalid radius range {radius_range!r}")
        if not (0.0 <= background_fraction <= 1.0):
            raise ValueError(
                f"background_fraction must lie in [0, 1], got "
                f"{background_fraction!r}"
            )
        self.field = field
        self.radius_range = radius_range
        self.background_fraction = background_fraction
        self._cumulative: Optional[np.ndarray] = None
        self._cumulative_version: Optional[int] = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_center(self, rng: random.Random) -> Point:
        """Draw a query center (load-proportional or uniform background)."""
        bounds = self.field.bounds
        weights = self._weights()
        if weights is None or rng.random() < self.background_fraction:
            return Point(
                rng.uniform(bounds.x, bounds.x2),
                rng.uniform(bounds.y, bounds.y2),
            )
        u = rng.random() * weights[-1]
        flat_index = int(weights.searchsorted(u, side="right"))
        flat_index = min(flat_index, weights.shape[0] - 1)
        grid = self.field.grid
        ix, iy = divmod(flat_index, grid.ny)
        cell_center = grid.cell_center(ix, iy)
        # Jitter uniformly within the cell so queries are not lattice-bound.
        half = grid.cell_size / 2.0
        jittered = Point(
            cell_center.x + rng.uniform(-half, half),
            cell_center.y + rng.uniform(-half, half),
        )
        return jittered.clamped(bounds.x, bounds.y, bounds.x2, bounds.y2)

    def sample_query(self, focal: Node, rng: random.Random) -> LocationQuery:
        """Draw one full location query on behalf of ``focal``."""
        center = self.sample_center(rng)
        radius = rng.uniform(*self.radius_range)
        return LocationQuery.around(center, radius, focal=focal)

    def stream(
        self,
        focal_picker,
        rng: random.Random,
        count: int,
    ) -> Iterator[LocationQuery]:
        """Yield ``count`` queries; ``focal_picker()`` supplies focal nodes."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        for _ in range(count):
            yield self.sample_query(focal_picker(), rng)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _weights(self) -> Optional[np.ndarray]:
        """Flattened cumulative cell loads; None when the field is empty."""
        version = self.field.grid.version
        if self._cumulative_version != version:
            flat = self.field.grid.loads.reshape(-1)
            if flat.sum() <= 0.0:
                self._cumulative = None
            else:
                self._cumulative = flat.cumsum()
            self._cumulative_version = version
        return self._cumulative
