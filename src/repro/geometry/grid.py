"""The discretized workload field.

The paper's evaluation assigns hot-spot workload per *cell*: the simulated
64 mi x 64 mi plane is divided into small square cells, the cell at the
center of a hot spot has normalized workload 1 and cells on the border have
workload 0 (Section 3.1).  A region's query workload is the total workload
of the cells it covers.

:class:`CellGrid` stores one float per cell and answers "total workload
inside rectangle R" in O(1) through a two-dimensional prefix-sum table,
which is what makes the 16 000-node experiments tractable in Python.

numpy is imported by the methods that build arrays, not by the module:
the protocol layer imports this package but never builds a grid.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Nudge used when mapping real coordinates to cell indices; region edges
#: and cell boundaries are dyadic rationals (exact in binary floating
#: point), the nudge only protects hand-fed off-grid rectangles.
_INDEX_NUDGE = 1e-9


class CellGrid:
    """A uniform grid of square cells over a bounding rectangle.

    Parameters
    ----------
    bounds:
        The rectangle being discretized (the whole GeoGrid plane).
    cell_size:
        Side length of a cell, in the same unit as ``bounds`` (miles in the
        paper's setup).  The bounds' extents need not be exact multiples of
        the cell size; the last row/column of cells simply overhangs.
    """

    def __init__(self, bounds: Rect, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.bounds = bounds
        self.cell_size = float(cell_size)
        self.nx = max(1, int(math.ceil(bounds.width / cell_size - _INDEX_NUDGE)))
        self.ny = max(1, int(math.ceil(bounds.height / cell_size - _INDEX_NUDGE)))
        import numpy

        self._loads = numpy.zeros((self.nx, self.ny), dtype=numpy.float64)
        self._loads_view = self._loads.view()
        self._loads_view.flags.writeable = False
        #: Bumped by every load change.  The prefix table and the
        #: ``rect -> load`` memo both belong to one version, so readers
        #: keyed on it (query-density weights) can never see stale loads.
        self.version = 0
        self._prefix: "np.ndarray | None" = None
        self._rect_loads: Dict[Rect, float] = {}

    # ------------------------------------------------------------------
    # Cell coordinates
    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Total number of cells."""
        return self.nx * self.ny

    def cell_center(self, ix: int, iy: int) -> Point:
        """The center point of cell ``(ix, iy)``."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise IndexError(f"cell index ({ix}, {iy}) out of range")
        return Point(
            self.bounds.x + (ix + 0.5) * self.cell_size,
            self.bounds.y + (iy + 0.5) * self.cell_size,
        )

    def cell_index_of(self, point: Point) -> Tuple[int, int]:
        """The index of the cell containing ``point`` (clamped to range)."""
        ix = int((point.x - self.bounds.x) / self.cell_size)
        iy = int((point.y - self.bounds.y) / self.cell_size)
        return (min(max(ix, 0), self.nx - 1), min(max(iy, 0), self.ny - 1))

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    @property
    def loads(self) -> np.ndarray:
        """A read-only view of the per-cell loads (shape ``(nx, ny)``).

        Writes go through :meth:`set_load` and friends, which bump
        :attr:`version`.
        """
        return self._loads_view

    @property
    def total_load(self) -> float:
        """Sum of all cell loads."""
        return float(self._loads.sum())

    def clear(self) -> None:
        """Reset all cell loads to zero."""
        self._loads.fill(0.0)
        self._changed()

    def set_load(self, ix: int, iy: int, value: float) -> None:
        """Set the load of a single cell."""
        self._loads[ix, iy] = value
        self._changed()

    def add_load(self, ix: int, iy: int, value: float) -> None:
        """Add ``value`` to the load of a single cell."""
        self._loads[ix, iy] += value
        self._changed()

    def add_hotspot(self, hotspot: Circle) -> None:
        """Deposit a hot spot's workload onto the grid.

        Every cell whose center falls inside the circle receives
        ``1 - d/r`` where ``d`` is the distance of the cell center to the
        hot-spot center (paper Section 3.1).  Cells outside the grid bounds
        are ignored: a hot spot that migrates partially off the map simply
        loses the off-map part of its load, as in the paper's simulation.
        """
        lo_x = hotspot.center.x - hotspot.radius
        hi_x = hotspot.center.x + hotspot.radius
        lo_y = hotspot.center.y - hotspot.radius
        hi_y = hotspot.center.y + hotspot.radius
        ix0 = max(0, int((lo_x - self.bounds.x) / self.cell_size))
        ix1 = min(self.nx - 1, int((hi_x - self.bounds.x) / self.cell_size))
        iy0 = max(0, int((lo_y - self.bounds.y) / self.cell_size))
        iy1 = min(self.ny - 1, int((hi_y - self.bounds.y) / self.cell_size))
        if ix0 > ix1 or iy0 > iy1:
            return
        import numpy

        xs = self.bounds.x + (numpy.arange(ix0, ix1 + 1) + 0.5) * self.cell_size
        ys = self.bounds.y + (numpy.arange(iy0, iy1 + 1) + 0.5) * self.cell_size
        dx = xs[:, None] - hotspot.center.x
        dy = ys[None, :] - hotspot.center.y
        d = numpy.sqrt(dx * dx + dy * dy)
        contribution = numpy.clip(1.0 - d / hotspot.radius, 0.0, None)
        self._loads[ix0 : ix1 + 1, iy0 : iy1 + 1] += contribution
        self._changed()

    def _changed(self) -> None:
        """Start a new load version: drop the prefix table and the memo."""
        self.version += 1
        self._prefix = None
        self._rect_loads = {}

    # ------------------------------------------------------------------
    # Region queries
    # ------------------------------------------------------------------
    def _ensure_prefix(self) -> np.ndarray:
        if self._prefix is None:
            import numpy

            prefix = numpy.zeros((self.nx + 1, self.ny + 1), dtype=numpy.float64)
            numpy.cumsum(self._loads, axis=0, out=prefix[1:, 1:])
            numpy.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
            self._prefix = prefix
        return self._prefix

    def covered_index_ranges(self, rect: Rect) -> Tuple[int, int, int, int]:
        """Index ranges ``(ix0, ix1, iy0, iy1)`` of cells covered by ``rect``.

        A cell counts as covered when its *center* is covered by the
        rectangle under the paper's half-open predicate
        (``rect.x < cx <= rect.x2``).  Returned ranges are inclusive and may
        be empty (``ix0 > ix1``) for slivers thinner than a cell.
        """
        v = (rect.x - self.bounds.x) / self.cell_size - 0.5
        ix0 = max(0, int(math.floor(v + _INDEX_NUDGE)) + 1)
        w = (rect.x2 - self.bounds.x) / self.cell_size - 0.5
        ix1 = min(self.nx - 1, int(math.floor(w + _INDEX_NUDGE)))
        v = (rect.y - self.bounds.y) / self.cell_size - 0.5
        iy0 = max(0, int(math.floor(v + _INDEX_NUDGE)) + 1)
        w = (rect.y2 - self.bounds.y) / self.cell_size - 0.5
        iy1 = min(self.ny - 1, int(math.floor(w + _INDEX_NUDGE)))
        return (ix0, ix1, iy0, iy1)

    def load_in_rect(self, rect: Rect) -> float:
        """Total workload of the cells covered by ``rect`` (O(1)).

        Memoized per load version: between two load changes the
        adaptation engine asks for the same region rects hundreds of
        times, and a dict hit is far cheaper than four numpy scalar reads.
        """
        load = self._rect_loads.get(rect)
        if load is not None:
            return load
        ix0, ix1, iy0, iy1 = self.covered_index_ranges(rect)
        if ix0 > ix1 or iy0 > iy1:
            load = 0.0
        else:
            prefix = self._ensure_prefix()
            load = float(
                prefix[ix1 + 1, iy1 + 1]
                - prefix[ix0, iy1 + 1]
                - prefix[ix1 + 1, iy0]
                + prefix[ix0, iy0]
            )
        self._rect_loads[rect] = load
        return load

    def load_in_rect_slow(self, rect: Rect) -> float:
        """Reference implementation of :meth:`load_in_rect`.

        Sums cell loads one by one using the coverage predicate directly.
        Exists so tests can cross-check the prefix-sum fast path.
        """
        total = 0.0
        for ix in range(self.nx):
            for iy in range(self.ny):
                if rect.covers(self.cell_center(ix, iy)):
                    total += float(self._loads[ix, iy])
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellGrid(bounds={self.bounds}, cell_size={self.cell_size:g}, "
            f"nx={self.nx}, ny={self.ny})"
        )
