"""The discretized workload field.

The paper's evaluation assigns hot-spot workload per *cell*: the simulated
64 mi x 64 mi plane is divided into small square cells, the cell at the
center of a hot spot has normalized workload 1 and cells on the border have
workload 0 (Section 3.1).  A region's query workload is the total workload
of the cells it covers.

:class:`CellGrid` stores one float per cell and answers "total workload
inside rectangle R" in O(1) through a two-dimensional prefix-sum table,
which is what makes the 16 000-node experiments tractable in Python.

The grid uses only the standard library.  Its loads are a flat row-major
list (cell ``(ix, iy)`` at ``ix * ny + iy``) and the prefix table is
built with the same float operations, in the same order, as numpy's
``cumsum`` along axis 0 and then axis 1; ``itertools.accumulate`` and
``map(operator.add, ...)`` keep those loops in C.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add
from typing import Dict, List, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Nudge used when mapping real coordinates to cell indices; region edges
#: and cell boundaries are dyadic rationals (exact in binary floating
#: point), the nudge only protects hand-fed off-grid rectangles.
_INDEX_NUDGE = 1e-9


def _add_rows(left: List[float], right: List[float]) -> List[float]:
    return list(map(add, left, right))


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
        self._loads: List[float] = [0.0] * (self.nx * self.ny)
        #: Bumped by every load change.  The prefix table and the
        #: ``rect -> load`` memo both belong to one version, so readers
        #: keyed on it (query-density weights) can never see stale loads.
        self.version = 0
        #: ``_prefix[ix][iy]``: total load of the cells below ``ix`` and
        #: ``iy``; ``None`` until a lookup needs it.
        self._prefix: "List[List[float]] | None" = None
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
    def loads(self) -> Tuple[Tuple[float, ...], ...]:
        """A read-only copy of the per-cell loads: ``loads[ix][iy]``.

        Writes go through :meth:`set_load` and friends, which bump
        :attr:`version`.
        """
        loads, ny = self._loads, self.ny
        return tuple(
            tuple(loads[start : start + ny]) for start in range(0, len(loads), ny)
        )

    @property
    def total_load(self) -> float:
        """Sum of all cell loads, exactly rounded."""
        return math.fsum(self._loads)

    def clear(self) -> None:
        """Reset all cell loads to zero."""
        self._loads = [0.0] * (self.nx * self.ny)
        self._changed()

    def _flat_index(self, ix: int, iy: int) -> int:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise IndexError(f"cell index ({ix}, {iy}) out of range")
        return ix * self.ny + iy

    def set_load(self, ix: int, iy: int, value: float) -> None:
        """Set the load of a single cell."""
        self._loads[self._flat_index(ix, iy)] = float(value)
        self._changed()

    def add_load(self, ix: int, iy: int, value: float) -> None:
        """Add ``value`` to the load of a single cell."""
        self._loads[self._flat_index(ix, iy)] += float(value)
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
        x0, y0, size = self.bounds.x, self.bounds.y, self.cell_size
        cx, cy, radius = hotspot.center.x, hotspot.center.y, hotspot.radius
        dy2s = []
        for iy in range(iy0, iy1 + 1):
            dy = (y0 + (iy + 0.5) * size) - cy
            dy2s.append(dy * dy)
        loads, ny, sqrt = self._loads, self.ny, math.sqrt
        for ix in range(ix0, ix1 + 1):
            dx = (x0 + (ix + 0.5) * size) - cx
            dx2 = dx * dx
            # max(1 - sqrt(dx*dx + dy*dy) / r, 0); adding the 0 is a no-op.
            for k, dy2 in enumerate(dy2s, ix * ny + iy0):
                contribution = 1.0 - sqrt(dx2 + dy2) / radius
                if contribution > 0.0:
                    loads[k] += contribution
        self._changed()

    def _changed(self) -> None:
        """Start a new load version: drop the prefix table and the memo."""
        self.version += 1
        self._prefix = None
        self._rect_loads = {}

    # ------------------------------------------------------------------
    # Region queries
    # ------------------------------------------------------------------
    def _ensure_prefix(self) -> List[List[float]]:
        if self._prefix is None:
            loads, ny = self._loads, self.ny
            rows = (loads[start : start + ny] for start in range(0, len(loads), ny))
            prefix = [[0.0] * (ny + 1)]
            # Running column sums over ix, then a running sum over iy.
            for column in accumulate(rows, _add_rows):
                row = [0.0]
                row.extend(accumulate(column))
                prefix.append(row)
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
        times, and a dict hit is far cheaper than four table reads.
        """
        load = self._rect_loads.get(rect)
        if load is not None:
            return load
        ix0, ix1, iy0, iy1 = self.covered_index_ranges(rect)
        if ix0 > ix1 or iy0 > iy1:
            load = 0.0
        else:
            prefix = self._ensure_prefix()
            high, low = prefix[ix1 + 1], prefix[ix0]
            load = high[iy1 + 1] - low[iy1 + 1] - high[iy0] + low[iy0]
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
                    total += self._loads[ix * self.ny + iy]
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CellGrid(bounds={self.bounds}, cell_size={self.cell_size:g}, "
            f"nx={self.nx}, ny={self.ny})"
        )
