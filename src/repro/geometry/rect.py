"""Rectangles: the region quadruple ``<x, y, width, height>`` of the paper.

Section 2.1 defines a region as a rectangle identified by its southwest
corner ``(x, y)`` and its extents ``(width, height)``, and pins down two
predicates this module implements exactly:

* *coverage*: a point ``o`` is covered by region ``r`` iff
  ``r.x < o.x <= r.x + r.width`` and ``r.y < o.y <= r.y + r.height``
  (open at the low edges, closed at the high edges, so the region tiling
  assigns every interior point to exactly one region);
* *neighborship*: two regions are neighbors iff their intersection is a
  line segment (a shared edge piece of positive length -- touching only at
  a corner does not count).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.geometry.point import Point

#: Absolute tolerance used when comparing region edge coordinates.  Regions
#: are produced by repeated exact halving of one root rectangle, so edges of
#: adjacent regions are bit-identical in practice; the tolerance only guards
#: against accumulated error in hand-constructed rectangles.
EDGE_TOLERANCE = 1e-9


class SplitAxis(enum.Enum):
    """Axis along which a region is cut in half.

    ``VERTICAL`` cuts with a vertical line (splitting the *width*, i.e. the
    longitude dimension); ``HORIZONTAL`` cuts with a horizontal line
    (splitting the *height*, the latitude dimension).
    """

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle ``<x, y, width, height>``.

    Instances are immutable; all mutating-looking operations return new
    rectangles.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"rectangle extents must be positive, got "
                f"width={self.width!r} height={self.height!r}"
            )

    def __hash__(self) -> int:
        # Rects key every neighbor table, shortcut cache and claim ledger,
        # so the hash is cached on first use (not in ``__post_init__``,
        # which would tax every construction).  The value is exactly the
        # generated dataclass hash, so set and dict iteration orders --
        # and with them seeded traces -- are unchanged.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.x, self.y, self.width, self.height))
            object.__setattr__(self, "_hash", value)
            return value

    # ------------------------------------------------------------------
    # Derived coordinates
    # ------------------------------------------------------------------
    @property
    def x2(self) -> float:
        """The x coordinate of the east edge."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """The y coordinate of the north edge."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The center point; routing targets the center of a query region."""
        return Point(self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def aspect_ratio(self) -> float:
        """Long side divided by short side (always >= 1)."""
        long_side = max(self.width, self.height)
        short_side = min(self.width, self.height)
        return long_side / short_side

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners (SW, SE, NE, NW)."""
        return (
            Point(self.x, self.y),
            Point(self.x2, self.y),
            Point(self.x2, self.y2),
            Point(self.x, self.y2),
        )

    # ------------------------------------------------------------------
    # Coverage and containment
    # ------------------------------------------------------------------
    def covers(
        self,
        point: Point,
        closed_low_x: bool = False,
        closed_low_y: bool = False,
    ) -> bool:
        """Return whether ``point`` is covered by this region.

        Implements the paper's predicate exactly: open at the low (south and
        west) edges and closed at the high (north and east) edges.  The
        ``closed_low_*`` flags let the partition manager close the low edge
        for regions sitting on the boundary of the whole coordinate space,
        so that the space's own southwest border is still owned by someone.
        """
        if closed_low_x:
            x_ok = self.x <= point.x <= self.x2
        else:
            x_ok = self.x < point.x <= self.x2
        if not x_ok:
            return False
        if closed_low_y:
            return self.y <= point.y <= self.y2
        return self.y < point.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    # ------------------------------------------------------------------
    # Intersection
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share interior area (not just edges)."""
        # The ``x2``/``y2`` sums written out, as in distance_to_point.
        return (
            self.x < other.x + other.width
            and other.x < self.x + self.width
            and self.y < other.y + other.height
            and other.y < self.y + self.height
        )

    def touches(self, other: "Rect") -> bool:
        """Whether the two *closed* rectangles have a non-empty intersection.

        Unlike :meth:`intersects` this also reports contact of measure
        zero: a shared edge piece or a single shared corner point.  Query
        fan-out needs this weaker predicate because point coverage is
        closed at the high edges -- a region can own points of a query
        rectangle that it merely touches at its northeast corner.
        """
        return (
            self.x <= other.x2 + EDGE_TOLERANCE
            and other.x <= self.x2 + EDGE_TOLERANCE
            and self.y <= other.y2 + EDGE_TOLERANCE
            and other.y <= self.y2 + EDGE_TOLERANCE
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when no area is shared."""
        if not self.intersects(other):
            return None
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        return Rect(x, y, x2 - x, y2 - y)

    def overlap_length_x(self, other: "Rect") -> float:
        """Length of the overlap of the two x-extents (0 when disjoint)."""
        return max(0.0, min(self.x2, other.x2) - max(self.x, other.x))

    def overlap_length_y(self, other: "Rect") -> float:
        """Length of the overlap of the two y-extents (0 when disjoint)."""
        return max(0.0, min(self.y2, other.y2) - max(self.y, other.y))

    # ------------------------------------------------------------------
    # Neighborship (paper Section 2.1)
    # ------------------------------------------------------------------
    def is_neighbor_of(self, other: "Rect") -> bool:
        """Whether the intersection of the two regions is a line segment.

        True when the regions abut along a vertical or horizontal edge and
        the shared edge piece has positive length.  Overlapping rectangles
        and rectangles that only touch at a corner are *not* neighbors.
        """
        if self.intersects(other):
            return False
        touches_vertically = (
            abs(self.x2 - other.x) <= EDGE_TOLERANCE
            or abs(other.x2 - self.x) <= EDGE_TOLERANCE
        )
        if touches_vertically and self.overlap_length_y(other) > EDGE_TOLERANCE:
            return True
        touches_horizontally = (
            abs(self.y2 - other.y) <= EDGE_TOLERANCE
            or abs(other.y2 - self.y) <= EDGE_TOLERANCE
        )
        return touches_horizontally and self.overlap_length_x(other) > EDGE_TOLERANCE

    # ------------------------------------------------------------------
    # Distance
    # ------------------------------------------------------------------
    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from the rectangle to ``point``.

        Zero when the point lies inside (or on the border of) the
        rectangle.  Greedy routing forwards a request to the neighbor whose
        region is closest to the destination coordinate; using the *region*
        distance (rather than, say, distance between centers) guarantees
        that every hop makes strict progress on a rectangular tiling.
        """
        # ``x + width`` rather than the ``x2`` property: the same sum
        # without a Python-level call (this runs per neighbor per hop).
        dx = max(self.x - point.x, 0.0, point.x - (self.x + self.width))
        dy = max(self.y - point.y, 0.0, point.y - (self.y + self.height))
        return (dx * dx + dy * dy) ** 0.5

    # ------------------------------------------------------------------
    # Split and merge
    # ------------------------------------------------------------------
    def longer_axis(self) -> SplitAxis:
        """The axis that halves the longer side.

        Ties prefer ``HORIZONTAL`` (cutting the latitude/height dimension),
        matching the paper's "latitude dimension first" split ordering.
        """
        if self.width > self.height:
            return SplitAxis.VERTICAL
        return SplitAxis.HORIZONTAL

    def split(self, axis: SplitAxis) -> Tuple["Rect", "Rect"]:
        """Cut the rectangle in half along ``axis``.

        Returns ``(low, high)``: the southern/western half first.
        """
        if axis is SplitAxis.VERTICAL:
            half = self.width / 2.0
            low = Rect(self.x, self.y, half, self.height)
            high = Rect(self.x + half, self.y, self.width - half, self.height)
        else:
            half = self.height / 2.0
            low = Rect(self.x, self.y, self.width, half)
            high = Rect(self.x, self.y + half, self.width, self.height - half)
        return low, high

    def can_split(self, axis: SplitAxis) -> bool:
        """Whether both halves along ``axis`` keep every side at least
        :data:`EDGE_TOLERANCE` wide.

        A narrower region falls inside the tolerance the neighbor
        predicate grants a shared edge, so its adjacency could no longer
        be told apart from its neighbors'.
        """
        # The extents :meth:`split` gives the two halves, without building them.
        if axis is SplitAxis.VERTICAL:
            cut, kept = self.width, self.height
        else:
            cut, kept = self.height, self.width
        half = cut / 2.0
        return min(half, cut - half, kept) >= EDGE_TOLERANCE

    def can_merge_with(self, other: "Rect") -> bool:
        """Whether the union of the two rectangles is again a rectangle.

        Region merging (repair after departures, and load-balance mechanism
        (c)) is only legal for such pairs; merging anything else would break
        the rectangular tiling.
        """
        same_column = (
            abs(self.x - other.x) <= EDGE_TOLERANCE
            and abs(self.width - other.width) <= EDGE_TOLERANCE
        )
        if same_column and (
            abs(self.y2 - other.y) <= EDGE_TOLERANCE
            or abs(other.y2 - self.y) <= EDGE_TOLERANCE
        ):
            return True
        same_row = (
            abs(self.y - other.y) <= EDGE_TOLERANCE
            and abs(self.height - other.height) <= EDGE_TOLERANCE
        )
        return same_row and (
            abs(self.x2 - other.x) <= EDGE_TOLERANCE
            or abs(other.x2 - self.x) <= EDGE_TOLERANCE
        )

    def merge_with(self, other: "Rect") -> "Rect":
        """The union rectangle; raises ``ValueError`` for illegal pairs."""
        if not self.can_merge_with(other):
            raise ValueError(f"cannot merge {self} with {other}: union is not a rectangle")
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        return Rect(x, y, max(self.x2, other.x2) - x, max(self.y2, other.y2) - y)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def sample_interior_point(self, u: float, v: float) -> Point:
        """Map unit-square coordinates ``(u, v)`` to an interior point.

        ``u`` and ``v`` must lie in ``[0, 1)``; the result is strictly
        inside the open west/south edges so that it is covered by this
        region under the paper's half-open rule.
        """
        if not (0.0 <= u < 1.0 and 0.0 <= v < 1.0):
            raise ValueError(f"(u, v) must lie in [0, 1), got ({u!r}, {v!r})")
        return Point(self.x + self.width * (1.0 - u) , self.y + self.height * (1.0 - v))

    def as_tuple(self) -> tuple:
        """Return ``(x, y, width, height)``."""
        return (self.x, self.y, self.width, self.height)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.x:g}, {self.y:g}, {self.width:g}, {self.height:g}>"


def perimeter_gap(
    rect: Rect, bounds: Rect, known: Sequence[Rect]
) -> Optional[Tuple[str, float, float, Point]]:
    """The first stretch of ``rect``'s perimeter that ``known`` leaves open.

    Edges on the border of ``bounds`` need no cover.  Returns ``(edge,
    lo, hi, probe_point)`` with ``edge`` one of ``left``, ``right``,
    ``bottom`` and ``top`` (checked in that order) and ``probe_point``
    just outside the stretch's midpoint, or ``None`` when every edge is
    covered.  A protocol node probes such a stretch to find a neighbor it
    has lost track of.
    """
    tol = 1e-9
    offset = 1e-3
    # (name, span lo, span hi, on world edge, outward probe x/y for a
    #  vertical/horizontal edge, vertical)
    edges = (
        ("left", rect.y, rect.y2,
         rect.x - bounds.x <= tol, rect.x - offset, True),
        ("right", rect.y, rect.y2,
         bounds.x2 - rect.x2 <= tol, rect.x2 + offset, True),
        ("bottom", rect.x, rect.x2,
         rect.y - bounds.y <= tol, rect.y - offset, False),
        ("top", rect.x, rect.x2,
         bounds.y2 - rect.y2 <= tol, rect.y2 + offset, False),
    )
    for name, lo, hi, on_world_edge, outside, vertical in edges:
        if on_world_edge:
            continue
        intervals = []
        for other in known:
            # A claim covers part of this edge when it contains the
            # just-outside probe line (``outside`` is the edge pushed
            # one offset outward, so rects flush with the edge on the
            # outer side count and rects flush on the inner side do
            # not, for either edge orientation).
            if vertical:
                touches = other.x <= outside <= other.x2
                span = (other.y, other.y2)
            else:
                touches = other.y <= outside <= other.y2
                span = (other.x, other.x2)
            if touches and span[1] > lo and span[0] < hi:
                intervals.append((max(lo, span[0]), min(hi, span[1])))
        intervals.sort()
        cursor = lo
        for start, end in intervals:
            if start > cursor + tol:
                break
            cursor = max(cursor, end)
        if cursor < hi - tol:
            gap_hi = hi
            for start, end in intervals:
                if start > cursor + tol:
                    gap_hi = start
                    break
            mid = (cursor + gap_hi) / 2.0
            point = Point(outside, mid) if vertical else Point(mid, outside)
            return (name, cursor, gap_hi, point)
    return None
