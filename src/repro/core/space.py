"""The partition manager: a dynamic rectangular tiling of the GeoGrid plane.

At any point in time the network of ``N`` nodes partitions the entire
coordinate space into ``N`` disjoint rectangles (Section 2).  This module
owns that state: the set of live :class:`~repro.core.region.Region` objects,
their adjacency ("two regions are neighbors when their intersection is a
line segment"), and point location.

Point location is accelerated with an incrementally-maintained cell index
(each index cell remembers a region near it); a greedy walk over the
adjacency graph from the indexed candidate is the authority, so the index
never has to be perfectly fresh.  The greedy walk is the same procedure the
overlay uses for routing, so its hop counts are also what the routing
experiments measure.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Set as AbstractSet
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.errors import GeometryError, PartitionError
from repro.geometry import Point, Rect, SplitAxis
from repro.geometry.rect import EDGE_TOLERANCE
from repro.core.region import Region

#: Strict-progress margin for the greedy walk; distances are in the same
#: unit as the space (miles), so anything far below a cell size works.
_PROGRESS_EPS = 1e-12

#: Relative margin on squared distances in the greedy walk: a neighbor
#: whose squared distance exceeds the best one's by this factor cannot be
#: closer, so its root is never taken.
_ROOT_SLACK = 1.0 + 1e-12

#: Largest group :func:`_touching_groups` leaves unsplit, and its depth cap.
_GROUP_SIZE = 8
_GROUP_DEPTH = 48


#: One row of the link table: a neighbor's edges and id.
Link = Tuple[float, float, float, float, int]

_link_of = attrgetter("link")


def _set_rect(region: Region, rect: Rect) -> None:
    """Give ``region`` the rect ``rect`` and the matching edge tuple and
    link-table row."""
    region.rect = rect
    x2 = rect.x + rect.width
    y2 = rect.y + rect.height
    region.edges = (rect.x, x2, rect.y, y2)
    region.link = (rect.x, x2, rect.y, y2, region.region_id)


def _touching_groups(bounds: Rect, regions: List[Region]) -> Iterator[List[Region]]:
    """Groups of regions such that any two regions inside ``bounds`` whose
    closed rects, grown by :data:`EDGE_TOLERANCE`, share a point are
    together in at least one group.

    A quadtree over ``bounds``: a cell with more than :data:`_GROUP_SIZE`
    members is cut into four closed quadrants, and each member goes to
    every quadrant its grown rect reaches, so two regions sharing a point
    both reach the quadrant holding it.  Depth is capped for the case of
    many regions stacked on one spot, which only a broken partition has.
    """
    tol = EDGE_TOLERANCE
    grown = [
        (a, a.rect.x - tol, a.rect.x2 + tol, a.rect.y - tol, a.rect.y2 + tol)
        for a in regions
    ]
    stack = [
        (grown, bounds.x - tol, bounds.x2 + tol, bounds.y - tol, bounds.y2 + tol, 0)
    ]
    while stack:
        members, x0, x1, y0, y1, depth = stack.pop()
        if len(members) <= _GROUP_SIZE or depth == _GROUP_DEPTH:
            yield [member[0] for member in members]
            continue
        xm = (x0 + x1) / 2.0
        ym = (y0 + y1) / 2.0
        for cx0, cx1, cy0, cy1 in (
            (x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)
        ):
            inside = [
                member for member in members
                if member[1] <= cx1 and member[2] >= cx0
                and member[3] <= cy1 and member[4] >= cy0
            ]
            if inside:
                stack.append((inside, cx0, cx1, cy0, cy1, depth + 1))


class RegionSetView(AbstractSet):
    """A live, read-only view of a space's region set.

    Iteration, membership and set algebra all work (set operations return
    plain ``frozenset`` results); there is no way to mutate the underlying
    partition through the view.  Returned by :attr:`Space.regions` so
    callers cannot corrupt the tiling by adding or removing regions behind
    the partition manager's back.
    """

    __slots__ = ("_backing",)

    def __init__(self, backing: Set[Region]) -> None:
        self._backing = backing

    def __contains__(self, item: object) -> bool:
        return item in self._backing

    def __iter__(self) -> Iterator[Region]:
        return iter(self._backing)

    def __len__(self) -> int:
        return len(self._backing)

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Region]) -> "frozenset[Region]":
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegionSetView({len(self._backing)} regions)"


class Space:
    """The set of regions currently tiling the GeoGrid plane.

    The space starts out as a single *root* region owned by the first node;
    joins split regions, departures merge them back (or hand them over).
    All structural operations keep three invariants:

    1. the union of all region rectangles is exactly the bounds;
    2. region rectangles are pairwise interior-disjoint;
    3. the adjacency relation equals the geometric neighbor predicate.

    ``check_invariants`` verifies all three (tests call it constantly),
    and that the link table (:attr:`links`) mirrors the adjacency sets.
    """

    def __init__(self, bounds: Rect, index_resolution: int = 128) -> None:
        if index_resolution < 1:
            raise ValueError(f"index_resolution must be >= 1, got {index_resolution}")
        self.bounds = bounds
        self._regions: Set[Region] = set()
        self._adjacency: Dict[Region, Set[Region]] = {}
        self._index_nx = index_resolution
        self._index_ny = index_resolution
        self._index_cell_w = bounds.width / index_resolution
        self._index_cell_h = bounds.height / index_resolution
        self._cell_hint: List[Optional[Region]] = [None] * (index_resolution * index_resolution)
        self._regions_view = RegionSetView(self._regions)
        #: The link table, read by the model layer's adjacency loops
        #: (the greedy walk, query fan-out, TTL rings, the trigger's
        #: neighbor scan): for every region id, the
        #: :attr:`Region.link` rows ``(x, x2, y, y2, neighbor_id)`` of its
        #: neighbors, in the iteration order of its adjacency set, which
        #: decides every tie.  A split or merge rebuilds the entry of each
        #: region whose neighbor set or neighbors' edges it changed.
        #: Rows hold ids, not regions: tuples of floats and ints are not
        #: tracked by the cyclic collector, and the table adds no
        #: region-to-region reference.  Read-only for callers.
        self.links: Dict[int, Tuple[Link, ...]] = {}
        #: ``region_id -> Region`` for every region of the space; turns
        #: a link row back into its region.  Read-only for callers.
        self.by_id: Dict[int, Region] = {}
        #: Cumulative counter of greedy-walk hops, exposed for experiments.
        self.walk_hops = 0
        #: Structural counter: every split and merge bumps it and stamps
        #: the regions it restructures (:attr:`Region.stamp`) with the
        #: new value.  Adjacency only changes through those two calls, so
        #: a memo over the adjacency graph that remembers the counter at
        #: build time is valid while none of the regions it read carries
        #: a newer stamp.
        self.stamp = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def regions(self) -> AbstractSet:
        """A live, read-only view of the current regions.

        The view tracks splits and merges as they happen; it cannot be
        mutated (structural changes go through :meth:`split_region`,
        :meth:`merge_regions` and friends).
        """
        return self._regions_view

    def region_count(self) -> int:
        """Number of regions currently tiling the space."""
        return len(self._regions)

    def neighbors(self, region: Region) -> Set[Region]:
        """The immediate neighbor regions of ``region``."""
        try:
            return self._adjacency[region]
        except KeyError:
            raise PartitionError(f"{region!r} is not part of this space") from None

    def __contains__(self, region: Region) -> bool:
        return region in self._regions

    def any_region(self) -> Region:
        """An arbitrary region (used as a walk start of last resort)."""
        if not self._regions:
            raise PartitionError("the space has no regions yet")
        return next(iter(self._regions))

    # ------------------------------------------------------------------
    # Structure: root, split, merge
    # ------------------------------------------------------------------
    def add_root(self, region: Region) -> None:
        """Install the first region; it must cover the entire bounds."""
        if self._regions:
            raise PartitionError("the space already has regions; cannot add a root")
        if region.rect != self.bounds:
            raise PartitionError(
                f"root region rect {region.rect} must equal the space bounds "
                f"{self.bounds}"
            )
        _set_rect(region, region.rect)
        self._regions.add(region)
        self._adjacency[region] = set()
        self.by_id[region.region_id] = region
        self.links[region.region_id] = ()
        self._reindex_rect(region.rect, region)

    def split_region(
        self,
        region: Region,
        axis: Optional[SplitAxis] = None,
        keep: str = "low",
    ) -> Region:
        """Split ``region`` in half and return the newly created region.

        ``region`` keeps the ``keep`` half (``"low"`` = south/west) and a
        fresh :class:`Region` is created for the other half.  Owner slots of
        the new region start empty; the caller (the overlay) decides who
        owns what, because basic and dual-peer GeoGrid assign ownership
        differently.

        ``axis`` defaults to halving the longer side ("latitude dimension
        first" on ties, per the paper's example ordering).  A split whose
        halves would have a side below the geometry's edge tolerance
        raises :class:`PartitionError` (see :meth:`Rect.can_split`).
        """
        if region not in self._regions:
            raise PartitionError(f"{region!r} is not part of this space")
        if keep not in ("low", "high"):
            raise ValueError(f"keep must be 'low' or 'high', got {keep!r}")
        if axis is None:
            axis = region.rect.longer_axis()
        if not region.rect.can_split(axis):
            raise PartitionError(
                f"splitting {region!r} would leave a side below the edge "
                f"tolerance"
            )
        low, high = region.rect.split(axis)
        kept_rect, new_rect = (low, high) if keep == "low" else (high, low)

        old_neighbors = self._adjacency[region]
        _set_rect(region, kept_rect)
        new_region = Region(rect=new_rect)
        _set_rect(new_region, new_rect)
        self._regions.add(new_region)
        self.by_id[new_region.region_id] = new_region

        # The new region's neighbors are a subset of the old neighbors plus
        # the kept half; the kept half loses the old neighbors that only
        # touched the handed-off half.
        new_neighbors: Set[Region] = set()
        kept_neighbors: Set[Region] = set()
        for candidate in old_neighbors:
            if new_rect.is_neighbor_of(candidate.rect):
                new_neighbors.add(candidate)
                self._adjacency[candidate].add(new_region)
            if kept_rect.is_neighbor_of(candidate.rect):
                kept_neighbors.add(candidate)
            else:
                self._adjacency[candidate].discard(region)
        # The copy is part of the seeded behavior: a set copied from a
        # grown set can iterate in another order than the original.
        new_neighbors_frozen = set(new_neighbors)
        kept_neighbors.add(new_region)
        new_neighbors_frozen.add(region)
        self._adjacency[region] = kept_neighbors
        self._adjacency[new_region] = new_neighbors_frozen
        self._relink(old_neighbors)
        self._relink((region, new_region))
        self.stamp += 1
        region.stamp = new_region.stamp = self.stamp

        self._reindex_rect(new_rect, new_region)
        registry = obs.active()
        if registry is not None:
            registry.inc("space.splits")
            registry.trace(
                "region_split",
                parent=region.region_id,
                child=new_region.region_id,
                axis=axis.value,
                child_area=new_rect.area,
            )
        recorder = obs.flightrec()
        if recorder is not None:
            recorder.record(
                "region_split",
                None,
                parent=region.region_id,
                child=new_region.region_id,
                kept=str(kept_rect),
                rect=str(new_rect),
            )
        return new_region

    def merge_regions(self, survivor: Region, absorbed: Region) -> Region:
        """Merge ``absorbed`` into ``survivor``; returns ``survivor``.

        The two rectangles' union must itself be a rectangle.  Owner slots
        of ``absorbed`` are left for the caller to rehome; after this call
        ``absorbed`` is no longer part of the space.
        """
        if survivor not in self._regions or absorbed not in self._regions:
            raise PartitionError("both regions must be part of this space")
        if survivor is absorbed:
            raise PartitionError("cannot merge a region with itself")
        if not survivor.rect.can_merge_with(absorbed.rect):
            raise GeometryError(
                f"union of {survivor.rect} and {absorbed.rect} is not a rectangle"
            )
        merged_rect = survivor.rect.merge_with(absorbed.rect)
        candidates = (
            self._adjacency[survivor] | self._adjacency[absorbed]
        ) - {survivor, absorbed}
        for candidate in candidates:
            self._adjacency[candidate].discard(absorbed)
            self._adjacency[candidate].discard(survivor)
        del self._adjacency[absorbed]
        del self.links[absorbed.region_id]
        del self.by_id[absorbed.region_id]
        self._regions.discard(absorbed)

        _set_rect(survivor, merged_rect)
        new_neighbors = {
            candidate
            for candidate in candidates
            if merged_rect.is_neighbor_of(candidate.rect)
        }
        self._adjacency[survivor] = new_neighbors
        for candidate in new_neighbors:
            self._adjacency[candidate].add(survivor)
        self._relink(candidates)
        self._relink((survivor,))
        self.stamp += 1
        survivor.stamp = absorbed.stamp = self.stamp

        self._reindex_rect(merged_rect, survivor)
        registry = obs.active()
        if registry is not None:
            registry.inc("space.merges")
            registry.trace(
                "region_merge",
                survivor=survivor.region_id,
                absorbed=absorbed.region_id,
                merged_area=merged_rect.area,
            )
        recorder = obs.flightrec()
        if recorder is not None:
            recorder.record(
                "region_merge",
                None,
                survivor=survivor.region_id,
                absorbed=absorbed.region_id,
                rect=str(merged_rect),
            )
        return survivor

    def _relink(self, regions: Iterable[Region]) -> None:
        """Rebuild the link-table entries of ``regions`` from their
        current adjacency sets."""
        adjacency, links = self._adjacency, self.links
        for region in regions:
            links[region.region_id] = tuple(map(_link_of, adjacency[region]))

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    def region_covers(self, region: Region, point: Point) -> bool:
        """Coverage predicate adjusted at the space border.

        Uses the paper's half-open rule, but closes the low edge for
        regions sitting on the space's own west/south border so that every
        point of the bounds is covered by exactly one region.
        """
        return region.rect.covers(
            point,
            closed_low_x=region.rect.x <= self.bounds.x,
            closed_low_y=region.rect.y <= self.bounds.y,
        )

    def region_owns_part_of(self, region: Region, rect: Rect) -> bool:
        """Whether ``region`` owns a point of the closed rect ``rect``.

        :meth:`region_covers` over a whole rect: the region's half-open
        extent, with the low edge closed on the space's west/south
        border, meets the closed ``rect``.  A region that shares only its
        own south or west edge with ``rect`` owns none of its points; one
        that shares its north or east edge owns the points on that edge.
        """
        r = region.rect
        return (
            rect.x <= r.x2
            and (r.x < rect.x2 or r.x <= self.bounds.x and r.x <= rect.x2)
            and rect.y <= r.y2
            and (r.y < rect.y2 or r.y <= self.bounds.y and r.y <= rect.y2)
        )

    def covers_point(self, point: Point) -> bool:
        """Whether ``point`` lies inside the space bounds at all."""
        return self.bounds.covers(point, closed_low_x=True, closed_low_y=True)

    def locate(
        self,
        point: Point,
        hint: Optional[Region] = None,
        path: Optional[List[Region]] = None,
    ) -> Region:
        """Find the region covering ``point``.

        Performs the greedy geographic walk of Section 2.2 starting from
        ``hint`` (or the cell-index candidate): repeatedly step to the
        neighbor whose region is closest to the destination.  If ``path``
        is given, every visited region (including start and destination) is
        appended to it, which is how the routing layer obtains hop counts.
        """
        registry = obs.active()
        if registry is None:
            return self._locate(point, hint, path)
        hops_before = self.walk_hops
        region = self._locate(point, hint, path)
        # One histogram record per call: its ``count`` doubles as the
        # locate-call counter, keeping the hot path to a single update.
        registry.observe("space.locate.hops", self.walk_hops - hops_before)
        return region

    def _locate(
        self,
        point: Point,
        hint: Optional[Region] = None,
        path: Optional[List[Region]] = None,
    ) -> Region:
        """The uninstrumented greedy walk behind :meth:`locate`."""
        if not self._regions:
            raise PartitionError("the space has no regions yet")
        if not self.covers_point(point):
            raise PartitionError(f"point {point} lies outside the space bounds")
        current = hint if hint in self._regions else self._hint_for(point)
        if current is None or current not in self._regions:
            current = self.any_region()
        if path is not None:
            path.append(current)
        return self._walk(current, point, path)

    def _walk(
        self,
        start: Region,
        point: Point,
        path: Optional[List[Region]] = None,
    ) -> Region:
        """The greedy walk from ``start``, a region of the space, to the
        region covering ``point``, a point inside the bounds.

        No validation: :meth:`_locate` and
        :func:`~repro.core.routing.route_to_point` check both first.  If
        ``path`` is given, every region visited after ``start`` is
        appended to it.
        """
        px = point.x
        py = point.y
        bx = self.bounds.x
        by = self.bounds.y
        links = self.links
        by_id = self.by_id
        # The walk reads link-table rows: ``current`` is the current
        # region's own row, so its edges and id come with one unpack.
        current = start.link
        x, x2, y, y2, _ = current
        # Rect.distance_to_point's arithmetic on the edge tuple.
        dx = max(x - px, 0.0, px - x2)
        dy = max(y - py, 0.0, py - y2)
        current_dist = (dx * dx + dy * dy) ** 0.5
        hops = 0
        # The walk terminates: every step strictly decreases the distance
        # to the target, and there are finitely many regions.
        max_steps = len(self._regions) + 4
        for _ in range(max_steps):
            # region_covers on the edge tuple: half-open, with the low
            # edge closed on the space's own west/south border.
            x, x2, y, y2, current_id = current
            if (x < px <= x2 or px == x <= bx) and (y < py <= y2 or py == y <= by):
                self.walk_hops += hops
                return by_id[current_id]
            best = None
            best_dist = best_bound = math.inf
            for row in links[current_id]:
                # Rect.distance_to_point, inlined on the row's edges: this
                # loop is the hot path of every route and store update.
                # The edge sums and the ``** 0.5`` match the method bit
                # for bit, so the first-minimum choice below is unchanged.
                # The root is only taken when the square could win: a
                # square more than _ROOT_SLACK above the best one has a
                # larger root even with ``** 0.5`` off by an ulp either way.
                x, x2, y, y2, _ = row
                if px < x:
                    dx = x - px
                elif px > x2:
                    dx = px - x2
                else:
                    dx = 0.0
                if py < y:
                    dy = y - py
                elif py > y2:
                    dy = py - y2
                else:
                    dy = 0.0
                square = dx * dx + dy * dy
                if square <= best_bound:
                    d = square ** 0.5
                    if d < best_dist:
                        best, best_dist = row, d
                        best_bound = square * _ROOT_SLACK
            if best is not None and best_dist < current_dist - _PROGRESS_EPS:
                current, current_dist = best, best_dist
                hops += 1
                if path is not None:
                    path.append(by_id[best[4]])
                continue
            self.walk_hops += hops
            # Stalled with zero progress: the point sits exactly on a
            # region boundary.  The covering region is then either a
            # neighbor (shared edge) or a corner-touching region; check the
            # neighbors first, then fall back to the scan of last resort.
            region = by_id[current_id]
            for neighbor in self._adjacency[region]:
                if self.region_covers(neighbor, point):
                    if path is not None:
                        path.append(neighbor)
                    self.walk_hops += 1
                    return neighbor
            located = self._scan(point)
            if path is not None and located is not region:
                path.append(located)
            return located
        self.walk_hops += hops
        raise PartitionError(
            f"greedy walk failed to converge locating {point}; the partition "
            f"is corrupt"
        )

    def _scan(self, point: Point) -> Region:
        """O(N) fallback point location (boundary-exact)."""
        obs.inc("space.locate.scan_fallback")
        for region in self._regions:
            if self.region_covers(region, point):
                return region
        raise PartitionError(
            f"no region covers {point}; the partition does not tile the bounds"
        )

    # ------------------------------------------------------------------
    # Cell index
    # ------------------------------------------------------------------
    def _cell_of(self, point: Point) -> int:
        ix = int((point.x - self.bounds.x) / self._index_cell_w)
        iy = int((point.y - self.bounds.y) / self._index_cell_h)
        ix = min(max(ix, 0), self._index_nx - 1)
        iy = min(max(iy, 0), self._index_ny - 1)
        return ix * self._index_ny + iy

    def _hint_for(self, point: Point) -> Optional[Region]:
        return self._cell_hint[self._cell_of(point)]

    def _reindex_rect(self, rect: Rect, region: Region) -> None:
        """Point the index cells overlapping ``rect`` at ``region``."""
        ix0 = max(0, int((rect.x - self.bounds.x) / self._index_cell_w))
        ix1 = min(self._index_nx - 1, int((rect.x2 - self.bounds.x) / self._index_cell_w))
        iy0 = max(0, int((rect.y - self.bounds.y) / self._index_cell_h))
        iy1 = min(self._index_ny - 1, int((rect.y2 - self.bounds.y) / self._index_cell_h))
        for ix in range(ix0, ix1 + 1):
            base = ix * self._index_ny
            for iy in range(iy0, iy1 + 1):
                self._cell_hint[base + iy] = region
        # Entries left pointing at regions that later shrink away or get
        # removed are tolerated: ``locate`` validates the hint and the
        # greedy walk corrects it, the index is only a starting guess.

    # ------------------------------------------------------------------
    # Invariants (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify tiling, disjointness and adjacency; raise on violation.

        Near-linear in the region count: two regions are compared only
        when :func:`_touching_groups` puts them in one group, which it
        does for every pair whose grown closed rects share a point.
        Overlapping regions share an interior point and neighbors share an
        edge piece, so every such pair is compared; a recorded adjacency
        pair that was never compared is not a geometric neighbor pair.
        Each region's edge tuple and link row must also match its rect,
        and each link-table entry must list its region's neighbors' rows
        in the order of its adjacency set.
        """
        if not self._regions:
            return
        bounds = self.bounds
        total_area = sum(r.rect.area for r in self._regions)
        if not math.isclose(total_area, bounds.area, rel_tol=1e-9):
            raise PartitionError(
                f"region areas sum to {total_area}, bounds area is "
                f"{bounds.area}: the partition does not tile the space"
            )
        regions = list(self._regions)
        for a in regions:
            rect = a.rect
            if not bounds.contains_rect(rect):
                raise PartitionError(f"{a!r} sticks out of the bounds")
            if a.edges != (rect.x, rect.x2, rect.y, rect.y2):
                raise PartitionError(f"{a!r} carries stale edges {a.edges}")
            if a.link != (*a.edges, a.region_id):
                raise PartitionError(f"{a!r} carries a stale link row {a.link}")
        adjacency = self._adjacency
        if set(adjacency) != self._regions:
            raise PartitionError("adjacency keys do not match the region set")
        compared: Set[tuple] = set()
        recorded = 0
        for members in _touching_groups(bounds, regions):
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    pair = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
                    if pair in compared:
                        continue
                    compared.add(pair)
                    if a.rect.intersects(b.rect):
                        raise PartitionError(f"{a!r} and {b!r} overlap")
                    forward = b in adjacency[a]
                    if forward != (a in adjacency[b]):
                        raise PartitionError(
                            f"adjacency between {a!r} and {b!r} is asymmetric"
                        )
                    geometric = a.rect.is_neighbor_of(b.rect)
                    if geometric != forward:
                        raise PartitionError(
                            f"adjacency mismatch between {a!r} and {b!r}: "
                            f"geometric={geometric} recorded={forward}"
                        )
                    recorded += 2 * forward
        if recorded != sum(len(neighbors) for neighbors in adjacency.values()):
            raise PartitionError(
                "adjacency records a pair of regions that are not geometric "
                "neighbors"
            )
        if len(self.by_id) != len(regions) or any(
            self.by_id.get(a.region_id) is not a for a in regions
        ):
            raise PartitionError("the id map does not match the region set")
        if self.links.keys() != self.by_id.keys():
            raise PartitionError("link-table keys do not match the region set")
        for a in regions:
            if self.links[a.region_id] != tuple(map(_link_of, adjacency[a])):
                raise PartitionError(
                    f"the link-table entry of {a!r} does not list its "
                    f"neighbors' rows in adjacency order"
                )

    def iter_regions_intersecting(self, rect: Rect) -> Iterable[Region]:
        """All regions touching ``rect`` (edge and corner contact included).

        Used by query fan-out: after a request reaches the region covering
        the query center, it is forwarded to every region overlapping the
        spatial query rectangle.  Implemented as a breadth-first (FIFO)
        traversal over adjacency from the covering region, so it touches
        only the relevant corner of the space and yields regions in
        non-decreasing hop distance from the start.

        Membership uses the closed-rectangle :meth:`Rect.touches`
        predicate rather than interior-overlap :meth:`Rect.intersects`:
        point coverage is closed at a region's high edges, so a region
        meeting the query rectangle only at its own northeast corner can
        still own matching points and must receive the query
        (:func:`repro.core.routing._fanout` explains the connectivity
        argument).

        A degenerate query rectangle whose center rounds outside every
        closed region (possible only for hand-built rects outside the
        space) falls back to the located start region answering alone.
        """
        if not self._regions:
            return
        start = self.locate(rect.center)
        if not start.rect.touches(rect):
            yield start
            return
        seen = {start}
        frontier = deque((start,))
        while frontier:
            region = frontier.popleft()
            yield region
            # Regions not touching the query rect do not expand the
            # search: the set of touching regions is edge-connected, so
            # the BFS reaches all of them through touching regions.
            for neighbor in self._adjacency[region]:
                if neighbor not in seen and neighbor.rect.touches(rect):
                    seen.add(neighbor)
                    frontier.append(neighbor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Space(bounds={self.bounds}, regions={len(self._regions)})"
