"""Greedy geographic routing (Section 2.2).

Routing in GeoGrid follows the straight-line path through the coordinate
space: a request is forwarded from its initiator to the immediate neighbor
closest to the destination coordinate, hop by hop, until it reaches the
region covering the destination.  On a plane of ``N`` regions this costs
``O(2*sqrt(N))`` hops between random region pairs.

Once the request reaches the *executor* region (the one covering the query
center), it fans out to every region whose rectangle overlaps the spatial
query region.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.errors import RoutingError
from repro.geometry import Point, Rect
from repro.geometry.rect import EDGE_TOLERANCE
from repro.core.query import LocationQuery
from repro.core.region import Region
from repro.core.space import Space


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing a request to a destination coordinate."""

    #: Every region visited, source first, executor last.
    path: List[Region]
    #: The region covering the destination coordinate.
    executor: Region

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError(
                "RouteResult.path must contain at least the source region"
            )

    @property
    def hops(self) -> int:
        """Number of overlay hops (edges traversed); 0 when the source
        region already covers the destination."""
        return len(self.path) - 1


@dataclass(frozen=True)
class QueryRouteResult:
    """Outcome of routing a full location query: route plus fan-out."""

    route: RouteResult
    #: All regions overlapping the spatial query rectangle (executor
    #: included when it overlaps, which it always does since it covers the
    #: query center).
    covered: List[Region]

    @property
    def executor(self) -> Region:
        """The region covering the query center."""
        return self.route.executor

    @property
    def total_messages(self) -> int:
        """Routing hops plus fan-out deliveries beyond the executor."""
        extra = sum(1 for region in self.covered if region is not self.route.executor)
        return self.route.hops + extra


def route_to_point(
    space: Space,
    start: Region,
    target: Point,
) -> RouteResult:
    """Route from ``start`` to the region covering ``target``.

    Raises :class:`RoutingError` when the target lies outside the space.
    """
    if start not in space:
        raise RoutingError(f"start region {start!r} is not part of the space")
    if not space.covers_point(target):
        raise RoutingError(f"destination {target} lies outside the service area")
    registry = obs.active()
    if registry is None:
        # Both checks above are the walk's preconditions: go straight to
        # it instead of through ``locate``, which validates again.
        path: List[Region] = [start]
        return RouteResult(path=path, executor=space._walk(start, target, path))
    path = []
    executor = space.locate(target, hint=start, path=path)
    result = RouteResult(path=path, executor=executor)
    registry.observe("routing.route.hops", result.hops)
    registry.trace(
        "route",
        source=start.region_id,
        executor=executor.region_id,
        hops=result.hops,
    )
    return result


def route_query(
    space: Space,
    start: Region,
    query: LocationQuery,
) -> QueryRouteResult:
    """Route ``query`` to its executor, then fan out over the query region.

    Mirrors the paper's example: a subscription over the gray rectangle is
    first routed to the region covering the rectangle's center; from there
    the executor forwards it to every neighbor region overlapping the query
    area (transitively, for query regions larger than one neighborhood).
    """
    route = route_to_point(space, start, query.target)
    covered = _fanout(space, route.executor, query.query_rect)
    registry = obs.active()
    if registry is not None:
        registry.observe("routing.query.fanout_regions", len(covered))
        registry.trace(
            "query_fanout",
            query=query.query_id,
            executor=route.executor.region_id,
            regions=len(covered),
            hops=route.hops,
        )
    return QueryRouteResult(route=route, covered=covered)


def _fanout(space: Space, executor: Region, query_rect: Rect) -> List[Region]:
    """All regions touching ``query_rect``, discovered from ``executor``.

    Breadth-first (FIFO frontier) over region adjacency, expanding only
    through touching regions, so regions are visited in non-decreasing hop
    distance from the executor -- the order in which a real deployment's
    forwarded copies arrive.

    Membership uses :meth:`Rect.touches` (closed rectangles, so edge and
    corner contact count), not :meth:`Rect.intersects` (interior overlap
    only).  Point coverage is closed at a region's *high* edges, so a
    region meeting the query rectangle only at its own northeast corner or
    north/east edge can still own matching points; interior overlap would
    silently drop it from the covered set.  The touch set of a rectangle
    in a rectangular tiling is edge-connected (around any contact point
    the touching regions are pairwise reachable through shared edges), so
    the BFS still finds every member.
    """
    if not executor.rect.touches(query_rect):
        # A degenerate query rectangle can have its center on the very
        # border of the executor without even touching it; the executor
        # still answers it alone.
        return [executor]
    # Rect.touches(query_rect) on each link row's edges, with the query
    # side's sums taken once.
    tol = EDGE_TOLERANCE
    qx, qy = query_rect.x, query_rect.y
    qx2 = query_rect.x2 + tol
    qy2 = query_rect.y2 + tol
    links = space.links
    by_id = space.by_id
    covered: List[Region] = []
    seen = {executor.region_id}
    frontier = deque((executor.region_id,))
    while frontier:
        region_id = frontier.popleft()
        covered.append(by_id[region_id])
        for x, x2, y, y2, neighbor_id in links[region_id]:
            if (
                neighbor_id not in seen
                and x <= qx2 and qx <= x2 + tol
                and y <= qy2 and qy <= y2 + tol
            ):
                seen.add(neighbor_id)
                frontier.append(neighbor_id)
    return covered


def route_to_point_randomized(
    space: Space,
    start: Region,
    target: Point,
    rng,
    slack: float = 1.25,
    max_steps: int = 10_000,
) -> RouteResult:
    """Greedy routing with randomized entry selection (Section 2.2).

    The paper's management-message list includes "randomization of routing
    entries": instead of always forwarding to the single closest neighbor,
    each hop picks uniformly among the neighbors that both make strict
    progress and lie within ``slack`` of the best distance.  Requests
    between the same endpoints then spread over several parallel paths,
    diffusing the *routing* workload off the single greedy corridor while
    keeping every hop strictly closer to the target (so termination and
    the O(2*sqrt(N)) bound are preserved).
    """
    if start not in space:
        raise RoutingError(f"start region {start!r} is not part of the space")
    if not space.covers_point(target):
        raise RoutingError(f"destination {target} lies outside the service area")
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1, got {slack!r}")
    registry = obs.active()
    current = start
    current_dist = current.rect.distance_to_point(target)
    path = [current]
    for _ in range(max_steps):
        if space.region_covers(current, target):
            if registry is not None:
                registry.observe("routing.randomized.hops", len(path) - 1)
            return RouteResult(path=path, executor=current)
        candidates = []
        best = math.inf
        for neighbor in space.neighbors(current):
            distance = neighbor.rect.distance_to_point(target)
            if distance < current_dist - 1e-12:
                candidates.append((distance, neighbor))
                best = min(best, distance)
        if candidates:
            eligible = [
                neighbor for distance, neighbor in candidates
                if distance <= best * slack + 1e-12
            ]
            current = eligible[rng.randrange(len(eligible))]
            current_dist = current.rect.distance_to_point(target)
            path.append(current)
            continue
        # No strict progress: fall back to the deterministic walk, which
        # handles the boundary cases (shared edges, corner points).
        tail: List[Region] = []
        executor = space.locate(target, hint=current, path=tail)
        path.extend(tail[1:])
        if registry is not None:
            registry.observe("routing.randomized.hops", len(path) - 1)
        return RouteResult(path=path, executor=executor)
    if registry is not None:
        registry.observe("routing.randomized.hops", len(path) - 1)
        registry.inc("routing.randomized.exhausted")
    raise RoutingError(
        f"randomized route from {start!r} to {target} exceeded "
        f"{max_steps} steps; the partition is corrupt"
    )


class ShortcutTable:
    """Learned long-range routing entries for the model layer.

    Mirrors the protocol layer's per-node shortcut cache at paper scale:
    each region keeps a bounded LRU of *non-neighbor* regions it has seen
    on paths it routed or forwarded.  :func:`route_to_point_cached`
    consults these entries alongside plain neighbors under the same
    strict-progress rule, so greedy termination is untouched while the
    hop count drops toward O(log N) once the cache is warm.

    Entries referencing regions that have since left the space (splits
    and merges replace ``Region`` objects) are dropped lazily when
    consulted, matching the protocol layer's lazy MISROUTE repair.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        #: Routing decisions where a shortcut beat every plain neighbor.
        self.hits = 0
        #: Routing decisions that fell back to a plain neighbor hop.
        self.misses = 0
        #: Stale entries dropped when consulted (the model-layer analogue
        #: of the protocol's lazy MISROUTE repair).
        self.repairs = 0
        self._tables: dict = {}

    @property
    def enabled(self) -> bool:
        """Whether the table stores anything (capacity zero disables)."""
        return self.capacity > 0

    def learn(self, source: Region, remote: Region) -> None:
        """Remember that ``source`` has seen traffic involving ``remote``."""
        if not self.enabled or source is remote:
            return
        table = self._tables.get(source)
        if table is None:
            table = self._tables[source] = OrderedDict()
        if remote in table:
            table.move_to_end(remote)
        else:
            table[remote] = None
            while len(table) > self.capacity:
                table.popitem(last=False)

    def shortcuts(self, source: Region) -> List[Region]:
        """The cached remote regions of ``source``, oldest first."""
        table = self._tables.get(source)
        return [] if table is None else list(table)

    def forget(self, region: Region) -> None:
        """Drop ``region`` both as a cache owner and as a cached entry."""
        self._tables.pop(region, None)
        for table in self._tables.values():
            table.pop(region, None)

    def reset_counters(self) -> None:
        """Zero the hit/miss/repair counters (e.g. after a warmup phase)."""
        self.hits = 0
        self.misses = 0
        self.repairs = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of routing decisions resolved through a shortcut."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def route_to_point_cached(
    space: Space,
    start: Region,
    target: Point,
    table: ShortcutTable,
) -> RouteResult:
    """Greedy routing that also considers learned shortcut entries.

    Each hop picks the strictly-closest candidate among the current
    region's neighbors *and* its live shortcut entries; because every
    candidate must still make strict progress on the region-to-target
    distance, the walk terminates exactly like :func:`route_to_point`
    and reaches the identical executor (the covering region is unique).
    After arrival, every region on the path learns both endpoints, so
    repeated traffic between the same areas keeps shortening its paths.
    """
    if start not in space:
        raise RoutingError(f"start region {start!r} is not part of the space")
    if not space.covers_point(target):
        raise RoutingError(f"destination {target} lies outside the service area")
    registry = obs.active()
    current = start
    current_dist = current.rect.distance_to_point(target)
    path = [current]
    max_steps = space.region_count() + 4
    for _ in range(max_steps):
        if space.region_covers(current, target):
            break
        best: Optional[Region] = None
        best_dist = current_dist - 1e-12
        for neighbor in space.neighbors(current):
            distance = neighbor.rect.distance_to_point(target)
            if distance < best_dist:
                best, best_dist = neighbor, distance
        via_shortcut = False
        for remote in table.shortcuts(current):
            if remote not in space:
                table.forget(remote)
                table.repairs += 1
                continue
            distance = remote.rect.distance_to_point(target)
            if distance < best_dist:
                best, best_dist, via_shortcut = remote, distance, True
        if best is None:
            # Boundary stall (shared edges, corner contact): finish with
            # the deterministic walk, which handles those cases.
            tail: List[Region] = []
            executor = space.locate(target, hint=current, path=tail)
            path.extend(tail[1:])
            current = executor
            break
        if table.enabled:
            if via_shortcut:
                table.hits += 1
            else:
                table.misses += 1
        current = best
        current_dist = current.rect.distance_to_point(target)
        path.append(current)
    else:
        raise RoutingError(
            f"cached route from {start!r} to {target} exceeded "
            f"{max_steps} steps; the partition is corrupt"
        )
    executor = current
    for region in path:
        table.learn(region, executor)
        table.learn(region, start)
    result = RouteResult(path=path, executor=executor)
    if registry is not None:
        registry.observe("routing.cached.hops", result.hops)
    return result


def path_length_miles(result: RouteResult) -> float:
    """Geographic length of the routed path (sum of region-center legs).

    A proxy for per-hop latency accumulated along the path; GeoGrid's
    geographic routing keeps this close to the straight-line distance,
    which is the "physical and network proximity" similarity the paper
    exploits.
    """
    total = 0.0
    for a, b in zip(result.path, result.path[1:]):
        total += a.rect.center.distance_to(b.rect.center)
    return total


def straight_line_miles(result: RouteResult) -> Optional[float]:
    """Straight-line distance from source to executor centers."""
    if not result.path:
        return None
    return result.path[0].rect.center.distance_to(result.executor.rect.center)


def stretch(result: RouteResult) -> Optional[float]:
    """Path length divided by straight-line distance (>= 1, lower better)."""
    line = straight_line_miles(result)
    if line is None or line == 0.0:
        return None
    return path_length_miles(result) / line
