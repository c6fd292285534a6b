"""TTL-guided remote search (mechanisms f, g, h).

When a region and all of its neighbors are overloaded, GeoGrid "runs a
Time-to-Live guided search for the remote region whose secondary owner has
more capacity than the primary owner of the overloaded region and is less
loaded" (Section 2.4).  We implement it as a breadth-first expansion over
region adjacency up to ``ttl`` hops, counting one message per visited
region -- the quantity the ablation benchmarks charge the remote
mechanisms for.

What a search visits depends on the origin, the TTL and the adjacency,
never on the predicate: :func:`ttl_ring` computes that visit list once,
and a search is the ring filtered by its predicate.  :class:`RingMemo`
keeps one ring per origin across searches and rounds, rebuilding it only
after a split or merge reaches one of its regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.region import Region
from repro.core.space import Space

#: Decides whether a visited region is a usable candidate.
RegionPredicate = Callable[[Region], bool]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a TTL search."""

    #: Candidate regions matching the predicate, in discovery (BFS) order.
    candidates: List[Region]
    #: Number of regions contacted (the message cost of the search).
    messages: int
    #: Number of regions whose whole neighborhood was expanded.
    expanded: int


@dataclass(frozen=True)
class Ring:
    """Everything a TTL search from ``origin`` visits, before any predicate.

    A search's candidates are the ring filtered by its predicate and its
    message cost is the ring's size, so one ring serves every search from
    the same origin until the adjacency it read changes.
    """

    origin: Region
    ttl: int
    #: Every region contacted, in discovery (BFS) order.
    regions: List[Region]
    #: How many leading entries of :attr:`regions` are direct neighbors.
    direct: int
    #: Number of regions whose whole neighborhood was expanded.
    expanded: int
    #: The space's structural counter when the ring was built.
    built_at: int

    @property
    def messages(self) -> int:
        """Regions contacted: the message cost of a search over the ring."""
        return len(self.regions)

    def is_fresh(self, space: Space) -> bool:
        """Whether a BFS over ``space`` now would rebuild this ring exactly.

        The BFS reads the adjacency of the origin and of every region up
        to depth ``ttl - 1``; any change to those neighbor sets is a split
        or merge of one of them or of one of their neighbors, and all of
        those are members of the ring (depth <= ``ttl``), which
        :meth:`Space.split_region` and :meth:`Space.merge_regions` stamp.
        So the ring is fresh exactly while no member carries a stamp
        newer than the ring.
        """
        built = self.built_at
        if space.stamp == built:
            return True
        if self.origin.stamp > built:
            return False
        for region in self.regions:
            if region.stamp > built:
                return False
        return True


def ttl_ring(space: Space, origin: Region, ttl: int) -> Ring:
    """Breadth-first expansion from ``origin`` up to ``ttl`` hops."""
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    if origin not in space:
        raise ValueError(f"origin {origin!r} is not part of the space")
    # The BFS runs on region ids over the space's link table (C-level int
    # hashing); the frontier lists expand level by level, which is
    # exactly the FIFO order of a (region, depth) queue.
    links = space.links
    visited = {origin.region_id}
    ids: List[int] = []
    frontier = [origin.region_id]
    direct = 0
    expanded = 0
    for depth in range(ttl):
        level_start = len(ids)
        for region_id in frontier:
            expanded += 1
            for row in links[region_id]:
                neighbor_id = row[4]
                if neighbor_id not in visited:
                    visited.add(neighbor_id)
                    ids.append(neighbor_id)
        if depth == 0:
            direct = len(ids)
        frontier = ids[level_start:]
    regions = list(map(space.by_id.__getitem__, ids))
    return Ring(origin, ttl, regions, direct, expanded, space.stamp)


def ttl_search(
    space: Space,
    origin: Region,
    ttl: int,
    predicate: RegionPredicate,
    skip_immediate_neighbors: bool = True,
) -> SearchResult:
    """Breadth-first search from ``origin`` up to ``ttl`` hops.

    ``origin`` itself is never a candidate.  With
    ``skip_immediate_neighbors`` (the default), direct neighbors are
    traversed but not reported: the remote mechanisms only run after the
    local ones already inspected the immediate neighborhood and failed.
    """
    ring = ttl_ring(space, origin, ttl)
    # ``predicate`` sees every contacted region, reported or not.
    report_from = ring.direct if skip_immediate_neighbors else 0
    candidates = [
        region
        for position, region in enumerate(ring.regions)
        if predicate(region) and position >= report_from
    ]
    return SearchResult(candidates, ring.messages, ring.expanded)


class RingMemo:
    """One :class:`Ring` per origin, reused until a split or merge reaches it.

    Only about one adaptation in twenty restructures the partition, so
    most remote searches re-walk a ring that has not changed.  Rings are
    looked up by origin and revalidated with :meth:`Ring.is_fresh`; there
    is deliberately no reverse region-to-rings index, which would cost
    more memory than the staleness scan costs time.  Each entry also
    keeps the :attr:`Space.stamp` at which the ring was last found fresh:
    while the stamp has not moved, no split or merge happened, and the
    ring is served without a scan (the remote forms f, g and h of one
    attempt ask for the same ring in turn).
    """

    def __init__(self) -> None:
        self._rings: Dict[int, Tuple[Ring, int]] = {}

    def ring(self, space: Space, origin: Region, ttl: int) -> Ring:
        """The ring a fresh :func:`ttl_ring` call would build."""
        stamp = space.stamp
        entry = self._rings.get(origin.region_id)
        if entry is not None and entry[0].ttl == ttl:
            ring, checked = entry
            if checked == stamp:
                return ring
            if ring.is_fresh(space):
                self._rings[origin.region_id] = (ring, stamp)
                return ring
        ring = ttl_ring(space, origin, ttl)
        self._rings[origin.region_id] = (ring, stamp)
        return ring
