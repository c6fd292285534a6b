"""TTL-guided remote search (mechanisms f, g, h).

When a region and all of its neighbors are overloaded, GeoGrid "runs a
Time-to-Live guided search for the remote region whose secondary owner has
more capacity than the primary owner of the overloaded region and is less
loaded" (Section 2.4).  We implement it as a breadth-first expansion over
region adjacency up to ``ttl`` hops, counting one message per visited
region -- the quantity the ablation benchmarks charge the remote
mechanisms for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

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
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    if origin not in space:
        raise ValueError(f"origin {origin!r} is not part of the space")
    candidates: List[Region] = []
    # Visited is keyed on region ids (C-level int hashing); the frontier
    # lists expand level by level, which is exactly the FIFO order of a
    # (region, depth) queue.
    visited = {origin.region_id}
    frontier = [origin]
    neighbors = space.neighbors
    messages = 0
    expanded = 0
    for depth in range(ttl):
        report = not (skip_immediate_neighbors and depth == 0)
        next_frontier: List[Region] = []
        for region in frontier:
            expanded += 1
            for neighbor in neighbors(region):
                region_id = neighbor.region_id
                if region_id in visited:
                    continue
                visited.add(region_id)
                messages += 1
                if predicate(neighbor) and report:
                    candidates.append(neighbor)
                next_frontier.append(neighbor)
        frontier = next_frontier
    return SearchResult(candidates=candidates, messages=messages, expanded=expanded)
