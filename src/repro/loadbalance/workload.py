"""The workload index.

The paper balances two kinds of load -- location-query workload and
routing workload -- through one normalized quantity, the *workload index*
of a node.  We pin it down as:

    index(node) = sum of the query workload of the regions the node
                  primarily owns, divided by the node's capacity
                + replication_fraction * (the same over the regions it
                  owns as a secondary) / capacity

Secondary owners replicate the primary's state, so serving a region as a
secondary costs a configurable fraction of serving it as a primary
(default 0: the primary handles *all* requests, per Section 2.3).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional

from repro.core.node import Node
from repro.core.overlay import BasicGeoGrid
from repro.core.region import Region
from repro.metrics.stats import StatSummary, summarize

#: Maps a region to its current query workload (the hot-spot field).
RegionLoadFn = Callable[[Region], float]


class WorkloadIndexCalculator:
    """Computes workload indices for an overlay under a workload oracle.

    Parameters
    ----------
    overlay:
        The GeoGrid overlay (basic or dual-peer).
    region_load:
        The workload oracle, typically
        :meth:`repro.workload.hotspot.HotspotField.region_load`.
    replication_fraction:
        Cost of serving a region as a secondary, as a fraction of the
        primary's cost.
    """

    def __init__(
        self,
        overlay: BasicGeoGrid,
        region_load: RegionLoadFn,
        replication_fraction: float = 0.0,
    ) -> None:
        if not (0.0 <= replication_fraction <= 1.0):
            raise ValueError(
                f"replication_fraction must lie in [0, 1], got "
                f"{replication_fraction!r}"
            )
        self.overlay = overlay
        self.region_load = region_load
        self.replication_fraction = replication_fraction

    # ------------------------------------------------------------------
    # Indices
    # ------------------------------------------------------------------
    def region_index(self, region: Region) -> float:
        """Region workload divided by its primary owner's capacity.

        Infinite for a vacant region (never observable through the public
        overlay API, but the adaptation planner guards against it).
        """
        if region.primary is None:
            return math.inf
        return self.region_load(region) / region.primary.capacity

    def node_index(self, node: Node) -> float:
        """The node's workload index (see module docstring)."""
        primary_load = sum(
            self.region_load(region)
            for region in self.overlay.primary_regions(node)
        )
        index = primary_load / node.capacity
        if self.replication_fraction:
            secondary_load = sum(
                self.region_load(region)
                for region in self.overlay.secondary_regions(node)
            )
            index += self.replication_fraction * secondary_load / node.capacity
        return index

    def all_node_indices(self) -> Dict[Node, float]:
        """Index of every member node (secondaries included)."""
        return {
            node: self.node_index(node)
            for node in self.overlay.nodes.values()
        }

    def summary(self) -> StatSummary:
        """Max/mean/std of the workload index over all nodes.

        This is exactly the quantity Figures 5--10 plot.
        """
        return summarize(self.all_node_indices().values())

    # ------------------------------------------------------------------
    # Neighborhood views (what nodes learn by exchanging statistics)
    # ------------------------------------------------------------------
    def neighbor_nodes(self, node: Node) -> Iterable[Node]:
        """Owners of the regions adjacent to the node's regions.

        These are the peers a node "periodically exchanges workload
        statistic information with" -- the information base of the
        adaptation trigger.
        """
        seen = {node}
        for region in self.overlay.primary_regions(node):
            for neighbor in self.overlay.space.neighbors(region):
                for owner in neighbor.owners():
                    if owner not in seen:
                        seen.add(owner)
                        yield owner

    def min_neighbor_index(self, node: Node) -> Optional[float]:
        """The lowest workload index among the node's neighbors.

        ``None`` when the node has no neighbors (single-node network).
        """
        lowest: Optional[float] = None
        for neighbor in self.neighbor_nodes(node):
            index = self.node_index(neighbor)
            if lowest is None or index < lowest:
                lowest = index
        return lowest

    def available_capacity(self, node: Node) -> float:
        """Capacity minus primary workload (the join/adaptation ranking)."""
        primary_load = sum(
            self.region_load(region)
            for region in self.overlay.primary_regions(node)
        )
        return node.capacity - primary_load


class IndexTable:
    """One adaptation round's node indices, kept equal to a fresh recompute.

    Built from :meth:`WorkloadIndexCalculator.all_node_indices` at the
    start of a round, it answers the trigger's questions (the node's index
    and its neighbors' lowest) and the end-of-round summary without
    recomputing anything.  A node's index only changes when a region it
    owns changes shape or owners, so after each executed (or failed)
    adaptation the engine passes the owners of the plan's regions, taken
    before and after the change, to :meth:`refresh`.  Keys are updated in
    place, so the dict keeps :meth:`all_node_indices`' order and
    :meth:`summary` is bit-identical to :meth:`WorkloadIndexCalculator.summary`.

    The field and the membership must not change while a table is live.
    The engine builds one table per :meth:`~repro.loadbalance.engine
    .AdaptationEngine.run_round` called on its own, and one per
    ``run_rounds`` or ``run_until_stable`` call, whose rounds hand the
    patched table on: nothing but the engine runs between them.
    """

    def __init__(self, calc: WorkloadIndexCalculator) -> None:
        self.calc = calc
        self.indices: Dict[Node, float] = calc.all_node_indices()

    def node_index(self, node: Node) -> float:
        """The node's index as of the last refresh."""
        return self.indices[node]

    def min_neighbor_index(self, node: Node) -> Optional[float]:
        """The lowest tabled index among the node's neighbors.

        :meth:`WorkloadIndexCalculator.min_neighbor_index` over the table,
        without its generator and dedup set: an owner met twice repeats
        its own index, which cannot change a strict ``<`` minimum.  The
        neighbors come from the space's link table, in adjacency order.
        """
        indices = self.indices
        overlay = self.calc.overlay
        links, by_id = overlay.space.links, overlay.space.by_id
        node_id = node.node_id
        lowest: Optional[float] = None
        for region in overlay.primary_regions(node):
            for row in links[region.region_id]:
                neighbor = by_id[row[4]]
                for owner in (neighbor.primary, neighbor.secondary):
                    if owner is not None and owner.node_id != node_id:
                        index = indices[owner]
                        if lowest is None or index < lowest:
                            lowest = index
        return lowest

    def refresh(self, nodes: Iterable[Node]) -> None:
        """Recompute the entries of ``nodes`` (repeats allowed) in place."""
        indices, node_index = self.indices, self.calc.node_index
        for node in set(nodes):
            indices[node] = node_index(node)

    def summary(self) -> StatSummary:
        """Max/mean/std of the tabled indices."""
        return summarize(self.indices.values())
