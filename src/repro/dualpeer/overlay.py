"""The dual-peer GeoGrid overlay.

Extends :class:`~repro.core.overlay.BasicGeoGrid` with the Section 2.3
semantics.  Only the *admission* step differs structurally: instead of
always splitting the covering region, a newcomer probes the neighborhood
and reinforces (or splits) the region whose primary owner has the least
available capacity.  Departure and failure handling -- secondary release,
secondary promotion, last-owner repair -- already live in the base class
because the repair path is shared.
"""

from __future__ import annotations

from typing import Tuple

from repro import obs
from repro.core.node import Node
from repro.core.region import Region
from repro.dualpeer.join import (
    JoinDecision,
    pick_weaker_half,
    plan_join,
    should_take_over_primary,
)
from repro.core.overlay import BasicGeoGrid


class DualPeerGeoGrid(BasicGeoGrid):
    """GeoGrid with two owner nodes per region (primary + secondary).

    Inherits the full basic API; overrides how joining nodes are admitted
    and adds dual-peer specific statistics.  Use
    :attr:`~repro.core.overlay.BasicGeoGrid.stats` for shared counters;
    ``stats.splits`` in particular demonstrates the paper's claim that dual
    peer reduces the number of split operations (a join that fills an empty
    secondary slot performs no split at all).
    """

    def _admit(self, node: Node, covering: Region) -> Region:
        neighbors = sorted(
            self.space.neighbors(covering), key=lambda region: region.region_id
        )
        plan = plan_join(
            covering, neighbors, self.available_capacity, self._pick_axis
        )
        if plan.decision is JoinDecision.FILL_SECONDARY:
            obs.inc("dualpeer.join.fill_secondary")
            return self._join_as_secondary(node, plan.target)
        obs.inc("dualpeer.join.split")
        kept, handed = self.split_full_region(plan.target)
        target = pick_weaker_half(kept, handed, self.available_capacity)
        return self._join_as_secondary(node, target)

    # ------------------------------------------------------------------
    # Admission helpers
    # ------------------------------------------------------------------
    def _join_as_secondary(self, node: Node, region: Region) -> Region:
        """Install ``node`` in the empty secondary slot of ``region``.

        If the newcomer has more capacity than the current primary, the two
        switch roles after state copying (instantaneous in this model).
        """
        self.assign_secondary(region, node)
        if should_take_over_primary(node, region):
            self.swap_region_roles(region)
        return region

    def split_full_region(self, region: Region) -> Tuple[Region, Region]:
        """Split a full region between its two owners.

        The primary keeps one half and the secondary becomes the primary
        owner of the other; both halves end up half-full, ready to absorb
        the joining node.  Halves are matched to owner coordinates when
        possible so the geographic node-to-region mapping survives splits.
        """
        primary = region.primary
        secondary = region.secondary
        assert primary is not None and secondary is not None
        axis = self._pick_axis(region.rect)
        keep = self._pick_half_to_keep(region, secondary, axis)
        self.release_secondary(region)
        new_region = self.space.split_region(region, axis=axis, keep=keep)
        self.assign_primary(new_region, secondary)
        self.stats.splits += 1
        self._notify_split(region, new_region)
        return region, new_region

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    def full_region_count(self) -> int:
        """Number of regions that currently have a dual peer."""
        return sum(1 for region in self.space.regions if region.is_full)
