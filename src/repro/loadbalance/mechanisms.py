"""The eight load-balance adaptation mechanisms of Figure 4.

:func:`default_mechanisms` builds them in the paper's increasing-cost
order (a) through (h); the engine tries them in exactly this order and
executes the first applicable plan.

==== =============================================  ========== =======
key  mechanism                                      occupancy  scope
==== =============================================  ========== =======
a    steal secondary owner                          half-full  local
b    switch primary owners                          any        local
c    merge with a neighbor                          half-full  local
d    split a region                                 full       local
e    switch primary with neighbor's secondary       full       local
f    steal remote secondary owner                   half-full  remote
g    switch primary with remote secondary           full       remote
h    switch primary with remote primary             full       remote
==== =============================================  ========== =======

Three moves come in a local and a remote form, and each pair is one
class: :class:`StealSecondary` is (a)/(f), :class:`SwitchPrimaries` is
(b)/(h) and :class:`SwitchWithSecondary` is (e)/(g).  The local form
looks at the overloaded region's neighbors; the remote form
(``remote=True``) runs the same test over the candidates of a TTL-guided
search, which the engine's ordering only reaches "when all the other
adaptations fail".  :class:`MergeWithNeighbor` (c) and
:class:`SplitRegion` (d) exist only locally.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.errors import AdaptationError
from repro.core.region import Region
from repro.dualpeer.overlay import DualPeerGeoGrid
from repro.loadbalance.base import AdaptationContext, AdaptationPlan, Mechanism

#: Figure 4's panels: key -> name.  A mechanism's cost rank is its key's
#: position in ``"abcdefgh"``.
PANELS = {
    "a": "steal secondary owner",
    "b": "switch primary owners",
    "c": "merge with a neighbor",
    "d": "split a region",
    "e": "switch primary with neighbor's secondary owner",
    "f": "steal remote secondary owner",
    "g": "switch primary with remote secondary owner",
    "h": "switch primary with remote primary owner",
}


class _Panel(Mechanism):
    """A Figure 4 mechanism: name and cost rank follow from its key."""

    @property
    def name(self) -> str:
        return PANELS[self.key]

    @property
    def cost_rank(self) -> int:
        return "abcdefgh".index(self.key)

    def offer(
        self, ctx: AdaptationContext, region: Region, partner: Optional[Region],
        before: float, after: float, description: str,
    ) -> Optional[AdaptationPlan]:
        """The plan moving ``region``'s index from ``before`` to ``after``,
        or ``None`` when that is not a strict improvement."""
        if not self.improves_enough(before, after, ctx):
            return None
        return AdaptationPlan(self.key, region, partner, before, after, description)


class _Paired(_Panel):
    """A mechanism with a local (neighbor) and a remote (search) form."""

    #: Panel keys of the (local, remote) forms.
    keys = ("?", "?")

    def __init__(self, *, remote: bool = False) -> None:
        self.remote = remote
        self.key = self.keys[remote]
        #: Prefix for plan descriptions.
        self.where = "remote " if remote else ""

    def candidates(self, region: Region, ctx: AdaptationContext) -> List[Region]:
        """The regions this form may pair ``region`` with.

        Locally, the neighbors that pass :meth:`accept` in the neighbor
        set's order; remotely, the TTL-search hits in discovery order,
        with the search's messages charged to ``ctx``.  The remote form
        filters the origin's memoised ring, which is exactly what a fresh
        :func:`~repro.loadbalance.search.ttl_search` would visit.
        """
        space = ctx.overlay.space
        if not self.remote:
            return self.accept(region, ctx, space.neighbors(region))
        ring = ctx.rings.ring(space, region, ctx.config.search_ttl)
        ctx.search_messages += ring.messages
        return self.accept(region, ctx, ring.regions[ring.direct:])

    def accept(
        self, region: Region, ctx: AdaptationContext, pool: Iterable[Region]
    ) -> List[Region]:
        """The regions of ``pool`` that pass this form's test, in order.

        The tests read owners, capacities and ``last_adapted_at`` inline
        (a pool is a whole TTL ring), keeping ``is_full`` and
        :meth:`~repro.loadbalance.base.AdaptationContext.in_cooldown`'s
        exact expression.
        """
        raise NotImplementedError


def _strongest_secondary(ctx: AdaptationContext) -> Callable[[Region], tuple]:
    """Rank key: the strongest secondary first, then the least loaded."""
    return lambda n: (-n.secondary.capacity, ctx.region_index(n), n.region_id)


def _install_secondary(
    plan: AdaptationPlan, ctx: AdaptationContext, demoted_to: Region, event: str
) -> None:
    """Make the partner's secondary the primary of ``plan.region``; the
    old primary becomes the secondary of ``demoted_to``."""
    region, partner = plan.region, plan.partner
    incoming = partner.secondary
    if incoming is None or region.primary is None:
        raise AdaptationError(
            f"plan {plan.description!r} is stale: an owner slot emptied"
        )
    overlay = ctx.overlay
    overlay.release_secondary(partner)
    outgoing = overlay.release_primary(region)
    overlay.assign_primary(region, incoming)
    if outgoing is not None:
        overlay.assign_secondary(demoted_to, outgoing)
    overlay._notify_ownership(region, event)
    ctx.mark_adapted(region, partner)


class StealSecondary(_Paired):
    """(a) Steal Secondary Owner / (f) Steal Remote Secondary Owner.

    (a): "This adaptation is used when the overloaded region has no dual
    peer (half full).  The overloaded primary owner node compares the
    workload index of all the neighbor regions to select a neighbor region
    whose secondary owner is more powerful than itself, and has the lowest
    workload index among all the regions satisfying the first condition.
    Once such a region is located, its secondary owner is 'stolen' to be
    the primary owner of the overloaded region."

    (f): "It is possible though infrequent that a region and all its
    neighboring regions are overloaded.  In such a case GeoGrid runs a
    Time to Live (TTL) guided search for the remote region whose secondary
    owner has more capacity than the primary owner of the overloaded
    region and is less loaded.  After a remote secondary owner is
    discovered, the primary owner of the overloaded region will steal this
    remote secondary owner, and will resign to be the secondary owner."

    Either way the old (weak) primary stays on as the secondary owner of
    its region -- Figure 4(a) shows capacity 1 alone becoming the pair
    (10, 1).
    """

    keys = ("a", "f")

    def plan(self, region: Region, ctx: AdaptationContext) -> Optional[AdaptationPlan]:
        if not region.is_half_full:
            return None
        primary = region.primary
        load = ctx.region_load(region)
        before = load / primary.capacity
        donors = self.candidates(region, ctx)
        if not donors:
            return None
        if self.remote:
            donor = min(donors, key=_strongest_secondary(ctx))
        else:
            # The paper's "lowest workload index" among the neighbors.
            donor = min(donors, key=lambda n: (ctx.region_index(n), n.region_id))
        stolen = donor.secondary
        return self.offer(
            ctx, region, donor, before, load / stolen.capacity,
            f"steal {self.where}secondary {stolen.node_id} (cap "
            f"{stolen.capacity:g}) from region {donor.region_id} to lead "
            f"region {region.region_id}",
        )

    def accept(
        self, region: Region, ctx: AdaptationContext, pool: Iterable[Region]
    ) -> List[Region]:
        """Full regions whose secondary is stronger than ``region``'s
        primary, out of cooldown; remotely also less loaded."""
        capacity = region.primary.capacity
        cooldown, round_number = ctx.config.cooldown_rounds, ctx.round_number
        remote, region_index = self.remote, ctx.region_index
        before = region_index(region) if remote else None
        return [
            n for n in pool
            if (donor := n.secondary) is not None
            and n.primary is not None
            and donor.capacity > capacity
            and (not remote or region_index(n) < before)
            and not (n.last_adapted_at + cooldown >= round_number)
        ]

    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        event = "steal_remote_secondary" if self.remote else "steal_secondary"
        _install_secondary(plan, ctx, plan.region, event)


class SwitchPrimaries(_Paired):
    """(b) Switch Primary Owners / (h) Switch Primary with a Remote Primary.

    (b): "This adaptation can be initiated by a region that is either
    half-full or full.  A smaller region has a primary owner that is more
    powerful than one of its neighbor regions, which is bigger and has a
    weaker primary owner.  By switching the primary owners of these two
    regions, the bigger region now has more processing power while the
    smaller one has less."

    (h): "This adaptation is for a full region and is also based on a
    search for discovering a candidate remote primary owner that is
    stronger than the primary owner of the overloaded region.  The
    overloaded primary owner will switch its position with the discovered
    remote primary owner."

    Initiated by the overloaded region: it looks for a primary that is
    *stronger* and whose load is lower, and swaps primaries with it.  The
    swap is only taken when it strictly lowers the pairwise maximum index,
    which also guarantees the reverse swap can never fire right after (no
    two-region oscillation).
    """

    keys = ("b", "h")

    def plan(self, region: Region, ctx: AdaptationContext) -> Optional[AdaptationPlan]:
        primary = region.primary
        if primary is None or (self.remote and not region.is_full):
            return None
        my_load = ctx.region_load(region)
        my_index = my_load / primary.capacity
        best, best_pair_after = None, float("inf")
        for candidate in self.candidates(region, ctx):
            other = candidate.primary
            other_load = ctx.region_load(candidate)
            pair_before = max(my_index, other_load / other.capacity)
            pair_after = max(my_load / other.capacity, other_load / primary.capacity)
            if not self.improves_enough(pair_before, pair_after, ctx):
                continue
            if pair_after < best_pair_after:
                best, best_pair_after = candidate, pair_after
        if best is None:
            return None
        return AdaptationPlan(
            self.key, region, best, my_index, my_load / best.primary.capacity,
            f"switch primaries of region {region.region_id} (cap "
            f"{primary.capacity:g}) and {self.where}region {best.region_id} "
            f"(cap {best.primary.capacity:g})",
        )

    def accept(
        self, region: Region, ctx: AdaptationContext, pool: Iterable[Region]
    ) -> List[Region]:
        """Regions whose primary is stronger than ``region``'s, out of
        cooldown."""
        capacity = region.primary.capacity
        cooldown, round_number = ctx.config.cooldown_rounds, ctx.round_number
        return [
            n for n in pool
            if (other := n.primary) is not None
            and other.capacity > capacity
            and not (n.last_adapted_at + cooldown >= round_number)
        ]

    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        region, partner = plan.region, plan.partner
        if region.primary is None or partner.primary is None:
            raise AdaptationError(
                f"plan {plan.description!r} is stale: a primary slot emptied"
            )
        ctx.overlay.swap_primaries(region, partner)
        ctx.mark_adapted(region, partner)


class SwitchWithSecondary(_Paired):
    """(e) Switch Primary with a Neighbor's / (g) a Remote Secondary Owner.

    (e): "When an overloaded region has a dual peer (full), it means both
    nodes have less capacity to handle the workload.  Thus the primary
    owner of the region can switch its position with a secondary owner of
    a neighbor region, if that secondary owner has more capacity."

    (g): "This adaptation is for a full region -- the region that has dual
    peer, and both primary node and secondary node have less capacity than
    required to handle the current workload demand.  The overloaded
    primary owner will switch its position with the discovered remote
    secondary owner that is stronger than itself based on the guided
    search."

    The overloaded region's own secondary stays in place; its weak primary
    moves into the partner's (idle) secondary slot and the partner's
    strong secondary takes over as primary of the hot region.
    """

    keys = ("e", "g")

    def plan(self, region: Region, ctx: AdaptationContext) -> Optional[AdaptationPlan]:
        if not region.is_full:
            return None
        primary = region.primary
        partners = self.candidates(region, ctx)
        if not partners:
            return None
        partner = min(partners, key=_strongest_secondary(ctx))
        load = ctx.region_load(region)
        return self.offer(
            ctx, region, partner, load / primary.capacity,
            load / partner.secondary.capacity,
            f"switch primary {primary.node_id} of region {region.region_id} "
            f"with {self.where}secondary {partner.secondary.node_id} of "
            f"region {partner.region_id}",
        )

    def accept(
        self, region: Region, ctx: AdaptationContext, pool: Iterable[Region]
    ) -> List[Region]:
        """Full regions, out of cooldown, whose secondary is not
        ``region``'s own and is stronger than ``region``'s primary."""
        capacity, secondary = region.primary.capacity, region.secondary
        cooldown, round_number = ctx.config.cooldown_rounds, ctx.round_number
        return [
            n for n in pool
            if (other := n.secondary) is not None
            and n.primary is not None
            and other is not secondary
            and other.capacity > capacity
            and not (n.last_adapted_at + cooldown >= round_number)
        ]

    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        event = "switch_in_remote_secondary" if self.remote else "switch_in_secondary"
        _install_secondary(plan, ctx, plan.partner, event)


class MergeWithNeighbor(_Panel):
    """(c) Merge with a Neighbor.

    "This adaptation is used when a region p and one of its neighbor
    regions n can be merged, and the merged region has lower workload
    index than the average workload index of p and n."

    Figure 4(c) merges two half-full regions (capacities 1 and 10) into
    one full region owned by the pair (10, 1): the stronger node becomes
    the merged region's primary, the weaker its secondary.  Merging is
    only legal when the union of the two rectangles is again a rectangle.
    """

    key = "c"

    def plan(self, region: Region, ctx: AdaptationContext) -> Optional[AdaptationPlan]:
        if not region.is_half_full:
            return None
        primary = region.primary
        my_load = ctx.region_load(region)
        my_index = my_load / primary.capacity
        best, best_merged_index = None, float("inf")
        for neighbor in ctx.overlay.space.neighbors(region):
            if (
                not neighbor.is_half_full
                or not region.rect.can_merge_with(neighbor.rect)
                or ctx.in_cooldown(neighbor)
            ):
                continue
            other = neighbor.primary
            other_load = ctx.region_load(neighbor)
            other_index = other_load / other.capacity
            stronger_capacity = max(primary.capacity, other.capacity)
            merged_index = (my_load + other_load) / stronger_capacity
            average = (my_index + other_index) / 2.0
            if not self.improves_enough(average, merged_index, ctx):
                continue
            if merged_index < best_merged_index:
                best, best_merged_index = neighbor, merged_index
        if best is None:
            return None
        return AdaptationPlan(
            self.key, region, best, my_index, best_merged_index,
            f"merge regions {region.region_id} and {best.region_id} "
            f"under the stronger of their owners",
        )

    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        region, partner = plan.region, plan.partner
        if not (region.is_half_full and partner.is_half_full):
            raise AdaptationError(
                f"plan {plan.description!r} is stale: occupancy changed"
            )
        overlay = ctx.overlay
        other = overlay.release_primary(partner)
        overlay.space.merge_regions(region, partner)
        overlay.stats.merges += 1
        overlay._notify_merge(region, partner)
        overlay.assign_secondary(region, other)
        if other.capacity > region.primary.capacity:
            overlay.swap_region_roles(region)
        ctx.mark_adapted(region)


class SplitRegion(_Panel):
    """(d) Split a Region.

    "If the primary and secondary owner of an overloaded region have the
    same capacity, splitting this region can assign half of the workload
    to each of them and can reduce the workload index of the original
    primary owner by half."

    The capacity-equality requirement is configurable
    (``split_capacity_ratio``): with the paper's five-level capacity
    profile exact ties are common, but continuous capacity distributions
    need a relaxed ratio.  The plan predicts the two halves' actual loads
    (hot spots are rarely symmetric around the cut) and only goes ahead
    when the worse half is a real improvement.
    """

    key = "d"

    def plan(self, region: Region, ctx: AdaptationContext) -> Optional[AdaptationPlan]:
        if not region.is_full:
            return None
        if not isinstance(ctx.overlay, DualPeerGeoGrid):
            # Splitting between two owners only exists in the dual-peer
            # overlay; the basic system never reaches this state anyway.
            return None
        primary, secondary = region.primary, region.secondary
        if secondary.capacity < ctx.config.split_capacity_ratio * primary.capacity:
            return None
        axis = ctx.overlay._pick_axis(region.rect)
        if not region.rect.can_split(axis):
            return None
        halves = region.rect.split(axis)
        worse = max(ctx.region_load(Region(rect=half)) for half in halves)
        # The primary keeps one half and the secondary leads the other; the
        # pessimistic pairing (worse half on the weaker node) bounds the
        # post-split maximum from above.
        weaker = min(primary.capacity, secondary.capacity)
        return self.offer(
            ctx, region, None, ctx.region_load(region) / primary.capacity,
            worse / weaker,
            f"split region {region.region_id} between owners "
            f"{primary.node_id} and {secondary.node_id}",
        )

    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        region = plan.region
        if not region.is_full:
            raise AdaptationError(
                f"plan {plan.description!r} is stale: region "
                f"{region.region_id} is no longer full"
            )
        kept, handed = ctx.overlay.split_full_region(region)
        ctx.mark_adapted(kept, handed)


def default_mechanisms() -> List[Mechanism]:
    """Fresh instances of all eight mechanisms in cost order (a)--(h)."""
    return [
        StealSecondary(),
        SwitchPrimaries(),
        MergeWithNeighbor(),
        SplitRegion(),
        SwitchWithSecondary(),
        StealSecondary(remote=True),
        SwitchWithSecondary(remote=True),
        SwitchPrimaries(remote=True),
    ]
