"""The basic GeoGrid overlay (Section 2.1--2.2).

One owner node per region.  The overlay is constructed incrementally: the
first node owns the entire plane; each subsequent node routes a join
request to the region covering its own geographical coordinate, and that
region's owner splits the region in half, keeping one half and handing the
other to the newcomer.  Departures trigger the repair process: the orphaned
region is merged into a mergeable neighbor when possible, otherwise an
adjacent owner takes it over as an additional region until a merge becomes
possible.

The dual-peer variant (Section 2.3) lives in :mod:`repro.dualpeer` and
subclasses :class:`BasicGeoGrid`.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro import obs
from repro.errors import MembershipError, PartitionError
from repro.geometry import Point, Rect, SplitAxis
from repro.core.node import Node
from repro.core.query import LocationQuery
from repro.core.region import Region
from repro.core.routing import (
    QueryRouteResult,
    RouteResult,
    route_query,
    route_to_point,
)
from repro.core.space import Space

#: Picks the split axis for a region about to be halved.  The default cuts
#: the longer side, which keeps regions square-ish and hop counts low.
SplitPolicy = Callable[[Rect], SplitAxis]

#: Maps a region to its current query workload; injected by the experiment
#: layer (the hot-spot field).  The overlay itself only needs it to rank
#: nodes by available capacity during dual-peer joins.
LoadFunction = Callable[[Region], float]


def _zero_load(region: Region) -> float:
    return 0.0


def _unregister(
    registry: Dict[Node, Set[Region]], node: Node, region: Region
) -> None:
    """Take ``region`` out of ``node``'s registry set; drop the set once
    it is empty, so the registry holds only nodes that own something."""
    regions = registry.get(node)
    if regions is not None:
        regions.discard(region)
        if not regions:
            del registry[node]


def _notify(listeners: List[weakref.WeakMethod], *args) -> None:
    """Call every live listener in registration order; forget dead ones."""
    dead = False
    for ref in listeners:
        listener = ref()
        if listener is None:
            dead = True
        else:
            listener(*args)
    if dead:
        listeners[:] = [ref for ref in listeners if ref() is not None]


@dataclass
class OverlayStats:
    """Counters describing the structural history of an overlay."""

    joins: int = 0
    departures: int = 0
    failures: int = 0
    splits: int = 0
    merges: int = 0
    takeovers: int = 0
    promotions: int = 0
    route_requests: int = 0
    route_hops: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return dict(self.__dict__)


class BasicGeoGrid:
    """The basic GeoGrid overlay network model.

    This is the authoritative in-memory model used by the paper-scale
    experiments; the message-level protocol in :mod:`repro.protocol` runs
    the same logic as asynchronous handlers over a simulated network.

    Parameters
    ----------
    bounds:
        The geographical service area (the paper simulates 64 mi x 64 mi).
    rng:
        Source of randomness for entry-node selection; pass a seeded
        ``random.Random`` for reproducibility.
    split_policy:
        Optional override of the split-axis choice.
    load_fn:
        Optional region-workload oracle used by capacity-aware decisions.
    """

    def __init__(
        self,
        bounds: Rect,
        rng: Optional[random.Random] = None,
        split_policy: Optional[SplitPolicy] = None,
        load_fn: Optional[LoadFunction] = None,
        index_resolution: int = 128,
    ) -> None:
        self.bounds = bounds
        self.rng = rng if rng is not None else random.Random(0)
        self.split_policy = split_policy
        self.load_fn = load_fn if load_fn is not None else _zero_load
        self._index_resolution = index_resolution
        self.space = Space(bounds, index_resolution=index_resolution)
        self.nodes: Dict[int, Node] = {}
        self._member_ids: List[int] = []
        self._member_pos: Dict[int, int] = {}
        self._primary_of: Dict[Node, Set[Region]] = {}
        self._secondary_of: Dict[Node, Set[Region]] = {}
        self.stats = OverlayStats()
        #: Listeners registered through :meth:`add_listeners`.
        self._split_listeners: List[weakref.WeakMethod] = []
        self._merge_listeners: List[weakref.WeakMethod] = []
        self._ownership_listeners: List[weakref.WeakMethod] = []

    def add_listeners(
        self,
        on_split: Optional[Callable[[Region, Region], None]] = None,
        on_merge: Optional[Callable[[Region, Region], None]] = None,
        on_ownership: Optional[Callable[[Region, str], None]] = None,
    ) -> None:
        """Register a subscriber's bound-method listeners.

        ``on_split(parent, child)`` fires after a region split (parent
        kept one half, child is new); ``on_merge(survivor, absorbed)``
        fires after a merge.  The application layer (e.g. the pub/sub
        service) uses these to re-home per-region state.
        ``on_ownership(region, event)`` fires when a region's serving
        state moves between *nodes* without the region itself changing
        -- primary switches (``"switch"``), primary/secondary role swaps
        (``"role_swap"``), secondary steals (``"replica_seed"`` /
        ``"replica_drop"``), and failure promotions (``"promote"``).  The
        location store counts these as state migrations.

        The overlay holds them weakly (``weakref.WeakMethod``): the
        subscriber keeps the overlay alive, not the other way round, so
        a dropped overlay and its store or pub/sub service form no
        reference cycle and are freed at once.  A listener whose object
        is gone is skipped and forgotten.
        """
        for listeners, method in (
            (self._split_listeners, on_split),
            (self._merge_listeners, on_merge),
            (self._ownership_listeners, on_ownership),
        ):
            if method is not None:
                listeners.append(weakref.WeakMethod(method))

    def _notify_split(self, parent: Region, child: Region) -> None:
        _notify(self._split_listeners, parent, child)

    def _notify_merge(self, survivor: Region, absorbed: Region) -> None:
        _notify(self._merge_listeners, survivor, absorbed)

    def _notify_ownership(self, region: Region, event: str) -> None:
        _notify(self._ownership_listeners, region, event)

    # ------------------------------------------------------------------
    # Ownership registry
    # ------------------------------------------------------------------
    def primary_regions(self, node: Node) -> Set[Region]:
        """Regions for which ``node`` is the primary owner."""
        return self._primary_of.get(node, set())

    def secondary_regions(self, node: Node) -> Set[Region]:
        """Regions for which ``node`` is the secondary owner."""
        return self._secondary_of.get(node, set())

    def region_of(self, node: Node) -> Region:
        """The (single) region ``node`` primarily owns.

        Convenience for the common case; raises when the node owns zero or
        several regions.
        """
        regions = self.primary_regions(node)
        if len(regions) != 1:
            raise MembershipError(
                f"node {node.node_id} primarily owns {len(regions)} regions, "
                f"expected exactly one"
            )
        return next(iter(regions))

    def assign_primary(self, region: Region, node: Node) -> None:
        """Make ``node`` the primary owner of ``region`` (registry-aware)."""
        old = region.primary
        if old is not None:
            _unregister(self._primary_of, old, region)
        region.set_primary(node)
        self._primary_of.setdefault(node, set()).add(region)

    def assign_secondary(self, region: Region, node: Node) -> None:
        """Make ``node`` the secondary owner of ``region`` (registry-aware)."""
        old = region.secondary
        if old is not None:
            _unregister(self._secondary_of, old, region)
        region.set_secondary(node)
        self._secondary_of.setdefault(node, set()).add(region)

    def release_secondary(self, region: Region) -> Optional[Node]:
        """Vacate the secondary slot of ``region``; returns the old holder."""
        node = region.clear_secondary()
        if node is not None:
            _unregister(self._secondary_of, node, region)
        return node

    def release_primary(self, region: Region) -> Optional[Node]:
        """Vacate the primary slot of ``region``; returns the old holder.

        Leaves the region vacant -- callers must rehome it immediately to
        preserve the "every region has an owner" property.
        """
        node = region.primary
        if node is not None:
            _unregister(self._primary_of, node, region)
            region.primary = None
        return node

    def swap_primaries(self, a: Region, b: Region) -> None:
        """Exchange the primary owners of two regions (mechanisms b, h)."""
        node_a, node_b = a.primary, b.primary
        if node_a is None or node_b is None:
            raise MembershipError("both regions must have primary owners to swap")
        self.release_primary(a)
        self.release_primary(b)
        self.assign_primary(a, node_b)
        self.assign_primary(b, node_a)
        self._notify_ownership(a, "switch")
        self._notify_ownership(b, "switch")

    def swap_region_roles(self, region: Region) -> None:
        """Exchange a region's primary and secondary owner (registry-aware).

        Used when a stronger node finishes copying state from the current
        primary and assumes the primary role (dual-peer join), and by load
        adaptation mechanisms that demote an overloaded primary.
        """
        primary, secondary = region.primary, region.secondary
        if primary is None or secondary is None:
            raise MembershipError(
                f"region {region.region_id} is not full; cannot swap roles"
            )
        _unregister(self._primary_of, primary, region)
        _unregister(self._secondary_of, secondary, region)
        region.swap_owner_roles()
        self._primary_of.setdefault(secondary, set()).add(region)
        self._secondary_of.setdefault(primary, set()).add(region)
        self._notify_ownership(region, "role_swap")

    # ------------------------------------------------------------------
    # Membership: join
    # ------------------------------------------------------------------
    def join(self, node: Node, entry: Optional[Node] = None) -> Region:
        """Add ``node`` to the overlay; returns the region it now owns.

        Follows the paper's bootstrap procedure: the node (1) knows its own
        geographical coordinate, (2) picks an entry node (a random existing
        node unless the caller provides one), (3) routes a join request to
        the region covering its coordinate, whose owner splits it.
        """
        if node.node_id in self.nodes:
            raise MembershipError(f"node {node.node_id} already joined")
        if not self.space.covers_point(node.coord):
            raise MembershipError(
                f"node {node.node_id} at {node.coord} lies outside the "
                f"service area {self.bounds}"
            )
        if not self.nodes:
            root = Region(rect=self.bounds)
            self.space.add_root(root)
            self.assign_primary(root, node)
            self._register_member(node)
            self.stats.joins += 1
            return root

        covering = self._locate_for_join(node, entry)
        new_region = self._admit(node, covering)
        self._register_member(node)
        self.stats.joins += 1
        registry = obs.active()
        if registry is not None:
            registry.inc("overlay.joins")
            registry.trace(
                "join",
                node=node.node_id,
                region=new_region.region_id,
                members=len(self.nodes),
            )
        return new_region

    def add_idle_member(self, node: Node) -> None:
        """Register a member that holds no region (yet).

        Exists for scenario construction: tests and the protocol bridge
        stage nodes this way and then place them into owner slots with
        :meth:`assign_primary` / :meth:`assign_secondary` directly, instead
        of going through the admission policy.
        """
        if node.node_id in self.nodes:
            raise MembershipError(f"node {node.node_id} already joined")
        self._register_member(node)

    def _register_member(self, node: Node) -> None:
        self.nodes[node.node_id] = node
        self._member_pos[node.node_id] = len(self._member_ids)
        self._member_ids.append(node.node_id)

    def _unregister_member(self, node: Node) -> None:
        del self.nodes[node.node_id]
        # Swap-pop keeps random member sampling O(1) even at 16k nodes.
        pos = self._member_pos.pop(node.node_id)
        last_id = self._member_ids.pop()
        if last_id != node.node_id:
            self._member_ids[pos] = last_id
            self._member_pos[last_id] = pos

    def _locate_for_join(self, node: Node, entry: Optional[Node]) -> Region:
        """Route the join request to the region covering the node's coord."""
        if entry is None:
            entry = self.random_node()
        start = self._any_region_of(entry)
        path: List[Region] = []
        covering = self.space.locate(node.coord, hint=start, path=path)
        self.stats.route_requests += 1
        self.stats.route_hops += max(0, len(path) - 1)
        return covering

    def _admit(self, node: Node, covering: Region) -> Region:
        """Give ``node`` a region; basic GeoGrid always splits ``covering``."""
        return self.split_for(node, covering)

    def split_for(self, node: Node, region: Region) -> Region:
        """Split ``region`` and install ``node`` as primary of one half.

        The newcomer receives the half covering its own coordinate -- a
        node "uses its own geographical coordinate to map itself" to its
        region (Section 2.1) -- and the existing owner retains the other
        half, even when its own coordinate lands in the handed-off half
        (its coordinate then lies in a neighboring region, which repair
        and adaptation tolerate anyway).
        """
        axis = self._pick_axis(region.rect)
        keep = self._pick_half_to_keep(region, node, axis)
        new_region = self.space.split_region(region, axis=axis, keep=keep)
        self.assign_primary(new_region, node)
        self.stats.splits += 1
        self._notify_split(region, new_region)
        return new_region

    def _pick_axis(self, rect: Rect) -> SplitAxis:
        if self.split_policy is not None:
            return self.split_policy(rect)
        return rect.longer_axis()

    def _pick_half_to_keep(self, region: Region, newcomer: Node, axis: SplitAxis) -> str:
        """The half the *existing* owner keeps: the one the newcomer's
        coordinate does not cover.  When the newcomer's coordinate lies
        outside the region entirely (dual-peer admission can place a node
        into a probed neighbor region), the owner keeps the half covering
        its own coordinate instead."""
        low, high = region.rect.split(axis)
        if self._half_covers(low, newcomer.coord):
            return "high"
        if self._half_covers(high, newcomer.coord):
            return "low"
        owner = region.primary
        if owner is not None and self._half_covers(high, owner.coord):
            return "high"
        return "low"

    def _half_covers(self, half: Rect, point: Point) -> bool:
        return half.covers(
            point,
            closed_low_x=half.x <= self.bounds.x,
            closed_low_y=half.y <= self.bounds.y,
        )

    # ------------------------------------------------------------------
    # Membership: departure and failure
    # ------------------------------------------------------------------
    def leave(self, node: Node) -> None:
        """Graceful departure: the node's regions are repaired away."""
        self._remove(node, graceful=True)
        self.stats.departures += 1
        obs.inc("overlay.departures")

    def fail(self, node: Node) -> None:
        """Abrupt failure.  Structurally identical to departure in the
        basic overlay (state stored at the node is lost, which the metrics
        layer accounts separately); the dual-peer overlay overrides this
        with secondary-takeover semantics."""
        self._remove(node, graceful=False)
        self.stats.failures += 1
        obs.inc("overlay.failures")

    def _remove(self, node: Node, graceful: bool) -> None:
        if node.node_id not in self.nodes:
            raise MembershipError(f"node {node.node_id} is not a member")
        self._unregister_member(node)
        for region in list(self.secondary_regions(node)):
            self.release_secondary(region)
        # Vacate every primary slot before repairing anything: a departing
        # node may own several regions (after earlier takeovers), and none
        # of them may serve as a merge target or adopter for the others.
        vacated: List[Region] = []
        for region in list(self.primary_regions(node)):
            if region.secondary is not None:
                promoted = region.secondary
                _unregister(self._secondary_of, promoted, region)
                _unregister(self._primary_of, node, region)
                region.promote_secondary()
                self._primary_of.setdefault(promoted, set()).add(region)
                self.stats.promotions += 1
                self._notify_ownership(region, "promote")
            else:
                self.release_primary(region)
                vacated.append(region)
        self._primary_of.pop(node, None)
        self._secondary_of.pop(node, None)
        if not self.nodes:
            # The last node left: the space empties out entirely.
            self.space = Space(self.bounds, index_resolution=self._index_resolution)
            return
        self._repair_vacant_regions(vacated)

    def _repair_vacant_regions(self, vacated: List[Region]) -> None:
        """Rehome a batch of ownerless regions.

        A vacant region can temporarily have only vacant neighbors (when
        the departed node had accumulated adjacent regions), so repairs
        retry until the batch drains; any pass that rehomes at least one
        region makes progress, and a pass that rehomes none means the
        partition is corrupt.
        """
        queue = list(vacated)
        while queue:
            deferred: List[Region] = []
            for region in queue:
                if not self._repair_one_vacant(region):
                    deferred.append(region)
            if len(deferred) == len(queue):
                raise PartitionError(
                    f"cannot repair vacant regions {deferred!r}: no owned "
                    f"neighbors anywhere; the overlay is corrupt"
                )
            queue = deferred

    def _repair_one_vacant(self, region: Region) -> bool:
        """Try to merge away or hand over one vacant region."""
        neighbors = self.space.neighbors(region)
        owned = [
            n for n in neighbors
            if n.primary is not None and n.primary.node_id in self.nodes
        ]
        if not owned:
            return False
        mergeable = [
            n for n in owned if n.rect.can_merge_with(region.rect)
        ]
        if mergeable:
            survivor = min(
                mergeable,
                key=lambda n: (self.load_fn(n), n.rect.area, n.region_id),
            )
            self.space.merge_regions(survivor, region)
            self.stats.merges += 1
            self._notify_merge(survivor, region)
            return True
        adopter_region = min(
            owned,
            key=lambda n: (self.load_fn(n), n.rect.area, n.region_id),
        )
        adopter = adopter_region.primary
        assert adopter is not None
        self.assign_primary(region, adopter)
        self.stats.takeovers += 1
        obs.inc("overlay.takeovers")
        self._try_consolidate(adopter)
        return True

    def _try_consolidate(self, node: Node) -> None:
        """Merge pairs of a multi-region owner's regions when legal."""
        changed = True
        while changed:
            changed = False
            regions = list(self.primary_regions(node))
            for i, a in enumerate(regions):
                for b in regions[i + 1 :]:
                    if a.rect.can_merge_with(b.rect) and b.secondary is None:
                        self.space.merge_regions(a, b)
                        _unregister(self._primary_of, node, b)
                        self.stats.merges += 1
                        self._notify_merge(a, b)
                        changed = True
                        break
                if changed:
                    break

    # ------------------------------------------------------------------
    # Routing API
    # ------------------------------------------------------------------
    def route_from(self, node: Node, target: Point) -> RouteResult:
        """Route a request from ``node`` to the region covering ``target``."""
        start = self._any_region_of(node)
        result = route_to_point(self.space, start, target)
        self.stats.route_requests += 1
        self.stats.route_hops += result.hops
        return result

    def submit_query(self, query: LocationQuery) -> QueryRouteResult:
        """Route a location query from its focal node and fan it out."""
        start = self._any_region_of(query.focal)
        result = route_query(self.space, start, query)
        self.stats.route_requests += 1
        self.stats.route_hops += result.route.hops
        return result

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def random_node(self) -> Node:
        """A uniformly random member (the bootstrap server's entry pick)."""
        if not self.nodes:
            raise MembershipError("the overlay has no members")
        node_id = self._member_ids[self.rng.randrange(len(self._member_ids))]
        return self.nodes[node_id]

    def _any_region_of(self, node: Node) -> Region:
        regions = self.primary_regions(node)
        if regions:
            return next(iter(regions))
        regions = self.secondary_regions(node)
        if regions:
            return next(iter(regions))
        raise MembershipError(
            f"node {node.node_id} owns no region (is it a member?)"
        )

    def available_capacity(self, node: Node) -> float:
        """Capacity minus the workload of the node's primary regions.

        The paper ranks candidate regions during dual-peer joins and load
        adaptations by their owners' *available* capacity.
        """
        load = sum(self.load_fn(region) for region in self.primary_regions(node))
        return node.capacity - load

    def member_count(self) -> int:
        """Number of nodes currently in the overlay."""
        return len(self.nodes)

    def check_invariants(self) -> None:
        """Structural self-check: partition plus ownership consistency."""
        self.space.check_invariants()
        for region in self.space.regions:
            if region.primary is None:
                raise PartitionError(f"{region!r} has no primary owner")
            if region.primary.node_id not in self.nodes:
                raise PartitionError(
                    f"{region!r} is owned by departed node "
                    f"{region.primary.node_id}"
                )
            if region not in self._primary_of.get(region.primary, set()):
                raise PartitionError(
                    f"registry out of sync for primary of {region!r}"
                )
            if region.secondary is not None:
                if region.secondary.node_id not in self.nodes:
                    raise PartitionError(
                        f"{region!r} has departed secondary "
                        f"{region.secondary.node_id}"
                    )
                if region not in self._secondary_of.get(region.secondary, set()):
                    raise PartitionError(
                        f"registry out of sync for secondary of {region!r}"
                    )
        for node, regions in self._primary_of.items():
            if not regions:
                raise PartitionError(f"empty primary registry entry {node!r}")
            for region in regions:
                if region not in self.space.regions or region.primary != node:
                    raise PartitionError(
                        f"stale primary registry entry {node!r} -> {region!r}"
                    )
        for node, regions in self._secondary_of.items():
            if not regions:
                raise PartitionError(f"empty secondary registry entry {node!r}")
            for region in regions:
                if region not in self.space.regions or region.secondary != node:
                    raise PartitionError(
                        f"stale secondary registry entry {node!r} -> {region!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={len(self.nodes)}, "
            f"regions={self.space.region_count()})"
        )
