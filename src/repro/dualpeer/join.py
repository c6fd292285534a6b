"""Dual-peer join planning (Section 2.3, "Node Join").

A new node routes to the region ``r`` covering its coordinate, then probes
``r`` and its neighbor regions:

* among the regions that are *not complete* in terms of dual peer
  (half-full), it joins the one whose owner has the **least available
  capacity** -- reinforcing the weakest spot in the neighborhood;
* if every region in the probe set is full, it **splits** the region whose
  primary owner has the least available capacity, and joins the resulting
  half whose owner has less available capacity.

Either way, if the newcomer has more capacity than the primary owner of the
region it joins, the two switch roles once state copying completes.

The planning logic is separated from execution so it can be unit-tested
against hand-built neighborhoods and reused by the message-level protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.errors import MembershipError
from repro.core.node import Node
from repro.core.region import Region
from repro.geometry import Rect, SplitAxis

#: Returns the available capacity of a node (capacity minus the workload of
#: the regions it primarily owns); supplied by the overlay.
AvailableCapacityFn = Callable[[Node], float]


class JoinDecision(enum.Enum):
    """How a dual-peer join will be carried out."""

    #: Fill the empty secondary slot of a half-full region.
    FILL_SECONDARY = "fill-secondary"
    #: Split a full region and join one of the halves.
    SPLIT_AND_JOIN = "split-and-join"


@dataclass(frozen=True)
class JoinPlan:
    """The region a newcomer will join and how."""

    decision: JoinDecision
    target: Region

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.decision.value} -> region {self.target.region_id}"


def plan_join(
    covering: Region,
    neighbors: Sequence[Region],
    available_capacity: AvailableCapacityFn,
    split_axis: Callable[[Rect], SplitAxis] = Rect.longer_axis,
) -> JoinPlan:
    """Choose the region a new node should join.

    ``covering`` is the region covering the newcomer's coordinate;
    ``neighbors`` are its immediate neighbor regions.  Ties are broken by
    region id so that the plan is deterministic.  A full region whose
    halves along ``split_axis`` would fall below the edge tolerance
    (:meth:`Rect.can_split`) is not a split candidate: re-splitting the
    weakest region of one neighborhood would otherwise halve it until two
    regions coincide.
    """
    candidates: List[Region] = [covering] + [
        region for region in neighbors if region is not covering
    ]
    incomplete = [region for region in candidates if region.is_half_full]
    if incomplete:
        target = min(
            incomplete,
            key=lambda region: (
                _primary_available(region, available_capacity),
                region.region_id,
            ),
        )
        return JoinPlan(JoinDecision.FILL_SECONDARY, target)
    full = [region for region in candidates if region.is_full]
    if not full:
        # Only possible when the probe set consists of vacant regions,
        # which the overlay never exposes; guard anyway.
        target = min(candidates, key=lambda region: region.region_id)
        return JoinPlan(JoinDecision.FILL_SECONDARY, target)
    ranked = sorted(
        full,
        key=lambda region: (
            _primary_available(region, available_capacity),
            region.region_id,
        ),
    )
    for target in ranked:
        if target.rect.can_split(split_axis(target.rect)):
            return JoinPlan(JoinDecision.SPLIT_AND_JOIN, target)
    raise MembershipError(
        f"every region probed around region {covering.region_id} is full "
        f"and too small to split"
    )


def pick_weaker_half(
    half_a: Region,
    half_b: Region,
    available_capacity: AvailableCapacityFn,
) -> Region:
    """Between two freshly split halves, pick the one to reinforce.

    The paper: "node p will join the one whose owner has less available
    capacity."
    """
    a = _primary_available(half_a, available_capacity)
    b = _primary_available(half_b, available_capacity)
    if a < b:
        return half_a
    if b < a:
        return half_b
    return half_a if half_a.region_id <= half_b.region_id else half_b


def should_take_over_primary(newcomer: Node, region: Region) -> bool:
    """Whether the newcomer outranks the current primary owner.

    "When node p joins a region that is half full, it will compare its
    capacity with the capacity of the existing owner, and will take over
    the role as the primary owner if the current owner has less capacity."
    """
    if region.primary is None:
        return True
    return newcomer.capacity > region.primary.capacity


def _primary_available(
    region: Region, available_capacity: AvailableCapacityFn
) -> float:
    if region.primary is None:
        return float("-inf")
    return available_capacity(region.primary)
