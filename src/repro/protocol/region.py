"""The data a protocol node holds for the region it owns.

A region holds published items, location-store records and
continuous-query leases; all three follow the partition together in one
:class:`~repro.protocol.messages.RegionData` value (see DESIGN.md,
"Region data follows the partition").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro import obs
from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.obs import causal
from repro.protocol import messages as m
from repro.store.spatial import GridIndex, touches
from repro.sub import SubIndex


@dataclass
class OwnedRegion:
    """The region this node currently owns, in one of two roles."""

    rect: Rect
    role: str  # "primary" | "secondary"
    peer: Optional[NodeAddress]
    #: The generation stamp of this node's claim on ``rect``.
    stamp: int = 0
    items: List[Tuple[Point, Any]] = field(default_factory=list)
    #: The location store for this region: the authoritative copy on the
    #: primary, the replica on the secondary.
    store: GridIndex = field(default_factory=GridIndex)
    #: Continuous-query registrations touching this region: authoritative
    #: on the primary, replica on the secondary (promoted on failover).
    subs: SubIndex = field(default_factory=SubIndex)

    def snapshot(self) -> m.RegionData:
        """Everything this region holds, as one shippable value."""
        return m.RegionData(
            items=tuple(self.items),
            objects=tuple(self.store.records()),
            subscriptions=tuple(self.subs.records()),
        )

    def hand_off(self, kept: Rect, handed: Rect) -> m.RegionData:
        """Split off and return the data ``handed`` needs.

        Items and store records outside ``kept`` leave (a point on the
        split line stays here); subscriptions touching ``handed`` travel
        as copies and stay here too if they still touch ``kept``.
        """
        items = [entry for entry in self.items if touches(entry[0], kept)]
        handed_items = tuple(
            entry for entry in self.items if not touches(entry[0], kept)
        )
        self.items = items
        return m.RegionData(
            items=handed_items,
            objects=tuple(self.store.hand_off(kept, handed)),
            subscriptions=tuple(self.subs.hand_off(kept, handed)),
        )

    def absorb(self, data: m.RegionData) -> m.RegionData:
        """Fold shipped data in; returns what changed here.

        Items append; records merge last-writer-wins, so absorbing the
        same data twice, or data older than what is held, is a no-op.
        """
        self.items.extend(data.items)
        return m.RegionData(
            items=data.items,
            objects=tuple(r for r in data.objects if self.store.upsert(r)),
            subscriptions=tuple(
                r for r in data.subscriptions if self.subs.upsert(r)
            ),
        )


def note_handover(
    event: str, source: Any, target: Any, data: m.RegionData
) -> None:
    """Account one region-data handover (counters and causal annotation)."""
    if not (data.objects or data.subscriptions):
        return
    if data.objects:
        obs.inc("store.node.migrated", len(data.objects))
    if data.subscriptions:
        obs.inc("sub.node.migrated", len(data.subscriptions))
    causal.annotate(
        "store_handover",
        event=event,
        source=str(source),
        target=str(target),
        objects=len(data.objects),
        subscriptions=len(data.subscriptions),
    )


def written_since(
    current: m.RegionData, captured: m.RegionData
) -> m.RegionData:
    """What ``current`` holds beyond the earlier snapshot ``captured``.

    Items are append-only, so the new ones are the tail; records count
    when their key is new or their version is higher.
    """

    def newer(now: Tuple[Any, ...], then: Tuple[Any, ...]) -> Tuple[Any, ...]:
        versions = {record.key: record.version for record in then}
        return tuple(
            record for record in now
            if record.version > versions.get(record.key, -1)
        )

    return m.RegionData(
        items=current.items[len(captured.items):],
        objects=newer(current.objects, captured.objects),
        subscriptions=newer(current.subscriptions, captured.subscriptions),
    )
