"""The location store over the in-memory overlay model.

The message-level store lives inside :mod:`repro.protocol.node`; this is
its counterpart on the idealized :class:`~repro.core.overlay.BasicGeoGrid`
model, which the paper-scale experiments and benches use.  One
:class:`~repro.store.spatial.GridIndex` per region, kept aligned with the
partition through the overlay's structural listeners:

* splits move the handed half's records into the new region's index;
* merges fold the absorbed region's records into the survivor's;
* ownership changes (primary switches, role swaps, secondary steals --
  the load-balance adaptations) do not move records between *regions*,
  but they do move region state between *nodes*: the store counts those
  records as migrated ("objects migrated per adaptation").

Updates and lookups go through the overlay's routing machinery, so the
store's hop counts describe the same greedy geographic routing the
protocol layer performs message by message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List

from repro import obs
from repro.core.node import Node
from repro.core.overlay import BasicGeoGrid
from repro.core.region import Region
from repro.geometry import Point, Rect
from repro.store.spatial import DEFAULT_CELL, GridIndex, ObjectRecord

__all__ = ["OverlayStore", "OverlayStoreStats"]


@dataclass
class OverlayStoreStats:
    """Counters describing the store's data plane and state motion."""

    updates: int = 0
    stale_updates: int = 0
    lookups: int = 0
    lookup_results: int = 0
    update_hops: int = 0
    lookup_hops: int = 0
    #: Records physically moved between indexes (splits, merges).
    rebucketed: int = 0
    #: Records that changed serving node with their region (switches,
    #: role swaps, replica seeds) -- state shipped over the wire in the
    #: deployed system.
    migrated: int = 0
    migrated_by_event: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        out = dict(self.__dict__)
        out["migrated_by_event"] = dict(self.migrated_by_event)
        return out


class OverlayStore:
    """A replicated location-object store bound to an overlay model."""

    def __init__(self, overlay: BasicGeoGrid, cell: float = DEFAULT_CELL) -> None:
        self.overlay = overlay
        self.cell = cell
        self.indexes: Dict[Region, GridIndex] = {}
        #: Which region each object is currently homed at (eviction map).
        self._home: Dict[Hashable, Region] = {}
        self.stats = OverlayStoreStats()
        #: Store motion not yet attributed to an adaptation mechanism;
        #: the adaptation context drains this right after an execute, so
        #: ``ctx.store_motion`` counts objects migrated per mechanism.
        self.pending_motion = 0
        overlay.split_listeners.append(self._on_split)
        overlay.merge_listeners.append(self._on_merge)
        overlay.ownership_listeners.append(self._on_ownership_change)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _index_of(self, region: Region) -> GridIndex:
        index = self.indexes.get(region)
        if index is None:
            index = self.indexes[region] = GridIndex(cell=self.cell)
        return index

    def update(
        self,
        origin: Node,
        object_id: Hashable,
        point: Point,
        payload: Any = None,
        version: int = 0,
    ) -> ObjectRecord:
        """Route an object update to the covering region and store it.

        When the object previously lived in a different region, the
        stale copy is evicted there (the overlay model sees all state, so
        the eviction is immediate; the protocol layer routes an explicit
        remove message instead).  Returns the stored record.
        """
        record = ObjectRecord(
            object_id=object_id, point=point, payload=payload, version=version
        )
        route = self.overlay.route_from(origin, point)
        self.stats.updates += 1
        self.stats.update_hops += route.hops
        target = self._index_of(route.executor)
        old_home = self._home.get(object_id)
        if old_home is not None and old_home is not route.executor:
            # A stale write routed away from the object's home would not
            # hit the home index's LWW guard; check it explicitly so the
            # model never stores two copies of one object.
            prior_index = self.indexes.get(old_home)
            prior = prior_index.get(object_id) if prior_index else None
            if prior is not None and not record.supersedes(prior):
                self.stats.stale_updates += 1
                return prior
        if not target.upsert(record):
            self.stats.stale_updates += 1
            return target.get(object_id) or record
        if old_home is not None and old_home is not route.executor:
            stale = self.indexes.get(old_home)
            if stale is not None:
                stale.remove(object_id, version=version)
        self._home[object_id] = route.executor
        obs.inc("store.overlay.updates")
        return record

    def lookup(self, origin: Node, rect: Rect) -> List[ObjectRecord]:
        """Route a range lookup and collect records from covered regions."""
        from repro.core.query import LocationQuery

        outcome = self.overlay.submit_query(
            LocationQuery(query_rect=rect, focal=origin)
        )
        self.stats.lookups += 1
        self.stats.lookup_hops += outcome.route.hops
        seen: Dict[Hashable, ObjectRecord] = {}
        for region in outcome.covered:
            index = self.indexes.get(region)
            if index is None:
                continue
            for record in index.query(rect):
                current = seen.get(record.object_id)
                if record.supersedes(current):
                    seen[record.object_id] = record
        self.stats.lookup_results += len(seen)
        return sorted(seen.values(), key=lambda r: repr(r.object_id))

    def object_count(self) -> int:
        """Total records across all region indexes."""
        return sum(len(index) for index in self.indexes.values())

    def region_object_count(self, region: Region) -> int:
        """Records currently homed at ``region``."""
        index = self.indexes.get(region)
        return len(index) if index is not None else 0

    # ------------------------------------------------------------------
    # State motion (structural listeners)
    # ------------------------------------------------------------------
    def _on_split(self, parent: Region, child: Region) -> None:
        index = self.indexes.get(parent)
        if index is None:
            return
        moved = index.split_off(parent.rect)
        if moved:
            self._index_of(child).merge(moved)
            for record in moved:
                self._home[record.object_id] = child
            self._note_motion("split", len(moved), rebucketed=True)

    def _on_merge(self, survivor: Region, absorbed: Region) -> None:
        index = self.indexes.pop(absorbed, None)
        if index is None or not len(index):
            return
        moved = index.records()
        self._index_of(survivor).merge(moved)
        for record in moved:
            self._home[record.object_id] = survivor
        self._note_motion("merge", len(moved), rebucketed=True)

    def _on_ownership_change(self, region: Region, event: str) -> None:
        count = self.region_object_count(region)
        if count:
            self._note_motion(event, count)

    def _note_motion(
        self, event: str, count: int, rebucketed: bool = False
    ) -> None:
        if rebucketed:
            self.stats.rebucketed += count
        self.stats.migrated += count
        self.stats.migrated_by_event[event] = (
            self.stats.migrated_by_event.get(event, 0) + count
        )
        self.pending_motion += count
        obs.inc("store.overlay.migrated", count)
        obs.trace("store_motion", event=event, objects=count)

    def take_pending_motion(self) -> int:
        """Drain the unattributed-motion counter (adaptation hook)."""
        count, self.pending_motion = self.pending_motion, 0
        return count

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check_placement(self) -> None:
        """Assert every record is homed at the region covering it.

        The overlay-model mirror of the protocol auditor's
        ``store_placement`` invariant; raises ``AssertionError`` on the
        first misplaced or orphaned record.
        """
        live = set(self.overlay.space.regions)
        for region, index in self.indexes.items():
            if not len(index):
                continue
            if region not in live:
                raise AssertionError(
                    f"{len(index)} records homed at dead region {region!r}"
                )
            for record in index.records():
                if not region.rect.covers(
                    record.point, closed_low_x=True, closed_low_y=True
                ):
                    raise AssertionError(
                        f"{record} homed at {region!r}, which does not "
                        f"cover its position"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OverlayStore(objects={self.object_count()}, "
            f"regions={len(self.indexes)})"
        )
