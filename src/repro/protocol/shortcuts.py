"""The adaptive routing shortcut cache (long-range entries per node).

GeoGrid's greedy routing only ever consults direct neighbors, paying the
full O(2*sqrt(N)) straight-line walk for every request.  Adaptive
overlays (GeoP2P-style) show that caching remote peers gleaned from
passing traffic collapses this: a node that has *seen* a far-away region
-- in heartbeat gossip, on a STORE_ACK return path, in a query result --
can jump straight toward it, while the strict-progress rule keeps greedy
termination intact.

This module holds the bounded, LRU-ordered cache each node maintains.
Entries are learned passively (zero new steady-state messages), evicted
eagerly whenever the node hears about a partition change overlapping the
cached rectangle, and repaired lazily through MISROUTE NACKs when a
stale entry is exercised anyway.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.protocol import messages as m


class ShortcutCache:
    """A bounded LRU of learned ``(rect, primary, secondary)`` entries.

    Keys are region rectangles; values are :class:`~repro.protocol.
    messages.NeighborInfo` records naming the region's current owner(s).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: Forwarding decisions resolved through a cached entry.
        self.hits = 0
        #: Forwarding decisions that fell back to a plain neighbor hop.
        self.misses = 0
        #: Stale entries repaired through a MISROUTE NACK.
        self.repairs = 0
        self._entries: "OrderedDict[Rect, m.NeighborInfo]" = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rect: Rect) -> bool:
        return rect in self._entries

    def get(self, rect: Rect) -> Optional[m.NeighborInfo]:
        """The cached info for exactly ``rect``, or ``None``."""
        return self._entries.get(rect)

    def entries(self) -> List[m.NeighborInfo]:
        """All cached entries, least recently used first."""
        return list(self._entries.values())

    def rects(self) -> Iterator[Rect]:
        """The cached rectangles, least recently used first."""
        return iter(list(self._entries))

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def learn(self, info: m.NeighborInfo) -> bool:
        """Insert or refresh an entry; returns whether anything changed.

        A new rectangle that overlaps cached rectangles replaces them
        (the overlapped entries describe a pre-split/pre-merge partition
        and are stale by construction).  Insertion past capacity evicts
        the least recently used entry.
        """
        existing = self._entries.get(info.rect)
        if existing is not None:
            self._entries[info.rect] = info
            self._entries.move_to_end(info.rect)
            return existing != info
        for rect in [r for r in self._entries if r.intersects(info.rect)]:
            del self._entries[rect]
        self._entries[info.rect] = info
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    def touch(self, rect: Rect) -> None:
        """Mark ``rect`` as most recently used (after a successful hop)."""
        if rect in self._entries:
            self._entries.move_to_end(rect)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_rect(self, rect: Rect) -> bool:
        """Drop the entry for exactly ``rect``; returns whether one existed."""
        return self._entries.pop(rect, None) is not None

    def invalidate_overlapping(self, rect: Rect) -> int:
        """Drop every entry equal to or sharing area with ``rect``.

        Called for every partition change the node hears about: a split,
        merge, adaptation or failover announcement for ``rect`` makes any
        cached claim overlapping it suspect.  Returns the eviction count.
        """
        stale = [r for r in self._entries if r == rect or r.intersects(rect)]
        for r in stale:
            del self._entries[r]
        return len(stale)

    def invalidate_address(self, address: NodeAddress) -> int:
        """Drop entries routed through a now-suspected ``address``.

        Entries whose *primary* is the dead address are removed; entries
        that merely name it as secondary survive with the secondary
        cleared (the primary can still accept shortcut hops).  Returns
        the number of removed entries.
        """
        removed = 0
        for rect in list(self._entries):
            info = self._entries[rect]
            if info.primary == address:
                del self._entries[rect]
                removed += 1
            elif info.secondary == address:
                self._entries[rect] = info.with_secondary(None)
        return removed

    def clear(self) -> int:
        """Drop everything (ownership changed under us); returns count."""
        count = len(self._entries)
        self._entries.clear()
        return count

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def best(
        self,
        target: Point,
        better_than: float,
        eps: float = 1e-12,
    ) -> Optional[m.NeighborInfo]:
        """The cached entry closest to ``target``, if strictly better.

        Returns the entry whose rectangle minimizes the distance to
        ``target``, provided that distance is strictly below
        ``better_than`` (the caller passes its best plain-neighbor
        distance, preserving the strict-progress termination argument).
        """
        best_info: Optional[m.NeighborInfo] = None
        best_dist = better_than - eps
        for rect, info in self._entries.items():
            distance = rect.distance_to_point(target)
            if distance < best_dist:
                best_info, best_dist = info, distance
        return best_info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShortcutCache(capacity={self.capacity}, "
            f"entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, repairs={self.repairs})"
        )
