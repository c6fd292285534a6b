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

from typing import Dict, Iterator, List, Optional

from repro.core.node import NodeAddress
from repro.geometry import Point, Rect
from repro.protocol import messages as m


class ShortcutCache:
    """A bounded LRU of learned ``(rect, primary, secondary)`` entries.

    Keys are region rectangles; values are :class:`~repro.protocol.
    messages.NeighborInfo` records naming the region's current owner(s).
    The LRU order is the insertion order of a plain dict: a refresh pops
    the key and re-inserts it at the end, and eviction deletes the first
    key.  (An ``OrderedDict`` would do the same, but iterating its items
    looks every key up again, which calls ``Rect.__hash__`` once per
    entry on every :meth:`best`.)
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
        self._entries: Dict[Rect, m.NeighborInfo] = {}

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
        entries = self._entries
        existing = entries.pop(info.rect, None)
        if existing is not None:
            entries[info.rect] = info
            return existing != info
        for rect in [r for r in entries if r.intersects(info.rect)]:
            del entries[rect]
        entries[info.rect] = info
        while len(entries) > self.capacity:
            del entries[next(iter(entries))]
        return True

    def touch(self, rect: Rect) -> None:
        """Mark ``rect`` as most recently used (after a successful hop)."""
        info = self._entries.pop(rect, None)
        if info is not None:
            self._entries[rect] = info

    def refresh(self, info: m.NeighborInfo) -> bool:
        """Mark ``info.rect`` most recently used if the cache holds
        exactly ``info``; returns whether it did."""
        entries = self._entries
        cached = entries.get(info.rect)
        if cached is None or (cached is not info and cached != info):
            return False
        del entries[info.rect]
        entries[info.rect] = cached
        return True

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

        The scan inlines :meth:`~repro.geometry.Rect.distance_to_point`
        (the same sums and ``** 0.5``) and keeps its strict ``<`` first
        minimum in LRU order.  An entry whose ``dx`` or ``dy`` alone
        exceeds the best distance by a factor ``1 + 1e-12`` is skipped
        without its root: the root is never below either term, so even
        with ``** 0.5`` off by an ulp it could not have won.
        """
        best_info: Optional[m.NeighborInfo] = None
        best_dist = better_than - eps
        limit = best_dist * (1.0 + 1e-12)
        px = target.x
        py = target.y
        for rect, info in self._entries.items():
            x = rect.x
            if px < x:
                dx = x - px
            else:
                dx = px - (x + rect.width)
                if dx < 0.0:
                    dx = 0.0
            if dx > limit:
                continue
            y = rect.y
            if py < y:
                dy = y - py
            else:
                dy = py - (y + rect.height)
                if dy < 0.0:
                    dy = 0.0
            if dy > limit:
                continue
            distance = (dx * dx + dy * dy) ** 0.5
            if distance < best_dist:
                best_info, best_dist = info, distance
                limit = distance * (1.0 + 1e-12)
        return best_info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShortcutCache(capacity={self.capacity}, "
            f"entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, repairs={self.repairs})"
        )
