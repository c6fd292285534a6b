"""The grid-bucketed LWW index behind ``repro.store`` and ``repro.sub``.

A region holds keyed, versioned records: moving objects
(:class:`ObjectRecord`, a point) and standing subscriptions
(:class:`~repro.sub.records.SubRecord`, a rectangle).  Every record
exposes its identity as ``key`` and its geometry as ``shape``; the
version is a per-record update sequence number assigned by its
reporter.  Every mutation is last-writer-wins by version, so replicas
converge no matter in which order (or how often) replication,
anti-entropy and handovers deliver the same record.

The index buckets records on a fixed global grid (cell side
:data:`DEFAULT_CELL`), *not* on a per-region grid: bucket keys are
``(floor(x / cell), floor(y / cell))`` regardless of which region the
index serves.  A point record occupies the single cell under its point;
a rect record occupies every cell its closed rectangle touches, so the
candidates for any point are exactly the records of that point's cell.
That makes every structural handover cheap -- splitting a region never
re-buckets the kept records, and merging two indexes is a bucket-wise
union -- and it gives primary and secondary replicas an identical
bucket layout, which the digest-based anti-entropy exchange
(:meth:`GridIndex.digest` / :meth:`GridIndex.diff_keys`) relies on.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.geometry import Point, Rect

__all__ = ["DEFAULT_CELL", "ObjectRecord", "GridIndex", "BucketKey", "touches"]

#: Default side length of one bucket cell, in coordinate units.  The
#: paper's service area is 64 x 64 miles; 4-mile cells bound the index at
#: 256 buckets while keeping range scans tight.
DEFAULT_CELL = 4.0

#: A bucket coordinate on the fixed global grid.
BucketKey = Tuple[int, int]

#: The geometry of one record: a position or a watched rectangle.
Shape = Union[Point, Rect]


def touches(shape: Shape, rect: Rect) -> bool:
    """Whether a record's shape meets ``rect`` (closed edges).

    A point meets it when it lies inside, a rectangle when the two are
    in contact -- the protocol layer's closed routing predicate either
    way.
    """
    if isinstance(shape, Rect):
        return shape.touches(rect)
    return rect.covers(shape, closed_low_x=True, closed_low_y=True)


@dataclass(frozen=True)
class ObjectRecord:
    """One stored location object (immutable; updates replace records)."""

    object_id: Hashable
    point: Point
    payload: Any = None
    #: Per-object update sequence number; higher wins everywhere.
    version: int = 0

    @property
    def key(self) -> Hashable:
        """The identity the index keys this record on."""
        return self.object_id

    @property
    def shape(self) -> Point:
        """The geometry the index buckets this record by."""
        return self.point

    def supersedes(self, other: Optional["ObjectRecord"]) -> bool:
        """Last-writer-wins: whether this record replaces ``other``."""
        return other is None or self.version > other.version

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"obj({self.object_id}@{self.point} v{self.version})"
        )


class GridIndex:
    """A grid-bucketed index of keyed, versioned records by shape.

    All mutating operations are last-writer-wins by ``version``; stale
    writes are rejected (returned as no-ops), so applying a stream of
    replicated records is idempotent and order-insensitive.
    """

    def __init__(
        self,
        cell: float = DEFAULT_CELL,
        records: Iterable[Any] = (),
    ) -> None:
        if cell <= 0:
            raise ValueError(f"cell must be positive, got {cell}")
        self.cell = cell
        self._buckets: Dict[BucketKey, Dict[Hashable, Any]] = {}
        self._by_id: Dict[Hashable, Any] = {}
        for record in records:
            self.upsert(record)

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def key_for(self, point: Point) -> BucketKey:
        """The fixed-grid bucket covering ``point``."""
        return (
            int(math.floor(point.x / self.cell)),
            int(math.floor(point.y / self.cell)),
        )

    def _keys_intersecting(self, rect: Rect) -> Iterator[BucketKey]:
        """Bucket keys whose cell intersects ``rect`` (closed edges)."""
        x_lo = int(math.floor(rect.x / self.cell))
        x_hi = int(math.floor(rect.x2 / self.cell))
        y_lo = int(math.floor(rect.y / self.cell))
        y_hi = int(math.floor(rect.y2 / self.cell))
        for bx in range(x_lo, x_hi + 1):
            for by in range(y_lo, y_hi + 1):
                yield (bx, by)

    def _cells(self, shape: Shape) -> Iterable[BucketKey]:
        """The cells a record of this shape occupies."""
        if isinstance(shape, Rect):
            return self._keys_intersecting(shape)
        # key_for inlined: point upserts are the store's hot path.
        cell = self.cell
        return ((math.floor(shape.x / cell), math.floor(shape.y / cell)),)

    def _unbucket(self, key: Hashable, record: Any) -> None:
        for cell in self._cells(record.shape):
            bucket = self._buckets.get(cell)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._buckets[cell]

    # ------------------------------------------------------------------
    # Mutation (last-writer-wins)
    # ------------------------------------------------------------------
    def upsert(self, record: Any) -> bool:
        """Insert or replace a record; returns False on a stale write."""
        key = record.key
        existing = self._by_id.get(key)
        if existing is not None:
            if not record.supersedes(existing):
                return False
            self._unbucket(key, existing)
        self._by_id[key] = record
        buckets = self._buckets
        for cell in self._cells(record.shape):
            bucket = buckets.get(cell)
            if bucket is None:
                buckets[cell] = {key: record}
            else:
                bucket[key] = record
        return True

    def remove(
        self, key: Hashable, version: Optional[int] = None
    ) -> Optional[Any]:
        """Remove ``key`` (only copies at or below ``version``).

        A versioned remove is the eviction half of a cross-region move
        or a rehome: it must not delete a record *newer* than the update
        that caused it (the object may have moved back).  Returns the
        removed record or ``None``.
        """
        existing = self._by_id.get(key)
        if existing is None:
            return None
        if version is not None and existing.version > version:
            return None
        del self._by_id[key]
        self._unbucket(key, existing)
        return existing

    def merge(self, records: Iterable[Any]) -> int:
        """Bulk last-writer-wins upsert; returns how many records won."""
        return sum(1 for record in records if self.upsert(record))

    def split_off(self, kept: Rect) -> List[Any]:
        """Remove and return every record whose shape misses ``kept``.

        Coverage is closed on all edges, matching the protocol layer's
        routing predicate: a point on ``kept``'s border stays, and so
        does a rectangle merely touching it.
        """
        moved = [
            record
            for record in self._by_id.values()
            if not touches(record.shape, kept)
        ]
        for record in moved:
            self.remove(record.key)
        return moved

    def hand_off(self, kept: Rect, handed: Rect) -> List[Any]:
        """The records a region split ships to ``handed``.

        Everything missing ``kept`` leaves this index (:meth:`split_off`);
        rect records touching ``handed`` as well travel as copies.  A
        point therefore ends up on exactly one side -- the kept side
        when it lies on the split line, so no stale duplicate can
        outlive a later update -- while a subscription spanning the line
        is registered on both, since either owner can execute an event
        on it.
        """
        moved = self.split_off(kept)
        moved.extend(
            record
            for record in self._scan(handed).values()
            if isinstance(record.shape, Rect)
        )
        return moved

    def clear(self) -> None:
        """Drop every record."""
        self._buckets.clear()
        self._by_id.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Any]:
        """The current record for ``key``, if present."""
        return self._by_id.get(key)

    def _scan(self, rect: Rect) -> Dict[Hashable, Any]:
        """Records whose shape meets ``rect``, by key (bucket order)."""
        found: Dict[Hashable, Any] = {}
        for cell in self._keys_intersecting(rect):
            bucket = self._buckets.get(cell)
            if not bucket:
                continue
            for key, record in bucket.items():
                if key not in found and touches(record.shape, rect):
                    found[key] = record
        return found

    def query(self, rect: Rect) -> List[Any]:
        """All records whose shape meets ``rect`` (closed edges)."""
        return list(self._scan(rect).values())

    def records(self) -> List[Any]:
        """Every stored record (snapshot list, stable under mutation)."""
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_id

    # ------------------------------------------------------------------
    # Anti-entropy digests
    # ------------------------------------------------------------------
    def digest(self) -> Dict[BucketKey, int]:
        """A per-bucket content digest for replica reconciliation.

        Each bucket digests to a CRC over its sorted ``(key, version)``
        pairs -- cheap, deterministic, and identical across replicas that
        hold the same records (the fixed global grid guarantees identical
        bucketing).  Shape/payload ride along with the version because
        a record is immutable per version.
        """
        out: Dict[BucketKey, int] = {}
        for cell, bucket in self._buckets.items():
            acc = 0
            for key in sorted(bucket, key=repr):
                record = bucket[key]
                acc = zlib.crc32(f"{key!r}:{record.version}".encode(), acc)
            out[cell] = acc
        return out

    def diff_keys(self, remote: Dict[BucketKey, int]) -> List[BucketKey]:
        """Bucket keys whose content differs from ``remote``'s digest.

        Includes buckets present on only one side.  Sorted, so a bounded
        repair pass drains divergence deterministically.
        """
        local = self.digest()
        keys = set(local) | set(remote)
        return sorted(
            key for key in keys if local.get(key) != remote.get(key)
        )

    def bucket_records(self, cell: BucketKey) -> List[Any]:
        """The records currently in bucket ``cell`` (may be empty)."""
        bucket = self._buckets.get(cell)
        return list(bucket.values()) if bucket else []

    def replace_bucket(self, cell: BucketKey, records: Iterable[Any]) -> int:
        """Install the authoritative content of one bucket.

        Used by the replica side of anti-entropy: every local record
        bucketed at ``cell`` that the authoritative set does not name is
        dropped, and the authoritative records are upserted (still
        last-writer-wins, so a racing fresher replication is not
        clobbered).  Returns the number of records changed.
        """
        records = list(records)
        keep = {record.key for record in records}
        changed = 0
        for record in self.bucket_records(cell):
            if record.key not in keep:
                self.remove(record.key)
                changed += 1
        for record in records:
            if self.upsert(record):
                changed += 1
        return changed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(records={len(self._by_id)}, "
            f"buckets={len(self._buckets)}, cell={self.cell:g})"
        )
