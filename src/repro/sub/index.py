"""The grid-bucketed subscription index (``SubIndex``).

A :class:`~repro.store.spatial.GridIndex` of :class:`SubRecord` leases:
the bucketing, last-writer-wins mutation, merges and handovers are the
store's, with each subscription occupying every bucket its watched
rectangle touches.  Matching an incoming event is then one bucket
probe: the candidates for a point are exactly the subscriptions
bucketed at that point's cell.  What is added here is lease-specific:
the expiry sweep, plus the id-sorted views the fan-out paths iterate.
"""

from __future__ import annotations

from typing import Callable, List, Union

from repro.geometry import Point, Rect
from repro.store.spatial import GridIndex

from .records import SubRecord

__all__ = ["SubIndex"]


def _by_sub_id(record: SubRecord) -> str:
    return record.sub_id


class SubIndex(GridIndex):
    """A grid-bucketed index of :class:`SubRecord` by watched rectangle."""

    # Bound on this class too, not only inherited, so wrappers installed
    # per class (tracing, profiling) tell subscription writes apart from
    # store writes.
    upsert = GridIndex.upsert

    def match(self, point: Point) -> List[SubRecord]:
        """Subscriptions whose rect covers ``point`` (closed edges).

        One bucket probe: a record is bucketed at every cell its rect
        touches, so the point's cell holds every candidate.  Sorted by
        ``sub_id`` so match-driven fan-outs are deterministic.
        """
        bucket = self._buckets.get(self.key_for(point))
        if not bucket:
            return []
        return sorted(
            (
                record
                for record in bucket.values()
                if record.rect.covers(
                    point, closed_low_x=True, closed_low_y=True
                )
            ),
            key=_by_sub_id,
        )

    def touching(self, rect: Rect) -> List[SubRecord]:
        """Records whose watched rect touches ``rect``, sorted by ``sub_id``."""
        return sorted(self._scan(rect).values(), key=_by_sub_id)

    def sweep(
        self,
        now: float,
        grace: Union[float, Callable[[SubRecord], float]] = 0.0,
    ) -> List[SubRecord]:
        """Remove and return every record expired by ``now``.

        ``grace`` extends each lease, either by a constant or by a
        per-record amount (callers derive a small deterministic jitter
        per record so replicas never race each other's sweeps into
        transient divergence storms).
        """
        extra = grace if callable(grace) else (lambda record: grace)
        expired = [
            record
            for record in self._by_id.values()
            if now >= record.expires_at() + extra(record)
        ]
        for record in expired:
            self.remove(record.sub_id)
        return expired
