"""The subscription record behind the protocol-layer continuous queries.

A continuous query -- "inform me of the traffic around Exit 89 in the
next 30 minutes" (Section 2.2) -- is represented on the wire and in
every covering region's index as one immutable :class:`SubRecord`:
rectangle, subscriber address, and a lease window.  Renewals reuse the
``sub_id`` with a bumped ``version``, so replicas converge
last-writer-wins exactly like the location store's
:class:`~repro.store.spatial.ObjectRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.node import NodeAddress
from repro.geometry import Rect

__all__ = ["SubRecord"]


@dataclass(frozen=True)
class SubRecord:
    """One registered continuous query (immutable; renewals replace it)."""

    #: Cluster-wide identifier, assigned by the subscribing node.
    sub_id: str
    #: The watched rectangle; events inside it (closed edges, matching
    #: the routing layer's point-coverage predicate) are pushed back.
    rect: Rect
    #: Where NOTIFY messages are sent.
    subscriber: NodeAddress
    #: Lease start (scheduler time at the subscriber when issued).
    registered_at: float
    #: Lease length; the subscription expires at
    #: ``registered_at + duration`` unless renewed.
    duration: float
    #: Per-subscription renewal sequence number; higher wins everywhere.
    version: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration}"
            )

    @property
    def key(self) -> str:
        """The identity the index keys this record on."""
        return self.sub_id

    @property
    def shape(self) -> Rect:
        """The geometry the index buckets this record by."""
        return self.rect

    def expires_at(self) -> float:
        """When the lease runs out (absolute scheduler time)."""
        return self.registered_at + self.duration

    def is_live_at(self, now: float) -> bool:
        """Whether the lease is still running at ``now`` (strict)."""
        return now < self.expires_at()

    def supersedes(self, other: Optional["SubRecord"]) -> bool:
        """Last-writer-wins: whether this record replaces ``other``."""
        return other is None or self.version > other.version

    def renewed(self, now: float, duration: Optional[float] = None) -> "SubRecord":
        """A renewal: same identity, fresh lease, bumped version."""
        return SubRecord(
            sub_id=self.sub_id,
            rect=self.rect,
            subscriber=self.subscriber,
            registered_at=now,
            duration=self.duration if duration is None else duration,
            version=self.version + 1,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"sub({self.sub_id}@{self.rect} v{self.version} "
            f"until {self.expires_at():g})"
        )
