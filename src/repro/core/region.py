"""Regions: rectangles of the partition together with their owner nodes.

In basic GeoGrid every region has exactly one owner.  The dual-peer variant
(Section 2.3) lets two nodes share ownership: the *primary* owner handles
all requests mapped to the region, the *secondary* owner replicates the
primary's state and takes over on failure.  A region with both owners is
*full*, with only a primary it is *half-full*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import OwnershipError
from repro.geometry import Rect
from repro.core.node import Node

_region_ids = itertools.count(1)


def _next_region_id() -> int:
    return next(_region_ids)


def reset_region_ids() -> None:
    """Rewind the process-wide region-id counter back to 1.

    See :func:`repro.core.query.reset_query_ids`: the test harness calls
    this before each test so region ids do not depend on how many tests
    ran earlier in the session.
    """
    global _region_ids
    _region_ids = itertools.count(1)


@dataclass(eq=False)
class Region:
    """A rectangular region of the GeoGrid partition and its owners.

    The rectangle changes when the region is split or merged; the owner
    slots change on joins, departures, failures and load-balance
    adaptations.  Identity (``region_id``) is stable across rectangle
    changes caused by *merges into* this region, but a split creates one
    new region for the handed-off half.
    """

    rect: Rect
    primary: Optional[Node] = None
    secondary: Optional[Node] = None
    region_id: int = field(default_factory=_next_region_id)
    #: Round/time marker set by the adaptation engine when this region was
    #: last restructured; used for the paper's "avoid repeated adaptation
    #: in a time window" cooldown.
    last_adapted_at: float = float("-inf")
    #: The space's structural counter at the last split or merge that
    #: involved this region (0 = never); a memo built over the adjacency
    #: graph is stale once one of its regions carries a newer stamp.
    stamp: int = 0
    #: ``(x, x + width, y, y + height)`` of :attr:`rect`, set by the
    #: :class:`~repro.core.space.Space` holding the region wherever it
    #: assigns the rect, so the greedy walk reads a neighbor's edges with
    #: one attribute load.  ``None`` outside a space.
    edges: Optional[Tuple[float, float, float, float]] = field(
        default=None, init=False
    )
    #: ``edges + (region_id,)``: this region's row in its neighbors'
    #: entries of the space's link table (:attr:`Space.links`), one tuple
    #: shared by all of them.  ``None`` outside a space.
    link: Optional[Tuple[float, float, float, float, int]] = field(
        default=None, init=False
    )

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def is_vacant(self) -> bool:
        """No owner at all (transient state during repair)."""
        return self.primary is None

    @property
    def is_half_full(self) -> bool:
        """Primary owner only -- "not complete in terms of dual peer"."""
        return self.primary is not None and self.secondary is None

    @property
    def is_full(self) -> bool:
        """Both primary and secondary owner present."""
        return self.primary is not None and self.secondary is not None

    def owners(self) -> List[Node]:
        """The owner nodes, primary first."""
        result = []
        if self.primary is not None:
            result.append(self.primary)
        if self.secondary is not None:
            result.append(self.secondary)
        return result

    def owner_count(self) -> int:
        """Number of owner nodes (0, 1 or 2)."""
        return len(self.owners())

    # ------------------------------------------------------------------
    # Ownership manipulation
    # ------------------------------------------------------------------
    def set_primary(self, node: Node) -> None:
        """Install ``node`` as the primary owner."""
        if node is None:
            raise OwnershipError("primary owner cannot be None; use clear_primary")
        if self.secondary is not None and self.secondary == node:
            raise OwnershipError(
                f"node {node.node_id} is already the secondary owner of "
                f"region {self.region_id}"
            )
        self.primary = node

    def set_secondary(self, node: Node) -> None:
        """Install ``node`` as the secondary owner."""
        if node is None:
            raise OwnershipError("secondary owner cannot be None; use clear_secondary")
        if self.primary is None:
            raise OwnershipError(
                f"region {self.region_id} cannot take a secondary owner "
                f"before it has a primary owner"
            )
        if self.primary == node:
            raise OwnershipError(
                f"node {node.node_id} is already the primary owner of "
                f"region {self.region_id}"
            )
        self.secondary = node

    def clear_secondary(self) -> Optional[Node]:
        """Remove and return the secondary owner (region becomes half-full)."""
        node, self.secondary = self.secondary, None
        return node

    def promote_secondary(self) -> Node:
        """Secondary takes over as primary (dual-peer failover).

        Returns the new primary.  The paper's failure-recovery rule: when
        the primary owner of a full region fails, the secondary activates
        the backed-up state and takes over.
        """
        if self.secondary is None:
            raise OwnershipError(
                f"region {self.region_id} has no secondary owner to promote"
            )
        self.primary, self.secondary = self.secondary, None
        return self.primary

    def swap_owner_roles(self) -> None:
        """Exchange primary and secondary (dual-peer capacity takeover).

        Used when a joining node with more capacity than the current
        primary finishes copying state and assumes the primary role.
        """
        if self.secondary is None:
            raise OwnershipError(
                f"region {self.region_id} is not full; cannot swap owner roles"
            )
        self.primary, self.secondary = self.secondary, self.primary

    def __hash__(self) -> int:
        return hash(self.region_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self.region_id == other.region_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        owners = ",".join(str(n.node_id) for n in self.owners()) or "-"
        return f"Region(id={self.region_id}, rect={self.rect}, owners=[{owners}])"
