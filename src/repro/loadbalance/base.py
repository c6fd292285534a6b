"""Shared machinery of the eight adaptation mechanisms.

Every mechanism follows the same two-phase shape so it can be tested in
isolation:

* :meth:`Mechanism.plan` inspects an overloaded region and either returns
  an :class:`AdaptationPlan` (which nodes/regions move where, and why it
  is an improvement) or ``None`` when the mechanism does not apply;
* :meth:`Mechanism.execute` carries a plan out against the overlay.

The engine tries mechanisms in increasing cost order and executes the
first plan it gets.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.overlay import BasicGeoGrid
from repro.core.region import Region
from repro.loadbalance.config import AdaptationConfig
from repro.loadbalance.search import RingMemo
from repro.loadbalance.workload import WorkloadIndexCalculator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.overlay_store import OverlayStore


@dataclass
class AdaptationContext:
    """Everything a mechanism needs to look at and act on the system."""

    overlay: BasicGeoGrid
    calc: WorkloadIndexCalculator
    config: AdaptationConfig
    #: Current adaptation round (drives region cooldowns).
    round_number: int = 0
    #: Message cost accrued by TTL searches this context has run.
    search_messages: int = 0
    #: The TTL rings of past remote searches, one per origin region.
    rings: RingMemo = field(default_factory=RingMemo)
    #: The location store riding this overlay, when one is attached.
    #: The engine drains its pending-motion counter after each execute so
    #: migrated objects are attributed to the mechanism that moved them.
    store: Optional["OverlayStore"] = None
    #: Objects migrated per mechanism key, accumulated across rounds.
    store_motion: Dict[str, int] = field(default_factory=dict)

    def collect_store_motion(self, mechanism_key: str) -> None:
        """Attribute store records moved by the adaptation just executed.

        The engine calls this right after a successful ``execute``; the
        store's structural listeners have already counted every record
        that changed region or serving node, and this drains that counter
        under the mechanism's key.
        """
        moved = self.store.take_pending_motion() if self.store is not None else 0
        if moved:
            self.store_motion[mechanism_key] = (
                self.store_motion.get(mechanism_key, 0) + moved
            )

    def region_index(self, region: Region) -> float:
        """Convenience passthrough to the index calculator."""
        return self.calc.region_index(region)

    def region_load(self, region: Region) -> float:
        """Convenience passthrough to the workload oracle."""
        return self.calc.region_load(region)

    def in_cooldown(self, region: Region) -> bool:
        """Whether ``region`` was restructured too recently to touch."""
        return (
            region.last_adapted_at + self.config.cooldown_rounds
            >= self.round_number
        )

    def mark_adapted(self, *regions: Region) -> None:
        """Stamp regions with the current round for cooldown tracking."""
        for region in regions:
            region.last_adapted_at = self.round_number


@dataclass(frozen=True)
class AdaptationPlan:
    """A concrete, validated adaptation about to be executed."""

    mechanism: str
    #: The overloaded region that initiated the adaptation.
    region: Region
    #: The counterpart region (neighbor or remote), when there is one.
    partner: Optional[Region]
    #: Region index of the initiator before the adaptation.
    index_before: float
    #: Predicted region index of the initiator after the adaptation.
    index_after: float
    #: Human-readable description for logs and reports.
    description: str = ""


@dataclass(frozen=True)
class AdaptationRecord:
    """What an executed adaptation actually did (engine bookkeeping)."""

    mechanism: str
    round_number: int
    region_id: int
    partner_region_id: Optional[int]
    index_before: float
    index_after: float
    #: Estimated message cost of carrying the adaptation out: the
    #: negotiation handshake, the state transfer, and one routing-table
    #: update per neighbor of each affected region.  TTL-search messages
    #: are accounted separately (they occur during planning).
    messages: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        return dict(self.__dict__)


class Mechanism(abc.ABC):
    """One of the eight load-balance adaptation mechanisms (a)--(h)."""

    #: Short identifier matching the paper's panel letter, e.g. ``"a"``.
    key: str = "?"
    #: Descriptive name, e.g. ``"steal secondary owner"``.
    name: str = "?"
    #: Position in the paper's increasing-cost order (0 = cheapest).
    cost_rank: int = 0
    #: Whether the mechanism needs the TTL-guided remote search.
    remote: bool = False

    @abc.abstractmethod
    def plan(
        self, region: Region, ctx: AdaptationContext
    ) -> Optional[AdaptationPlan]:
        """Return a validated plan for ``region``, or ``None``."""

    @abc.abstractmethod
    def execute(self, plan: AdaptationPlan, ctx: AdaptationContext) -> None:
        """Apply ``plan`` to the overlay."""

    # ------------------------------------------------------------------
    # Shared predicates
    # ------------------------------------------------------------------
    def improves_enough(
        self, before: float, after: float, ctx: AdaptationContext
    ) -> bool:
        """The engine-wide strict-improvement rule (oscillation guard)."""
        return after < before * ctx.config.improvement_margin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mechanism({self.key}: {self.name})"
