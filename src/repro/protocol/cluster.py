"""A test/demo harness around a set of protocol nodes.

:class:`ProtocolCluster` wires scheduler + network + bootstrap server
together, creates :class:`~repro.protocol.node.ProtocolNode` instances,
and offers synchronous-looking helpers (``join_node``, ``lookup``,
``query``) that drive the event loop until the asynchronous operation
settles.  It also extracts the *global* view (all primary-owned rects) so
tests can assert the distributed state converged to a proper partition.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.errors import MembershipError, SimulationError
from repro.geometry import Point, Rect
from repro.bootstrap import BootstrapServer
from repro.core.node import Node
from repro.sim.latency import LatencyModel
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import SimNetwork
from repro.store.spatial import ObjectRecord
from repro.protocol import messages as m
from repro.protocol.node import NodeConfig, ProtocolNode

_Ack = TypeVar("_Ack")


class ProtocolCluster:
    """A simulated GeoGrid deployment."""

    def __init__(
        self,
        bounds: Rect,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
        config: Optional[NodeConfig] = None,
    ) -> None:
        self.bounds = bounds
        self.rng = random.Random(seed)
        self.scheduler = EventScheduler()
        self.network = SimNetwork(
            self.scheduler,
            rng=random.Random(seed + 1),
            latency=latency,
            drop_probability=drop_probability,
        )
        self.bootstrap = BootstrapServer()
        self.config = config if config is not None else NodeConfig()
        self.nodes: Dict[int, ProtocolNode] = {}
        self._next_node_id = itertools.count(0)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def spawn_node(
        self,
        coord: Point,
        capacity: float = 1.0,
        node_id: Optional[int] = None,
    ) -> ProtocolNode:
        """Create (but do not yet join) a protocol node."""
        if node_id is None:
            node_id = next(self._next_node_id)
        else:
            self._next_node_id = itertools.count(
                max(node_id + 1, next(self._next_node_id))
            )
        node = Node(node_id=node_id, coord=coord, capacity=capacity)
        pnode = ProtocolNode(
            node=node,
            network=self.network,
            scheduler=self.scheduler,
            bootstrap=self.bootstrap,
            rng=random.Random((node_id + 1) * 7919),
            config=self.config,
            bounds=self.bounds,
        )
        self.nodes[node_id] = pnode
        return pnode

    def join_node(
        self,
        coord: Point,
        capacity: float = 1.0,
        settle_time: float = 90.0,
    ) -> ProtocolNode:
        """Spawn a node, run its join to completion, and return it."""
        pnode = self.spawn_node(coord, capacity)
        if not any(n.alive for n in self.nodes.values()):
            pnode.start_as_first(self.bounds)
            return pnode
        pnode.start_join()
        deadline = self.scheduler.now + settle_time
        while not pnode.joined and self.scheduler.now < deadline:
            if self.scheduler.pending() == 0:
                break
            self.scheduler.run_until(
                min(deadline, self.scheduler.now + 1.0)
            )
        if not pnode.joined:
            raise SimulationError(
                f"node {pnode.node.node_id} failed to join within "
                f"{settle_time} time units"
            )
        return pnode

    def depart_node(self, node_id: int) -> None:
        """Gracefully remove a node."""
        self._protocol_node(node_id).depart()

    def crash_node(self, node_id: int) -> None:
        """Abruptly fail a node (peers must detect it via heartbeats)."""
        self._protocol_node(node_id).crash()

    def _protocol_node(self, node_id: int) -> ProtocolNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise MembershipError(f"unknown node id {node_id}") from None

    # ------------------------------------------------------------------
    # Time control
    # ------------------------------------------------------------------
    def run_for(self, duration: float, max_events: int = 500_000) -> int:
        """Advance virtual time by ``duration``."""
        return self.scheduler.run_until(
            self.scheduler.now + duration, max_events=max_events
        )

    def settle(self, duration: float = 30.0) -> None:
        """Let heartbeats, syncs and announcements quiesce."""
        self.run_for(duration)

    # ------------------------------------------------------------------
    # Synchronous-looking application operations
    # ------------------------------------------------------------------
    def lookup(
        self,
        from_node_id: int,
        target: Point,
        payload: Any = None,
        timeout: float = 60.0,
        attempts: int = 3,
    ) -> m.RouteDeliveredBody:
        """Route a request and wait for the delivery acknowledgment.

        Routing is best-effort (any hop or the acknowledgment itself can
        be lost on a lossy network), so the request is retransmitted up to
        ``attempts`` times, each with a ``timeout / attempts`` budget --
        the application-level retry a real client library would do.
        """
        origin = self._protocol_node(from_node_id)
        return self._await_ack(
            lambda: origin.send_to_point(target, payload),
            lambda request_id: next(
                (a for a in origin.delivered if a.request_id == request_id),
                None,
            ),
            timeout,
            attempts,
            f"lookup from node {from_node_id} to {target} was not delivered",
        )

    def _await_ack(
        self,
        issue: Callable[[], int],
        ack_of: Callable[[int], Optional[_Ack]],
        timeout: float,
        attempts: int,
        failure: str,
    ) -> _Ack:
        """Issue a request up to ``attempts`` times until one is answered.

        Each attempt gets ``timeout / attempts`` of virtual time, polled
        every time unit; any earlier attempt's answer counts.  Raises
        :class:`SimulationError` (``failure`` plus the budget) when none
        arrives.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        per_attempt = timeout / attempts
        request_ids: List[int] = []

        def answered() -> Optional[_Ack]:
            acks = (ack_of(request_id) for request_id in request_ids)
            return next((ack for ack in acks if ack is not None), None)

        for _ in range(attempts):
            request_ids.append(issue())
            deadline = self.scheduler.now + per_attempt
            while self.scheduler.now < deadline:
                ack = answered()
                if ack is not None:
                    return ack
                if self.scheduler.pending() == 0:
                    break
                self.scheduler.run_until(
                    min(deadline, self.scheduler.now + 1.0)
                )
        ack = answered()
        if ack is not None:
            return ack
        raise SimulationError(
            f"{failure} within {timeout} time units ({attempts} attempts)"
        )

    def publish(self, from_node_id: int, point: Point, item: Any) -> None:
        """Publish a geo-tagged item and let it propagate."""
        self._protocol_node(from_node_id).publish(point, item)
        self.run_for(10.0)

    def query(
        self,
        from_node_id: int,
        rect: Rect,
        wait: float = 20.0,
    ) -> List[m.QueryResultBody]:
        """Issue a location query and collect the per-region results."""
        origin = self._protocol_node(from_node_id)
        request_id = origin.query_rect(rect)
        self.run_for(wait)
        return origin.query_results.get(request_id, [])

    # ------------------------------------------------------------------
    # Location store operations
    # ------------------------------------------------------------------
    def store_update(
        self,
        from_node_id: int,
        object_id: Any,
        point: Point,
        payload: Any = None,
        version: int = 0,
        prev_point: Optional[Point] = None,
        timeout: float = 60.0,
        attempts: int = 3,
    ) -> m.StoreAckBody:
        """Store an object position and wait for the executor's ack.

        Like :meth:`lookup`, the update is retransmitted up to
        ``attempts`` times on a lossy network -- updates are idempotent
        (last-writer-wins by version), so retries are safe.
        """
        origin = self._protocol_node(from_node_id)
        return self._await_ack(
            lambda: origin.store_update(
                object_id, point, payload=payload, version=version,
                prev_point=prev_point,
            ),
            origin.store_acks.get,
            timeout,
            attempts,
            f"store update of {object_id!r} from node {from_node_id} was "
            f"not acknowledged",
        )

    def store_lookup(
        self,
        from_node_id: int,
        rect: Rect,
        wait: float = 20.0,
    ) -> List["ObjectRecord"]:
        """Range-lookup stored objects, deduplicated last-writer-wins.

        Returns the records collected from every answering region (the
        per-region raw answers stay available on the origin node's
        ``store_results``).
        """
        origin = self._protocol_node(from_node_id)
        request_id = origin.store_lookup(rect)
        self.run_for(wait)
        seen: Dict[Any, "ObjectRecord"] = {}
        for result in origin.store_results.get(request_id, []):
            for record in result.records:
                if record.supersedes(seen.get(record.object_id)):
                    seen[record.object_id] = record
        return sorted(seen.values(), key=lambda r: repr(r.object_id))

    def subscribe(
        self,
        from_node_id: int,
        rect: Rect,
        duration: Optional[float] = None,
        timeout: float = 60.0,
        attempts: int = 3,
    ) -> Tuple[str, m.SubAckBody]:
        """Register a continuous query and wait for the first ack.

        Retries reuse the same ``sub_id`` (registration is idempotent:
        covering primaries upsert last-writer-wins), so a lossy network
        at worst re-delivers the same record.  Returns the subscription
        id and the first executor's ack; notifications then accumulate
        on the origin node's ``notifications`` list.
        """
        origin = self._protocol_node(from_node_id)
        sub_id: Optional[str] = None

        def issue() -> int:
            nonlocal sub_id
            request_id, sub_id = origin.subscribe(
                rect, duration=duration, sub_id=sub_id
            )
            return request_id

        ack = self._await_ack(
            issue,
            origin.sub_acks.get,
            timeout,
            attempts,
            f"subscription to {rect} from node {from_node_id} was not "
            f"acknowledged",
        )
        assert sub_id is not None
        return sub_id, ack

    def subscription_count(self) -> int:
        """Distinct subscriptions held by live primaries (test view)."""
        seen = set()
        for pnode in self.nodes.values():
            if (
                pnode.alive
                and pnode.owned is not None
                and pnode.owned.role == "primary"
            ):
                for record in pnode.owned.subs.records():
                    seen.add(record.sub_id)
        return len(seen)

    def store_object_count(self) -> int:
        """Distinct objects held by live primaries (global test view)."""
        seen = set()
        for pnode in self.nodes.values():
            if (
                pnode.alive
                and pnode.owned is not None
                and pnode.owned.role == "primary"
            ):
                for record in pnode.owned.store.records():
                    seen.add(record.object_id)
        return len(seen)

    # ------------------------------------------------------------------
    # Global-view extraction (for assertions only)
    # ------------------------------------------------------------------
    def primary_rects(self) -> List[Rect]:
        """All rects currently served by a live primary."""
        return [
            pnode.owned.rect
            for pnode in self.nodes.values()
            if pnode.alive and pnode.owned is not None
            and pnode.owned.role == "primary"
        ]

    def caretaker_rects(self) -> List[Rect]:
        """All rects currently served best-effort by caretakers.

        A caretaker hole appears when a region's owners died (or a grant
        was lost on a lossy network) and persists until the next join
        routed into it fills it; see the package docstring.
        """
        rects: List[Rect] = []
        for pnode in self.nodes.values():
            if pnode.alive:
                rects.extend(pnode.caretaker_rects)
        return rects

    def check_partition(self, allow_caretaker_holes: bool = False) -> None:
        """Assert the live primaries tile the bounds without overlap.

        Also asserts that no live node's neighbor table holds two
        overlapping claims (the newer claim evicts the older one).  Only
        meaningful at quiescence (no joins or failovers in flight).
        With ``allow_caretaker_holes`` the check accepts area not covered
        by any primary as long as caretakers stand in for it -- the
        protocol's documented degraded-but-serviceable state on lossy
        networks, healed by the next join.
        """
        rects = self.primary_rects()
        total = sum(rect.area for rect in rects)
        missing = self.bounds.area - total
        if missing > 1e-6 * self.bounds.area:
            if not allow_caretaker_holes:
                raise SimulationError(
                    f"primary regions cover {total} of {self.bounds.area}; "
                    f"the distributed partition is inconsistent"
                )
            covered_by_caretakers = 0.0
            seen = set()
            for hole in self.caretaker_rects():
                key = hole.as_tuple()
                if key not in seen:
                    seen.add(key)
                    covered_by_caretakers += hole.area
            if missing > covered_by_caretakers + 1e-6 * self.bounds.area:
                raise SimulationError(
                    f"primaries cover {total} and caretakers only "
                    f"{covered_by_caretakers} of the missing {missing}; "
                    f"part of the plane is unserved"
                )
        elif missing < -1e-6 * self.bounds.area:
            raise SimulationError(
                f"primary regions cover {total} > bounds "
                f"{self.bounds.area}; regions overlap"
            )
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a.intersects(b):
                    raise SimulationError(
                        f"primary regions {a} and {b} overlap"
                    )
        for pnode in self.nodes.values():
            if not pnode.alive:
                continue
            held = list(pnode.neighbor_table)
            for i, a in enumerate(held):
                for b in held[i + 1 :]:
                    if a.intersects(b):
                        raise SimulationError(
                            f"node {pnode.node.node_id}'s neighbor table "
                            f"holds overlapping claims {a} and {b}"
                        )

    def attach_auditor(self, interval: float = 5.0, **kwargs):
        """Attach a started continuous invariant auditor to this cluster.

        Convenience wrapper around
        :class:`repro.obs.audit.InvariantAuditor` (imported lazily so the
        obs layer stays optional for plain protocol tests); forwards
        ``kwargs`` (``checks``, ``halt_on_violation``, ...) and returns
        the running auditor.
        """
        from repro.obs.audit import InvariantAuditor

        return InvariantAuditor(self, interval=interval, **kwargs).start()

    def alive_count(self) -> int:
        """Number of running protocol nodes."""
        return sum(1 for pnode in self.nodes.values() if pnode.alive)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtocolCluster(nodes={self.alive_count()}, "
            f"t={self.scheduler.now:g})"
        )
