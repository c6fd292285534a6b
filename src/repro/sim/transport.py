"""The simulated network transport.

Endpoints register under a :class:`~repro.core.node.NodeAddress`; sending
a message schedules its delivery on the event scheduler after a latency
drawn from the configured model.  The transport supports the failure modes
the protocol layer is tested against:

* message loss (uniform drop probability),
* crashed endpoints (messages to them vanish, like TCP RSTs to a dead
  host),
* network partitions (named groups that cannot reach each other),
* asymmetric (one-way) link failures: traffic from A to B silently
  vanishes while B can still reach A -- the partition shape that breaks
  naive "I heard from you so you can hear me" reasoning,
* gray failures: an endpoint whose NIC silently drops and/or delays a
  *fraction* of its traffic in both directions, without ever looking
  dead to a binary health check,
* network-wide latency surges (``extra_latency``), modelling congestion
  spikes.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, NamedTuple, Optional, Tuple

from repro import obs
from repro.errors import TransportError
from repro.geometry import Point
from repro.core.node import NodeAddress
from repro.obs import causal
from repro.obs.telemetry import EVENT_SAMPLE
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.scheduler import EventScheduler


class Message(NamedTuple):
    """One message in flight (or delivered).

    A named tuple: one is built per send, and tuple construction and
    field reads run in C.
    """

    source: NodeAddress
    destination: NodeAddress
    kind: str
    body: Any
    sent_at: float
    #: Monotonic per-network id; makes every send (and hence every drop)
    #: individually attributable.  ``-1`` only for hand-built messages.
    msg_id: int = -1
    #: Causal span of this message, inherited from the sender's context
    #: (``None`` when tracing is off).
    span: Optional[causal.SpanContext] = None


#: An endpoint's receive handler.
MessageHandler = Callable[[Message], None]


@dataclass
class Endpoint:
    """A registered protocol endpoint."""

    address: NodeAddress
    coord: Point
    handler: MessageHandler
    alive: bool = True


#: How many recent drops :class:`TransportStats` remembers individually.
RECENT_DROP_LIMIT = 256


@dataclass(frozen=True)
class GrayFailure:
    """A silently misbehaving endpoint (the classic gray failure).

    Both inbound and outbound traffic of the afflicted endpoint is
    subject to the same treatment: each message is dropped with
    ``drop_fraction`` probability, and (independently) delayed by
    ``extra_delay`` with ``delay_fraction`` probability.  The endpoint
    itself keeps running and answering, so no binary liveness check ever
    sees anything wrong -- only end-to-end timeouts do.
    """

    drop_fraction: float = 0.0
    extra_delay: float = 0.0
    delay_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_fraction <= 1.0):
            raise TransportError(
                f"drop_fraction must lie in [0, 1], got {self.drop_fraction!r}"
            )
        if self.extra_delay < 0.0:
            raise TransportError(
                f"extra_delay must be >= 0, got {self.extra_delay!r}"
            )
        if not (0.0 <= self.delay_fraction <= 1.0):
            raise TransportError(
                f"delay_fraction must lie in [0, 1], got "
                f"{self.delay_fraction!r}"
            )


@dataclass
class TransportStats:
    """Counters describing everything the transport did."""

    sent: int = 0
    delivered: int = 0
    dropped_random: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    dropped_gray: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: The most recent drops as ``(msg_id, kind, reason)`` -- enough to
    #: attribute a silent failure to a specific send without the journal.
    recent_drops: Deque[Tuple[int, str, str]] = field(
        default_factory=lambda: deque(maxlen=RECENT_DROP_LIMIT)
    )

    def record_send(self, kind: str) -> None:
        """Account one send of a message of ``kind``."""
        self.sent += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def record_drop(self, msg_id: int, kind: str, reason: str) -> None:
        """Account one drop (``reason`` in random/dead/partition/gray)."""
        if reason == "random":
            self.dropped_random += 1
        elif reason == "dead":
            self.dropped_dead += 1
        elif reason == "partition":
            self.dropped_partition += 1
        elif reason == "gray":
            self.dropped_gray += 1
        else:
            raise TransportError(f"unknown drop reason {reason!r}")
        self.recent_drops.append((msg_id, kind, reason))


class SimNetwork:
    """The message bus connecting simulated GeoGrid nodes."""

    def __init__(
        self,
        scheduler: EventScheduler,
        rng: random.Random,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not (0.0 <= drop_probability < 1.0):
            raise TransportError(
                f"drop_probability must lie in [0, 1), got "
                f"{drop_probability!r}"
            )
        self.scheduler = scheduler
        self.rng = rng
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.drop_probability = drop_probability
        self.stats = TransportStats()
        #: Flat extra delay added to every delivery (latency surge knob).
        self.extra_latency = 0.0
        self._endpoints: Dict[NodeAddress, Endpoint] = {}
        self._partition_of: Dict[NodeAddress, str] = {}
        #: Directed links that silently eat traffic: ``(src, dst)`` pairs.
        self._one_way_blocks: set = set()
        #: Per-endpoint gray-failure behavior.
        self._gray: Dict[NodeAddress, GrayFailure] = {}
        self._msg_ids = itertools.count(1)
        #: Per-source egress observers (the telemetry plane's vitals
        #: frames), accounted for every send originating at the source,
        #: before any drop verdict -- the sender cannot see drops.  The
        #: countdown tick is inlined into :meth:`send` rather than
        #: dispatched through a callable: this fires on every message in
        #: the simulation, and the function-call overhead alone was a
        #: measurable share of the telemetry plane's cost.
        self._send_frames: Dict[NodeAddress, Any] = {}
        #: Scheduled-but-undelivered message counts per destination, the
        #: simulation's stand-in for an ingress socket queue depth.
        self._in_flight: Dict[NodeAddress, int] = {}
        self._peak_in_flight: Dict[NodeAddress, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(
        self, address: NodeAddress, coord: Point, handler: MessageHandler
    ) -> Endpoint:
        """Attach an endpoint to the network."""
        if address in self._endpoints and self._endpoints[address].alive:
            raise TransportError(f"address {address} is already registered")
        endpoint = Endpoint(address=address, coord=coord, handler=handler)
        self._endpoints[address] = endpoint
        return endpoint

    def deregister(self, address: NodeAddress) -> None:
        """Graceful detach (a departing node closes its sockets)."""
        self._endpoints.pop(address, None)
        self._partition_of.pop(address, None)
        self._send_frames.pop(address, None)

    def crash(self, address: NodeAddress) -> None:
        """Abrupt failure: the endpoint stays known but silently drops
        everything, which is what a failed host looks like to its peers."""
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise TransportError(f"cannot crash unknown address {address}")
        endpoint.alive = False

    def is_alive(self, address: NodeAddress) -> bool:
        """Whether the endpoint is registered and not crashed."""
        endpoint = self._endpoints.get(address)
        return endpoint is not None and endpoint.alive

    # ------------------------------------------------------------------
    # Telemetry hooks
    # ------------------------------------------------------------------
    def set_send_frame(self, address: NodeAddress, frame: Any) -> None:
        """Account every send originating at ``address`` to ``frame``.

        One frame per source; ``frame`` is a
        :class:`repro.obs.telemetry.VitalsFrame` (duck-typed -- anything
        with its ``send_countdown`` / ``_sent_accounted`` /
        ``sent_by_kind`` egress-accounting attributes works, which is
        what :meth:`send` inlines).  Accounting happens before any drop
        verdict -- over a best-effort transport the sender cannot see
        drops, so it measures what the node *tried* to send.
        """
        self._send_frames[address] = frame

    def clear_send_frame(self, address: NodeAddress) -> None:
        """Remove ``address``'s send observer (no-op when absent)."""
        self._send_frames.pop(address, None)

    def in_flight_to(self, address: NodeAddress) -> int:
        """Messages scheduled for delivery to ``address`` right now.

        The closest simulation analogue of an ingress queue depth: how
        much traffic has been committed to this endpoint but not yet
        handed to its handler.
        """
        return self._in_flight.get(address, 0)

    def max_peak_in_flight(self) -> int:
        """The largest per-endpoint queue-depth peak since the last reset."""
        return max(self._peak_in_flight.values(), default=0)

    def reset_peak_in_flight(self) -> None:
        """Forget all queue-depth peaks (e.g. after join-time churn)."""
        self._peak_in_flight.clear()

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partition(self, address: NodeAddress, group: str) -> None:
        """Place an endpoint in partition ``group``.

        Endpoints in different groups cannot exchange messages; endpoints
        without a group reach everyone.  For *asymmetric* failures --
        where only one direction of a link is cut -- use
        :meth:`block_one_way` instead; both kinds of cut account their
        drops under the ``partition`` reason and are lifted together by
        :meth:`heal_partitions`.
        """
        self._partition_of[address] = group

    def block_one_way(
        self, source: NodeAddress, destination: NodeAddress
    ) -> None:
        """Silently eat all traffic from ``source`` to ``destination``.

        The reverse direction is untouched: ``destination`` still reaches
        ``source``, which is exactly the asymmetric-partition shape that
        defeats "I can hear you, so you can hear me" reasoning (one side
        suspects the other while being believed alive itself).
        """
        self._one_way_blocks.add((source, destination))

    def unblock_one_way(
        self, source: NodeAddress, destination: NodeAddress
    ) -> None:
        """Lift a single one-way block (no-op when absent)."""
        self._one_way_blocks.discard((source, destination))

    def heal_partitions(self) -> None:
        """Remove all partition assignments and one-way blocks."""
        self._partition_of.clear()
        self._one_way_blocks.clear()

    def _partitioned(self, a: NodeAddress, b: NodeAddress) -> bool:
        # Callers on the send and delivery paths check first that a cut
        # is armed at all (the common case is none), sparing the call.
        if (a, b) in self._one_way_blocks:
            return True
        group_a = self._partition_of.get(a)
        group_b = self._partition_of.get(b)
        if group_a is None or group_b is None:
            return False
        return group_a != group_b

    # ------------------------------------------------------------------
    # Gray failures
    # ------------------------------------------------------------------
    def set_gray(
        self,
        address: NodeAddress,
        drop_fraction: float = 0.0,
        extra_delay: float = 0.0,
        delay_fraction: float = 1.0,
    ) -> None:
        """Afflict ``address`` with a gray failure (see :class:`GrayFailure`)."""
        self._gray[address] = GrayFailure(
            drop_fraction=drop_fraction,
            extra_delay=extra_delay,
            delay_fraction=delay_fraction,
        )

    def clear_gray(self, address: Optional[NodeAddress] = None) -> None:
        """Heal one endpoint's gray failure, or all of them."""
        if address is None:
            self._gray.clear()
        else:
            self._gray.pop(address, None)

    def _gray_verdict(
        self, source: NodeAddress, destination: NodeAddress
    ) -> Tuple[bool, float]:
        """Whether gray failures eat this message, and any extra delay.

        Draws from the rng only for afflicted endpoints, so simulations
        without gray failures replay the exact same random sequence as
        before the knob existed.
        """
        extra = 0.0
        for endpoint in (source, destination):
            gray = self._gray.get(endpoint)
            if gray is None:
                continue
            if gray.drop_fraction > 0.0 and self.rng.random() < gray.drop_fraction:
                return True, 0.0
            if gray.extra_delay > 0.0:
                if gray.delay_fraction >= 1.0:
                    extra += gray.extra_delay
                elif self.rng.random() < gray.delay_fraction:
                    extra += gray.extra_delay
        return False, extra

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        source: NodeAddress,
        destination: NodeAddress,
        kind: str,
        body: Any,
    ) -> None:
        """Send a message; delivery is scheduled, never synchronous.

        Sends never fail at the caller: a dead destination, a partition or
        random loss all look identical to the sender (silence), exactly as
        over UDP/best-effort delivery -- failure *detection* is the
        protocol layer's job (heartbeats and timeouts).
        """
        self.stats.record_send(kind)
        # The obs globals are read directly, not through obs.inc() and
        # obs.flightrec(): this runs per message, and with collection off
        # each facade call is pure overhead (likewise in _deliver).
        registry = obs._active
        if registry is not None:
            registry.inc("sim.transport.sent")
        frame = self._send_frames.get(source)
        if frame is not None:
            # Inlined VitalsFrame.on_send (see set_send_frame): a bare
            # countdown tick on the common path, full accounting on the
            # sampled 1-in-EVENT_SAMPLE event.
            n = frame.send_countdown - 1
            if n:
                frame.send_countdown = n
            else:
                frame.send_countdown = EVENT_SAMPLE
                frame._sent_accounted += EVENT_SAMPLE
                frame.sent_by_kind[kind] += EVENT_SAMPLE
        recorder = obs._flightrec
        span = None
        if recorder is not None:
            # Each message is one span of the sender's current trace (or a
            # fresh trace when the send is a causal root, e.g. a client
            # request arriving from outside the simulation).
            parent = causal.current()
            span = causal.SpanContext(
                trace_id=(
                    parent.trace_id
                    if parent is not None
                    else recorder.next_trace_id()
                ),
                span_id=recorder.next_span_id(),
            )
        message = Message(
            source, destination, kind, body, self.scheduler.now,
            next(self._msg_ids), span,
        )
        if recorder is not None:
            recorder.record(
                "send",
                self.scheduler.now,
                msg_id=message.msg_id,
                msg_kind=kind,
                source=str(source),
                destination=str(destination),
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_span=(
                    causal.current().span_id
                    if causal.current() is not None
                    else None
                ),
            )
        if (self._partition_of or self._one_way_blocks) and self._partitioned(
            source, destination
        ):
            self._drop(message, "partition")
            return
        if self.drop_probability > 0.0 and self.rng.random() < self.drop_probability:
            self._drop(message, "random")
            return
        gray_dropped, gray_delay = (
            self._gray_verdict(source, destination)
            if self._gray
            else (False, 0.0)
        )
        if gray_dropped:
            self._drop(message, "gray")
            return
        source_endpoint = self._endpoints.get(source)
        source_coord = (
            source_endpoint.coord if source_endpoint is not None else Point(0.0, 0.0)
        )
        destination_endpoint = self._endpoints.get(destination)
        if destination_endpoint is None:
            self._drop(message, "dead")
            return
        delay = self.latency.delay(
            source_coord, destination_endpoint.coord, self.rng
        )
        delay += self.extra_latency + gray_delay
        depth = self._in_flight.get(destination, 0) + 1
        self._in_flight[destination] = depth
        if depth > self._peak_in_flight.get(destination, 0):
            self._peak_in_flight[destination] = depth
        self.scheduler.after(delay, lambda: self._deliver(message))

    def _drop(self, message: Message, reason: str) -> None:
        """Account a dropped message in stats, metrics, and the journal."""
        self.stats.record_drop(message.msg_id, message.kind, reason)
        obs.inc(f"sim.transport.dropped.{reason}")
        recorder = obs.flightrec()
        if recorder is not None:
            fields: Dict[str, Any] = {
                "msg_id": message.msg_id,
                "msg_kind": message.kind,
                "reason": reason,
            }
            if message.span is not None:
                fields["trace_id"] = message.span.trace_id
                fields["span_id"] = message.span.span_id
            recorder.record("drop", self.scheduler.now, **fields)

    def _deliver(self, message: Message) -> None:
        count = self._in_flight.get(message.destination, 0)
        if count <= 1:
            self._in_flight.pop(message.destination, None)
        else:
            self._in_flight[message.destination] = count - 1
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None or not endpoint.alive:
            self._drop(message, "dead")
            return
        if (self._partition_of or self._one_way_blocks) and self._partitioned(
            message.source, message.destination
        ):
            self._drop(message, "partition")
            return
        self.stats.delivered += 1
        registry = obs._active
        if registry is not None:
            registry.inc("sim.transport.delivered")
            registry.observe(
                "sim.transport.latency", self.scheduler.now - message.sent_at
            )
            registry.trace(
                "delivery",
                kind=message.kind,
                msg_id=message.msg_id,
                source=str(message.source),
                destination=str(message.destination),
                latency=self.scheduler.now - message.sent_at,
            )
        recorder = obs._flightrec
        if recorder is not None:
            fields = {
                "msg_id": message.msg_id,
                "latency": self.scheduler.now - message.sent_at,
            }
            if message.span is not None:
                fields["trace_id"] = message.span.trace_id
                fields["span_id"] = message.span.span_id
            recorder.record("deliver", self.scheduler.now, **fields)
        # The handler runs *inside* the message's causal context, so any
        # message it sends (or timer it arms) chains to this delivery.
        # Without a span (tracing off) that context is a no-op: skip it.
        if message.span is None:
            endpoint.handler(message)
        else:
            with causal.using(message.span):
                endpoint.handler(message)

    def endpoint_count(self) -> int:
        """Number of live endpoints."""
        return sum(1 for endpoint in self._endpoints.values() if endpoint.alive)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimNetwork(endpoints={self.endpoint_count()}, "
            f"sent={self.stats.sent}, delivered={self.stats.delivered})"
        )
