"""The reliable-delivery substrate for critical protocol exchanges.

GeoGrid's transport is deliberately best-effort (UDP-like): any message
can be silently lost to random drops, partitions, gray failures, or a
dead destination.  Most protocol traffic tolerates that -- heartbeats
repeat, anti-entropy repairs divergence, routed requests are retried by
the application.  A handful of exchanges do *not*: a split grant is the
only copy of the handed half's store records while in flight, a departure
handoff is the only copy of the departing primary's state, and a
merge-back retraction that never arrives leaves phantom regions behind.
PR 4 grew a bespoke ack/resend path for split grants alone; this module
generalizes it so every critical exchange rides the same machinery.

:class:`ReliableChannel` gives each node a sender and a receiver half:

* **Sender**: ``send()`` wraps the payload in a nonce-carrying
  :class:`~repro.protocol.messages.ReliableBody` envelope, transmits it,
  and arms a timeout.  Unacked sends are retransmitted with exponential
  backoff and seeded jitter, per-message-class timeouts
  (:class:`RetryPolicy`), and a bounded attempt budget; exhausted sends
  become *dead letters*, individually recorded and surfaced through
  ``obs`` counters (``protocol.reliable.dead_letter.<kind>``) so a
  campaign can tally exactly what the network refused to carry.
* **Receiver**: every arriving envelope is acked immediately -- even a
  duplicate, since the duplicate means the previous ack was the lost
  message -- and deduplicated against a bounded LRU of ``(source,
  nonce)`` keys before the inner message is dispatched, so retransmits
  never double-apply a non-idempotent handler.

The channel is transport-agnostic glue: it never inspects payloads, so
any ``(kind, body)`` the node's dispatch table understands can be sent
reliably without the handler knowing.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro import obs
from repro.core.node import NodeAddress
from repro.obs import causal
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import Message, SimNetwork
from repro.protocol import messages as m

__all__ = [
    "DeadLetter",
    "ReliableChannel",
    "ReliableStats",
    "RetryPolicy",
]

#: How many dead letters a channel remembers individually.
DEAD_LETTER_LIMIT = 64


@dataclass(frozen=True)
class RetryPolicy:
    """Retry behavior for one message class.

    ``max_attempts`` counts *total* transmissions (the original send plus
    retries); ``timeout`` is the ack deadline of the first attempt, which
    grows by ``backoff`` per retry up to ``max_timeout``.  Each armed
    timeout is perturbed by up to ``+- jitter`` (a fraction) so a burst
    of simultaneous losses does not retransmit in lockstep.
    """

    timeout: float = 4.0
    max_attempts: int = 4
    backoff: float = 2.0
    max_timeout: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must lie in [0, 1), got {self.jitter}")

    def attempt_timeout(self, attempt: int) -> float:
        """The (un-jittered) ack deadline of transmission ``attempt`` (1-based)."""
        return min(
            self.timeout * self.backoff ** max(0, attempt - 1),
            self.max_timeout,
        )


@dataclass(frozen=True)
class DeadLetter:
    """One exchange the channel gave up on."""

    nonce: int
    kind: str
    destination: NodeAddress
    attempts: int
    #: Sim time of the give-up.
    time: float


@dataclass
class ReliableStats:
    """Counters describing everything one channel did."""

    #: Reliable exchanges initiated.
    sent: int = 0
    #: Exchanges confirmed by an ack.
    acked: int = 0
    #: Retransmissions (beyond each exchange's first attempt).
    retries: int = 0
    #: Exchanges abandoned after the attempt budget ran out.
    dead_lettered: int = 0
    #: Incoming envelopes dropped as duplicates (receive-side dedup).
    duplicates: int = 0
    #: Acks that matched no pending exchange (late ack after give-up, or
    #: the duplicate ack of an already-confirmed exchange).
    stray_acks: int = 0


class _Pending:
    """One in-flight reliable exchange on the sender side."""

    __slots__ = (
        "nonce", "destination", "kind", "body", "policy", "attempts",
        "timer", "on_ack", "on_give_up", "first_sent",
    )

    def __init__(self, nonce, destination, kind, body, policy,
                 on_ack, on_give_up, first_sent=0.0):
        self.nonce = nonce
        self.destination = destination
        self.kind = kind
        self.body = body
        self.policy = policy
        self.attempts = 0
        self.timer = None
        self.on_ack = on_ack
        self.on_give_up = on_give_up
        #: Sim time of the first transmission; an eventual ack's age
        #: against it is the exchange round-trip the telemetry plane
        #: attributes to the destination.
        self.first_sent = first_sent


#: Receiver-side dispatch callback: ``(kind, body, envelope_message)``.
DispatchCallback = Callable[[str, Any, Message], None]


class ReliableChannel:
    """Per-node reliable request/ack machinery over the sim transport."""

    def __init__(
        self,
        address: NodeAddress,
        network: SimNetwork,
        scheduler: EventScheduler,
        rng: random.Random,
        policies: Optional[Dict[str, RetryPolicy]] = None,
        default_policy: Optional[RetryPolicy] = None,
        dedup_capacity: int = 1024,
        is_alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        if dedup_capacity < 1:
            raise ValueError(
                f"dedup_capacity must be >= 1, got {dedup_capacity}"
            )
        self.address = address
        self.network = network
        self.scheduler = scheduler
        self.rng = rng
        self.policies: Dict[str, RetryPolicy] = dict(policies or {})
        self.default_policy = (
            default_policy if default_policy is not None else RetryPolicy()
        )
        self.dedup_capacity = dedup_capacity
        self._is_alive = is_alive if is_alive is not None else (lambda: True)
        self.stats = ReliableStats()
        #: Optional telemetry observers (the in-band vitals/health plane):
        #: ``on_retry_observed(destination, kind)`` per retransmission,
        #: ``on_dead_letter_observed(destination, kind)`` per give-up,
        #: ``on_ack_observed(destination, rtt)`` per confirmed exchange.
        self.on_retry_observed: Optional[
            Callable[[NodeAddress, str], None]
        ] = None
        self.on_dead_letter_observed: Optional[
            Callable[[NodeAddress, str], None]
        ] = None
        self.on_ack_observed: Optional[
            Callable[[NodeAddress, float], None]
        ] = None
        self.dead_letters: Deque[DeadLetter] = deque(maxlen=DEAD_LETTER_LIMIT)
        self._pending: Dict[int, _Pending] = {}
        self._nonces = itertools.count(1)
        #: Receive-side dedup LRU of ``(source, nonce)`` keys.
        self._seen: "OrderedDict[Tuple[NodeAddress, int], None]" = OrderedDict()

    # ------------------------------------------------------------------
    # Sender half
    # ------------------------------------------------------------------
    def policy_for(self, kind: str) -> RetryPolicy:
        """The retry policy applied to message class ``kind``."""
        return self.policies.get(kind, self.default_policy)

    def pending_count(self) -> int:
        """Number of exchanges awaiting an ack."""
        return len(self._pending)

    def send(
        self,
        destination: NodeAddress,
        kind: str,
        body: Any,
        on_ack: Optional[Callable[[], None]] = None,
        on_give_up: Optional[Callable[[], None]] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> int:
        """Send ``(kind, body)`` reliably; returns the exchange nonce."""
        policy = policy if policy is not None else self.policy_for(kind)
        nonce = next(self._nonces)
        pending = _Pending(
            nonce, destination, kind, body, policy, on_ack, on_give_up,
            first_sent=self.scheduler.now,
        )
        self._pending[nonce] = pending
        self.stats.sent += 1
        obs.inc("protocol.reliable.sent")
        self._transmit(pending)
        return nonce

    def _transmit(self, pending: _Pending) -> None:
        pending.attempts += 1
        envelope = m.ReliableBody(
            nonce=pending.nonce,
            kind=pending.kind,
            body=pending.body,
            attempt=pending.attempts,
        )
        self.network.send(
            self.address, pending.destination, m.RELIABLE, envelope
        )
        deadline = pending.policy.attempt_timeout(pending.attempts)
        jitter = pending.policy.jitter
        if jitter > 0.0:
            deadline *= 1.0 + self.rng.uniform(-jitter, jitter)
        pending.timer = self.scheduler.after(
            deadline, lambda: self._on_timeout(pending.nonce)
        )

    def _on_timeout(self, nonce: int) -> None:
        pending = self._pending.get(nonce)
        if pending is None:
            return
        if not self._is_alive():
            # The sender died; its exchanges die with it (the usual
            # failure-detection machinery deals with the consequences).
            self._pending.pop(nonce, None)
            return
        if pending.attempts >= pending.policy.max_attempts:
            self._give_up(pending)
            return
        self.stats.retries += 1
        obs.inc("protocol.reliable.retries")
        obs.inc(f"protocol.reliable.retries.{pending.kind}")
        if self.on_retry_observed is not None:
            self.on_retry_observed(pending.destination, pending.kind)
        causal.annotate(
            "reliable_retry",
            sender=str(self.address),
            destination=str(pending.destination),
            kind=pending.kind,
            nonce=pending.nonce,
            attempt=pending.attempts + 1,
        )
        self._transmit(pending)

    def _give_up(self, pending: _Pending) -> None:
        self._pending.pop(pending.nonce, None)
        self.stats.dead_lettered += 1
        obs.inc("protocol.reliable.dead_letter")
        obs.inc(f"protocol.reliable.dead_letter.{pending.kind}")
        if self.on_dead_letter_observed is not None:
            self.on_dead_letter_observed(pending.destination, pending.kind)
        self.dead_letters.append(
            DeadLetter(
                nonce=pending.nonce,
                kind=pending.kind,
                destination=pending.destination,
                attempts=pending.attempts,
                time=self.scheduler.now,
            )
        )
        causal.annotate(
            "reliable_dead_letter",
            sender=str(self.address),
            destination=str(pending.destination),
            kind=pending.kind,
            nonce=pending.nonce,
            attempts=pending.attempts,
        )
        if pending.on_give_up is not None:
            pending.on_give_up()

    def on_ack(self, source: NodeAddress, nonce: int) -> None:
        """Sender side of an arriving :data:`~repro.protocol.messages.RELIABLE_ACK`."""
        pending = self._pending.pop(nonce, None)
        if pending is None or pending.destination != source:
            if pending is not None:
                # An ack for our nonce from the wrong endpoint: not ours.
                self._pending[nonce] = pending
            self.stats.stray_acks += 1
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self.stats.acked += 1
        obs.inc("protocol.reliable.acked")
        if self.on_ack_observed is not None:
            self.on_ack_observed(
                source, self.scheduler.now - pending.first_sent
            )
        if pending.on_ack is not None:
            pending.on_ack()

    def cancel_all(self) -> None:
        """Abandon every pending exchange (crash teardown; no dead letters)."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Receiver half
    # ------------------------------------------------------------------
    def on_receive(self, message: Message, dispatch: DispatchCallback) -> None:
        """Receiver side of an arriving envelope: ack, dedup, dispatch.

        The ack goes out unconditionally -- a duplicate envelope means
        the previous ack was the lost message -- and ``dispatch`` runs
        only for the first sighting of each ``(source, nonce)`` key.
        """
        body: m.ReliableBody = message.body
        self.network.send(
            self.address, message.source, m.RELIABLE_ACK,
            m.ReliableAckBody(nonce=body.nonce),
        )
        key = (message.source, body.nonce)
        if key in self._seen:
            self._seen.move_to_end(key)
            self.stats.duplicates += 1
            obs.inc("protocol.reliable.duplicates_dropped")
            return
        self._seen[key] = None
        while len(self._seen) > self.dedup_capacity:
            self._seen.popitem(last=False)
        dispatch(body.kind, body.body, message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReliableChannel(addr={self.address}, "
            f"pending={len(self._pending)}, acked={self.stats.acked}, "
            f"dead={self.stats.dead_lettered})"
        )


def tally_stats(channels) -> Dict[str, int]:
    """Sum :class:`ReliableStats` across ``channels`` into a plain dict."""
    totals = ReliableStats()
    for channel in channels:
        stats = channel.stats
        totals.sent += stats.sent
        totals.acked += stats.acked
        totals.retries += stats.retries
        totals.dead_lettered += stats.dead_lettered
        totals.duplicates += stats.duplicates
        totals.stray_acks += stats.stray_acks
    return {
        "sent": totals.sent,
        "acked": totals.acked,
        "retries": totals.retries,
        "dead_lettered": totals.dead_lettered,
        "duplicates": totals.duplicates,
        "stray_acks": totals.stray_acks,
    }
