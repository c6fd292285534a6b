"""Overload control plane: capacity-aware ingress admission.

GeoGrid's load-balance mechanisms (paper §4) rebalance *regions*, but
rebinding a hot region to a stronger node takes at least one stat
window plus the switch handshake.  In between, a flash crowd would melt
the primary: every inbound message was processed unboundedly regardless
of the node's ``capacity``.  This module supplies the missing graceful
middle ground:

* **Priority classes.**  Every wire kind maps to one of five classes --
  control > reliability acks > store/sub data > queries > gossip.
  Control traffic (membership, failover, switches) and reliability acks
  are never shed: dropping a JOIN_GRANT loses the sole copy of a store
  half, and dropping an ack only provokes a retry storm.  Everything
  else is sheddable, with lower classes cut off at progressively lower
  queue depths so queries degrade before committed data and gossip
  degrades before queries.

* **Capacity-scaled budgets.**  A node's admission budget scales with
  its ``capacity`` (the same scalar the sqrt(2) trigger compares), so a
  capacity-100 server absorbs the burst a capacity-1 edge node sheds.

* **Deterministic shedding.**  Admission consults the transport's
  in-flight count for the node -- the simulation analogue of an ingress
  queue depth -- so at a given depth the same message is always shed.
  Shed requests that carry an origin get a SHED NACK with a
  depth-scaled retry-after hint; reliable-wrapped data is shed
  silently, because the sender's retry/backoff schedule *is* the
  retry-after mechanism.

Shedding buys time; adaptation fixes the cause.  Sustained shedding
escalates to :meth:`ProtocolNode._consider_switch` (see
``node._roll_stat_window``), handing the hotspot to the paper's
mechanisms.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.protocol import messages as m

__all__ = [
    "PRIORITY_CONTROL",
    "PRIORITY_ACK",
    "PRIORITY_DATA",
    "PRIORITY_QUERY",
    "PRIORITY_GOSSIP",
    "PRIORITY_OF",
    "CLASS_HEADROOM",
    "INBOX_FLOOR",
    "INBOX_SCALE",
    "RETRY_AFTER",
    "DEFLECT_THRESHOLD",
    "ESCALATE_WINDOWS",
    "admission_budget",
    "admission_limits",
    "unwrap",
    "wire_priority",
]

#: Minimum ingress admission budget regardless of capacity.  Even a
#: capacity-1 node must absorb its own control fan-in (heartbeats from
#: every neighbor, sync traffic from its peer).
INBOX_FLOOR = 16
#: Ingress budget per unit of node capacity; the effective budget is
#: ``max(INBOX_FLOOR, INBOX_SCALE * capacity)``, so strong servers absorb
#: the bursts weak nodes shed.
INBOX_SCALE = 4.0
#: Base back-off carried in SHED NACKs; the hint scales up with how far
#: past its budget the shedder is.
RETRY_AFTER = 2.0
#: A neighbor whose advertised backpressure reaches this fraction of its
#: budget is considered saturated: greedy forwarding prefers a calmer
#: strictly-closer neighbor when one exists (never giving up strict
#: progress toward the target).
DEFLECT_THRESHOLD = 0.75
#: Consecutive stat windows with shedding before an overloaded primary
#: escalates to the sqrt(2) switch proposal out of schedule.  Shedding
#: buys time; adaptation fixes the cause.
ESCALATE_WINDOWS = 2

#: Membership, failover, and adaptation traffic.  Never shed: these
#: messages are either the sole copy of transferred state (JOIN_GRANT
#: carries store halves) or the signals that *fix* overload.
PRIORITY_CONTROL = 0
#: Reliable-channel acknowledgements.  Never shed: dropping an ack
#: converts one message of load into a whole retry schedule of load.
PRIORITY_ACK = 1
#: Committed data motion: store writes, replication, pub/sub fan-out.
PRIORITY_DATA = 2
#: Read-path traffic: routed requests, lookups, query fan-out.
PRIORITY_QUERY = 3
#: Repairs and probes that other planes re-derive on their own.
PRIORITY_GOSSIP = 4

#: Fraction of the admission budget available to each sheddable class.
#: Classes absent from this map are always admitted.  Queries are cut
#: off at 75% depth and gossip at 50%, so under a mounting burst the
#: node degrades in strict priority order: gossip first, then queries,
#: and committed data only once the full budget is exhausted.
CLASS_HEADROOM: Dict[int, float] = {
    PRIORITY_DATA: 1.0,
    PRIORITY_QUERY: 0.75,
    PRIORITY_GOSSIP: 0.5,
}

PRIORITY_OF: Dict[str, int] = {}
for _kind in (
    m.JOIN_REQUEST,
    m.JOIN_GRANT,
    m.GRANT_DECLINE,
    m.HEARTBEAT,
    m.NEIGHBOR_UPDATE,
    m.SYNC_STATE,
    m.DEPART,
    m.SECONDARY_RELEASED,
    m.SWITCH_REQUEST,
    m.SWITCH_ACCEPT,
    m.SWITCH_REJECT,
    m.SHED,
):
    PRIORITY_OF[_kind] = PRIORITY_CONTROL
PRIORITY_OF[m.RELIABLE_ACK] = PRIORITY_ACK
for _kind in (
    m.STORE_UPDATE,
    m.STORE_REMOVE,
    m.STORE_ACK,
    m.STORE_SYNC,
    m.STORE_PULL,
    m.STORE_REPAIR,
    m.REPLICATE,
    m.PUBLISH,
    m.SUBSCRIBE,
    m.SUB_FANOUT,
    m.SUB_ACK,
    m.SUB_SYNC,
    m.NOTIFY,
):
    PRIORITY_OF[_kind] = PRIORITY_DATA
for _kind in (
    m.ROUTE,
    m.ROUTE_DELIVERED,
    m.QUERY,
    m.QUERY_FANOUT,
    m.QUERY_RESULT,
    m.STORE_LOOKUP,
    m.STORE_FANOUT,
    m.STORE_RESULT,
):
    PRIORITY_OF[_kind] = PRIORITY_QUERY
for _kind in (m.MISROUTE, m.PERIMETER_PROBE):
    PRIORITY_OF[_kind] = PRIORITY_GOSSIP
del _kind

#: Kinds whose body carries another message as ``(kind, body)``.
_ENVELOPES = frozenset({m.RELIABLE, m.SHORTCUT_HOP, m.MISROUTE})


def unwrap(kind: str, body: Any) -> Tuple[str, Any]:
    """The ``(kind, body)`` inside a wire message's envelopes.

    A RELIABLE envelope carries its payload, which may itself be a
    shortcut hop or misroute bounce carrying a routed request.  Admission
    classes a message by what it carries: a reliable-wrapped JOIN_GRANT
    is still control traffic, a shortcut-hopped STORE_UPDATE still data.
    A message without an envelope comes back unchanged.
    """
    while kind in _ENVELOPES and body is not None:
        kind, body = body.kind, body.body
    return kind, body


def wire_priority(kind: str, body: Any = None) -> int:
    """Priority class of a wire message, classed by what it carries.

    Unknown kinds default to the data class: sheddable, but only at
    full budget.
    """
    kind, _ = unwrap(kind, body)
    return PRIORITY_OF.get(kind, PRIORITY_DATA)


def admission_budget(capacity: float) -> int:
    """Ingress budget for a node: ``max(INBOX_FLOOR, INBOX_SCALE * capacity)``.

    The floor keeps tiny nodes functional (a capacity-1 node must still
    absorb its own control fan-in); the scale term gives strong servers
    proportionally deeper inboxes, mirroring how the workload index
    already normalises served load by capacity.
    """
    return max(INBOX_FLOOR, int(INBOX_SCALE * capacity))


def admission_limits(budget: int) -> Dict[str, int]:
    """Per-kind admission depth cut-offs for a given budget.

    Returns a flat ``kind -> max queue depth`` map covering only the
    sheddable kinds; control kinds and acks are deliberately absent so
    a plain ``dict.get`` miss means "always admit".  Envelope kinds
    (RELIABLE, SHORTCUT_HOP, MISROUTE) are also absent -- callers must
    look up the kind :func:`unwrap` returns.
    """
    limits: Dict[str, int] = {}
    for kind, priority in PRIORITY_OF.items():
        headroom = CLASS_HEADROOM.get(priority)
        if headroom is None:
            continue
        limits[kind] = max(1, int(budget * headroom))
    return limits
