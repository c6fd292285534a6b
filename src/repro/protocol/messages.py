"""Protocol message kinds and bodies.

Two families, exactly as Section 2.2 describes: *management* messages
(join, split, neighbor-table maintenance, heartbeats) whose syntax the
middleware defines, and *application* messages (routed requests, queries,
publications) that must carry the geographical coordinate of their
destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Optional, Tuple, TypeVar

from repro.geometry import Point, Rect
from repro.core.node import NodeAddress
from repro.store.spatial import BucketKey, ObjectRecord
from repro.sub.records import SubRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.telemetry import VitalsDigest

_Body = TypeVar("_Body")

# ---------------------------------------------------------------------
# Management message kinds
# ---------------------------------------------------------------------
JOIN_REQUEST = "join_request"
JOIN_GRANT = "join_grant"
GRANT_DECLINE = "grant_decline"
NEIGHBOR_UPDATE = "neighbor_update"
HEARTBEAT = "heartbeat"
PERIMETER_PROBE = "perimeter_probe"
SYNC_STATE = "sync_state"
DEPART = "depart"
SECONDARY_RELEASED = "secondary_released"
SWITCH_REQUEST = "switch_request"
SWITCH_ACCEPT = "switch_accept"
SWITCH_REJECT = "switch_reject"
SHED = "shed"

# ---------------------------------------------------------------------
# Application message kinds
# ---------------------------------------------------------------------
ROUTE = "route"
ROUTE_DELIVERED = "route_delivered"
SHORTCUT_HOP = "shortcut_hop"
MISROUTE = "misroute"
QUERY = "query"
QUERY_FANOUT = "query_fanout"
QUERY_RESULT = "query_result"
PUBLISH = "publish"
REPLICATE = "replicate"

# ---------------------------------------------------------------------
# Reliable-exchange envelope kinds (the repro.protocol.reliable substrate)
# ---------------------------------------------------------------------
RELIABLE = "reliable"
RELIABLE_ACK = "reliable_ack"

# ---------------------------------------------------------------------
# Location-store message kinds (the repro.store data plane)
# ---------------------------------------------------------------------
STORE_UPDATE = "store_update"
STORE_REMOVE = "store_remove"
STORE_ACK = "store_ack"
STORE_LOOKUP = "store_lookup"
STORE_FANOUT = "store_fanout"
STORE_RESULT = "store_result"
STORE_SYNC = "store_sync"
STORE_PULL = "store_pull"
STORE_REPAIR = "store_repair"

# ---------------------------------------------------------------------
# Continuous-query message kinds (the repro.sub subscription plane)
# ---------------------------------------------------------------------
SUBSCRIBE = "subscribe"
SUB_FANOUT = "sub_fanout"
SUB_ACK = "sub_ack"
SUB_SYNC = "sub_sync"
NOTIFY = "notify"


def _copy_with(body: _Body, **changes: Any) -> _Body:
    """A copy of the frozen dataclass ``body`` with ``changes`` applied.

    Equivalent to ``dataclasses.replace(body, **changes)`` but roughly 3x
    cheaper: ``replace()`` re-runs the frozen ``__init__``, which pays an
    ``object.__setattr__`` per field, and a routed request is copied on
    every hop.
    """
    clone = object.__new__(type(body))
    clone.__dict__.update(body.__dict__)
    clone.__dict__.update(changes)
    return clone


class _Hopping:
    """A routed request body: it counts the greedy hops it took."""

    hops: int

    def forwarded(self: _Body) -> _Body:
        """Copy with the hop count bumped."""
        return _copy_with(self, hops=self.hops + 1)


class _FanningOut(_Hopping):
    """A routed body that fans out over the regions its rect touches."""

    served: Tuple[NodeAddress, ...]

    def marked_served(self: _Body, address: NodeAddress) -> _Body:
        """Copy with ``address`` appended to the served set."""
        return _copy_with(self, served=self.served + (address,))


@dataclass(frozen=True)
class NeighborInfo:
    """One neighbor-table entry: a region claim and its owner endpoints."""

    rect: Rect
    primary: NodeAddress
    secondary: Optional[NodeAddress] = None
    #: The claim's generation: a claim that replaces or overlaps another
    #: carries a higher stamp (DESIGN.md, "Ownership claims").
    stamp: int = 0

    def with_secondary(self, secondary: Optional[NodeAddress]) -> "NeighborInfo":
        """Copy with the secondary slot replaced."""
        return NeighborInfo(self.rect, self.primary, secondary, self.stamp)

    def outranks(self, other: "NeighborInfo") -> bool:
        """Whether this claim wins over ``other`` where the two overlap.

        The newer claim wins; between equal stamps (a double hole
        grant) the smaller primary address does.
        """
        if self.stamp != other.stamp:
            return self.stamp > other.stamp
        return self.primary < other.primary


@dataclass(frozen=True)
class RegionData:
    """Everything stored *in* a region, as one shippable value.

    A region's data follows its partition (Section 2.1-2.3): published
    geo-items, location-store records and continuous-query registrations
    all travel together on every split, secondary seed, merge-back,
    departure, ownership yield and primary switch.  Items are an
    append-only log; records merge last-writer-wins on arrival (see
    :meth:`repro.protocol.region.OwnedRegion.absorb`).
    """

    #: Published geo-items, in publication order.
    items: Tuple[Tuple[Point, Any], ...] = ()
    #: Location-store records.
    objects: Tuple[ObjectRecord, ...] = ()
    #: Continuous-query registrations.
    subscriptions: Tuple[SubRecord, ...] = ()

    def is_empty(self) -> bool:
        """Whether there is nothing to ship."""
        return not (self.items or self.objects or self.subscriptions)


@dataclass(frozen=True)
class JoinRequestBody(_Hopping):
    """A join request being routed toward the joiner's coordinate."""

    joiner: NodeAddress
    coord: Point
    capacity: float
    hops: int = 0
    #: The joiner's attempt counter; echoed in the grant so the joiner can
    #: recognize (and decline) grants from superseded retry attempts.
    nonce: int = 0


@dataclass(frozen=True)
class JoinGrantBody:
    """The covering owner's answer: here is your region (or slot)."""

    #: ``"primary"`` after a split, ``"secondary"`` when filling a slot.
    role: str
    rect: Rect
    #: The other owner of the region (the granter, usually).
    peer: Optional[NodeAddress]
    #: The granter's neighbor table, pre-filtered for the granted rect.
    neighbors: Tuple[NeighborInfo, ...]
    #: Echo of the join request's nonce.
    nonce: int = 0
    #: Region data riding the grant: a split hands the new half's data,
    #: a secondary grant seeds the replica.
    data: RegionData = RegionData()
    #: The granted claim's stamp (a secondary takes its primary's).
    stamp: int = 0


@dataclass(frozen=True)
class ReliableBody:
    """Envelope of one reliable exchange: the wrapped message plus a nonce.

    A split grant is the only copy of the handed half's records while in
    flight (likewise a departure handoff, a replication delta, or a
    merge-back retraction); the sender retransmits this envelope until a
    matching :class:`ReliableAckBody` arrives, so one dropped message
    cannot lose them.  The receiver acks every sighting and deduplicates
    on ``(source, nonce)`` before dispatching the inner message.
    """

    #: Sender-scoped exchange identifier matching envelope to ack.
    nonce: int
    #: Message kind of the wrapped payload.
    kind: str
    #: The wrapped payload body, dispatched as if it arrived raw.
    body: Any
    #: 1-based transmission counter (diagnostics only).
    attempt: int = 1


@dataclass(frozen=True)
class ReliableAckBody:
    """The receiver confirms a reliable envelope arrived."""

    nonce: int


@dataclass(frozen=True)
class GrantDeclineBody:
    """A joiner refuses a (duplicate) grant; the granter takes it back."""

    role: str
    rect: Rect
    #: The region data returned with the declined region.
    data: RegionData = RegionData()
    #: Echo of the declined grant's stamp.
    stamp: int = 0


@dataclass(frozen=True)
class NeighborUpdateBody:
    """Install/refresh (or retract) one neighbor-table entry."""

    info: NeighborInfo
    #: When set, the entry for ``removed_rect`` must be dropped (it was
    #: split, merged away, or its owners died).
    removed_rect: Optional[Rect] = None


@dataclass(frozen=True)
class HeartbeatBody:
    """I am alive and I own ``rect`` in role ``role``.

    Neighbor heartbeats also gossip the sender's neighbor table; receivers
    adopt entries adjacent to their own region that they are missing,
    which transitively heals tables torn by lost updates or failovers.
    """

    rect: Rect
    role: str
    secondary: Optional[NodeAddress] = None
    neighbors: Tuple["NeighborInfo", ...] = ()
    #: The sender's region load (served per time unit) and raw capacity --
    #: the "workload statistic information" nodes periodically exchange
    #: with their neighbors (Section 2.4).
    load: float = 0.0
    capacity: float = 0.0
    #: Holes the sender is currently caretaking.  A hole has no owner to
    #: heartbeat it into anyone's neighbor table, so this is the only
    #: channel telling the hole's other neighbors which live node serves
    #: that ground (receivers cache it as a routing shortcut).
    caretaken: Tuple[Rect, ...] = ()
    #: The sender's piggybacked telemetry digest (the in-band telemetry
    #: plane rides existing heartbeats -- no new round-trips).  ``None``
    #: on peer heartbeats, probe answers and confrontations; receivers
    #: fold it into their neighborhood health view.
    vitals: Optional["VitalsDigest"] = None
    #: Consecutive heartbeat ticks (including this one) on which the
    #: sender addressed *this* receiver.  Neighbor-set churn silently
    #: pauses a sender's heartbeats to a peer; without this attestation
    #: the resulting arrival gap is indistinguishable from in-flight
    #: loss, and the health view would blame a healthy node for it.
    #: ``0`` means the sender does not attest (an unstamped heartbeat).
    vitals_streak: int = 0
    #: The sender's ingress backpressure in [0, 1]: current queue depth
    #: over its capacity-scaled admission budget.  Rides next to the
    #: workload stats above so routing can deflect greedy forwarding
    #: around saturated neighbors without new message rounds.  ``0.0``
    #: when ``NodeConfig.overload_enabled`` is off.
    pressure: float = 0.0
    #: The sender's advert epoch: bumped whenever its advertised
    #: ``(rect, secondary, neighbors, caretaken)`` changes, so a receiver
    #: that already folded this epoch can skip re-deriving it.  ``0`` on
    #: unstamped beats (peer beats, confrontation probes, perimeter-probe
    #: replies), which receivers always fold in full.
    epoch: int = 0
    #: The stamp of the sender's claim on ``rect``.
    stamp: int = 0


def heartbeat_with_streak(beat: HeartbeatBody, streak: int) -> HeartbeatBody:
    """A copy of ``beat`` carrying ``vitals_streak=streak``.

    Equivalent to ``dataclasses.replace(beat, vitals_streak=streak)``
    but roughly 3x cheaper: the telemetry plane stamps one copy per
    neighbor per heartbeat tick, and ``replace()`` re-runs the frozen
    ``__init__``, which pays an ``object.__setattr__`` per field.
    """
    clone = object.__new__(HeartbeatBody)
    clone.__dict__.update(beat.__dict__)
    clone.__dict__["vitals_streak"] = streak
    return clone


@dataclass(frozen=True)
class ShedBody:
    """NACK for a request dropped by ingress admission control.

    An overloaded node sheds low-priority inbound traffic instead of
    queueing it unboundedly; when the shed request named its origin,
    this tells that origin *why* nothing came back -- a deliberate local
    decision, not loss -- and when to try again.  Reliable-wrapped
    payloads are shed silently instead: their sender's retry/backoff
    schedule already is the retry-after mechanism.
    """

    #: Wire kind of the shed request.
    kind: str
    #: The shed request's correlation id, echoed so the origin can close
    #: its pending-request entry.
    request_id: int
    #: Suggested back-off in sim-seconds, scaled by how far past its
    #: admission budget the shedder currently is.
    retry_after: float
    #: The shedder's ingress queue depth at the moment of the shed.
    depth: int = 0


@dataclass(frozen=True)
class PerimeterProbeBody:
    """A primary's self-repair probe for an uncovered perimeter stretch.

    Grants born inside an incomplete neighborhood (a caretaker filling a
    hole it only partly understands) can leave two adjacent primaries
    mutually blind -- neither heartbeats the other, so the usual
    heartbeat gossip never bridges the gap.  The probe is routed
    greedily toward ``point`` (just outside the prober's uncovered
    edge); whichever live node serves that ground installs the prober's
    claim and answers with a direct heartbeat, healing both tables.
    ``visited`` prevents forwarding loops; ``ttl`` bounds undeliverable
    probes.
    """

    #: The prober's own claim (rect + endpoints).
    info: NeighborInfo
    #: The coordinate being probed (just outside the prober's region).
    point: Point
    ttl: int = 16
    visited: Tuple[NodeAddress, ...] = ()

    def forwarded(self, via: NodeAddress) -> "PerimeterProbeBody":
        """Copy with ``via`` recorded and the ttl decremented."""
        return PerimeterProbeBody(
            info=self.info,
            point=self.point,
            ttl=self.ttl - 1,
            visited=self.visited + (via,),
        )


@dataclass(frozen=True)
class SyncStateBody:
    """Primary-to-secondary state synchronization."""

    rect: Rect
    neighbors: Tuple[NeighborInfo, ...]
    items: Tuple[Tuple[Point, Any], ...]
    #: The primary's claim stamp, which the secondary follows.
    stamp: int = 0


@dataclass(frozen=True)
class RouteBody(_Hopping):
    """A generic routed request addressed by coordinate."""

    origin: NodeAddress
    target: Point
    payload: Any
    request_id: int
    hops: int = 0


@dataclass(frozen=True)
class RouteDeliveredBody:
    """Acknowledgment from the executor back to the origin."""

    request_id: int
    executor: NodeAddress
    hops: int
    #: The executor's region rectangle; lets the origin learn a routing
    #: shortcut from the return path (``None`` from older senders).
    region: Optional[Rect] = None


@dataclass(frozen=True)
class ShortcutHopBody:
    """A routed request jumping over a learned long-range shortcut.

    The inner routed message (``kind`` + ``body``) is wrapped rather than
    sent raw so the receiver can tell a shortcut hop from a plain
    neighbor hop: a shortcut may land on a node whose region no longer
    matches ``claimed_rect``, and only the wrapped form carries enough
    context (``target``, ``sender_distance``) for the receiver to either
    keep routing -- any strict-progress hop preserves greedy termination
    -- or bounce a :class:`MisrouteBody` back to repair the sender's
    cache.
    """

    #: Message kind of the wrapped routed request.
    kind: str
    #: The wrapped request body (hop count already bumped by the sender).
    body: Any
    #: The coordinate the wrapped request is routed toward.
    target: Point
    #: The region rectangle the sender's cache entry claimed.
    claimed_rect: Rect
    #: The sender's own region-to-target distance at send time; the
    #: receiver must beat it strictly to keep the greedy bound.
    sender_distance: float


@dataclass(frozen=True)
class MisrouteBody:
    """NACK for a shortcut hop that landed on a non-covering node.

    Returns the wrapped request so the sender can immediately re-route it
    over the plain neighbor walk, plus the receiver's actual claim (and
    a covering suggestion from its neighbor table, when it has one) so
    the stale cache entry is repaired rather than merely evicted.
    """

    #: Message kind of the bounced routed request.
    kind: str
    #: The bounced request body, unchanged.
    body: Any
    #: The coordinate the bounced request was routed toward.
    target: Point
    #: The stale cache entry that caused the misroute.
    claimed_rect: Rect
    #: What the receiver actually owns right now (``None`` while it is
    #: itself between regions, e.g. mid-join).
    actual: Optional[NeighborInfo] = None
    #: A neighbor-table entry of the receiver covering ``target``.
    suggestion: Optional[NeighborInfo] = None


@dataclass(frozen=True)
class QueryBody(_FanningOut):
    """A location query: spatial rect + optional payload filter tag."""

    origin: NodeAddress
    rect: Rect
    request_id: int
    hops: int = 0
    #: Addresses that already served this query (fan-out dedup).
    served: Tuple[NodeAddress, ...] = ()


@dataclass(frozen=True)
class QueryResultBody:
    """One executor's partial answer to a location query."""

    request_id: int
    executor: NodeAddress
    region: Rect
    items: Tuple[Tuple[Point, Any], ...]
    hops: int


@dataclass(frozen=True)
class PublishBody(_Hopping):
    """A geo-tagged item to be stored at the covering region."""

    origin: NodeAddress
    point: Point
    item: Any
    hops: int = 0
    #: Origin-scoped event identifier; subscription NOTIFY dedup keys on
    #: it (``None`` from senders predating the subscription plane).
    event_id: Optional[int] = None


@dataclass(frozen=True)
class ReplicateBody:
    """Synchronous primary-to-secondary replication of one change (§2.3).

    The secondary folds ``data`` in with
    :meth:`repro.protocol.region.OwnedRegion.absorb` (items append, records
    merge last-writer-wins), then applies the versioned store evictions
    in ``removed``.  Subscriptions have no removal: leases expire by
    sweep on both roles independently.
    """

    data: RegionData = RegionData()
    #: Versioned store evictions, as ``(object id, version)`` pairs.
    removed: Tuple[Tuple[Hashable, int], ...] = ()


@dataclass(frozen=True)
class RegionStateBody:
    """A region's full transferable state (primary-switch handoff)."""

    rect: Rect
    #: The region's secondary owner, if any (stays with the region).
    peer: Optional[NodeAddress]
    neighbors: Tuple[NeighborInfo, ...]
    #: The region data moving with the region.
    data: RegionData = RegionData()
    #: The shipped claim's stamp; the installer claims it one higher.
    stamp: int = 0
    #: The region's load (served per time unit over the last stat window)
    #: and its served count in the open window: the load moves with it.
    load_rate: float = 0.0
    served: int = 0


@dataclass(frozen=True)
class SwitchRequestBody:
    """Mechanism (b) over messages: an overloaded primary proposes to
    switch positions with a stronger, cooler neighbor primary."""

    #: The initiator's region state, ready to install on acceptance; its
    #: ``load_rate`` is the load the target re-checks the pair with.
    state: RegionStateBody
    initiator_capacity: float


@dataclass(frozen=True)
class SwitchAcceptBody:
    """The counterpart's region state; receiving it completes the swap."""

    state: RegionStateBody
    #: Echo of the claim the request shipped (rect and stamp): an accept
    #: reaching an initiator that has since moved on installs nothing.
    replaced: Rect
    replaced_stamp: int


@dataclass(frozen=True)
class SwitchRejectBody:
    """The proposal was declined (no better pair, a swap or a cooldown)."""

    reason: str


@dataclass(frozen=True)
class SecondaryReleasedBody:
    """A primary tells a node it no longer holds the secondary slot.

    Sent when an evicted (or superseded) secondary keeps heartbeating; the
    receiver abandons its stale role and rejoins the network from scratch,
    healing primary/secondary disagreement."""

    rect: Rect


@dataclass(frozen=True)
class DepartBody:
    """The sender leaves ``rect`` and hands over the data it held there.

    Sent by a departing owner to its peer (which takes over the region)
    and by the loser of an ownership conflict to the winner (which
    adopts the data and rehomes whatever its ground does not cover).
    """

    rect: Rect
    data: RegionData = RegionData()


# ---------------------------------------------------------------------
# Location-store bodies
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class StoreUpdateBody(_Hopping):
    """A moving object's position report, routed to the covering region.

    ``prev_point`` is where the reporter last placed the object; when the
    update lands in a different region, the executor routes a versioned
    :class:`StoreRemoveBody` toward it to evict the stale copy.
    """

    origin: NodeAddress
    record: ObjectRecord
    request_id: int
    prev_point: Optional[Point] = None
    hops: int = 0


@dataclass(frozen=True)
class StoreRemoveBody(_Hopping):
    """Versioned eviction of a stale copy, routed toward its old position.

    Only copies at or below ``version`` are removed, so an eviction that
    loses a race with a newer update (the object moved back) is a no-op.
    """

    object_id: Hashable
    point: Point
    version: int
    hops: int = 0


@dataclass(frozen=True)
class StoreAckBody:
    """The executor's acknowledgment of a stored update."""

    request_id: int
    executor: NodeAddress
    hops: int
    #: The executor's region rectangle; lets the origin learn a routing
    #: shortcut from the return path (``None`` from older senders).
    region: Optional[Rect] = None


@dataclass(frozen=True)
class StoreLookupBody(_FanningOut):
    """A range lookup over stored objects; fans out like a query."""

    origin: NodeAddress
    rect: Rect
    request_id: int
    hops: int = 0
    #: Addresses that already served this lookup (fan-out dedup).
    served: Tuple[NodeAddress, ...] = ()


@dataclass(frozen=True)
class StoreResultBody:
    """One region's partial answer to a store range lookup."""

    request_id: int
    executor: NodeAddress
    region: Rect
    records: Tuple[ObjectRecord, ...]
    hops: int
    #: Whether a secondary replica served this (primary unreachable).
    from_replica: bool = False


@dataclass(frozen=True)
class StoreSyncBody:
    """Primary's per-bucket store digest, sent on the sync timer.

    The secondary diffs this against its replica and pulls divergent
    buckets -- the bounded anti-entropy pass that repairs lossy handover.
    """

    rect: Rect
    digest: Tuple[Tuple[BucketKey, int], ...]


@dataclass(frozen=True)
class StorePullBody:
    """Secondary asks its primary for the content of divergent buckets."""

    rect: Rect
    keys: Tuple[BucketKey, ...]


@dataclass(frozen=True)
class StoreRepairBody:
    """Authoritative bucket contents answering a pull.

    The receiving replica replaces each named bucket's content
    wholesale (still last-writer-wins per record).
    """

    rect: Rect
    buckets: Tuple[Tuple[BucketKey, Tuple[ObjectRecord, ...]], ...]


# ---------------------------------------------------------------------
# Continuous-query bodies (the repro.sub subscription plane)
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class SubscribeBody(_FanningOut):
    """A continuous-query registration, routed to the covering region.

    Routes greedily to the center of the watched rectangle, then fans
    out (:data:`SUB_FANOUT`) to every region the rectangle touches,
    exactly like a range query -- a subscription must be registered at
    *every* primary that can execute a matching event.
    """

    origin: NodeAddress
    record: SubRecord
    request_id: int
    hops: int = 0
    #: Addresses that already registered this subscription (fan-out dedup).
    served: Tuple[NodeAddress, ...] = ()


@dataclass(frozen=True)
class SubAckBody:
    """One covering primary's acknowledgment of a registration."""

    request_id: int
    executor: NodeAddress
    hops: int
    #: The executor's region rectangle; lets the origin learn a routing
    #: shortcut from the return path.
    region: Optional[Rect] = None


@dataclass(frozen=True)
class SubSyncBody:
    """Registrations touching the receiver's region, sent on the sync timer.

    The subscription plane's anti-entropy: each primary periodically
    ships its neighbors every live registration touching their rect.
    Receivers merge last-writer-wins, which heals registrations lost to
    a dropped fan-out, a merge-back, or a caretaker transition within
    one sync interval.
    """

    rect: Rect
    records: Tuple[SubRecord, ...]


@dataclass(frozen=True)
class NotifyBody:
    """A matched event pushed back to the subscriber (at-least-once).

    Delivery rides the reliable channel, so retransmits and multi-region
    matches can duplicate; the subscriber deduplicates on
    ``(sub_id, event_key)``.
    """

    sub_id: str
    subscriber: NodeAddress
    #: Deduplication key identifying the matched event: store updates
    #: key on ``("store", object_id, version)``, publishes on
    #: ``("pub", origin, event_id)``.
    event_key: Tuple[Any, ...]
    point: Point
    payload: Any
    #: Executor-side match time (subscriber clocks notify latency off it).
    matched_at: float
    executor: NodeAddress
