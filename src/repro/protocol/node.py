"""One GeoGrid node as asynchronous message handlers.

Each :class:`ProtocolNode` owns at most one region (as primary or
secondary), a *local* neighbor table, and a store of geo-tagged items.
All decisions -- routing, splitting, failover -- use only local state plus
received messages; nothing consults a global view, which is the point of
running the protocol on the simulated network.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import zlib
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import (
    Any, Callable, Container, Dict, Iterable, List, NamedTuple, Optional, Set,
    Tuple,
)

from repro.errors import BootstrapError, MembershipError
from repro.geometry import Point, Rect
from repro.geometry.rect import perimeter_gap
from repro.bootstrap import BootstrapServer, HostCache
from repro.core.node import Node, NodeAddress
from repro.loadbalance.config import AdaptationConfig
from repro.loadbalance.mechanisms import switch_partner
from repro.loadbalance.trigger import TriggerRule
from repro import obs
from repro.obs import causal
from repro.obs.health import HealthScorer, NeighborHealthView
from repro.obs.registry import Histogram
from repro.obs.telemetry import EVENT_SAMPLE, VitalsFrame
from repro.sim.scheduler import EventScheduler, Periodic
from repro.sim.transport import Message, SimNetwork
from repro.store.spatial import GridIndex, ObjectRecord, touches
from repro.sub import SubRecord
from repro.protocol import messages as m
from repro.protocol import overload
from repro.protocol.failure import (
    CHECK_INTERVAL,
    FAILURE_HORIZON,
    HEARTBEAT_INTERVAL,
    PEER_HEARTBEAT_INTERVAL,
    FailureSweep,
)
from repro.protocol.region import OwnedRegion, note_handover, written_since
from repro.protocol.reliable import ReliableChannel, RetryPolicy
from repro.protocol.shortcuts import ShortcutCache

#: Application callback for routed payloads arriving at the executor node.
DeliverCallback = Callable[[Point, Any], None]

#: Routed-request kinds whose per-hop forwarding rides the reliable
#: channel.  A store update is the object's only position report -- a
#: dropped hop silently loses it until the next report -- and a
#: subscription registration is the only copy of its lease while being
#: routed -- whereas plain routes, publishes and queries are either
#: retried by the application or repaired by anti-entropy, so hop-by-hop
#: acks would only buy them message overhead.
RELIABLE_ROUTED_KINDS = frozenset({m.STORE_UPDATE, m.SUBSCRIBE})

#: Cap on outstanding client operations tracked for SLO latency; older
#: entries (lost requests that never completed) fall off the LRU.
SLO_PENDING_LIMIT = 1024

#: Primary-to-secondary full state sync period.
SYNC_INTERVAL = 10.0
#: Window over which served requests are counted into ``load_rate``.
STAT_INTERVAL = 10.0
#: Period of a primary's switch check when adaptation is enabled.
ADAPTATION_INTERVAL = 15.0
#: The model's adaptation settings: the primary switch uses their trigger,
#: pair margin and cooldown, so both layers follow one rule.
ADAPTATION = AdaptationConfig()
SWITCH_TRIGGER = TriggerRule(ADAPTATION.trigger_ratio, ADAPTATION.min_index)
#: A node installed by a switch takes part in no other for this long: the
#: model's ``cooldown_rounds`` plus the round it adapted in.
SWITCH_COOLDOWN = (ADAPTATION.cooldown_rounds + 1) * ADAPTATION_INTERVAL
#: Period of a subscriber's lease re-assertion
#: (:meth:`ProtocolNode._sub_renewals`).
SUB_RENEW_INTERVAL = 30.0
#: A joiner that has not been granted a region after this long retries
#: through a fresh entry node (join messages are best-effort like
#: everything else and can be lost).
JOIN_RETRY_INTERVAL = 10.0
#: Seeded fractional jitter on :data:`JOIN_RETRY_INTERVAL` (each retry
#: waits ``interval * (1 +- jitter)``), so orphaned joiners desynchronize.
JOIN_RETRY_JITTER = 0.25
#: How many divergent store buckets one anti-entropy round may pull.
#: Bounds the repair traffic after a lossy handover; remaining
#: divergence drains over subsequent sync intervals.
STORE_REPAIR_MAX_BUCKETS = 8
#: Hop budget of one perimeter probe.
PERIMETER_PROBE_TTL = 16
#: Default lease length of a subscription issued without an explicit
#: duration.
SUB_LEASE_DURATION = 120.0
#: Fractional per-(sub, holder) hashed jitter added to lease expiry
#: before a sweep drops the registration.  Derived from a CRC, not
#: ``rng``, so sweeps stay byte-reproducible and replicas of one
#: subscription drain within a bounded, deterministic spread.
SUB_LEASE_JITTER = 0.1
#: Join grants keep their historical cadence: fixed heartbeat-spaced
#: resends, three after the first send.  A split grant is the only copy
#: of the handed half's store records while in flight, so one dropped
#: grant would lose them for good.
JOIN_GRANT_POLICY = RetryPolicy(
    timeout=HEARTBEAT_INTERVAL, max_attempts=4, backoff=1.0, jitter=0.25
)

_request_ids = itertools.count(1)


class _FoldMemo(NamedTuple):
    """What the last full fold of one sender's stamped heartbeat did.

    Valid while ``key`` -- the sender's advert epoch, rect and secondary,
    the receiver's view epoch and its owned rect/role/peer -- still
    matches; a hit replays the fold's durable effects instead of
    re-deriving them (see :meth:`ProtocolNode._on_heartbeat`).
    """

    key: Tuple[Any, ...]
    #: Claims the fold stamped into the witness ledger, in order.
    witnessed: Tuple[m.NeighborInfo, ...]
    #: Far claims the fold left in the shortcut cache, in gossip order,
    #: each with its ``allow_adjacent`` flag (caretaken holes).
    learned: Tuple[Tuple[m.NeighborInfo, bool], ...]
    #: The sender's own claim as that beat stated it; later beats with
    #: the same rect, secondary and stamp reuse it instead of a new one.
    sender: m.NeighborInfo


class _Routed(NamedTuple):
    """One routed kind's row of the executor rule.

    Holds only what differs between kinds; the rule itself is
    :meth:`ProtocolNode._execute`.
    """

    #: The coordinate the request body is routed toward.
    target: Callable[[Any], Point]
    #: The executor's answer: the target's owner, or a caretaker.
    serve: Callable[[Any], None]
    #: The dead end's best-effort answer (no neighbor strictly closer to
    #: the target); ``None`` means the same as ``serve``.
    border: Optional[Callable[[Any], None]] = None
    #: A caretaker's answer for the covering hole, when not ``serve``.
    hole: Optional[Callable[[Any, Rect], None]] = None
    #: A secondary covering the target answers from its replica instead
    #: of relaying to its primary.
    replica: Optional[Callable[[Any], None]] = None


def reset_request_ids() -> None:
    """Rewind the process-wide request-id counter back to 1.

    See :func:`repro.core.query.reset_query_ids`: the test harness calls
    this before each test so lookup/store request ids do not depend on
    how many tests ran earlier in the session.
    """
    global _request_ids
    _request_ids = itertools.count(1)


@dataclass(frozen=True)
class NodeConfig:
    """The protocol settings a deployment or a scenario turns."""

    #: Whether joins fill empty secondary slots (dual peer) or always split.
    dual_peer: bool = True
    #: Whether the distributed load adaptation (message-level mechanism
    #: (b): switch primary owners) runs; the paper-scale adaptation study
    #: uses the overlay model, so this is opt-in.
    adaptation_enabled: bool = False
    #: Whether the overload control plane runs: capacity-scaled ingress
    #: admission with priority classes (control > acks > data > queries
    #: > gossip), SHED NACKs with retry-after hints, backpressure
    #: piggybacked on neighbor heartbeats, pressure-aware deflection in
    #: greedy forwarding, and escalation from sustained shedding to the
    #: paper's adaptation mechanisms.  Off, admission never runs, every
    #: heartbeat carries ``pressure=0.0``, and seeded runs are
    #: byte-identical to a build without the plane.
    overload_enabled: bool = False


class ProtocolNode(FailureSweep):
    """A GeoGrid middleware instance on one simulated host."""

    def __init__(
        self,
        node: Node,
        network: SimNetwork,
        scheduler: EventScheduler,
        bootstrap: BootstrapServer,
        rng: random.Random,
        config: Optional[NodeConfig] = None,
        on_deliver: Optional[DeliverCallback] = None,
        bounds: Optional[Rect] = None,
    ) -> None:
        self.node = node
        #: This node's endpoint address (``node.address``, fixed for life).
        self.address: NodeAddress = node.address
        self.network = network
        self.scheduler = scheduler
        self.bootstrap = bootstrap
        self.rng = rng
        self.config = config if config is not None else NodeConfig()
        self.on_deliver = on_deliver
        self.host_cache = HostCache()
        #: The service-area bounds, when known (deployments hand every
        #: node the world rect; hand-built unit fixtures may not).
        #: Perimeter self-repair needs it to tell a real coverage gap
        #: from the world edge and stays off without it.
        self.bounds = bounds

        self.alive = False
        self.joined = False
        self.owned: Optional[OwnedRegion] = None
        self.neighbor_table: Dict[Rect, m.NeighborInfo] = {}
        #: Learned long-range routing entries for non-neighbor regions.
        self.shortcuts = ShortcutCache()
        #: Routed requests whose first hop -- ours, or one our secondary
        #: relayed to us -- took a shortcut and whose delivery ack has not
        #: reached us: request id -> (rect, sent at).
        self._shortcut_unacked: Dict[int, Tuple[Rect, float]] = {}
        #: The entry node the in-flight join attempt went through; struck
        #: in the host cache when the attempt times out.
        self._join_entry: Optional[NodeAddress] = None
        #: Rects whose owners are all believed dead, each with the stamp
        #: of the dead claim; this node answers for them best-effort until
        #: a join fills the hole or a newer claim covers it.
        self.caretaker_rects: Dict[Rect, int] = {}
        self.last_seen: Dict[NodeAddress, float] = {}
        self.suspected: Set[NodeAddress] = set()
        #: Bumped by every change to ``neighbor_table``, ``suspected`` and
        #: ``caretaker_rects`` -- all mutations go through the
        #: ``_table_*`` / ``_suspect`` / hole helpers.  A heartbeat fold
        #: memo is valid only while this view is unchanged.
        self._view_epoch = 0
        #: Sender side of the fold memo: the epoch of this node's current
        #: advert ``(rect, secondary, stamp, gossip, caretaken)``, bumped
        #: whenever the advert differs from the last one sent and stamped
        #: on every neighbor heartbeat (``HeartbeatBody.epoch``).
        self.table_epoch = 0
        self._advert: Optional[Tuple[Any, ...]] = None
        #: The last peer heartbeat body, keyed by (rect, role, stamp).
        self._peer_beat: Optional[Tuple[Tuple[Any, ...], m.HeartbeatBody]] = None
        #: Receiver side: per sender, the last full fold of its stamped
        #: heartbeat (see :meth:`_on_heartbeat`).
        self._fold_memos: Dict[NodeAddress, _FoldMemo] = {}
        #: Recent heartbeat-borne ownership claims (rect -> (info, heard
        #: at)), direct and gossiped alike.  Split-brain owners of one
        #: region can have disjoint neighbor sets, so no single neighbor
        #: table ever holds both claims; this cache lets any bystander
        #: notice the conflict and trigger a confrontation.
        self._claims_heard: Dict[Rect, Tuple[m.NeighborInfo, float]] = {}
        #: A lower bound on the ledger's stamps (``inf`` when empty): the
        #: failure sweep rebuilds the ledger only once this falls out of
        #: the horizon.  Set on insert; re-stamps only raise stamps.
        self._claims_oldest = math.inf
        #: Conflicting claim pairs already pointed at each other, with the
        #: time of the last notification (rate limit for the witness).
        self._claims_confronted: Dict[
            Tuple[Rect, NodeAddress, NodeAddress], float
        ] = {}
        #: Secondary's replicated view of the primary's neighbor table.
        self._replicated_neighbors: Tuple[m.NeighborInfo, ...] = ()
        #: Whether this node, as primary, ever shipped a non-empty store
        #: digest.  Once set, empty digests keep flowing too, so a
        #: replica of since-rehomed content converges instead of
        #: diverging silently forever.
        self._store_announced = False
        #: Damping state of perimeter self-repair: the last uncovered
        #: stretch seen ((edge, lo, hi) signature) and for how many
        #: consecutive heartbeat ticks.  A gap must persist two ticks
        #: before it is probed -- transient blindness (an update still in
        #: flight, a neighbor mid-split) heals itself without traffic.
        self._perimeter_gap: Optional[Tuple[str, float, float]] = None
        self._perimeter_gap_ticks = 0
        #: ``(_view_epoch, owned rect)`` at which the neighbor table and
        #: caretaken holes alone last covered the whole perimeter; while
        #: it holds, :meth:`_find_perimeter_gap` skips its scan.
        self._perimeter_covered: Optional[Tuple[int, Rect]] = None

        self.delivered: List[m.RouteDeliveredBody] = []
        self.query_results: Dict[int, List[m.QueryResultBody]] = {}
        #: Per served query or store lookup, the region it was answered
        #: for: a node answers again only after a switch moved it to
        #: another region, whose owner may have answered as its old one.
        self._served_queries: Dict[int, Rect] = {}
        #: Acknowledged store updates issued from this node.
        self.store_acks: Dict[int, m.StoreAckBody] = {}
        #: Misplaced store records and subscriptions re-routed home,
        #: awaiting the executor's ack before the local copy may be
        #: dropped (request_id -> (routed kind, key, version)).
        self._rehome_pending: Dict[int, Tuple[str, Any, int]] = {}
        #: Store lookup answers, one entry per answering region.
        self.store_results: Dict[int, List[m.StoreResultBody]] = {}
        self._served_store_lookups: Dict[int, Rect] = {}
        #: Acknowledged subscription registrations issued from this node.
        self.sub_acks: Dict[int, m.SubAckBody] = {}
        #: Registration requests this node already served (fan-out dedup).
        self._served_subs: Set[int] = set()
        #: Notifications received by this node as a subscriber, in
        #: arrival order after dedup.
        self.notifications: List[m.NotifyBody] = []
        #: Receive-side notification dedup: at-least-once delivery plus
        #: multi-region matches can push the same event more than once.
        self._notify_seen: Set[Tuple[str, Tuple[Any, ...]]] = set()
        #: Sequence counter behind locally issued subscription ids.
        self._sub_seq = itertools.count(1)
        #: Live subscriptions this node originated, by sub id -- the
        #: subscriber-side source of truth behind periodic lease
        #: re-assertion (see :meth:`_sub_renewals`).
        self._my_subs: Dict[str, SubRecord] = {}
        #: When each of :attr:`_my_subs` was last (re-)asserted.
        self._my_sub_asserted: Dict[str, float] = {}
        self._timers: List[Any] = []

        #: Requests served in the current statistics window.
        self._window_served = 0
        #: Served-per-time-unit rate measured over the last full window.
        #: Both belong to the owned region: a switch ships them with it.
        self.load_rate = 0.0
        #: Latest workload statistics gossiped by neighbor primaries:
        #: rect -> (load, capacity).
        self.neighbor_stats: Dict[Rect, Tuple[float, float]] = {}
        #: When each :attr:`neighbor_stats` entry was last refreshed by a
        #: heartbeat.  Entries whose heartbeats stop are expired by the
        #: failure sweep (a crashed neighbor's last-reported load must
        #: not pin switch and deflection decisions forever).
        self._neighbor_stats_at: Dict[Rect, float] = {}
        #: A lower bound on :attr:`_neighbor_stats_at`, as of the failure
        #: sweep's last stats pass (``now`` then, if empty): later writes
        #: stamp ``now``, so while it is inside the horizon none expire.
        self._stats_oldest = -math.inf
        #: ``(_view_epoch, owned.peer)`` at the sweep's last neighbor pass
        #: and the smallest ``last_seen`` of the table primaries then; see
        #: :meth:`_check_failures`.
        self._sweep_key: Optional[Tuple[int, Optional[NodeAddress]]] = None
        self._sweep_oldest = -math.inf
        #: The failure sweep's timer, which sleeps through idle ticks.
        self._sweep_timer: Optional[Periodic] = None
        #: Latest ingress backpressure advertised by neighbor primaries
        #: (rect -> pressure in [0, 1]); only written when the overload
        #: plane is on.  Routing deflects around entries at or above
        #: ``overload.DEFLECT_THRESHOLD``.
        self.neighbor_pressure: Dict[Rect, float] = {}
        #: Set while a primary switch we take part in is in flight: the
        #: initiator's until the accept, the target's until the initiator
        #: can have installed (both at most :data:`ADAPTATION_INTERVAL`).
        self._switch_pending = False
        #: Until when a switch this node installed keeps it out of the
        #: next one (:data:`SWITCH_COOLDOWN`).
        self._switch_quiet_until = -math.inf
        #: The region data shipped with the pending switch request; what
        #: is written after it is replayed once the switch completes.
        self._switch_capture: Optional[m.RegionData] = None
        #: Completed primary switches this node took part in.
        self.switches_completed = 0

        #: Set between a reliable departure handoff and its confirmation:
        #: the node is no longer alive but its endpoint lingers so the
        #: peer's ack (or the retry budget) can finish the handoff.
        self._draining = False
        #: The reliable request/ack channel critical exchanges ride:
        #: grants on :data:`JOIN_GRANT_POLICY`, everything else on the
        #: exponential-backoff default policy.
        self.reliable = ReliableChannel(
            address=self.address,
            network=network,
            scheduler=scheduler,
            rng=rng,
            policies={m.JOIN_GRANT: JOIN_GRANT_POLICY},
            is_alive=lambda: self.alive or self._draining,
        )

        #: Whether the overload control plane runs (checked at every
        #: touched site; off, admission never sheds, heartbeats carry
        #: ``pressure=0.0``, and no SHED message is ever sent).
        self._overload = self.config.overload_enabled
        #: Capacity-scaled ingress budget and the per-kind admission
        #: depth cut-offs derived from it (see repro.protocol.overload).
        self._overload_budget = overload.admission_budget(self.node.capacity)
        self._admit_limits = overload.admission_limits(self._overload_budget)
        #: Messages shed by ingress admission (total and by wire kind).
        self.sheds = 0
        self.shed_by_kind: Dict[str, int] = {}
        #: Sheds in the current statistics window / consecutive windows
        #: that shed -- the escalation signal (see _roll_stat_window).
        self._shed_window = 0
        self._shed_streak = 0
        #: SHED NACKs received, by shed wire kind, plus a bounded log of
        #: the most recent notices (kind, retry_after, depth).
        self.shed_received: Dict[str, int] = {}
        self.shed_notices: List[Tuple[str, float, int]] = []
        #: Forwarding decisions deflected around a saturated neighbor.
        self.deflections = 0
        self.vitals = VitalsFrame()
        self.health = NeighborHealthView(
            expected_interval=HEARTBEAT_INTERVAL,
            owner=self.address,
            scorer=HealthScorer(
                seed=zlib.crc32(str(self.address).encode("utf-8"))
            ),
        )
        #: Divergent-bucket count from the last anti-entropy diff this
        #: node ran as secondary (0 = replica converged).
        self._anti_entropy_debt = 0
        #: Per-destination consecutive heartbeat-tick send streaks, the
        #: attestation stamped on outgoing heartbeats (see
        #: ``HeartbeatBody.vitals_streak``).
        self._hb_streak: Dict[NodeAddress, int] = {}
        #: Outstanding client operations: request_id -> (SLO name,
        #: started at).  A plain insertion-ordered dict doubles as the
        #: bounded FIFO (evict via ``next(iter(...))``): cheaper per
        #: operation than an OrderedDict on this client-edge hot path.
        self._slo_pending: Dict[int, Tuple[str, float]] = {}
        #: Client-edge SLO reservoir histograms, keyed by SLO name.
        self._slo: Dict[str, Histogram] = {}
        self.reliable.on_retry_observed = self._note_retry
        self.reliable.on_dead_letter_observed = self._note_dead_letter
        self.reliable.on_ack_observed = self._note_ack_latency

        self._join_attempt = 0
        #: The routed kinds (Section 2.2): each is served by the region
        #: covering its target, through the one rule in :meth:`_execute`.
        self._routed: Dict[str, _Routed] = {
            m.JOIN_REQUEST: _Routed(
                attrgetter("coord"), self._admit_joiner, hole=self._grant_hole
            ),
            m.ROUTE: _Routed(
                attrgetter("target"), self._serve_route, border=self._ack_route
            ),
            m.PUBLISH: _Routed(
                attrgetter("point"), self._serve_publish, border=self._keep_item
            ),
            m.QUERY: _Routed(attrgetter("rect.center"), self._serve_query),
            m.SUBSCRIBE: _Routed(
                attrgetter("record.rect.center"), self._serve_subscribe
            ),
            m.STORE_UPDATE: _Routed(
                attrgetter("record.point"), self._store_accept_update
            ),
            m.STORE_REMOVE: _Routed(
                attrgetter("point"), self._serve_store_remove,
                border=self._evict,
            ),
            m.STORE_LOOKUP: _Routed(
                attrgetter("rect.center"), self._serve_store_lookup,
                replica=partial(self._serve_store_lookup, from_replica=True),
            ),
        }
        self._handlers = dict.fromkeys(self._routed, self._on_routed)
        self._handlers.update({
            m.JOIN_GRANT: self._on_join_grant,
            m.GRANT_DECLINE: self._on_grant_decline,
            m.NEIGHBOR_UPDATE: self._on_neighbor_update,
            m.HEARTBEAT: self._on_heartbeat,
            m.SYNC_STATE: self._on_sync_state,
            m.DEPART: self._on_depart,
            m.SECONDARY_RELEASED: self._on_secondary_released,
            m.SWITCH_REQUEST: self._on_switch_request,
            m.SWITCH_ACCEPT: self._on_switch_accept,
            m.SWITCH_REJECT: self._clear_pending_switch,
            m.ROUTE_DELIVERED: self._on_answer,
            m.QUERY_FANOUT: self._on_query_fanout,
            m.QUERY_RESULT: self._on_answer,
            m.REPLICATE: self._on_replicate,
            m.STORE_ACK: self._on_answer,
            m.STORE_FANOUT: self._on_store_fanout,
            m.STORE_RESULT: self._on_answer,
            m.STORE_SYNC: self._on_store_sync,
            m.STORE_PULL: self._on_store_pull,
            m.STORE_REPAIR: self._on_store_repair,
            m.SHORTCUT_HOP: self._on_shortcut_hop,
            m.MISROUTE: self._on_misroute,
            m.RELIABLE: self._on_reliable,
            m.RELIABLE_ACK: self._on_reliable_ack,
            m.PERIMETER_PROBE: self._on_perimeter_probe,
            m.SUB_FANOUT: self._on_sub_fanout,
            m.SUB_ACK: self._on_answer,
            m.SUB_SYNC: self._on_sub_sync,
            m.NOTIFY: self._on_notify,
            m.SHED: self._on_shed,
        })

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def is_primary(self) -> bool:
        """Whether this node currently serves a region as primary."""
        return self.owned is not None and self.owned.role == "primary"

    def is_secondary(self) -> bool:
        """Whether this node currently backs a region as secondary."""
        return self.owned is not None and self.owned.role == "secondary"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_as_first(self, bounds: Rect) -> None:
        """Bootstrap the network: this node owns the whole plane."""
        self._attach()
        self.bounds = bounds
        self.owned = OwnedRegion(rect=bounds, role="primary", peer=None)
        self.joined = True
        self._start_timers()

    def start_join(self, entry: Optional[NodeAddress] = None) -> None:
        """Begin the three-step join of Section 2.1.

        The coordinate comes from the node itself (step 1); the entry node
        comes from the host cache or the bootstrap server (step 2); the
        join request is then routed like a query (step 3).
        """
        if not self.alive:
            self._attach()
        if entry is None:
            entry = self.host_cache.pick_entry(self.rng)
        if entry is None:
            entries = self.bootstrap.sample_entries(
                self.rng, exclude=self.address
            )
            self.host_cache.remember_all(entries)
            entry = self.rng.choice(entries)
        self._join_entry = entry
        self._join_attempt += 1
        body = m.JoinRequestBody(
            joiner=self.address, coord=self.node.coord,
            capacity=self.node.capacity, nonce=self._join_attempt,
        )
        # The whole join -- request, retries, and the eventual grant -- is
        # one causal trace rooted here (a retry is a *child* of the span
        # that armed it, so the trace shows attempt lineage).
        ctx = causal.operation(
            "join_start",
            joiner=str(self.address),
            coord=str(self.node.coord),
            attempt=self._join_attempt,
            entry=str(entry),
        )
        with causal.using(ctx):
            self.network.send(self.address, entry, m.JOIN_REQUEST, body)
            self.scheduler.after(
                self._jittered_join_delay(), self._retry_join
            )

    def _jittered_join_delay(self) -> float:
        """The next join-retry delay, with seeded anti-herd jitter.

        Joiners orphaned together (a healed partition, a regional outage)
        would otherwise all retry exactly :data:`JOIN_RETRY_INTERVAL`
        apart forever, stampeding the bootstrap and the entry nodes in
        lockstep waves; each node's seeded rng desynchronizes them.
        """
        return JOIN_RETRY_INTERVAL * (
            1.0 + self.rng.uniform(-JOIN_RETRY_JITTER, JOIN_RETRY_JITTER)
        )

    def _retry_join(self) -> None:
        """Re-issue the join through a fresh entry if still unjoined."""
        if not self.alive or self.joined:
            return
        if self._join_entry is not None:
            # The attempt through that entry produced nothing within the
            # retry interval; strike it so a dead cached address stops
            # being re-picked forever.
            if self.host_cache.penalize(self._join_entry):
                obs.inc("bootstrap.hostcache.evicted")
            self._join_entry = None
        try:
            self.start_join()
        except BootstrapError:
            # The bootstrap registry emptied out from under us; try again
            # later rather than giving up.
            self.scheduler.after(
                self._jittered_join_delay(), self._retry_join
            )

    def depart(self) -> None:
        """Graceful departure with state handoff.

        The handoff message is the only copy of this primary's items and
        store records once we stop serving, so it rides the reliable
        channel: the node drops into a *draining* state -- dead to the
        protocol, timers cancelled, struck from the bootstrap -- but its
        endpoint lingers until the peer's ack (or the retry budget)
        confirms the handoff, and only then leaves the network for good.
        """
        if not self.alive:
            raise MembershipError(f"node {self.node.node_id} is not running")
        handoff: Optional[Tuple[NodeAddress, m.DepartBody]] = None
        if self.owned is not None and self.owned.peer is not None:
            data = self.owned.snapshot()
            note_handover("depart", self.address, self.owned.peer, data)
            handoff = (
                self.owned.peer,
                m.DepartBody(rect=self.owned.rect, data=data),
            )
        if handoff is None:
            self._detach(graceful=True)
            return
        peer, body = handoff
        self._begin_drain()
        self.reliable.send(
            peer, m.DEPART, body,
            on_ack=self._finish_drain, on_give_up=self._finish_drain,
        )

    def _begin_drain(self) -> None:
        """Stop being a protocol participant; keep the endpoint for acks."""
        self._draining = True
        self.alive = False
        self.joined = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.bootstrap.deregister(self.address)

    def _finish_drain(self) -> None:
        """The handoff concluded (acked or given up): leave the network."""
        if not self._draining:
            return
        self._draining = False
        self.reliable.cancel_all()
        self.network.deregister(self.address)

    def crash(self) -> None:
        """Abrupt failure: no goodbye messages, peers must detect it."""
        if not self.alive:
            raise MembershipError(f"node {self.node.node_id} is not running")
        self._detach(graceful=False)

    def _attach(self) -> None:
        self._draining = False
        self.network.register(self.address, self.node.coord, self._receive)
        self.network.set_send_frame(self.address, self.vitals)
        self.bootstrap.register(self.address)
        self.alive = True

    def _detach(self, graceful: bool) -> None:
        self.alive = False
        self.joined = False
        # A revived node must not claim it was heartbeating through its
        # outage: streaks restart so receivers re-baseline the gap.
        self._hb_streak.clear()
        self.network.clear_send_frame(self.address)
        self.reliable.cancel_all()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if graceful:
            self.network.deregister(self.address)
            self.bootstrap.deregister(self.address)
        else:
            self.network.crash(self.address)

    def _start_timers(self) -> None:
        # (interval, callback, jitter); only jittered timers draw on rng.
        timers = [
            (HEARTBEAT_INTERVAL, self._send_neighbor_heartbeats,
             HEARTBEAT_INTERVAL * 0.1),
            (PEER_HEARTBEAT_INTERVAL, self._send_peer_heartbeat,
             PEER_HEARTBEAT_INTERVAL * 0.1),
            (SYNC_INTERVAL, self._send_sync, 0.0),
            (CHECK_INTERVAL, self._check_failures, 0.0),
            (STAT_INTERVAL, self._roll_stat_window, 0.0),
        ]
        if self.config.adaptation_enabled:
            timers.append((
                ADAPTATION_INTERVAL, self._consider_switch,
                ADAPTATION_INTERVAL * 0.2,
            ))
        for interval, callback, jitter in timers:
            timer = self.scheduler.every(interval, callback, jitter=jitter, rng=self.rng)
            self._timers.append(timer)
            if callback == self._check_failures:
                self._sweep_timer = timer

    # ------------------------------------------------------------------
    # Workload statistics (Section 2.4: periodic stat exchange)
    # ------------------------------------------------------------------
    def _roll_stat_window(self) -> None:
        if not self.alive:
            return
        self.load_rate = self._window_served / STAT_INTERVAL
        self._window_served = 0
        if self._overload:
            # Escalation: shedding buys time, adaptation fixes the
            # cause.  A primary that shed in ``overload.ESCALATE_WINDOWS``
            # consecutive stat windows is persistently over budget --
            # bring the switch check forward.  It re-applies all its
            # guards, so it can only propose what the timer's would.
            if self._shed_window:
                self._shed_streak += 1
                if (
                    self.config.adaptation_enabled
                    and self._shed_streak >= overload.ESCALATE_WINDOWS
                ):
                    obs.inc("overload.escalated")
                    causal.annotate(
                        "overload_escalated",
                        node=str(self.address),
                        sheds=self._shed_window,
                        streak=self._shed_streak,
                    )
                    self._shed_streak = 0
                    self._consider_switch()
            else:
                self._shed_streak = 0
            self._shed_window = 0

    # ------------------------------------------------------------------
    # Telemetry plane (vitals, health, SLO latency)
    # ------------------------------------------------------------------
    def _note_retry(self, destination: NodeAddress, kind: str) -> None:
        """Reliable-channel observer: a retransmit toward ``destination``."""
        self.vitals.on_retry()
        if kind == m.NOTIFY:
            self.vitals.on_notify_retry()
        self.health.note_retry(destination, self.scheduler.now)

    def _note_dead_letter(self, destination: NodeAddress, kind: str) -> None:
        """Reliable-channel observer: an exchange was abandoned."""
        self.vitals.on_dead_letter()
        if kind == m.NOTIFY:
            self.vitals.on_notify_dead_letter()
        self.health.note_dead_letter(destination, self.scheduler.now)

    def _note_ack_latency(self, destination: NodeAddress, rtt: float) -> None:
        """Reliable-channel observer: a confirmed exchange's round-trip."""
        # Inlined EWMA for the common case (entry already tracked): this
        # fires on every confirmed reliable exchange, and the full
        # note_ack() path costs two extra calls.
        health = self.health
        entry = health.peers.get(destination)
        if entry is None:
            health.note_ack(destination, rtt, self.scheduler.now)
        elif entry.ack_ewma == 0.0:
            entry.ack_ewma = rtt
        else:
            entry.ack_ewma += health.gap_alpha * (rtt - entry.ack_ewma)

    def _slo_start(self, request_id: int, name: str) -> None:
        """Mark the client-edge start of operation ``request_id``."""
        self._slo_pending[request_id] = (name, self.scheduler.now)
        while len(self._slo_pending) > SLO_PENDING_LIMIT:
            del self._slo_pending[next(iter(self._slo_pending))]

    def _slo_finish(self, request_id: int) -> None:
        """Record the SLO latency of a completing operation.

        Only the *first* completion counts (a fanned-out lookup answers
        once per region; the SLO is time-to-first-answer).  Unknown ids
        -- completions of operations issued elsewhere, or pushed off the
        pending LRU -- are ignored.
        """
        entry = self._slo_pending.pop(request_id, None)
        if entry is None:
            return
        name, started = entry
        self._slo_observe(name, self.scheduler.now - started)

    def _slo_observe(self, name: str, elapsed: float) -> None:
        """Fold one latency sample into the named SLO histogram."""
        histogram = self._slo.get(name)
        if histogram is None:
            histogram = Histogram(name, reservoir=512)
            self._slo[name] = histogram
        histogram.observe(elapsed)
        obs.observe(name, elapsed)

    def slo_histograms(self) -> Dict[str, Histogram]:
        """This node's client-edge SLO histograms (may be empty)."""
        return dict(self._slo)

    def health_flags(self) -> List[NodeAddress]:
        """Peers this node's health view currently calls gray.

        Filters peers the classic failure detector already suspects: a
        suspected peer is (believed) *dead*, which is the opposite
        diagnosis of gray (alive but quietly degraded), and routing
        already avoids it.
        """
        if not self.alive:
            return []
        return [
            address
            for address in self.health.flags(self.scheduler.now)
            if address not in self.suspected
        ]

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def send_to_point(self, target: Point, payload: Any) -> int:
        """Route ``payload`` to the node owning ``target``.

        Returns the request id; the acknowledgment lands in
        :attr:`delivered` when it comes back.
        """
        request_id = next(_request_ids)
        self._slo_start(request_id, "slo.route.completion")
        body = m.RouteBody(
            origin=self.address, target=target, payload=payload,
            request_id=request_id,
        )
        self._issue(
            m.ROUTE, body, "route_request",
            target=str(target), request_id=request_id,
        )
        return request_id

    def publish(self, point: Point, item: Any) -> None:
        """Store a geo-tagged item at the region covering ``point``."""
        body = m.PublishBody(
            origin=self.address, point=point, item=item,
            event_id=next(_request_ids),
        )
        self._issue(m.PUBLISH, body, "publish", point=str(point))

    def query_rect(self, rect: Rect) -> int:
        """Issue a location query over ``rect``.

        Results accumulate under the returned request id in
        :attr:`query_results`, one entry per answering region.
        """
        request_id = next(_request_ids)
        body = m.QueryBody(origin=self.address, rect=rect, request_id=request_id)
        self._issue(
            m.QUERY, body, "query_rect", rect=str(rect), request_id=request_id
        )
        return request_id

    def store_update(
        self,
        object_id: Any,
        point: Point,
        payload: Any = None,
        version: int = 0,
        prev_point: Optional[Point] = None,
    ) -> int:
        """Report a moving object's position into the location store.

        The update routes greedily to the region covering ``point``; the
        executor stores it, replicates it to the dual-peer secondary, and
        acknowledges (the ack lands in :attr:`store_acks`).  Pass the
        previously reported position as ``prev_point`` so the stale copy
        is evicted when the object crossed a region boundary.  Returns
        the request id.
        """
        request_id = next(_request_ids)
        self._slo_start(request_id, "slo.store.update_commit")
        record = ObjectRecord(
            object_id=object_id, point=point, payload=payload, version=version
        )
        body = m.StoreUpdateBody(
            origin=self.address, record=record, request_id=request_id,
            prev_point=prev_point,
        )
        self._issue(
            m.STORE_UPDATE, body, "store_update",
            object_id=str(object_id), point=str(point), version=version,
            request_id=request_id,
        )
        return request_id

    def store_lookup(self, rect: Rect) -> int:
        """Issue a range lookup over the location store.

        Answers accumulate under the returned request id in
        :attr:`store_results`, one entry per answering region (primary or,
        when the primary is unreachable, its secondary replica).
        """
        request_id = next(_request_ids)
        self._slo_start(request_id, "slo.store.lookup")
        body = m.StoreLookupBody(
            origin=self.address, rect=rect, request_id=request_id
        )
        self._issue(
            m.STORE_LOOKUP, body, "store_lookup",
            rect=str(rect), request_id=request_id,
        )
        return request_id

    def subscribe(
        self,
        rect: Rect,
        duration: Optional[float] = None,
        sub_id: Optional[str] = None,
        version: int = 0,
    ) -> Tuple[int, str]:
        """Register a continuous query over ``rect``.

        The registration routes greedily to the rect's center and fans
        out to every touching region; each covering primary registers it
        (and replicates to its secondary) and pushes a NOTIFY back here
        for every matching store update or publish until the lease runs
        out.  Re-issue with the same ``sub_id`` and a higher ``version``
        to renew.  Acks land in :attr:`sub_acks` (one per covering
        region), notifications in :attr:`notifications`.  Returns
        ``(request_id, sub_id)``.
        """
        if duration is None:
            duration = SUB_LEASE_DURATION
        if sub_id is None:
            sub_id = f"{self.node.node_id}/{next(self._sub_seq)}"
        request_id = next(_request_ids)
        self._slo_start(request_id, "slo.sub.register")
        record = SubRecord(
            sub_id=sub_id,
            rect=rect,
            subscriber=self.address,
            registered_at=self.scheduler.now,
            duration=duration,
            version=version,
        )
        self._my_subs[sub_id] = record
        self._my_sub_asserted[sub_id] = self.scheduler.now
        body = m.SubscribeBody(
            origin=self.address, record=record, request_id=request_id
        )
        self._issue(
            m.SUBSCRIBE, body, "subscribe",
            rect=str(rect), sub_id=sub_id, request_id=request_id,
        )
        return request_id, sub_id

    def _issue(self, kind: str, body: Any, operation: str, **fields: Any) -> None:
        """Start a client operation here: a causal trace, then the rule."""
        ctx = causal.operation(operation, origin=str(self.address), **fields)
        with causal.using(ctx):
            self._execute(kind, body)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        if not self.alive:
            if self._draining and message.kind == m.RELIABLE_ACK:
                # The ack confirming our departure handoff (the one
                # message a draining endpoint still cares about).
                self._on_reliable_ack(message)
            return
        self.last_seen[message.source] = self.scheduler.now
        if message.source in self.suspected:
            self.suspected.discard(message.source)
            self._bump_view()
        if self._overload and not self._overload_admit(message):
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            return
        # Ingress accounting, inlining VitalsFrame.on_recv: this is the
        # hottest telemetry touchpoint (every delivered message), so the
        # common path is a bare countdown tick -- exact receive totals
        # are recovered from the countdown (see EVENT_SAMPLE), while
        # per-kind attribution, the accounting bookkeeping and the two
        # perf_counter handler-timing calls are all paid only on the
        # sampled 1-in-N dispatch.  Wall-clock values are display-only
        # (digests, dashboards); the protocol never branches on them, so
        # determinism of seeded runs is unaffected.
        vitals = self.vitals
        n = vitals.profile_countdown - 1
        if n:
            vitals.profile_countdown = n
            handler(message)
        else:
            vitals.profile_countdown = EVENT_SAMPLE
            vitals._recv_accounted += EVENT_SAMPLE
            kind = message.kind
            vitals.recv_by_kind[kind] += EVENT_SAMPLE
            started = time.perf_counter()
            try:
                handler(message)
            finally:
                vitals.on_handler(kind, time.perf_counter() - started)

    def _on_reliable(self, message: Message) -> None:
        """Receiver side of a reliable envelope: ack, dedup, dispatch."""
        self.reliable.on_receive(message, self._dispatch_reliable)

    def _dispatch_reliable(
        self, kind: str, body: Any, envelope: Message
    ) -> None:
        """Deliver an unwrapped reliable payload as if it arrived raw."""
        handler = self._handlers.get(kind)
        if handler is None:
            return
        handler(
            Message(
                source=envelope.source,
                destination=envelope.destination,
                kind=kind,
                body=body,
                sent_at=envelope.sent_at,
                msg_id=envelope.msg_id,
                span=envelope.span,
            )
        )

    def _on_reliable_ack(self, message: Message) -> None:
        body: m.ReliableAckBody = message.body
        self.reliable.on_ack(message.source, body.nonce)

    # ------------------------------------------------------------------
    # Ingress admission (overload control plane)
    # ------------------------------------------------------------------
    def _overload_admit(self, message: Message) -> bool:
        """Whether ``message`` clears the capacity-scaled ingress budget.

        Control traffic and reliability acks always pass (their cut-offs
        are simply absent from the limits map); sheddable classes are cut
        off when the node's current queue depth reaches their fraction of
        the budget -- gossip first, then queries, then data.  Envelopes
        are classed by their unwrapped payload, so a reliable-wrapped
        JOIN_GRANT is still control and a shortcut-hopped STORE_UPDATE
        is still data.  Deterministic: depends only on queue depth and
        kind, never on ``self.rng``.
        """
        kind, body = overload.unwrap(message.kind, message.body)
        limit = self._admit_limits.get(kind)
        if limit is None:
            return True
        depth = self.network.in_flight_to(self.address)
        if depth < limit:
            return True
        self._overload_shed(message, kind, body, depth)
        return False

    def _overload_shed(
        self, message: Message, kind: str, body: Any, depth: int
    ) -> None:
        """Account one shed and NACK the origin when it can be told.

        ``kind``/``body`` are the unwrapped payload (see
        :meth:`_overload_admit`).  Only raw requests naming an origin
        get a SHED NACK; wrapped payloads are shed silently -- not acking
        a reliable envelope leaves the sender's retry/backoff schedule in
        charge, which *is* their retry-after mechanism, and a shortcut
        hop or misroute bounce comes from a forwarder, not the origin.
        """
        self.sheds += 1
        self._shed_window += 1
        self.shed_by_kind[kind] = self.shed_by_kind.get(kind, 0) + 1
        obs.inc(f"overload.shed.{kind}")
        obs.inc("overload.shed")
        causal.annotate(
            "overload_shed", node=str(self.address), kind=kind, depth=depth
        )
        if kind != message.kind:
            return
        origin = getattr(body, "origin", None)
        request_id = getattr(body, "request_id", None)
        if (
            origin is None
            or not isinstance(request_id, int)
            or origin == self.address
        ):
            return
        retry_after = overload.RETRY_AFTER * (
            1.0 + depth / self._overload_budget
        )
        self.network.send(
            self.address,
            origin,
            m.SHED,
            m.ShedBody(
                kind=kind,
                request_id=request_id,
                retry_after=retry_after,
                depth=depth,
            ),
        )
        obs.inc("overload.shed.nack")

    def _on_shed(self, message: Message) -> None:
        """A peer refused our request at admission; close the books.

        The notice resolves the pending SLO entry (the client now has a
        definitive answer -- "try later" -- rather than a timeout), and
        the retry-after hint is surfaced to the application through
        :attr:`shed_notices`; this layer never re-issues requests on its
        own.
        """
        body: m.ShedBody = message.body
        self.shed_received[body.kind] = (
            self.shed_received.get(body.kind, 0) + 1
        )
        self.shed_notices.append((body.kind, body.retry_after, body.depth))
        if len(self.shed_notices) > 64:
            del self.shed_notices[0]
        obs.inc("overload.shed.received")
        entry = self._slo_pending.pop(body.request_id, None)
        if entry is not None:
            _, started = entry
            self._slo_observe(
                "slo.shed.notice", self.scheduler.now - started
            )

    # ------------------------------------------------------------------
    # Routing primitive
    # ------------------------------------------------------------------
    def _covers(self, rect: Rect, point: Point) -> bool:
        """Closed coverage test used by the protocol layer.

        Protocol nodes do not know the global bounds, so they cannot apply
        the overlay model's open-low-edge rule with border closing; closed
        coverage means a point exactly on a shared edge may be claimed by
        whichever owner sees the request first, which is harmless (the
        executor set for such measure-zero points is ambiguous anyway).
        """
        return rect.covers(point, closed_low_x=True, closed_low_y=True)

    def _owns_point(self, point: Point) -> bool:
        return (
            self.owned is not None
            and self.owned.role == "primary"
            and self._covers(self.owned.rect, point)
        )

    def _caretaker_for(self, point: Point) -> Optional[Rect]:
        for rect in self.caretaker_rects:
            if self._covers(rect, point):
                return rect
        return None

    def _live_endpoint(self, info: m.NeighborInfo) -> Optional[NodeAddress]:
        if info.primary not in self.suspected:
            return info.primary
        if info.secondary is not None and info.secondary not in self.suspected:
            return info.secondary
        return None

    # ------------------------------------------------------------------
    # The executor rule (Section 2.2)
    # ------------------------------------------------------------------
    def _on_routed(self, message: Message) -> None:
        self._execute(message.kind, message.body)

    def _execute(self, kind: str, body: Any) -> None:
        """Serve, relay or forward one routed request of ``kind``.

        Every routed kind follows the one rule; its row in
        :attr:`_routed` supplies only what differs.  A node without a
        region (mid-join, a released secondary, a yielded owner) drops
        the request: the origin's timeout is the signal.  A secondary
        relays to its primary -- a mobile user's entry point can be any
        node -- unless it covers the target and the kind reads from the
        replica.  The target's owner serves, a caretaker serves its
        orphaned hole, anyone else forwards one greedy hop; when no
        neighbor is strictly closer, this node is the dead end on a
        border it does not own and answers best-effort.
        """
        row = self._routed[kind]
        owned = self.owned
        if owned is None:
            return
        target = row.target(body)
        if owned.role == "secondary":
            if row.replica is not None and self._covers(owned.rect, target):
                row.replica(body)
            elif owned.peer is not None:
                self._send_hop(owned.peer, kind, body, inner_kind=kind)
            return
        if self._covers(owned.rect, target):
            row.serve(body)
            return
        hole = self._caretaker_for(target)
        if hole is not None:
            if row.hole is not None:
                row.hole(body, hole)
            else:
                row.serve(body)
        elif not self._route_forward(kind, body, target):
            (row.border or row.serve)(body)

    def _send_hop(
        self, destination: NodeAddress, kind: str, body: Any, inner_kind: str
    ) -> None:
        """One forwarding hop; reliable when the payload must not drop.

        ``inner_kind`` is the routed request actually being moved --
        ``kind`` itself for a plain hop, the wrapped kind for a
        SHORTCUT_HOP envelope or a MISROUTE bounce.
        """
        if inner_kind in RELIABLE_ROUTED_KINDS:
            self.reliable.send(destination, kind, body)
        else:
            self.network.send(self.address, destination, kind, body)

    # ------------------------------------------------------------------
    # Shortcut-aware forwarding
    # ------------------------------------------------------------------
    def _route_forward(self, kind: str, body: Any, target: Point) -> bool:
        """Forward a routed request one hop toward ``target``.

        Considers direct neighbors and cached shortcut entries under the
        same strict-progress rule (every hop must be strictly closer to
        the target than our own region, so greedy termination and the
        executor invariant are untouched).  A shortcut is taken only when
        it beats the best *neighbor* candidate, and travels wrapped in a
        :class:`~repro.protocol.messages.ShortcutHopBody` so a stale
        entry can be bounced back as a MISROUTE.

        Returns ``True`` when the message was sent; ``False`` means no
        candidate makes strict progress and the caller must answer
        locally (the existing executor/border semantics).
        """
        if self.owned is None:
            return False
        own_distance = self.owned.rect.distance_to_point(target)
        best_address: Optional[NodeAddress] = None
        best_distance = own_distance
        # Backpressure-aware deflection (overload plane): alongside the
        # pure-greedy best, track the best *calm* candidate -- strictly
        # closer than us, but advertising pressure below the saturation
        # threshold.  Same strict-progress rule, so greedy termination
        # holds whichever one we pick.
        deflect = self._overload
        calm_address: Optional[NodeAddress] = None
        calm_distance = own_distance
        threshold = overload.DEFLECT_THRESHOLD
        for info in self.neighbor_table.values():
            endpoint = self._live_endpoint(info)
            if endpoint is None or endpoint in (self.address, self.owned.peer):
                # A stale entry naming ourselves is never a hop, nor one
                # naming our secondary, which relays everything to us.
                continue
            distance = info.rect.distance_to_point(target)
            if distance < best_distance - 1e-12:
                best_distance = distance
                best_address = endpoint
            if (
                deflect
                and distance < calm_distance - 1e-12
                and self.neighbor_pressure.get(info.rect, 0.0) < threshold
            ):
                calm_distance = distance
                calm_address = endpoint
        shortcut = self.shortcuts.best(target, better_than=best_distance)
        if shortcut is not None:
            endpoint = self._live_endpoint(shortcut)
            if endpoint is not None and endpoint not in (
                self.address, self.owned.peer
            ):
                self.shortcuts.touch(shortcut.rect)
                self.shortcuts.hits += 1
                # Inlined VitalsFrame.on_shortcut(True): runs on
                # every shortcut routing decision.
                vitals = self.vitals
                vitals.shortcut_hits += 1
                vitals._win_shortcut_hits += 1
                obs.inc("routing.shortcut.hit")
                causal.annotate(
                    "shortcut_hop",
                    sender=str(self.address),
                    kind=kind,
                    rect=str(shortcut.rect),
                    endpoint=str(endpoint),
                )
                envelope = m.ShortcutHopBody(
                    kind=kind,
                    body=body.forwarded(),
                    target=target,
                    claimed_rect=shortcut.rect,
                    sender_distance=own_distance,
                )
                self._send_hop(
                    endpoint, m.SHORTCUT_HOP, envelope, inner_kind=kind
                )
                if kind == m.ROUTE and body.hops == 0:
                    # A departed or crashed endpoint drops the hop
                    # without a NACK, and no neighbor of ours reports
                    # a far node gone: only a missing delivery ack can
                    # tell us.  (The ack for a request our secondary
                    # relayed goes to it, so that entry is relearned.)
                    self._shortcut_unacked[body.request_id] = (
                        shortcut.rect, self.scheduler.now
                    )
                return True
        if best_address is None:
            return False
        if deflect and calm_address is not None and calm_address != best_address:
            # The greedy best is saturated but a calmer strictly-closer
            # neighbor exists: route around the hotspot.  (When the
            # greedy best is itself calm, calm == best -- both are the
            # minimum over the same candidate set -- so this fires only
            # when deflection actually changes the decision.)
            best_address = calm_address
            self.deflections += 1
            obs.inc("overload.deflect")
        self.shortcuts.misses += 1
        # Inlined VitalsFrame.on_shortcut(False).
        vitals = self.vitals
        vitals.shortcut_misses += 1
        vitals._win_shortcut_misses += 1
        obs.inc("routing.shortcut.miss")
        self._send_hop(best_address, kind, body.forwarded(), inner_kind=kind)
        return True

    def _on_shortcut_hop(self, message: Message) -> None:
        """Receiver side of a shortcut hop: serve, keep routing, or NACK.

        The wrapped request is dispatched locally when this node serves
        ``target`` (owner or caretaker) or still makes strict progress on
        the sender's distance -- any such hop preserves the greedy bound.
        Otherwise the sender's cache entry is stale *and* useless, so the
        request bounces back as a MISROUTE carrying our actual claim and
        a covering suggestion, repairing the sender's cache.
        """
        body: m.ShortcutHopBody = message.body
        if body.kind not in self._routed:
            return
        if self.owned is not None:
            serves = (
                self._owns_point(body.target)
                or self._caretaker_for(body.target) is not None
            )
            progress = (
                self.owned.rect.distance_to_point(body.target)
                < body.sender_distance - 1e-12
            )
            if serves or progress:
                self._execute(body.kind, body.body)
                return
        causal.annotate(
            "shortcut_misroute",
            receiver=str(self.address),
            kind=body.kind,
            claimed=str(body.claimed_rect),
        )
        actual: Optional[m.NeighborInfo] = None
        if self.owned is not None and (
            self.owned.role == "primary" or self.owned.peer is not None
        ):
            actual = self._my_info()
        suggestion: Optional[m.NeighborInfo] = None
        for info in self.neighbor_table.values():
            if self._covers(info.rect, body.target):
                suggestion = info
                break
        nack = m.MisrouteBody(
            kind=body.kind,
            body=body.body,
            target=body.target,
            claimed_rect=body.claimed_rect,
            actual=actual,
            suggestion=suggestion,
        )
        # A critical request already acked at this hop would be lost for
        # good if its bounce dropped, so the bounce is itself reliable.
        self._send_hop(message.source, m.MISROUTE, nack, inner_kind=body.kind)

    def _on_misroute(self, message: Message) -> None:
        """Sender side of the repair: fix the cache, re-route the request.

        The stale entry is dropped (each misroute evicts at least one
        cached rect, so repeated bounces are bounded by the cache size),
        the receiver's fresh claims are learned, and the bounced request
        re-enters the normal forwarding path -- which now falls back to
        the plain neighbor walk unless a *different* shortcut helps.
        """
        body: m.MisrouteBody = message.body
        self.shortcuts.repairs += 1
        obs.inc("routing.shortcut.repair")
        self.shortcuts.invalidate_rect(body.claimed_rect)
        if body.actual is not None:
            self._learn_shortcut(body.actual)
        if body.suggestion is not None:
            self._learn_shortcut(body.suggestion)
        causal.annotate(
            "shortcut_repaired",
            sender=str(self.address),
            kind=body.kind,
            claimed=str(body.claimed_rect),
        )
        if body.kind in self._routed:
            self._execute(body.kind, body.body)

    def _learn_shortcut(
        self, info: m.NeighborInfo, allow_adjacent: bool = False
    ) -> None:
        """Cache a remote region's claim gleaned from passing traffic.

        Entries for ourselves, our own region, or regions overlapping a
        neighbor-table rect are useless (neighbors are consulted directly);
        claims adjacent to our region belong in the neighbor table's
        repair machinery, not here.  ``allow_adjacent`` lifts that last
        rule for caretaken holes: a hole has no owner to heartbeat it
        into the neighbor table, so the caretaker's claim is cached even
        when the hole abuts our region (routing toward the hole must
        still find the live node serving it).
        """
        if self.owned is None:
            return
        if info.primary == self.address or info.secondary == self.address:
            return
        if info.primary in self.suspected:
            return
        own = self.owned.rect
        if info.rect == own or info.rect.intersects(own):
            return
        if info.rect.is_neighbor_of(own) and not allow_adjacent:
            # Adjacent regions are neighbor-table business; drop any
            # cached copy so the two tables never disagree.
            self.shortcuts.invalidate_rect(info.rect)
            return
        rect = info.rect
        for known in self.neighbor_table:
            # A claim overlapping a neighbor's ground is stale or the
            # neighbor's is; the first-hand table wins until it changes.
            if rect.intersects(known):
                return
        if self.shortcuts.learn(info):
            obs.inc("routing.shortcut.learned")

    # ------------------------------------------------------------------
    # Join handling
    # ------------------------------------------------------------------
    def _admit_joiner(self, body: m.JoinRequestBody) -> None:
        """Grant the joiner a slot or a half of our region.

        Also the dead end's answer: a coordinate on a border nobody is
        strictly closer to is admitted here rather than dropped.
        """
        assert self.owned is not None
        if self._switch_pending:
            # A region in a switch hand-off admits no joiner (the shipped
            # state misses a new secondary; a split's halves would tie
            # with the counterpart's install); the joiner retries.
            return
        if self.config.dual_peer and self.owned.peer is None:
            self._grant_secondary(body)
        else:
            self._grant_split(body)

    def _grant_secondary(self, body: m.JoinRequestBody) -> None:
        """Fill this region's empty secondary slot with the joiner."""
        assert self.owned is not None
        causal.annotate(
            "grant_secondary",
            granter=str(self.address),
            joiner=str(body.joiner),
            rect=str(self.owned.rect),
        )
        self._set_peer(body.joiner)
        # Start the liveness clock now: the joiner cannot heartbeat before
        # the grant completes its round trip.
        self.last_seen[body.joiner] = self.scheduler.now
        grant = m.JoinGrantBody(
            role="secondary",
            rect=self.owned.rect,
            peer=self.address,
            neighbors=tuple(self.neighbor_table.values()),
            nonce=body.nonce,
            data=self.owned.snapshot(),
            stamp=self.owned.stamp,
        )
        # A lost replica grant costs no data (we keep the records), but
        # the region would sit half-full until the peer timeout; the
        # reliable channel retransmits until the joiner confirms.
        self.reliable.send(body.joiner, m.JOIN_GRANT, grant)
        self._announce_self()

    def _grant_split(self, body: m.JoinRequestBody) -> None:
        """Split the owned region and hand the joiner one half."""
        assert self.owned is not None
        old_rect = self.owned.rect
        axis = old_rect.longer_axis()
        low, high = old_rect.split(axis)
        if self._covers(low, self.node.coord) and not self._covers(
            low, body.coord
        ):
            kept, handed = low, high
        elif self._covers(high, self.node.coord) and not self._covers(
            high, body.coord
        ):
            kept, handed = high, low
        elif self._covers(low, body.coord):
            kept, handed = high, low
        else:
            kept, handed = low, high
        causal.annotate(
            "grant_split",
            granter=str(self.address),
            joiner=str(body.joiner),
            kept=str(kept),
            rect=str(handed),
        )
        self.owned.rect = kept
        self.owned.stamp += 1
        handed_data = self.owned.hand_off(kept, handed)
        note_handover("split", self.address, body.joiner, handed_data)

        joiner_neighbors = [
            info for info in self.neighbor_table.values()
            if handed.is_neighbor_of(info.rect)
        ]
        joiner_neighbors.append(self._my_info())
        grant = m.JoinGrantBody(
            role="primary",
            rect=handed,
            peer=None,
            neighbors=tuple(joiner_neighbors),
            nonce=body.nonce,
            data=handed_data,
            stamp=self.owned.stamp,
        )
        # The grant carries the handed half's records and the network is
        # lossy: the reliable channel retransmits until the joiner
        # confirms receipt, else the records die with the one dropped
        # message.
        self.reliable.send(body.joiner, m.JOIN_GRANT, grant)

        joiner_info = m.NeighborInfo(
            rect=handed, primary=body.joiner, stamp=self.owned.stamp
        )
        stale = [
            rect for rect, info in self.neighbor_table.items()
            if not kept.is_neighbor_of(rect)
        ]
        recipients = {
            info.primary for info in self.neighbor_table.values()
        }
        for rect in stale:
            self._table_drop(rect)
        self._table_put(joiner_info)
        for recipient in sorted(recipients):
            self.network.send(
                self.address, recipient, m.NEIGHBOR_UPDATE,
                m.NeighborUpdateBody(info=self._my_info(), removed_rect=old_rect),
            )
            self.network.send(
                self.address, recipient, m.NEIGHBOR_UPDATE,
                m.NeighborUpdateBody(info=joiner_info),
            )
        self._send_sync()

    def _grant_hole(self, body: m.JoinRequestBody, hole: Rect) -> None:
        """Fill an orphaned region (all owners dead) with the joiner.

        The grant is a new claim on the hole, one stamp above every claim
        it replaces.  A hole that a newer claim already covers is not
        granted: it is released and the join routes on.
        """
        if self._outclaimed(hole, self.caretaker_rects[hole]):
            self._release_hole(hole)
            self._execute(m.JOIN_REQUEST, body)
            return
        stamp = self._next_stamp(hole)
        causal.annotate(
            "grant_hole",
            granter=str(self.address),
            joiner=str(body.joiner),
            rect=str(hole),
        )
        neighbors = [
            info for info in self.neighbor_table.values()
            if hole.is_neighbor_of(info.rect)
        ]
        if self.owned is not None and hole.is_neighbor_of(self.owned.rect):
            neighbors.append(self._my_info())
        grant = m.JoinGrantBody(
            role="primary", rect=hole, peer=None,
            neighbors=tuple(neighbors), nonce=body.nonce, stamp=stamp,
        )
        self.network.send(self.address, body.joiner, m.JOIN_GRANT, grant)
        self._release_hole(hole)
        joiner_info = m.NeighborInfo(
            rect=hole, primary=body.joiner, stamp=stamp
        )
        # Ownership of the hole just changed hands: any cached claim
        # overlapping it is stale, and the fresh owner is worth caching.
        self.shortcuts.invalidate_overlapping(hole)
        if self.owned is not None and hole.is_neighbor_of(self.owned.rect):
            self._table_put(joiner_info)
        else:
            self._learn_shortcut(joiner_info)
        self._broadcast_update(m.NeighborUpdateBody(info=joiner_info))

    def _on_join_grant(self, message: Message) -> None:
        body: m.JoinGrantBody = message.body
        # Receipt confirmation is the reliable channel's business now: a
        # grant shipped through it was already acked (and deduplicated)
        # before this handler ran, whatever we decide below.
        if self.joined:
            if (
                self.owned is not None
                and body.rect == self.owned.rect
                and body.role == self.owned.role
            ):
                # A granter that had not heard from us yet resent the
                # grant we already accepted: make ourselves heard rather
                # than declining the region back to it.
                if self.owned.role == "primary":
                    self._announce_self()
                return
            # We already hold a region (a slower grant from a retried
            # attempt arrived): hand this one straight back so no region
            # is orphaned.  Accepting whichever grant arrives first --
            # regardless of attempt -- avoids declining a perfectly good
            # region that merely lost a race with the retry timer.
            decline = m.GrantDeclineBody(
                role=body.role, rect=body.rect, data=body.data,
                stamp=body.stamp,
            )
            causal.annotate(
                "grant_declined",
                joiner=str(self.address),
                granter=str(message.source),
                rect=str(body.rect),
            )
            self.network.send(
                self.address, message.source, m.GRANT_DECLINE, decline
            )
            return
        causal.annotate(
            "grant_accepted",
            joiner=str(self.address),
            granter=str(message.source),
            role=body.role,
            rect=str(body.rect),
        )
        self.owned = OwnedRegion(
            rect=body.rect, role=body.role, peer=body.peer, stamp=body.stamp
        )
        self.owned.absorb(body.data)
        self._set_table(
            info for info in body.neighbors
            if body.rect.is_neighbor_of(info.rect)
        )
        self.host_cache.remember_all(
            info.primary for info in body.neighbors
        )
        if body.role == "secondary":
            # Until the first periodic sync arrives, the grant's neighbor
            # list is the replicated table a failover would activate.
            self._replicated_neighbors = body.neighbors
        self.joined = True
        self._start_timers()
        self._announce_self()

    # ------------------------------------------------------------------
    # Neighbor-table maintenance
    # ------------------------------------------------------------------
    # The routing view -- neighbor table, suspects, caretaken holes -- is
    # only changed through the helpers below, which bump ``_view_epoch``
    # on every real change (the heartbeat fold memos and the perimeter
    # coverage memo key on it, so a direct write would leave both stale)
    # and keep the shortcut cache disjoint from the table's rects.
    #
    # Ownership claims: every claim carries a generation stamp.  A split
    # stamps both halves one above the parent; a merge, hole grant,
    # failover or switch install stamps the new claim one above every
    # claim it replaces or overlaps.  Where two claims overlap, the one
    # that outranks the other (NeighborInfo.outranks: higher stamp, then
    # smaller address) is the live one, so the table never holds two
    # overlapping rects.
    def _table_put(self, info: m.NeighborInfo) -> Optional[m.NeighborInfo]:
        """Install ``info`` in the neighbor table (no-op when unchanged).

        A held claim overlapping ``info`` that outranks it refuses the
        install and is returned; the held claims ``info`` outranks are
        evicted.  A new or changed entry evicts every cached shortcut
        overlapping its rect: together with :meth:`_learn_shortcut`
        refusing such claims, the cache never holds a rect overlapping a
        table rect.
        """
        rect = info.rect
        table = self.neighbor_table
        old = table.get(rect)
        if old == info:
            return None
        beaten = []
        for held in table.values():
            if held.rect.intersects(rect):
                if held.outranks(info):
                    return held
                if held.rect != rect:
                    beaten.append(held.rect)
        for held_rect in beaten:
            del table[held_rect]
        table[rect] = info
        self._bump_view()
        self.shortcuts.invalidate_overlapping(rect)
        if old is None or old.primary != info.primary:
            # The failure sweep times a claim from its first sight: an
            # owner we have not had to hear from yet gets a full horizon.
            self.last_seen[info.primary] = self.scheduler.now
        return None

    def _bump_view(self) -> None:
        """Retire the memos keyed on the view and wake the failure sweep,
        whose neighbor pass keys on it too."""
        self._view_epoch += 1
        self._wake_sweep()

    def _table_drop(self, rect: Rect) -> None:
        """Remove the neighbor-table entry for ``rect``, if any."""
        if self.neighbor_table.pop(rect, None) is not None:
            self._bump_view()

    def _set_table(self, entries: Iterable[m.NeighborInfo]) -> None:
        """Replace the whole neighbor table with ``entries``."""
        self.neighbor_table = {}
        self._bump_view()
        for info in entries:
            self._table_put(info)

    def _suspect(self, address: NodeAddress) -> None:
        """Start suspecting ``address``: drop the shortcuts through it.

        Acts on the transition only; any message from ``address`` clears
        the suspicion again (see :meth:`_receive`).
        """
        if address in self.suspected:
            return
        self.suspected.add(address)
        self._bump_view()
        self._fold_memos.pop(address, None)
        self.shortcuts.invalidate_address(address)

    def _caretake(self, rect: Rect, stamp: int = 0) -> None:
        """Start serving the orphaned ``rect`` (claimed at ``stamp``)."""
        if rect not in self.caretaker_rects:
            self.caretaker_rects[rect] = stamp
            self._bump_view()

    def _release_hole(self, rect: Rect) -> None:
        """Stop caretaking ``rect`` (an owner has turned up)."""
        if self.caretaker_rects.pop(rect, None) is not None:
            self._bump_view()

    def _release_holes(self, info: m.NeighborInfo) -> None:
        """Stop caretaking the holes ``info`` claims.

        A claim covers a hole when it overlaps it with a higher stamp, or
        re-asserts the hole's own claim (its owner was only silent).
        """
        for hole, stamp in list(self.caretaker_rects.items()):
            if hole.intersects(info.rect) and (
                info.stamp > stamp or (info.stamp == stamp and hole == info.rect)
            ):
                self._release_hole(hole)

    def _outclaimed(self, rect: Rect, stamp: int) -> bool:
        """Whether a live claim newer than ``stamp`` overlaps ``rect``:
        our own, one in the table, or one heard recently."""
        now = self.scheduler.now
        known = [
            info for info, at in self._claims_heard.values()
            if now - at <= FAILURE_HORIZON and info.primary not in self.suspected
        ]
        known.extend(self.neighbor_table.values())
        if self.owned is not None:
            known.append(self._my_info())
        return any(
            info.stamp > stamp and info.rect.intersects(rect) for info in known
        )

    def _next_stamp(self, rect: Rect, *replaced: int) -> int:
        """The stamp of a new claim on ``rect``: one above every known
        claim it replaces (``replaced``) or overlaps."""
        claims = [(info.rect, info.stamp) for info in self.neighbor_table.values()]
        claims.extend(self.caretaker_rects.items())
        if self.owned is not None:
            claims.append((self.owned.rect, self.owned.stamp))
        return 1 + max(
            [*replaced, *(s for r, s in claims if r.intersects(rect))], default=0
        )

    def _my_info(self) -> m.NeighborInfo:
        assert self.owned is not None
        if self.owned.role == "primary":
            return m.NeighborInfo(
                rect=self.owned.rect,
                primary=self.address,
                secondary=self.owned.peer,
                stamp=self.owned.stamp,
            )
        assert self.owned.peer is not None
        return m.NeighborInfo(
            rect=self.owned.rect,
            primary=self.owned.peer,
            secondary=self.address,
            stamp=self.owned.stamp,
        )

    def _announce_self(self) -> None:
        self._broadcast_update(m.NeighborUpdateBody(info=self._my_info()))

    def _broadcast_update(
        self, update: m.NeighborUpdateBody, reliable: bool = False
    ) -> None:
        """Send ``update`` to every owner in the neighbor table."""
        recipients: Set[NodeAddress] = set()
        for info in self.neighbor_table.values():
            recipients.add(info.primary)
            if info.secondary is not None:
                recipients.add(info.secondary)
        recipients.discard(self.address)
        for recipient in sorted(recipients):
            if reliable:
                self.reliable.send(recipient, m.NEIGHBOR_UPDATE, update)
            else:
                self.network.send(
                    self.address, recipient, m.NEIGHBOR_UPDATE, update
                )

    def _resolve_ownership_conflict(
        self, info: m.NeighborInfo, direct: bool
    ) -> bool:
        """Handle a claim overlapping the region we serve as primary.

        The newer claim wins.  A claim with a lower stamp than ours is
        stale and ignored (first-hand, its sender is told our claim so it
        yields).  A claim with a higher stamp replaced ours -- a failover
        or hole grant while we were merely silent -- so we yield, unless
        it is the counterpart of our pending switch installing the region
        we shipped it (its accept is still in flight).

        Equal stamps mean a double assignment (two caretakers filled the
        same hole): the owner with the lexicographically smaller
        ``(ip, port)`` keeps the ground.  Then a node only abandons on
        *direct* evidence -- a heartbeat from the competing claimant
        itself -- never on relayed gossip; an indirect sighting provokes
        a probe heartbeat to the claimant, so the two confront each other
        directly and exactly one side yields.  Returns True when this
        node abandoned (the caller must stop processing the message).
        """
        owned = self.owned
        if (
            owned is None
            or owned.role != "primary"
            or info.primary == self.address
            or not info.rect.intersects(owned.rect)
        ):
            return False
        if info.stamp < owned.stamp:
            if direct:
                self._send_claim(info.primary)
            return False
        if info.stamp > owned.stamp:
            if (
                self._switch_pending
                and info.rect == owned.rect
                and info.stamp == owned.stamp + 1
            ):
                return False
        elif not direct or self.address < info.primary:
            # Either we keep the ground, or the evidence is second-hand:
            # confront the claimant directly so the loser (possibly us, on
            # its direct reply) can yield on first-hand evidence.
            self._send_claim(info.primary)
            return False
        # Hand over cleanly before yielding.  Complementary caretaker
        # grants can give the two claimants disjoint views of the same
        # region, so the winner may lack exactly the neighbor links we
        # hold: ship them over, and point our own neighbors at the winner
        # so they re-route there instead of timing us out and declaring
        # the region a hole all over again.
        causal.annotate(
            "ownership_yield",
            loser=str(self.address),
            winner=str(info.primary),
            rect=str(self.owned.rect),
            claimed=str(info.rect),
        )
        data = self.owned.snapshot()
        if not data.is_empty():
            # Ship our data to the winner before abandoning: it absorbs
            # last-writer-wins, so whichever copies are fresher survive
            # the conflict, and rehomes what its ground does not cover.
            note_handover("ownership_yield", self.address, info.primary, data)
            self.network.send(
                self.address, info.primary, m.DEPART,
                m.DepartBody(rect=self.owned.rect, data=data),
            )
        for neighbor in self.neighbor_table.values():
            if neighbor.primary == info.primary:
                continue
            self.network.send(
                self.address, info.primary, m.NEIGHBOR_UPDATE,
                m.NeighborUpdateBody(info=neighbor),
            )
        self._broadcast_update(m.NeighborUpdateBody(info=info))
        self._rejoin()
        return True

    def _send_claim(self, address: NodeAddress, gossip: bool = False) -> None:
        """Heartbeat our claim to ``address`` alone (first-hand evidence),
        with our table and caretaken holes when ``gossip``."""
        owned = self.owned
        beat = m.HeartbeatBody(
            rect=owned.rect, role="primary", secondary=owned.peer,
            load=self.load_rate, capacity=self.node.capacity,
            stamp=owned.stamp,
        )
        if gossip:
            beat = replace(
                beat, neighbors=tuple(self.neighbor_table.values()),
                caretaken=tuple(self.caretaker_rects),
            )
        self.network.send(self.address, address, m.HEARTBEAT, beat)

    def _rejoin(self) -> None:
        """Forget the region this node served and join from scratch."""
        self.owned = None
        self.joined = False
        self.caretaker_rects = {}
        self._set_table(())
        self._claims_heard = {}
        self._claims_oldest = math.inf
        self._claims_confronted = {}
        self._replicated_neighbors = ()
        self.shortcuts.clear()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.start_join()

    def _witness_claim(self, info: m.NeighborInfo) -> bool:
        """Arbitrate third-party ownership claims heard in heartbeats.

        The neighbor-table witness in ``_fold_advert`` only fires when
        one table holds both conflicting claims.  After a double
        hole-grant the two claimants can have *disjoint* neighbor sets
        (each caretaker handed its joiner a different side of the region),
        so the claims only ever co-occur in the gossip streams crossing
        some bystander.  That bystander remembers recent claims here and,
        when two live claims for the *same* rect at the *same* stamp name
        different primaries, sends each party the other's claim; the
        ensuing direct confrontation makes the deterministic loser yield
        on first-hand evidence.  Only such ties are arbitrated -- a double
        grant hands out the identical region at one stamp, while a newer
        claim already beats an older one wherever the two meet -- and a
        per-pair cooldown bounds the witness to one notification per
        heartbeat interval.  Returns whether the claim was stamped into
        the ledger.
        """
        if info.primary == self.address:
            return False
        now = self.scheduler.now
        # Claims older than the horizon are ignored here and expired by
        # the failure sweep (_check_failures), not scanned per claim.
        cached = self._claims_heard.get(info.rect)
        if (
            cached is not None
            and now - cached[1] <= FAILURE_HORIZON
            and cached[0].stamp == info.stamp
            and cached[0].primary != info.primary
            and cached[0].primary != self.address
            and cached[0].primary not in self.suspected
            and info.primary not in self.suspected
        ):
            other = cached[0]
            first, second = sorted((other.primary, info.primary))
            pair = (info.rect, first, second)
            last = self._claims_confronted.get(pair)
            if last is None or now - last >= HEARTBEAT_INTERVAL:
                self._claims_confronted = {
                    key: at
                    for key, at in self._claims_confronted.items()
                    if now - at <= FAILURE_HORIZON
                }
                self._claims_confronted[pair] = now
                causal.annotate(
                    "claim_confront",
                    witness=str(self.address),
                    rect=str(info.rect),
                    claimants=f"{first}/{second}",
                )
                self.network.send(
                    self.address, other.primary, m.NEIGHBOR_UPDATE,
                    m.NeighborUpdateBody(info=info),
                )
                self.network.send(
                    self.address, info.primary, m.NEIGHBOR_UPDATE,
                    m.NeighborUpdateBody(info=other),
                )
        self._claims_heard[info.rect] = (info, now)
        if now < self._claims_oldest:
            self._claims_oldest = now
        return True

    def _on_neighbor_update(self, message: Message) -> None:
        body: m.NeighborUpdateBody = message.body
        if body.removed_rect is not None:
            self._table_drop(body.removed_rect)
            # The retracted region was split, merged away, or orphaned:
            # any cached claim overlapping it is stale.
            self.shortcuts.invalidate_overlapping(body.removed_rect)
        if self.owned is None:
            return
        info = body.info
        self._release_holes(info)
        if self._resolve_ownership_conflict(info, direct=False):
            return
        if info.rect == self.owned.rect:
            return
        # An announced partition change invalidates overlapping cached
        # claims whether or not the new region is adjacent to us.
        self.shortcuts.invalidate_overlapping(info.rect)
        if not self.owned.rect.is_neighbor_of(info.rect):
            self._table_drop(info.rect)
        self._adopt(info)

    def _adopt(self, info: m.NeighborInfo) -> None:
        """Install a claim adjacent to our region, else offer it to the
        shortcut cache."""
        if self.owned.rect.is_neighbor_of(info.rect):
            self._table_put(info)
            self.host_cache.remember(info.primary)
        else:
            self._learn_shortcut(info)

    # ------------------------------------------------------------------
    # Heartbeats, sync, failure detection
    # ------------------------------------------------------------------
    def _send_neighbor_heartbeats(self) -> None:
        if not self.alive or self.owned is None or self.owned.role != "primary":
            return
        pressure = 0.0
        if self._overload:
            # Backpressure piggybacks on the heartbeat next to the
            # workload stats: current queue depth over the admission
            # budget, clamped to [0, 1].
            pressure = min(
                1.0,
                self.network.in_flight_to(self.address)
                / self._overload_budget,
            )
        # One roll per heartbeat tick: the digest version advances
        # monotonically and every neighbor receives the same frame.
        now = self.scheduler.now
        vitals = self.vitals.roll(
            now=now,
            store_size=len(self.owned.store),
            anti_entropy_debt=self._anti_entropy_debt,
            queue_depth=self.network.in_flight_to(self.address),
            suspects=self.health.suspects(now),
            sub_registered=len(self.owned.subs),
            pressure=pressure,
            sheds=self.sheds,
        )
        neighbors = tuple(self.neighbor_table.values())
        gossip = neighbors
        if self.suspected:
            # Relay only claims we believe live: a far node cannot tell a
            # suspected primary from a live one, and would cache it.
            gossip = tuple(
                info for info in neighbors
                if info.primary not in self.suspected
            )
        caretaken = tuple(self.caretaker_rects)
        advert = (
            self.owned.rect, self.owned.peer, self.owned.stamp, gossip, caretaken
        )
        if advert != self._advert:
            self._advert = advert
            self.table_epoch += 1
        beat = m.HeartbeatBody(
            rect=self.owned.rect, role="primary", secondary=self.owned.peer,
            neighbors=gossip,
            load=self.load_rate, capacity=self.node.capacity,
            caretaken=caretaken,
            vitals=vitals,
            pressure=pressure,
            epoch=self.table_epoch,
            stamp=self.owned.stamp,
        )
        # Attest per-destination send streaks: a destination dropped from
        # the neighbor set restarts at 1, telling its health view that the
        # silence was churn, not loss.
        streaks: Dict[NodeAddress, int] = {}
        for info in neighbors:
            dest = info.primary
            streaks[dest] = self._hb_streak.get(dest, 0) + 1
        self._hb_streak = streaks
        # Destinations that entered the neighbor set together carry the
        # same streak, so one stamped clone usually serves most of them.
        clones: Dict[int, m.HeartbeatBody] = {}
        for info in neighbors:
            streak = streaks[info.primary]
            body = clones.get(streak)
            if body is None:
                body = m.heartbeat_with_streak(beat, streak)
                clones[streak] = body
            self.network.send(self.address, info.primary, m.HEARTBEAT, body)
        self._probe_perimeter_gap()

    # ------------------------------------------------------------------
    # Perimeter self-repair
    # ------------------------------------------------------------------
    def _find_perimeter_gap(self) -> Optional[Tuple[str, float, float, Point]]:
        """The first uncovered stretch of this region's perimeter.

        Walks the four edges of the owned rect, subtracting the
        projections of every claim this node knows about (neighbor
        table, caretaken holes, cached shortcuts) and the world boundary.
        Returns ``(edge, lo, hi, probe_point)`` for the first remaining
        stretch, where ``probe_point`` lies just outside the gap's
        midpoint, or ``None`` when the perimeter is fully accounted for.

        Runs on every neighbor-heartbeat tick, so it first tries the
        table and holes alone: shortcuts only add cover, so when those
        already close the perimeter the answer is ``None`` whatever the
        cache holds, and stays so until ``_view_epoch`` or the rect
        changes (memoized in ``_perimeter_covered``).
        """
        assert self.owned is not None and self.bounds is not None
        rect = self.owned.rect
        key = (self._view_epoch, rect)
        if key == self._perimeter_covered:
            return None
        known = [info.rect for info in self.neighbor_table.values()]
        known.extend(self.caretaker_rects)
        if perimeter_gap(rect, self.bounds, known) is None:
            self._perimeter_covered = key
            return None
        known.extend(info.rect for info in self.shortcuts.entries())
        return perimeter_gap(rect, self.bounds, known)

    def _probe_perimeter_gap(self) -> None:
        """Probe an uncovered perimeter stretch that survived damping.

        Heals two adjacent primaries left mutually blind (gossip needs a
        third node adjacent to both): whoever serves the ground just
        outside the gap installs the prober and heartbeats it directly.
        """
        if (
            self.bounds is None
            or self.owned is None
            or self.owned.role != "primary"
        ):
            return
        gap = self._find_perimeter_gap()
        if gap is None:
            self._perimeter_gap = None
            self._perimeter_gap_ticks = 0
            return
        name, lo, hi, point = gap
        signature = (name, round(lo, 6), round(hi, 6))
        if signature != self._perimeter_gap:
            self._perimeter_gap = signature
            self._perimeter_gap_ticks = 1
            return
        self._perimeter_gap_ticks += 1
        if self._perimeter_gap_ticks < 2:
            return
        # Re-arm the damping counter so an unhealed gap is re-probed
        # every other tick, not every tick.
        self._perimeter_gap_ticks = 0
        obs.inc("protocol.perimeter.probe_sent")
        causal.annotate(
            "perimeter_probe",
            prober=str(self.address),
            rect=str(self.owned.rect),
            edge=name,
            point=str(point),
        )
        self._send_probe(point)

    def _send_probe(self, point: Point) -> None:
        """Route our claim toward ``point``; its live owner answers."""
        self._forward_probe(
            m.PerimeterProbeBody(
                info=self._my_info(),
                point=point,
                ttl=PERIMETER_PROBE_TTL,
                visited=(self.address,),
            )
        )

    def _forward_probe(self, body: m.PerimeterProbeBody) -> None:
        """Greedily forward a perimeter probe toward its target point.

        Unlike the routed-request path there is no strict-progress rule:
        a prober's table is sparse by construction (that is why it is
        probing), so the probe may have to move *away* before it can
        close in.  The ``visited`` list breaks the loops this allows and
        the ttl bounds undeliverable probes.
        """
        if body.ttl <= 0:
            obs.inc("protocol.perimeter.probe_expired")
            return
        best_address: Optional[NodeAddress] = None
        best_distance = math.inf
        candidates = list(self.neighbor_table.values())
        candidates.extend(self.shortcuts.entries())
        for info in candidates:
            endpoint = self._live_endpoint(info)
            if (
                endpoint is None
                or endpoint == self.address
                or endpoint in body.visited
            ):
                continue
            distance = info.rect.distance_to_point(body.point)
            if distance < best_distance - 1e-12:
                best_distance = distance
                best_address = endpoint
        if best_address is None:
            obs.inc("protocol.perimeter.probe_dead_end")
            return
        self.network.send(
            self.address, best_address, m.PERIMETER_PROBE, body
        )

    def _on_perimeter_probe(self, message: Message) -> None:
        """Serve (install + answer) or forward a perimeter probe."""
        body: m.PerimeterProbeBody = message.body
        if not self.alive or self.owned is None:
            return
        info = body.info
        if info.primary == self.address:
            return
        # A probe whose claim overlaps our own territory is a conflict,
        # not a neighbor to install; the usual confrontation machinery
        # (gossip-grade evidence) sorts out who yields.
        if self._resolve_ownership_conflict(info, direct=False):
            return
        serves = self.owned.role == "primary" and (
            self._owns_point(body.point)
            or self._caretaker_for(body.point) is not None
        )
        if not serves:
            self._forward_probe(body.forwarded(self.address))
            return
        obs.inc("protocol.perimeter.probe_served")
        causal.annotate(
            "perimeter_heal",
            server=str(self.address),
            prober=str(info.primary),
            rect=str(info.rect),
        )
        self._release_holes(info)
        self._adopt(info)
        # Answer with a direct heartbeat: first-hand evidence the prober
        # installs through the normal path, healing its side of the gap.
        self._send_claim(info.primary, gossip=True)

    def _send_peer_heartbeat(self) -> None:
        owned = self.owned
        if not self.alive or owned is None or owned.peer is None:
            return
        # The body is a function of (rect, role, stamp) alone: reuse it.
        key = (owned.rect, owned.role, owned.stamp)
        if self._peer_beat is None or self._peer_beat[0] != key:
            self._peer_beat = (key, m.HeartbeatBody(
                rect=owned.rect, role=owned.role, stamp=owned.stamp
            ))
        self.network.send(self.address, owned.peer, m.HEARTBEAT, self._peer_beat[1])

    def _on_heartbeat(self, message: Message) -> None:
        body: m.HeartbeatBody = message.body
        if body.role != "primary":
            # A peer heartbeat from someone who believes it is our
            # secondary; if we disagree (we evicted it, or replaced it),
            # tell it so it can rejoin instead of promoting stale state.
            # Only authoritative for the region we serve *right now*: a
            # primary that just switched regions still receives a few
            # beats addressed to the old region's primary, and releasing
            # that secondary would strip the old region (whose new
            # primary inherited it as peer) of its replica.
            if (
                self.owned is not None
                and self.owned.role == "primary"
                and body.rect == self.owned.rect
                and self.owned.peer != message.source
            ):
                self.network.send(
                    self.address,
                    message.source,
                    m.SECONDARY_RELEASED,
                    m.SecondaryReleasedBody(rect=body.rect),
                )
            return
        # Fold the piggybacked vitals digest (absent on probe answers and
        # confrontations) before any early return below: health evidence
        # is observational and must not depend on how the ownership
        # claims shake out.
        if body.vitals is not None:
            self.health.observe(
                message.source,
                body.vitals,
                self.scheduler.now,
                streak=body.vitals_streak or None,
            )
        # A heartbeat is authoritative: the sender serves that region right
        # now.  Refresh the entry -- and *re-install* it if the region is
        # adjacent to ours, which self-heals tables after lost updates and
        # wrongly declared holes (e.g. a failover announcement that raced
        # our failure detector).
        source = message.source
        memo = self._fold_memos.get(source)
        sender_info = memo.sender if memo is not None else None
        if (
            sender_info is None
            or sender_info.rect is not body.rect
            or sender_info.secondary != body.secondary
            or sender_info.stamp != body.stamp
        ):
            sender_info = m.NeighborInfo(
                rect=body.rect, primary=source, secondary=body.secondary,
                stamp=body.stamp,
            )
        if self.caretaker_rects:
            self._release_holes(sender_info)
        # A newer claim on our own region from an address we did not
        # expect means the primary switched under us (mechanism (b) moved
        # ownership); adopt the new primary.
        if (
            self.owned is not None
            and self.owned.role == "secondary"
            and body.rect == self.owned.rect
            and body.stamp > self.owned.stamp
        ):
            self._set_peer(message.source)
            self.owned.stamp = body.stamp
        # A primary heartbeat is first-hand: its rect is the sender's own
        # territory right now, so an overlap with ours is a real conflict.
        if self._resolve_ownership_conflict(sender_info, direct=True):
            return
        owned = self.owned
        if owned is not None and body.rect != owned.rect:
            self.neighbor_stats[body.rect] = (body.load, body.capacity)
            self._neighbor_stats_at[body.rect] = self.scheduler.now
            if self._overload:
                self.neighbor_pressure[body.rect] = body.pressure
        if owned is None or not body.epoch:
            # Unstamped beats (probes, confrontations, perimeter replies)
            # always fold in full.
            self._fold_advert(body, sender_info)
            return
        # The rest is a function of the sender's advert and our own view:
        # when neither moved since the last fold of this sender's beats,
        # replay that fold's durable effects instead of re-deriving them.
        memo = self._fold_memos.get(source)
        if (
            memo is not None
            and memo.key == self._fold_key(body, owned)
            and self._replay_fold(memo)
        ):
            return
        sent = self.network.stats.sent
        witnessed, offered = self._fold_advert(body, sender_info)
        if self.network.stats.sent != sent:
            # A fold that confronted or probed must repeat on every beat.
            self._fold_memos.pop(source, None)
            return
        cached = self.shortcuts.get
        self._fold_memos[source] = _FoldMemo(
            key=self._fold_key(body, owned),
            witnessed=tuple(witnessed),
            learned=tuple(
                entry for entry in offered if cached(entry[0].rect) == entry[0]
            ),
            sender=sender_info,
        )

    def _fold_key(
        self, body: m.HeartbeatBody, owned: OwnedRegion
    ) -> Tuple[Any, ...]:
        return (
            body.epoch, body.rect, body.secondary, self._view_epoch,
            owned.rect, owned.role, owned.peer,
        )

    def _replay_fold(self, memo: _FoldMemo) -> bool:
        """Re-apply a memoized fold; False when it must run in full.

        Re-stamps the witnessed claims -- unless one of their rects is
        now claimed by another primary, which only a full fold may
        arbitrate -- and refreshes the far claims in the shortcut cache:
        touched while still cached unchanged, learned again otherwise.
        """
        heard = self._claims_heard
        for info in memo.witnessed:
            cached = heard.get(info.rect)
            if cached is not None and cached[0].primary != info.primary:
                return False
        now = self.scheduler.now
        for info in memo.witnessed:
            heard[info.rect] = (info, now)
        if memo.witnessed and now < self._claims_oldest:
            self._claims_oldest = now
        refresh = self.shortcuts.refresh
        for info, allow_adjacent in memo.learned:
            if not refresh(info):
                self._learn_shortcut(info, allow_adjacent=allow_adjacent)
        return True

    def _fold_advert(
        self, body: m.HeartbeatBody, sender_info: m.NeighborInfo
    ) -> Tuple[List[m.NeighborInfo], List[Tuple[m.NeighborInfo, bool]]]:
        """Fold a primary heartbeat's claims into our view.

        Witnesses the sender's claim and its gossip, (re-)installs the
        sender and the adjacent entries it gossips, and offers the far
        claims and caretaken holes to the shortcut cache.  Returns the
        claims stamped into the witness ledger and the claims offered to
        the cache (with their ``allow_adjacent`` flag), in order.
        """
        source = sender_info.primary
        witnessed: List[m.NeighborInfo] = []
        offered: List[Tuple[m.NeighborInfo, bool]] = []
        if self._witness_claim(sender_info):
            witnessed.append(sender_info)
        if body.rect in self.neighbor_table or (
            self.owned is not None
            and self.owned.rect.is_neighbor_of(body.rect)
        ):
            # A fresh first-hand claim supersedes any cached claim
            # overlapping the same ground (_table_put evicts them).  When
            # a claim the sender cannot see beats its own, we witness a
            # split brain (two claims on one region never heartbeat each
            # other): the sender yields to a newer claim and confronts an
            # equal one.
            winner = self._table_put(sender_info)
            news = [] if winner is None else [winner]
        else:
            # A first-hand claim from a non-neighbor (e.g. a probe or
            # confrontation heartbeat): worth a shortcut entry.
            offered.append((sender_info, False))
            self._learn_shortcut(sender_info)
            # A periodic beat from a non-neighbor means its sender's table
            # names us for ground we left (a switch shipped it a table
            # naming the ground's previous owner); the claims we hold
            # next to its region that it does not gossip replace that
            # entry.
            news = [
                info for info in self.neighbor_table.values()
                if body.epoch and info.primary != source
                and info.rect.is_neighbor_of(body.rect)
                and info not in body.neighbors
            ]
        for info in news:
            if info.primary not in self.suspected:
                self.network.send(
                    self.address, source, m.NEIGHBOR_UPDATE,
                    m.NeighborUpdateBody(info=info),
                )
        # Gossip: adopt adjacent entries we are missing; cache the rest.
        if self.owned is None:
            return witnessed, offered
        own = self.owned.rect
        table = self.neighbor_table
        for info in body.neighbors:
            if info.primary == self.address:
                continue
            # A relayed claim overlapping our territory makes us yield
            # when it is newer, and provokes a direct confrontation when
            # it ties (gossip can be stale, and a probe to a genuinely
            # dead claimant costs one message).
            if self._resolve_ownership_conflict(info, direct=False):
                return witnessed, offered
            if self._witness_claim(info):
                witnessed.append(info)
            if info.primary in self.suspected:
                continue
            if self.caretaker_rects:
                self._release_holes(info)
            held = table.get(info.rect)
            if held is not None and info.stamp <= held.stamp:
                continue
            if info.rect == own:
                continue
            if own.is_neighbor_of(info.rect):
                self._table_put(info)
            else:
                # Gossiped claims for far regions are exactly the passive
                # traffic the shortcut cache learns from.
                offered.append((info, False))
                self._learn_shortcut(info)
        # Caretaken holes have no owner to heartbeat them into our table;
        # cache the caretaker's claim (even for an abutting hole) so
        # routing toward the hole -- e.g. the store's re-home sweep --
        # reaches the live node serving it instead of dead-ending.
        for hole in body.caretaken:
            if hole in self.neighbor_table:
                continue
            info = m.NeighborInfo(rect=hole, primary=source)
            offered.append((info, True))
            self._learn_shortcut(info, allow_adjacent=True)
        return witnessed, offered

    def _send_sync(self) -> None:
        if not self.alive:
            return
        if self.owned is not None:
            self._rehome_sweep()
        # Runs even without an owned region: a pure subscriber still
        # re-asserts its own leases on this timer.
        self._sub_maintenance()
        if (
            self.owned is None
            or self.owned.role != "primary"
            or self.owned.peer is None
        ):
            return
        body = m.SyncStateBody(
            rect=self.owned.rect,
            neighbors=tuple(self.neighbor_table.values()),
            items=tuple(self.owned.items),
            stamp=self.owned.stamp,
        )
        self.network.send(self.address, self.owned.peer, m.SYNC_STATE, body)
        # The store does not ship its full content on every sync; the
        # primary sends a per-bucket digest instead and the secondary
        # pulls only divergent buckets (bounded anti-entropy).
        self._send_store_sync()

    def _on_sync_state(self, message: Message) -> None:
        body: m.SyncStateBody = message.body
        if (
            self.owned is None
            or self.owned.role != "secondary"
            or body.stamp < self.owned.stamp
        ):
            # Not a secondary, or a sync its primary sent before a switch
            # handed the region on.
            return
        if self.owned.peer != message.source:
            # The region's primary changed (switch or takeover); follow it.
            self._set_peer(message.source)
        self.owned.rect = body.rect
        self.owned.stamp = body.stamp
        self.owned.items = list(body.items)
        self._replicated_neighbors = body.neighbors

    def _take_over_primary(self) -> None:
        """Dual-peer failover: activate the backup (Section 2.3)."""
        assert self.owned is not None
        failed = self.owned.peer
        causal.annotate(
            "failover",
            successor=str(self.address),
            failed=str(failed),
            rect=str(self.owned.rect),
            store_objects=len(self.owned.store),
        )
        note_handover("failover", failed, self.address, self.owned.snapshot())
        self.owned.role = "primary"
        self._set_peer(None)
        self.owned.stamp += 1
        # Entries were learned in the secondary role; the rebuilt neighbor
        # table may now contain rects the cache also holds.  Start fresh.
        self.shortcuts.clear()
        if self._replicated_neighbors:
            self._set_table(
                info for info in self._replicated_neighbors
                if self.owned.rect.is_neighbor_of(info.rect)
            )
        if failed is not None:
            self._suspect(failed)
            self.bootstrap.deregister(failed)
        self._announce_self()

    def _on_depart(self, message: Message) -> None:
        """An owner left ``body.rect`` and shipped us its data.

        Our departing primary: the graceful counterpart of failover,
        instant promotion.  An ownership-conflict loser (or a departing
        owner whose peer pointer went stale): adopt its data, and route
        whatever our ground does not cover to its home.
        """
        body: m.DepartBody = message.body
        if self.owned is None:
            return
        if self.owned.role == "secondary":
            if self.owned.rect != body.rect:
                return
            # The departing primary's items supersede the replica's; its
            # records merge LWW, keeping anything fresher seen in a race.
            self.owned.items = []
            self.owned.absorb(body.data)
            self._take_over_primary()
            return
        if message.source == self.owned.peer:
            return  # our secondary left; its slot times out as usual
        self._absorb(body.data)
        self._rehome_sweep()

    def _on_secondary_released(self, message: Message) -> None:
        """Our primary disowned us: drop the stale role and rejoin."""
        if self.owned is None or self.owned.role != "secondary":
            return
        if self.owned.peer != message.source:
            return
        self._rejoin()

    # ------------------------------------------------------------------
    # Region data following the partition
    # ------------------------------------------------------------------
    def _absorb(self, data: m.RegionData) -> None:
        """Adopt shipped region data; a primary replicates what won."""
        assert self.owned is not None
        won = self.owned.absorb(data)
        for record in won.objects:
            self._replicate(m.RegionData(objects=(record,)))
        for record in won.subscriptions:
            self._replicate(m.RegionData(subscriptions=(record,)))

    def _replicate(
        self,
        data: m.RegionData = m.RegionData(),
        removed: Tuple[Tuple[Any, int], ...] = (),
    ) -> None:
        """Ship one change of a primary's region data to its secondary.

        The dual-peer write path (Section 2.3): every item, record and
        registration a primary accepts, and every store eviction, reaches
        the secondary synchronously over the reliable channel, one change
        per message.  Nothing is sent without a standing secondary.
        """
        owned = self.owned
        if owned.role != "primary" or owned.peer is None:
            return
        self.reliable.send(
            owned.peer, m.REPLICATE, m.ReplicateBody(data=data, removed=removed)
        )
        if data.objects or removed:
            obs.inc("store.node.replicated", len(data.objects) + len(removed))
        if data.subscriptions:
            obs.inc("sub.node.replicated", len(data.subscriptions))

    def _on_replicate(self, message: Message) -> None:
        """Secondary side of :meth:`_replicate`: fold the change in."""
        body: m.ReplicateBody = message.body
        if self.owned is None or self.owned.role != "secondary":
            return
        self.owned.absorb(body.data)
        for object_id, version in body.removed:
            self.owned.store.remove(object_id, version=version)

    def _rehome_sweep(self) -> None:
        """Route records our ground does not cover back to their home.

        Misplaced records enter through best-effort dead-end accepts,
        data shipped from a region that differs from ours (an ownership
        yield, a switch's late writes), and restructuring that moves our
        territory out from under a subscription.  Each is re-sent as a
        normal routed request -- a store update or a registration -- and
        the local copy is dropped only once the covering executor acks
        it (see :meth:`_drop_rehomed`), so a lossy network can never lose
        the only copy mid-rehome.  Store records are swept on primaries
        only (replicas converge through the digest exchange),
        registrations in both roles.  Runs on the sync timer.
        """
        assert self.owned is not None
        self._rehome_pending.clear()
        ground = [self.owned.rect, *self.caretaker_rects]
        sweeps: List[Tuple[str, GridIndex]] = []
        if self.owned.role == "primary":
            sweeps.append((m.STORE_UPDATE, self.owned.store))
        sweeps.append((m.SUBSCRIBE, self.owned.subs))
        now = self.scheduler.now
        for kind, index in sweeps:
            for record in index.records():
                if any(touches(record.shape, rect) for rect in ground):
                    continue
                if kind == m.SUBSCRIBE and not record.is_live_at(now):
                    continue  # the lease sweep drops it
                request_id = next(_request_ids)
                self._rehome_pending[request_id] = (
                    kind, record.key, record.version,
                )
                body_type = (
                    m.StoreUpdateBody if kind == m.STORE_UPDATE
                    else m.SubscribeBody
                )
                self._execute(kind, body_type(
                    origin=self.address, record=record, request_id=request_id,
                ))

    def _drop_rehomed(self, request_id: int, executor: NodeAddress) -> None:
        """An ack arrived: drop the local copy it proves rehomed."""
        pending = self._rehome_pending.pop(request_id, None)
        if pending is None or executor == self.address or self.owned is None:
            # Not a rehome ack, or the routed request dead-ended right
            # back here: keep the copy, the next sweep tries again.
            return
        kind, key, version = pending
        if kind == m.STORE_UPDATE:
            if self.owned.store.remove(key, version=version) is None:
                return
            obs.inc("store.node.rehomed")
            self._replicate(removed=((key, version),))
        else:
            if self.owned.subs.remove(key, version=version) is None:
                return
            obs.inc("sub.node.rehomed")
        causal.annotate(
            "rehome",
            kind=kind,
            owner=str(self.address),
            executor=str(executor),
            key=str(key),
            version=version,
        )

    # ------------------------------------------------------------------
    # Distributed load adaptation: switch primary owners (mechanism b)
    # ------------------------------------------------------------------
    def _capture_state(self) -> m.RegionStateBody:
        assert self.owned is not None
        return m.RegionStateBody(
            rect=self.owned.rect,
            peer=self.owned.peer,
            neighbors=tuple(self.neighbor_table.values()),
            data=self.owned.snapshot(),
            stamp=self.owned.stamp,
            load_rate=self.load_rate,
            served=self._window_served,
        )

    def _install_state(
        self,
        state: m.RegionStateBody,
        counterpart: NodeAddress,
        unshipped: m.RegionData = m.RegionData(),
    ) -> None:
        """Take over a region shipped by a completed primary switch.

        The installed claim is stamped one above the shipped one, and the
        region this node gives away becomes ``counterpart``'s claim one
        above ours; when the two swapped regions are adjacent, that claim
        replaces the transferred table's stale self-entry for it.  The
        region's load comes with it, and :data:`SWITCH_COOLDOWN` starts.
        ``unshipped`` holds records written to the given-away region
        after its state was captured: they are adopted here, and the
        rehome sweep of the sync below routes them to the region's new
        owner, dropping each local copy only once that owner acks it.
        """
        old = self.owned
        given_away = m.NeighborInfo(
            rect=old.rect, primary=counterpart, secondary=old.peer,
            stamp=old.stamp + 1,
        )
        self.owned = OwnedRegion(
            rect=state.rect, role="primary", peer=state.peer,
            stamp=state.stamp + 1,
        )
        if state.peer is not None:
            # The region's secondary has not had a chance to heartbeat us
            # yet: its liveness clock starts now, not at its last beat to
            # us from some earlier role.
            self.last_seen[state.peer] = self.scheduler.now
        self.load_rate, self._window_served = state.load_rate, state.served
        self._switch_quiet_until = self.scheduler.now + SWITCH_COOLDOWN
        self.owned.absorb(state.data)
        note_handover("switch", counterpart, self.address, state.data)
        self.owned.absorb(unshipped)
        self._set_table(
            info for info in state.neighbors
            if state.rect.is_neighbor_of(info.rect)
            # After a chain of switches the shipped table can still name
            # *us* as primary of a region we owned earlier; routing via
            # such an entry would forward messages to ourselves forever.
            and info.primary != self.address
        )
        if state.rect.is_neighbor_of(given_away.rect):
            self._table_put(given_away)
        self.neighbor_stats = {}
        self._neighbor_stats_at = {}
        self.neighbor_pressure = {}
        # The cache was learned from the old vantage point; entries may
        # now overlap or neighbor the new region.  Start fresh.
        self.shortcuts.clear()
        self.switches_completed += 1
        causal.annotate(
            "switch_installed",
            owner=str(self.address),
            rect=str(state.rect),
            counterpart=str(counterpart),
        )
        self._announce_self()
        self._send_sync()
        self._send_neighbor_heartbeats()

    def _switch_ready(self) -> bool:
        """Whether this node may propose or accept a primary switch."""
        return (
            self.owned is not None
            and self.owned.role == "primary"
            and not self._switch_pending
            and self.scheduler.now >= self._switch_quiet_until
        )

    def _consider_switch(self) -> None:
        """The periodic adaptation check of an overloaded primary: the
        model's trigger, then its pair test over the neighbor stats."""
        if not self.alive or not self._switch_ready():
            return
        table = self.neighbor_table
        rects = [rect for rect in self.neighbor_stats if rect in table]
        stats = [self.neighbor_stats[rect] for rect in rects]
        capacity = self.node.capacity
        lowest = min((load / cap for load, cap in stats), default=None)
        if not SWITCH_TRIGGER.fires(self.load_rate / capacity, lowest):
            return
        choice = switch_partner(
            self.load_rate, capacity, stats, ADAPTATION.improvement_margin
        )
        if choice is None:
            return
        target = table[rects[choice]].primary
        request = m.SwitchRequestBody(
            state=self._capture_state(), initiator_capacity=capacity
        )
        self._switch_pending = True
        self._switch_capture = request.state.data
        causal.annotate(
            "switch_proposed",
            initiator=str(self.address),
            target=str(target),
            rect=str(self.owned.rect),
        )
        self.network.send(self.address, target, m.SWITCH_REQUEST, request)
        # Clear the pending flag if no answer ever arrives (lost message,
        # crashed counterpart) so adaptation is not wedged forever.
        self.scheduler.after(ADAPTATION_INTERVAL, self._clear_pending_switch)

    def _clear_pending_switch(self, message: Optional[Message] = None) -> None:
        """A reject, or the timeout of a switch that got no answer."""
        self._switch_pending = False

    def _on_switch_request(self, message: Message) -> None:
        body: m.SwitchRequestBody = message.body
        # The initiator decided on our last gossiped load; the pair is
        # re-checked with the load we measure now.
        if not self._switch_ready() or switch_partner(
            body.state.load_rate, body.initiator_capacity,
            [(self.load_rate, self.node.capacity)], ADAPTATION.improvement_margin,
        ) is None:
            self.network.send(
                self.address, message.source, m.SWITCH_REJECT,
                m.SwitchRejectBody(reason="not available, or no better pair"),
            )
            return
        # The accept carries this node's entire region state; losing it
        # strands the swap half-done (we install the initiator's region
        # below, it keeps believing it owns it).  Ride the reliable
        # channel so the handoff survives drops.
        accept = m.SwitchAcceptBody(
            state=self._capture_state(),
            replaced=body.state.rect,
            replaced_stamp=body.state.stamp,
        )
        self.reliable.send(message.source, m.SWITCH_ACCEPT, accept)
        self._install_state(body.state, counterpart=message.source)
        # The region we gave away is in flight until the initiator
        # installs it: take part in no other switch meanwhile, or our
        # next hand-off would ship a table still naming us its owner.
        self._switch_pending = True
        self.scheduler.after(ADAPTATION_INTERVAL, self._clear_pending_switch)

    def _on_switch_accept(self, message: Message) -> None:
        body: m.SwitchAcceptBody = message.body
        self._switch_pending = False
        owned = self.owned
        if (
            owned is None
            or owned.role != "primary"
            or owned.rect != body.replaced
            or owned.stamp != body.replaced_stamp
        ):
            # A delayed (possibly retried) accept for a proposal made from
            # a claim we no longer hold; installing its state now would
            # clobber ownership we acquired since.
            return
        # Data written since the request's state capture was not shipped
        # with it.  Records are adopted into the region we install and
        # routed home by the ack-guarded rehome sweep; items have no ack
        # and are simply republished.
        captured, self._switch_capture = self._switch_capture, None
        written = (
            m.RegionData() if captured is None
            else written_since(self.owned.snapshot(), captured)
        )
        self._install_state(
            body.state,
            counterpart=message.source,
            unshipped=replace(written, items=()),
        )
        for point, item in written.items:
            self._execute(m.PUBLISH, m.PublishBody(
                origin=self.address, point=point, item=item
            ))

    def _on_grant_decline(self, message: Message) -> None:
        """Take back a region (or slot) a joiner refused."""
        body: m.GrantDeclineBody = message.body
        if self.owned is None:
            return
        if body.role == "secondary":
            if self.owned.peer == message.source:
                self._set_peer(None)
                self._announce_self()
            return
        if self._outclaimed(body.rect, body.stamp):
            # We granted that ground again since (its claim timed out and
            # we filled the hole): a newer claim holds it, so only the
            # data comes back, and the rehome sweep routes it there.
            causal.annotate(
                "decline_outclaimed", owner=str(self.address),
                rect=str(body.rect),
            )
            self._absorb(body.data)
            return
        if self.owned.role == "primary" and self.owned.rect.can_merge_with(
            body.rect
        ):
            merged = self.owned.rect.merge_with(body.rect)
            causal.annotate(
                "decline_merge",
                owner=str(self.address),
                rect=str(body.rect),
                merged=str(merged),
            )
            # The merged claim outranks both halves, so wherever it
            # arrives -- first-hand or through gossip -- it evicts the
            # entry for the declined half, whose named owner never speaks.
            self.owned.stamp = self._next_stamp(merged, body.stamp)
            self.owned.rect = merged
            self._release_holes(self._my_info())
            # Our territory grew: cached claims overlapping (or now
            # adjacent to) the merged rect are stale or misplaced.
            self.shortcuts.invalidate_overlapping(merged)
            self._absorb(body.data)
            note_handover(
                "decline_merge", message.source, self.address, body.data
            )
            self._table_drop(body.rect)
            self._set_table(
                info for rect, info in self.neighbor_table.items()
                if merged.is_neighbor_of(rect)
            )
            # The merged claim is the retraction: a survivor it never
            # reached keeps a phantom entry for the declined region (then
            # a bogus hole to caretake and re-grant), so it rides the
            # reliable channel.
            self._broadcast_update(
                m.NeighborUpdateBody(info=self._my_info()), reliable=True
            )
            self._send_sync()
            return
        # Cannot merge it back (we re-split since): serve it best-effort
        # until a join fills it, still retracting the stale announcement.
        causal.annotate(
            "decline_caretake",
            owner=str(self.address),
            rect=str(body.rect),
        )
        self._absorb(body.data)
        note_handover(
            "decline_caretake", message.source, self.address, body.data
        )
        self._broadcast_update(
            m.NeighborUpdateBody(info=self._my_info(), removed_rect=body.rect),
            reliable=True,
        )
        self._caretake(body.rect, body.stamp)

    # ------------------------------------------------------------------
    # Application message handling
    # ------------------------------------------------------------------
    def _serve_route(self, body: m.RouteBody) -> None:
        """Executor side of a routed request: deliver and ack."""
        causal.annotate(
            "route_served",
            executor=str(self.address),
            request_id=body.request_id,
            hops=body.hops,
        )
        self._window_served += 1
        if self.on_deliver is not None:
            self.on_deliver(body.target, body.payload)
        self._ack_route(body)

    def _ack_route(self, body: m.RouteBody) -> None:
        """Tell the origin who answered (a dead end answers unserved)."""
        ack = m.RouteDeliveredBody(
            request_id=body.request_id,
            executor=self.address,
            hops=body.hops,
            region=self.owned.rect,
        )
        self.network.send(self.address, body.origin, m.ROUTE_DELIVERED, ack)

    def _on_answer(self, message: Message) -> None:
        """An executor answered one of our requests (ack or result).

        Closes the request's SLO clock and first-hop shortcut watch,
        learns the answering region as a shortcut, records the answer,
        and lets an ack prove a rehomed copy safe to drop.
        """
        kind = message.kind
        body = message.body
        request_id = body.request_id
        self._slo_finish(request_id)
        self._shortcut_unacked.pop(request_id, None)
        # Replica answers name the secondary as executor; caching that
        # as a region's primary would poison the entry.
        if body.region is not None and not (
            kind == m.STORE_RESULT and body.from_replica
        ):
            self._learn_shortcut(
                m.NeighborInfo(rect=body.region, primary=body.executor)
            )
        if kind == m.ROUTE_DELIVERED:
            self.delivered.append(body)
        elif kind == m.STORE_ACK or kind == m.SUB_ACK:
            acks = self.store_acks if kind == m.STORE_ACK else self.sub_acks
            acks[request_id] = body
            self._drop_rehomed(request_id, body.executor)
        else:
            results = (
                self.query_results if kind == m.QUERY_RESULT
                else self.store_results
            )
            results.setdefault(request_id, []).append(body)

    def _serve_publish(self, body: m.PublishBody) -> None:
        """Executor side of a publish: keep, replicate, match."""
        self._window_served += 1
        entry = (body.point, body.item)
        self.owned.items.append(entry)
        self._replicate(m.RegionData(items=(entry,)))
        self._sub_match_publish(body)

    def _keep_item(self, body: m.PublishBody) -> None:
        """A dead end keeps a published item, unreplicated."""
        self.owned.items.append((body.point, body.item))
        self._sub_match_publish(body)

    # ------------------------------------------------------------------
    # Fan-out over the regions a request rectangle touches
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        kind: str,
        marked: Any,
        rect: Rect,
        neighbors: Iterable[m.NeighborInfo],
        skip: Container[NodeAddress] = (),
    ) -> None:
        """Hand a served request on to the neighbor regions ``rect`` touches.

        The paper's query and standing-query examples (Section 2.2) as
        messages.  ``marked`` already names the primaries that served
        the request; each other touching region gets it one hop further,
        through its secondary while the primary is suspected, unless that
        endpoint is in ``skip``.  Closed-rect touch, not interior
        overlap: a region meeting ``rect`` only at a corner can still own
        matching points (point coverage is closed at the high edges).
        """
        served = marked.served
        for info in neighbors:
            if info.primary in served or not info.rect.touches(rect):
                continue
            endpoint = self._live_endpoint(info)
            if endpoint is None or endpoint in skip:
                continue
            self.network.send(self.address, endpoint, kind, marked.forwarded())

    def _on_query_fanout(self, message: Message) -> None:
        body: m.QueryBody = message.body
        if self.owned is None or self.owned.role != "primary":
            return
        if self.owned.rect.touches(body.rect):
            self._serve_query(body)

    def _serve_query(self, body: m.QueryBody) -> None:
        if self._served_queries.get(body.request_id) == self.owned.rect:
            return
        self._served_queries[body.request_id] = self.owned.rect
        self._window_served += 1
        owned = self.owned
        matches = tuple(
            (point, item)
            for point, item in owned.items
            if body.rect.covers(point, closed_low_x=True, closed_low_y=True)
        )
        result = m.QueryResultBody(
            request_id=body.request_id,
            executor=self.address,
            region=owned.rect,
            items=matches,
            hops=body.hops,
        )
        self.network.send(self.address, body.origin, m.QUERY_RESULT, result)
        self._fan_out(
            m.QUERY_FANOUT, body.marked_served(self.address), body.rect,
            self.neighbor_table.values(),
        )

    # ------------------------------------------------------------------
    # Continuous-query subscriptions (repro.sub)
    # ------------------------------------------------------------------
    def _on_sub_fanout(self, message: Message) -> None:
        body: m.SubscribeBody = message.body
        if self.owned is None or self.owned.role != "primary":
            return
        if self.owned.rect.touches(body.record.rect):
            self._serve_subscribe(body)

    def _serve_subscribe(self, body: m.SubscribeBody) -> None:
        """Executor side of a registration: index, ack, fan out."""
        if body.request_id in self._served_subs:
            return
        self._served_subs.add(body.request_id)
        self._window_served += 1
        self._sub_register(body.record)
        ack = m.SubAckBody(
            request_id=body.request_id,
            executor=self.address,
            hops=body.hops,
            region=self.owned.rect,
        )
        self.network.send(self.address, body.origin, m.SUB_ACK, ack)
        self._fan_out(
            m.SUB_FANOUT, body.marked_served(self.address), body.record.rect,
            self.neighbor_table.values(),
        )

    def _sub_register(self, record: SubRecord) -> bool:
        """Install one registration locally; replicate when fresh.

        Last-writer-wins by version, so retransmits, fan-out crossings
        and anti-entropy re-sends are idempotent.  Returns whether the
        record won.
        """
        assert self.owned is not None
        fresh = self.owned.subs.upsert(record)
        if fresh:
            obs.inc("sub.node.registered")
            causal.annotate(
                "sub_registered",
                executor=str(self.address),
                sub_id=record.sub_id,
                version=record.version,
            )
            self._replicate(m.RegionData(subscriptions=(record,)))
        return fresh

    def _sub_match_store(self, record: ObjectRecord) -> None:
        """Push a freshly accepted store update to covering subscriptions."""
        assert self.owned is not None
        if not len(self.owned.subs):
            return
        now = self.scheduler.now
        event_key = ("store", str(record.object_id), record.version)
        for sub in self.owned.subs.match(record.point):
            if not sub.is_live_at(now):
                continue
            self._sub_notify(sub, event_key, record.point, record.payload)

    def _sub_match_publish(self, body: m.PublishBody) -> None:
        """Push an accepted publish event to covering subscriptions."""
        assert self.owned is not None
        if not len(self.owned.subs):
            return
        now = self.scheduler.now
        if body.event_id is not None:
            event_key: Tuple[Any, ...] = (
                "pub", str(body.origin), body.event_id
            )
        else:
            # Senders predating the plane carry no event id; fall back to
            # the event's content (dedup then collapses identical events,
            # which is the best an unkeyed publish can get).
            event_key = ("pub", body.point.x, body.point.y, str(body.item))
        for sub in self.owned.subs.match(body.point):
            if not sub.is_live_at(now):
                continue
            self._sub_notify(sub, event_key, body.point, body.item)

    def _sub_notify(
        self,
        sub: SubRecord,
        event_key: Tuple[Any, ...],
        point: Point,
        payload: Any,
    ) -> None:
        """Push one matched event to the subscriber (at-least-once)."""
        obs.inc("sub.node.matched")
        self.vitals.on_sub_match()
        body = m.NotifyBody(
            sub_id=sub.sub_id,
            subscriber=sub.subscriber,
            event_key=event_key,
            point=point,
            payload=payload,
            matched_at=self.scheduler.now,
            executor=self.address,
        )
        self.reliable.send(sub.subscriber, m.NOTIFY, body)

    def _on_notify(self, message: Message) -> None:
        body: m.NotifyBody = message.body
        key = (body.sub_id, body.event_key)
        if key in self._notify_seen:
            # A retransmit of an exchange whose ack was lost, or the same
            # event matched at two covering regions.
            obs.inc("sub.node.duplicate_notifies")
            return
        self._notify_seen.add(key)
        obs.inc("sub.node.notified")
        self.notifications.append(body)
        self._slo_observe(
            "slo.sub.notify_latency", self.scheduler.now - body.matched_at
        )

    def _on_sub_sync(self, message: Message) -> None:
        """Anti-entropy receive: merge live registrations for my ground.

        Last-writer-wins, and only *live* records are merged -- an
        expired lease must never be re-registered by a stale sender (the
        phantom re-registration the lease-sweep regression pins).
        """
        body: m.SubSyncBody = message.body
        if self.owned is None or self.owned.role != "primary":
            return
        if not self.owned.rect.touches(body.rect) and not any(
            rect.touches(body.rect) for rect in self.caretaker_rects
        ):
            return
        now = self.scheduler.now
        repaired = 0
        for record in body.records:
            if not record.is_live_at(now):
                continue
            if not record.rect.touches(self.owned.rect) and not any(
                rect.touches(record.rect) for rect in self.caretaker_rects
            ):
                continue
            if self._sub_register(record):
                repaired += 1
        if repaired:
            obs.inc("sub.node.repaired", repaired)

    def _sub_renewals(self) -> None:
        """Subscriber-side re-assertion of every live lease from here.

        Registered subscriptions are soft state: a region can lose every
        copy at once (its primary crashes while the secondary slot is
        empty), and no amount of handoff bookkeeping can resurrect a
        record nobody holds.  So the subscriber itself re-routes each of
        its live registrations every :data:`SUB_RENEW_INTERVAL`
        -- the same record with a bumped version (last-writer-wins makes
        this idempotent at holders that never lost it) and an untouched
        ``registered_at``/``duration``, so the absolute expiry stands and
        a lapsed lease is never phantom-re-registered.  Emits nothing
        when this node originated no subscriptions.
        """
        if not self._my_subs:
            return
        now = self.scheduler.now
        for sub_id in list(self._my_subs):
            record = self._my_subs[sub_id]
            if not record.is_live_at(now):
                del self._my_subs[sub_id]
                self._my_sub_asserted.pop(sub_id, None)
                continue
            asserted = self._my_sub_asserted.get(sub_id, 0.0)
            if now - asserted < SUB_RENEW_INTERVAL:
                continue
            renewed = replace(record, version=record.version + 1)
            self._my_subs[sub_id] = renewed
            self._my_sub_asserted[sub_id] = now
            obs.inc("sub.node.renewed")
            causal.annotate(
                "sub_renewed",
                subscriber=str(self.address),
                sub_id=sub_id,
                version=renewed.version,
            )
            self._execute(m.SUBSCRIBE, m.SubscribeBody(
                origin=self.address,
                record=renewed,
                request_id=next(_request_ids),
            ))

    def _sub_lease_grace(self, record: SubRecord) -> float:
        """Deterministic per-(sub, holder) jitter added to lease expiry.

        Hashed, not drawn from ``rng``: sweeps must not perturb the
        seeded random stream (the plane has to be byte-invisible when no
        subscriptions exist), and replicas of one subscription should
        drain within a bounded, deterministic spread rather than in
        lockstep.
        """
        spread = zlib.crc32(
            f"{record.sub_id}|{self.address}".encode("utf-8")
        ) / 2**32
        return SUB_LEASE_JITTER * record.duration * spread

    def _sub_maintenance(self) -> None:
        """Lease sweep + neighbor anti-entropy, on the sync timer.

        Runs in both roles (replicas sweep their own copies; there is no
        eviction protocol to miss).  Primaries then ship every live
        registration touching each neighbor's rect -- healing
        registrations lost to a dropped fan-out, a merge-back, or an
        ownership handover within one sync interval.  Emits nothing when
        the index is empty, so runs without subscriptions stay
        byte-identical to a build without the plane.
        """
        self._sub_renewals()
        if self.owned is None:
            return
        subs = self.owned.subs
        if not len(subs):
            return
        now = self.scheduler.now
        expired = subs.sweep(now, grace=self._sub_lease_grace)
        if expired:
            obs.inc("sub.node.expired", len(expired))
        if self.owned.role != "primary" or not len(subs):
            return
        for info in self.neighbor_table.values():
            if info.primary == self.address:
                continue
            records = tuple(
                record
                for record in subs.touching(info.rect)
                if record.is_live_at(now)
            )
            if not records:
                continue
            self.network.send(
                self.address, info.primary, m.SUB_SYNC,
                m.SubSyncBody(rect=info.rect, records=records),
            )

    # ------------------------------------------------------------------
    # Location store: data plane
    # ------------------------------------------------------------------
    def _store_accept_update(self, body: m.StoreUpdateBody) -> None:
        """Executor side of a store update: insert, replicate, ack."""
        assert self.owned is not None
        self._window_served += 1
        record = body.record
        fresh = self.owned.store.upsert(record)
        causal.annotate(
            "store_update_served",
            executor=str(self.address),
            object_id=str(record.object_id),
            version=record.version,
            fresh=fresh,
            hops=body.hops,
        )
        obs.inc("store.node.updates")
        if fresh:
            self._replicate(m.RegionData(objects=(record,)))
            self._sub_match_store(record)
            prev = body.prev_point
            if (
                prev is not None
                and not self._covers(self.owned.rect, prev)
                and self._caretaker_for(prev) is None
            ):
                # The object crossed a region boundary: evict the stale
                # copy at its old home (versioned, so a newer update
                # there wins any race).  Ground this node caretakes shares
                # its store, so the upsert above already replaced it.
                self._execute(m.STORE_REMOVE, m.StoreRemoveBody(
                    object_id=record.object_id,
                    point=body.prev_point,
                    version=record.version,
                ))
        else:
            obs.inc("store.node.stale_updates")
        ack = m.StoreAckBody(
            request_id=body.request_id,
            executor=self.address,
            hops=body.hops,
            region=self.owned.rect,
        )
        self.network.send(self.address, body.origin, m.STORE_ACK, ack)

    def _serve_store_remove(self, body: m.StoreRemoveBody) -> None:
        """Executor side of an eviction: remove, replicate."""
        if self._evict(body) is not None:
            obs.inc("store.node.evicted")
            self._replicate(removed=((body.object_id, body.version),))

    def _evict(self, body: m.StoreRemoveBody) -> Optional[ObjectRecord]:
        """Remove the copy ``body`` names, unless a newer one is held."""
        return self.owned.store.remove(body.object_id, version=body.version)

    # ------------------------------------------------------------------
    # Location store: range lookups with fan-out
    # ------------------------------------------------------------------
    def _on_store_fanout(self, message: Message) -> None:
        body: m.StoreLookupBody = message.body
        if self.owned is None:
            return
        if not self.owned.rect.touches(body.rect):
            return
        # Primary or secondary alike may serve the fan-out: the sender
        # falls back to the replica endpoint when the primary is suspected.
        self._serve_store_lookup(
            body, from_replica=self.owned.role == "secondary"
        )

    def _serve_store_lookup(
        self, body: m.StoreLookupBody, from_replica: bool = False
    ) -> None:
        """Answer a range lookup; a replica answers for its own region."""
        if self._served_store_lookups.get(body.request_id) == self.owned.rect:
            return
        self._served_store_lookups[body.request_id] = self.owned.rect
        self._window_served += 1
        owned = self.owned
        matches = tuple(owned.store.query(body.rect))
        result = m.StoreResultBody(
            request_id=body.request_id,
            executor=self.address,
            region=owned.rect,
            records=matches,
            hops=body.hops,
            from_replica=from_replica,
        )
        obs.inc("store.node.lookups_served")
        self.network.send(self.address, body.origin, m.STORE_RESULT, result)
        # Replicas serve lookups too, so the served set also names
        # secondaries, and none of them is asked twice.  Only a primary
        # vouches for its peer: a replica's primary pointer lags a switch
        # until the new primary's first sync, and marking the old one
        # would keep the lookup from the region it serves now.  A replica
        # serving for a dead primary uses the replicated neighbor table
        # it would activate on failover.
        marked = body.marked_served(self.address)
        if owned.peer is not None and not from_replica:
            marked = marked.marked_served(owned.peer)
        neighbors: Iterable[m.NeighborInfo] = self.neighbor_table.values()
        if from_replica and not self.neighbor_table:
            neighbors = self._replicated_neighbors
        self._fan_out(
            m.STORE_FANOUT, marked, body.rect, neighbors, skip=marked.served
        )

    # ------------------------------------------------------------------
    # Location store: replication and anti-entropy
    # ------------------------------------------------------------------
    def _send_store_sync(self) -> None:
        """Ship the primary's store digest to its secondary (sync timer).

        A store that was never populated sends nothing: deployments that
        never touch the location store pay zero extra messages.  But a
        store that held records and emptied again (a split that rehomed
        everything away, churned ownership) keeps announcing its -- now
        empty -- digest: the secondary may still replicate the old
        content, and without a digest to diff against the stale replica
        diverges forever.
        """
        assert self.owned is not None and self.owned.peer is not None
        if len(self.owned.store):
            self._store_announced = True
        elif not self._store_announced:
            return
        digest = tuple(sorted(self.owned.store.digest().items()))
        self.network.send(
            self.address, self.owned.peer, m.STORE_SYNC,
            m.StoreSyncBody(rect=self.owned.rect, digest=digest),
        )

    def _on_store_sync(self, message: Message) -> None:
        body: m.StoreSyncBody = message.body
        if (
            self.owned is None
            or self.owned.role != "secondary"
            or message.source != self.owned.peer
        ):
            return
        divergent = self.owned.store.diff_keys(dict(body.digest))
        # Anti-entropy debt: how far this replica trails its primary,
        # surfaced through the next vitals digest.
        self._anti_entropy_debt = len(divergent)
        if not divergent:
            return
        bounded = tuple(divergent[:STORE_REPAIR_MAX_BUCKETS])
        obs.inc("store.node.repair_pulls")
        causal.annotate(
            "store_antientropy_pull",
            replica=str(self.address),
            primary=str(message.source),
            divergent=len(divergent),
            pulled=len(bounded),
        )
        self.network.send(
            self.address, message.source, m.STORE_PULL,
            m.StorePullBody(rect=body.rect, keys=bounded),
        )

    def _on_store_pull(self, message: Message) -> None:
        body: m.StorePullBody = message.body
        if (
            self.owned is None
            or self.owned.role != "primary"
            or message.source != self.owned.peer
        ):
            return
        buckets = tuple(
            (key, tuple(self.owned.store.bucket_records(key)))
            for key in body.keys
        )
        self.network.send(
            self.address, message.source, m.STORE_REPAIR,
            m.StoreRepairBody(rect=self.owned.rect, buckets=buckets),
        )

    def _on_store_repair(self, message: Message) -> None:
        body: m.StoreRepairBody = message.body
        # Our primary answering a pull: its bucket content replaces ours
        # wholesale (still LWW per record, so a racing fresher
        # replication is not clobbered).
        if (
            self.owned is None
            or self.owned.role != "secondary"
            or message.source != self.owned.peer
        ):
            return
        changed = 0
        for key, records in body.buckets:
            changed += self.owned.store.replace_bucket(key, records)
        if changed:
            obs.inc("store.node.repaired_records", changed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = self.owned.role if self.owned is not None else "none"
        return (
            f"ProtocolNode(id={self.node.node_id}, role={role}, "
            f"alive={self.alive})"
        )
