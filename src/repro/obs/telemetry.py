"""The in-band telemetry plane: per-node vitals and heartbeat digests.

Everything the repo could observe before this module was observer-side
and omniscient -- the global :class:`~repro.obs.registry.MetricsRegistry`,
the flight recorder, and the invariant auditor all attach from *outside*
the cluster.  No node could see that a neighbor was slow, overloaded, or
gray-failing, yet GeoGrid's adaptation story presumes nodes act on load
signals carried by the overlay itself.

This module supplies the node-local half of that plane:

* :class:`VitalsFrame` -- a compact always-on accumulator each protocol
  node updates from cheap hooks (message dispatch, the reliable channel,
  the shortcut cache).  It tracks per-message-class send/recv counts,
  handler wall-time from the dispatch profiling hooks, reliable-layer
  retries and dead letters, and rolls a bounded **windowed** summary on
  demand.  Wall-clock values are *display-only*: nothing protocol-visible
  ever branches on them, so determinism of the simulation is preserved.
* :class:`VitalsDigest` -- the versioned, bounded-byte snapshot a node
  piggybacks on its existing neighbor heartbeats (no new round-trips).
  Receivers fold digests into a :class:`~repro.obs.health.NeighborHealthView`.

The module also hosts the observer-side conveniences built on top:
``cluster_sample`` (one dashboard/export sample of a live cluster),
and the demo-cluster driver shared by ``python -m repro top`` / ``export``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.node import NodeAddress

__all__ = [
    "DIGEST_BYTE_BUDGET",
    "EVENT_SAMPLE",
    "MAX_SUSPECTS",
    "VitalsDigest",
    "VitalsFrame",
    "cluster_sample",
    "demo_cluster",
    "drive_traffic",
]

#: Hard ceiling on the wire size of one digest (checked by the tests and
#: the ``telemetry`` audit).  Heartbeats are the protocol's most frequent
#: message; the piggyback must stay a small constant tax.
DIGEST_BYTE_BUDGET = 512

#: At most this many trouble attributions ride in one digest.
MAX_SUSPECTS = 3

#: Per-message accounting runs on every Nth event rather than every one.
#: The countdown itself still ticks on *every* event, so exact totals are
#: recoverable as ``accounted + (EVENT_SAMPLE - countdown)`` -- the
#: sampling loses no precision on the counts the digest rates are built
#: from.  What IS sampled: the per-kind breakdown (each sampled event
#: books ``EVENT_SAMPLE`` to its kind, an unbiased estimate) and handler
#: wall-time (two ``perf_counter`` calls per dispatch were the single
#: largest telemetry tax on the hot path; handler_ms is a display-only
#: mean for which a deterministic 1-in-N sample is plenty).
EVENT_SAMPLE = 8


@dataclass(frozen=True)
class VitalsDigest:
    """One versioned snapshot of a node's vitals, sized for a heartbeat.

    ``version`` increments on every roll and never regresses for a live
    node -- the ``telemetry`` audit check and receive-side folding both
    rely on that monotonicity.  Rates cover the ``window`` sim-time units
    ending at the roll; gauges (``store_size``, ``queue_depth``, ...) are
    point-in-time.  ``suspects`` carries up to :data:`MAX_SUSPECTS`
    ``(address, score)`` trouble attributions from the sender's own
    neighborhood health view, which is how single-observer evidence
    against a gray node becomes corroborated neighborhood evidence.
    """

    version: int
    window: float
    sent_rate: float
    recv_rate: float
    drop_rate: float
    retry_rate: float
    dead_letters: int
    store_size: int
    anti_entropy_debt: int
    shortcut_hit_rate: float
    handler_ms: float
    queue_depth: int
    suspects: Tuple[Tuple[NodeAddress, float], ...] = ()
    #: Subscription-plane vitals: registered continuous queries at roll
    #: time, match rate over the window, and cumulative NOTIFY
    #: retransmits.  All three default to zero so digests from nodes
    #: without subscriptions (or with the plane disabled) are
    #: byte-identical to pre-plane digests (see :meth:`to_wire`).
    sub_registered: int = 0
    sub_match_rate: float = 0.0
    sub_notify_retries: int = 0
    #: Overload-plane vitals: ingress backpressure in [0, 1] at roll
    #: time and cumulative messages shed by admission control.  Both
    #: default to zero so digests from nodes with the plane disabled
    #: are byte-identical to pre-plane digests (see :meth:`to_wire`).
    pressure: float = 0.0
    sheds: int = 0

    def to_wire(self) -> str:
        """The compact textual encoding whose size the byte budget bounds.

        The simulation never serializes messages for real, so this stands
        in for the wire form: a fixed field order, fixed float precision,
        ``ip:port`` addresses.  Byte accounting (tests + audit) uses it.
        The subscription suffix is elided while all three sub fields are
        zero, keeping idle digests at their historical size.
        """
        suspects = ";".join(
            f"{addr.ip}:{addr.port}={score:.2f}"
            for addr, score in self.suspects
        )
        wire = (
            f"v={self.version}|w={self.window:.2f}"
            f"|tx={self.sent_rate:.3f}|rx={self.recv_rate:.3f}"
            f"|dr={self.drop_rate:.3f}|rt={self.retry_rate:.3f}"
            f"|dl={self.dead_letters}|st={self.store_size}"
            f"|ae={self.anti_entropy_debt}|sh={self.shortcut_hit_rate:.3f}"
            f"|hm={self.handler_ms:.3f}|q={self.queue_depth}"
            f"|s={suspects}"
        )
        if (
            self.sub_registered
            or self.sub_match_rate
            or self.sub_notify_retries
        ):
            wire += (
                f"|sb={self.sub_registered}"
                f"|sm={self.sub_match_rate:.3f}"
                f"|sn={self.sub_notify_retries}"
            )
        # Like the subscription suffix: elided while the overload plane
        # has nothing to report, keeping idle digests at their
        # historical size.
        if self.pressure or self.sheds:
            wire += f"|op={self.pressure:.3f}|os={self.sheds}"
        return wire

    def encoded_size(self) -> int:
        """Encoded size in bytes (UTF-8 of :meth:`to_wire`)."""
        return len(self.to_wire().encode("utf-8"))


class VitalsFrame:
    """Node-local vitals accumulator fed by lightweight hooks.

    Cumulative per-kind counters live for the node's whole life (the
    dashboard drills into them); a second set of window counters resets
    on every :meth:`roll`, which produces the rate fields of the digest.
    The frame deliberately holds no reference to the node and consumes no
    randomness -- it is pure bookkeeping.
    """

    def __init__(self) -> None:
        self.version = 0
        #: Sampled per-message-class estimates (bounded by the protocol's
        #: fixed kind vocabulary, ~30 entries): every ``EVENT_SAMPLE``-th
        #: event books ``EVENT_SAMPLE`` to its kind, so values converge on
        #: the true counts but individual entries are estimates, not exact
        #: tallies.  Exact totals come from :meth:`sent_total` /
        #: :meth:`recv_total`.  defaultdicts so the sampled updates pay a
        #: single hash probe instead of get+set.
        self.sent_by_kind: Dict[str, int] = defaultdict(int)
        self.recv_by_kind: Dict[str, int] = defaultdict(int)
        #: Sampled handler wall-time (seconds) and call counts by kind.
        self.handler_seconds: Dict[str, float] = defaultdict(float)
        self.handler_calls: Dict[str, int] = defaultdict(int)
        self.retries = 0
        self.dead_letters = 0
        self.shortcut_hits = 0
        self.shortcut_misses = 0
        #: Subscription-plane counters: matched events pushed from this
        #: node, NOTIFY retransmits, and NOTIFY exchanges abandoned.
        self.sub_matches = 0
        self.notify_retries = 0
        self.notify_dead_letters = 0
        #: The digest produced by the most recent roll (observer access).
        self.last_digest: Optional[VitalsDigest] = None
        #: Event countdowns (see ``EVENT_SAMPLE``): decremented on every
        #: event, so ``accounted + (EVENT_SAMPLE - countdown)`` is the
        #: exact event count even though per-event work is one subtract
        #: and a branch.  ``profile_countdown`` (receives) is owned by
        #: the node dispatch loop, which inlines :meth:`on_recv`.
        self.profile_countdown = EVENT_SAMPLE
        self.send_countdown = EVENT_SAMPLE
        #: Exact counts booked at sampled events (multiples of
        #: ``EVENT_SAMPLE``); the countdowns carry the remainders.
        self._sent_accounted = 0
        self._recv_accounted = 0
        # Cumulative marks at the last roll(), for window deltas.
        self._rolled_sent = 0
        self._rolled_recv = 0
        # Window accumulators, reset by roll().
        self._win_start: Optional[float] = None
        self._win_retries = 0
        self._win_drops = 0
        self._win_handler_seconds = 0.0
        self._win_handler_calls = 0
        self._win_shortcut_hits = 0
        self._win_shortcut_misses = 0
        self._win_sub_matches = 0

    # ------------------------------------------------------------------
    # Hooks (called from the hot paths; keep them tiny)
    # ------------------------------------------------------------------
    def on_send(self, kind: str) -> None:
        # Fires on every transport send; see EVENT_SAMPLE for why the
        # common path is a bare countdown tick.
        n = self.send_countdown - 1
        if n:
            self.send_countdown = n
        else:
            self.send_countdown = EVENT_SAMPLE
            self._sent_accounted += EVENT_SAMPLE
            self.sent_by_kind[kind] += EVENT_SAMPLE

    def on_recv(self, kind: str) -> None:
        n = self.profile_countdown - 1
        if n:
            self.profile_countdown = n
        else:
            self.profile_countdown = EVENT_SAMPLE
            self._recv_accounted += EVENT_SAMPLE
            self.recv_by_kind[kind] += EVENT_SAMPLE

    def sent_total(self) -> int:
        """Exact lifetime send count (countdown carries the remainder)."""
        return self._sent_accounted + (EVENT_SAMPLE - self.send_countdown)

    def recv_total(self) -> int:
        """Exact lifetime receive count."""
        return self._recv_accounted + (EVENT_SAMPLE - self.profile_countdown)

    def on_handler(self, kind: str, wall_seconds: float) -> None:
        self.handler_seconds[kind] += wall_seconds
        self.handler_calls[kind] += 1
        self._win_handler_seconds += wall_seconds
        self._win_handler_calls += 1

    def on_retry(self) -> None:
        self.retries += 1
        self._win_retries += 1
        # A retry is the sender-side image of a drop: best-effort loss is
        # invisible at the sender, so retransmissions of critical
        # exchanges are the node's only drop signal about its own links.
        self._win_drops += 1

    def on_dead_letter(self) -> None:
        self.dead_letters += 1

    def on_shortcut(self, hit: bool) -> None:
        if hit:
            self.shortcut_hits += 1
            self._win_shortcut_hits += 1
        else:
            self.shortcut_misses += 1
            self._win_shortcut_misses += 1

    def on_sub_match(self) -> None:
        self.sub_matches += 1
        self._win_sub_matches += 1

    def on_notify_retry(self) -> None:
        # Counted on top of on_retry(): the generic retry fires for every
        # reliable kind, this one attributes NOTIFY push pressure.
        self.notify_retries += 1

    def on_notify_dead_letter(self) -> None:
        self.notify_dead_letters += 1

    # ------------------------------------------------------------------
    # Rolling
    # ------------------------------------------------------------------
    def roll(
        self,
        now: float,
        store_size: int = 0,
        anti_entropy_debt: int = 0,
        queue_depth: int = 0,
        suspects: Tuple[Tuple[NodeAddress, float], ...] = (),
        sub_registered: int = 0,
        pressure: float = 0.0,
        sheds: int = 0,
    ) -> VitalsDigest:
        """Close the current window and emit the next digest version."""
        if self._win_start is None:
            window = 0.0
        else:
            window = max(0.0, now - self._win_start)
        denom = window if window > 0.0 else 1.0
        sent_total = self.sent_total()
        recv_total = self.recv_total()
        win_sent = sent_total - self._rolled_sent
        win_recv = recv_total - self._rolled_recv
        lookups = self._win_shortcut_hits + self._win_shortcut_misses
        handler_ms = (
            self._win_handler_seconds / self._win_handler_calls * 1000.0
            if self._win_handler_calls
            else 0.0
        )
        self.version += 1
        # Constructed by writing the field dict directly: the frozen
        # __init__ pays one object.__setattr__ per field, and this runs
        # once per node per heartbeat tick on the telemetry hot path.
        # Semantically identical to calling VitalsDigest(...).
        digest = object.__new__(VitalsDigest)
        digest.__dict__.update(
            version=self.version,
            window=window,
            sent_rate=win_sent / denom,
            recv_rate=win_recv / denom,
            drop_rate=self._win_drops / denom,
            retry_rate=self._win_retries / denom,
            dead_letters=self.dead_letters,
            store_size=store_size,
            anti_entropy_debt=anti_entropy_debt,
            shortcut_hit_rate=(
                self._win_shortcut_hits / lookups if lookups else 0.0
            ),
            handler_ms=handler_ms,
            queue_depth=queue_depth,
            suspects=tuple(suspects[:MAX_SUSPECTS]),
            # object.__new__ bypasses the dataclass defaults, so every
            # field must be written explicitly here -- including the
            # subscription trio.
            sub_registered=sub_registered,
            sub_match_rate=self._win_sub_matches / denom,
            sub_notify_retries=self.notify_retries,
            pressure=pressure,
            sheds=sheds,
        )
        self.last_digest = digest
        self._win_start = now
        self._rolled_sent = sent_total
        self._rolled_recv = recv_total
        self._win_retries = 0
        self._win_drops = 0
        self._win_handler_seconds = 0.0
        self._win_handler_calls = 0
        self._win_shortcut_hits = 0
        self._win_shortcut_misses = 0
        self._win_sub_matches = 0
        return digest

    def totals(self) -> Dict[str, int]:
        """Cumulative lifetime counters (dashboard drill-down)."""
        return {
            "sent": self.sent_total(),
            "recv": self.recv_total(),
            "retries": self.retries,
            "dead_letters": self.dead_letters,
            "shortcut_hits": self.shortcut_hits,
            "shortcut_misses": self.shortcut_misses,
            "sub_matches": self.sub_matches,
            "notify_retries": self.notify_retries,
            "notify_dead_letters": self.notify_dead_letters,
        }


# ----------------------------------------------------------------------
# Observer-side sampling (dashboard / export)
# ----------------------------------------------------------------------
def cluster_sample(cluster: Any) -> Dict[str, Any]:
    """One observer-side sample of a live cluster's telemetry plane.

    Returns a plain dict (JSON-safe except for nothing -- addresses are
    rendered as strings) consumed by the dashboard renderer, the JSONL
    exporter, and the CI smoke assertions.  Deterministic given the
    cluster state, except for the wall-clock ``handler_ms`` fields.
    """
    now = cluster.scheduler.now
    nodes: List[Dict[str, Any]] = []
    live = [n for n in cluster.nodes.values() if n.alive]
    live.sort(key=lambda n: n.address)
    slo_values: Dict[str, List[float]] = {}
    for pnode in live:
        digest = pnode.vitals.last_digest
        flags = pnode.health_flags()
        row: Dict[str, Any] = {
            "address": str(pnode.address),
            "node_id": pnode.node.node_id,
            "version": pnode.vitals.version,
            "sent_rate": digest.sent_rate if digest else 0.0,
            "recv_rate": digest.recv_rate if digest else 0.0,
            "retry_rate": digest.retry_rate if digest else 0.0,
            "dead_letters": pnode.vitals.dead_letters,
            "store_size": digest.store_size if digest else 0,
            "anti_entropy_debt": digest.anti_entropy_debt if digest else 0,
            "shortcut_hit_rate": digest.shortcut_hit_rate if digest else 0.0,
            "handler_ms": digest.handler_ms if digest else 0.0,
            "queue_depth": digest.queue_depth if digest else 0,
            "digest_bytes": digest.encoded_size() if digest else 0,
            "peers_tracked": len(pnode.health.peers),
            "flags": [str(a) for a in flags],
            "sub_registered": digest.sub_registered if digest else 0,
            "sub_matched": pnode.vitals.sub_matches,
            "sub_notified": len(pnode.notifications),
            "sub_dead_letters": pnode.vitals.notify_dead_letters,
            "pressure": digest.pressure if digest else 0.0,
            "sheds": pnode.sheds,
            "shed_received": sum(pnode.shed_received.values()),
            "deflections": pnode.deflections,
        }
        nodes.append(row)
        for name, histogram in pnode.slo_histograms().items():
            slo_values.setdefault(name, []).extend(histogram.samples())
    slo: Dict[str, Dict[str, float]] = {}
    for name in sorted(slo_values):
        values = sorted(slo_values[name])
        if not values:
            continue
        slo[name] = {
            "count": len(values),
            "p50": _quantile(values, 0.50),
            "p95": _quantile(values, 0.95),
            "p99": _quantile(values, 0.99),
            "max": values[-1],
        }
    flagged = sorted(
        {flag for row in nodes for flag in row["flags"]}
    )
    return {
        "time": now,
        "nodes": nodes,
        "rates": {
            "sent": sum(r["sent_rate"] for r in nodes),
            "recv": sum(r["recv_rate"] for r in nodes),
            "retries": sum(r["retry_rate"] for r in nodes),
            "dead_letters": sum(r["dead_letters"] for r in nodes),
        },
        "slo": slo,
        "flagged": flagged,
    }


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


# ----------------------------------------------------------------------
# The demo cluster shared by `repro top` / `repro export`
# ----------------------------------------------------------------------
def demo_cluster(
    seed: int = 7,
    population: int = 10,
    drop_probability: float = 0.02,
    bounds: Optional[Any] = None,
    config: Optional[Any] = None,
) -> Tuple[Any, random.Random]:
    """Build and settle a small instrumented cluster plus a traffic rng."""
    from repro.geometry import Point, Rect
    from repro.protocol.cluster import ProtocolCluster

    if bounds is None:
        bounds = Rect(0.0, 0.0, 64.0, 64.0)
    cluster = ProtocolCluster(
        bounds,
        seed=seed,
        drop_probability=drop_probability,
        config=config,
    )
    rng = random.Random(seed * 104729 + 1)
    for _ in range(population):
        coord = Point(
            rng.uniform(bounds.x, bounds.x + bounds.width),
            rng.uniform(bounds.y, bounds.y + bounds.height),
        )
        cluster.join_node(coord, capacity=rng.choice([1.0, 10.0, 100.0]))
    cluster.run_for(40.0)
    return cluster, rng


def drive_traffic(
    cluster: Any,
    rng: random.Random,
    duration: float,
    operations: int = 6,
) -> None:
    """Issue a mixed fire-and-forget workload, then advance ``duration``.

    Mirrors the chaos arena's traffic slices: store updates, lookups, and
    routed sends originate at random live nodes so SLO histograms fill at
    the edge where the operations start.
    """
    from repro.geometry import Point, Rect

    bounds = cluster.bounds
    live = [n for n in cluster.nodes.values() if n.alive and n.joined]
    live.sort(key=lambda n: n.address)
    if live:
        for index in range(operations):
            origin = rng.choice(live)
            x = rng.uniform(bounds.x, bounds.x + bounds.width)
            y = rng.uniform(bounds.y, bounds.y + bounds.height)
            choice = index % 3
            if choice == 0:
                origin.store_update(
                    object_id=f"demo-{rng.randrange(1 << 30)}",
                    point=Point(x, y),
                )
            elif choice == 1:
                origin.store_lookup(
                    Rect(
                        max(bounds.x, x - 4.0),
                        max(bounds.y, y - 4.0),
                        8.0,
                        8.0,
                    )
                )
            else:
                origin.send_to_point(Point(x, y), "demo")
    cluster.run_for(duration)
