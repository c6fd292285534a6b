"""The two protocol-layer workloads: ``lookup_uniform`` and ``track_churn``.

Both drive a :class:`repro.protocol.ProtocolCluster` of 128 nodes through
its public client API (``send_to_point``, ``store_lookup``,
``store_update``, ``subscribe``, ``crash_node``, ``spawn_node``) in an
open loop over simulated time: every operation is generated from the
seed before the timed phase, injected into the event queue at its due
time whether or not earlier ones finished, and timed from that due time.
Completion is read from outside, by polling the origin node's public
result containers (``delivered``, ``store_acks``, ``store_results``,
``notifications``) every ``POLL`` time units, so a latency is the first
poll at or after the answer arrived, minus the due time.

An operation that gets no answer within ``RETRY_AFTER`` is issued again
(a client library's retry; store updates are idempotent by version), and
one still unanswered ``DEADLINE`` after its due time counts as failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.query import reset_query_ids
from repro.core.region import reset_region_ids
from repro.errors import SimulationError
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol.node import reset_request_ids
from repro.sim.rng import RngStreams
from repro.workload.moving import MovingObjectWorkload

from common import (
    AREA_SIDE,
    CheckFailed,
    RunResult,
    SteadyClock,
    check_in_rect,
    covers,
    latency_figures,
    median,
    percentile,
    range_rect,
    tail_percentile,
    uniform_point,
)

BOUNDS = Rect(0.0, 0.0, AREA_SIDE, AREA_SIDE)
#: Simulated-time resolution of completion polling.
POLL = 0.1
#: An unanswered operation is re-issued this long after its last attempt.
RETRY_AFTER = 20.0
#: An operation unanswered this long after its due time has failed.
DEADLINE = 60.0
#: Quiet time after the last answer before the output checks run.
SETTLE_BEFORE_CHECKS = 30.0
#: Side of a standing subscription's rectangle (miles).
SUB_SIDE = 8.0
#: Simulated seconds per timing chunk of the timed phase.
CHUNK = 10.0
#: Joins per set-up timing lap.
JOIN_LAP = 16
CAPACITIES = (1.0, 10.0, 100.0)
#: Seed of the deployment: node positions, capacities and the cluster's
#: own randomness (the experiments' default seed).  It is fixed so that
#: ``--seed`` varies the offered load on one deployment: a placement
#: sets the neighbor-table sizes, and with them the heartbeat traffic
#: and its host cost, which would otherwise move with every seed.
DEPLOYMENT_SEED = 20070625


@dataclass(frozen=True)
class ProtocolLoad:
    """The shape of one protocol workload."""

    name: str
    nodes: int
    drop: float
    config: Callable[[], NodeConfig]
    #: Objects stored during set-up.
    objects: int
    route_rate: float
    range_rate: float
    #: Moving objects report every ``report_period`` (0 = no updates).
    report_period: float = 0.0
    subscriptions: int = 0
    crashes: int = 0
    joins: int = 0
    #: Simulated seconds of offered load per host second asked for.
    sim_per_host_s: float = 20.0
    settle: float = 40.0


LOOKUP_UNIFORM = ProtocolLoad(
    name="lookup_uniform",
    nodes=128,
    drop=0.0,
    config=NodeConfig,
    objects=256,
    route_rate=10.0,
    range_rate=5.0,
    sim_per_host_s=40.0,
)

TRACK_CHURN = ProtocolLoad(
    name="track_churn",
    nodes=128,
    drop=0.01,
    config=lambda: NodeConfig(adaptation_enabled=True, overload_enabled=True),
    objects=256,
    route_rate=0.0,
    range_rate=5.0,
    report_period=5.0,
    subscriptions=32,
    crashes=4,
    joins=4,
    sim_per_host_s=12.0,
)


def smoke(load: ProtocolLoad) -> ProtocolLoad:
    """A tiny instance of ``load`` for the benchmark's own tests."""
    return replace(
        load,
        nodes=16,
        objects=16,
        subscriptions=min(load.subscriptions, 4),
        crashes=min(load.crashes, 1),
        joins=min(load.joins, 1),
        sim_per_host_s=10.0,
        settle=20.0,
    )


@dataclass
class Op:
    """One generated client operation (or churn event)."""

    due: float
    kind: str  # route | range | update | crash | join
    origin: int = -1
    point: Optional[Point] = None
    rect: Optional[Rect] = None
    object_id: str = ""
    version: int = 0
    prev_point: Optional[Point] = None
    capacity: float = 1.0
    # Filled in while the op runs.
    rids: List[int] = field(default_factory=list)
    last_issue: float = 0.0
    done_at: Optional[float] = None


@dataclass
class Schedule:
    """Everything generated from the seed for one run."""

    coords: List[Tuple[Point, float]]
    preload: List[Tuple[str, Point]]
    subs: List[Tuple[int, Rect]]
    ops: List[Op]
    duration: float


def _reset_ids() -> None:
    reset_query_ids()
    reset_region_ids()
    reset_request_ids()


def _nearest(coords: List[Tuple[Point, float]], live: List[int], p: Point) -> int:
    return min(
        live,
        key=lambda i: (coords[i][0].x - p.x) ** 2 + (coords[i][0].y - p.y) ** 2,
    )


def member(cluster: ProtocolCluster, origin: int) -> int:
    """``origin`` when it is a joined member, else the nearest member.

    A node can be out of the overlay for a while (crashed, or rejoining
    after losing an ownership conflict); a client attached to it goes
    through the closest node that currently is a member.
    """
    node = cluster.nodes[origin]
    if node.alive and node.joined:
        return origin
    here = node.node.coord
    members = [i for i, n in cluster.nodes.items() if n.alive and n.joined]
    return min(members, key=lambda i: (cluster.nodes[i].node.coord.distance_to(here), i))


def _via(cluster: ProtocolCluster, origin: int, call) -> Tuple[int, int]:
    """Issue ``call(node)`` through ``origin``'s member; (node id, request id)."""
    node_id = member(cluster, origin)
    return node_id, call(cluster.nodes[node_id])


def _poisson(rng: random.Random, rate: float, duration: float) -> List[float]:
    out: List[float] = []
    if rate <= 0:
        return out
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def generate(load: ProtocolLoad, seed: int, duration: float) -> Schedule:
    """Draw the whole run's inputs from ``seed`` (no program involved)."""
    streams = RngStreams(seed)
    place = RngStreams(DEPLOYMENT_SEED).stream("placement")
    coords = [
        (
            uniform_point(place),
            place.choice(CAPACITIES),
        )
        for _ in range(load.nodes)
    ]
    initial = list(range(load.nodes))
    ops: List[Op] = []
    churn = streams.stream("churn")
    crashed = sorted(churn.sample(initial, load.crashes))
    for node_id in crashed:
        ops.append(Op(due=duration / 3.0, kind="crash", origin=node_id))
    for _ in range(load.joins):
        ops.append(
            Op(
                due=2.0 * duration / 3.0,
                kind="join",
                point=uniform_point(churn),
                capacity=churn.choice(CAPACITIES),
            )
        )

    def live_at(t: float) -> List[int]:
        if load.crashes and t >= duration / 3.0:
            return [i for i in initial if i not in crashed]
        return initial

    traffic = streams.stream("traffic")
    for due in _poisson(traffic, load.route_rate, duration):
        ops.append(
            Op(
                due=due,
                kind="route",
                origin=traffic.choice(live_at(due)),
                point=uniform_point(traffic),
            )
        )
    for due in _poisson(traffic, load.range_rate, duration):
        ops.append(
            Op(
                due=due,
                kind="range",
                origin=traffic.choice(live_at(due)),
                rect=range_rect(traffic),
            )
        )

    objects = streams.stream("objects")
    preload: List[Tuple[str, Point]]
    if load.report_period > 0:
        movers = MovingObjectWorkload(BOUNDS, load.objects, objects)
        preload = [(r.object_id, r.point) for r in movers.initial_reports()]
        phases = {oid: objects.uniform(0.0, load.report_period) for oid in movers.object_ids()}
        due_steps = sorted(
            (phases[oid] + k * load.report_period, oid)
            for oid in movers.object_ids()
            for k in range(int(duration / load.report_period) + 1)
            if phases[oid] + k * load.report_period < duration
        )
        for due, oid in due_steps:
            report = movers.step_one(oid)
            ops.append(
                Op(
                    due=due,
                    kind="update",
                    origin=_nearest(coords, live_at(due), report.point),
                    point=report.point,
                    object_id=oid,
                    version=report.version,
                    prev_point=report.prev_point,
                )
            )
    else:
        preload = [
            (f"obj{i}", uniform_point(objects))
            for i in range(load.objects)
        ]
    subs = []
    sub_rng = streams.stream("subscriptions")
    for _ in range(load.subscriptions):
        corner = uniform_point(sub_rng, AREA_SIDE - SUB_SIDE)
        rect = Rect(corner.x, corner.y, SUB_SIDE, SUB_SIDE)
        subs.append((sub_rng.choice(live_at(duration)), rect))
    ops.sort(key=lambda op: op.due)
    return Schedule(coords=coords, preload=preload, subs=subs, ops=ops, duration=duration)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build(
    load: ProtocolLoad, schedule: Schedule, progress: Callable[[], None] = lambda: None
) -> Tuple[ProtocolCluster, Dict[str, int]]:
    """Build and settle the cluster, store the preload, register subs.

    ``progress`` is called after every ``JOIN_LAP`` joins (the set-up
    timer laps there).  Returns the cluster and the version each
    preloaded object was acked at.  Raises :class:`CheckFailed` when the
    preload is not stored.
    """
    _reset_ids()
    cluster = ProtocolCluster(
        BOUNDS, seed=DEPLOYMENT_SEED, drop_probability=load.drop, config=load.config()
    )
    for index, (coord, capacity) in enumerate(schedule.coords, 1):
        cluster.join_node(coord, capacity=capacity)
        if index % JOIN_LAP == 0:
            progress()
    cluster.run_for(load.settle)
    nodes = cluster.nodes
    origins = list(range(load.nodes))
    updates = {}
    for index, (object_id, point) in enumerate(schedule.preload):
        origin = _nearest(schedule.coords, origins, point) if load.report_period else index % load.nodes
        updates[object_id] = lambda o=origin, i=object_id, p=point: _via(
            cluster, o, lambda n: n.store_update(i, p, version=1)
        )
    _settle_batch(cluster, updates, lambda node, rid: rid in node.store_acks, "preload update")
    subs = {}
    lease = 10.0 * schedule.duration + 1000.0
    for index, (origin, rect) in enumerate(schedule.subs):
        sub_id = f"bench/{index}"
        subs[sub_id] = lambda o=origin, r=rect, s=sub_id: _via(
            cluster, o, lambda n: n.subscribe(r, duration=lease, sub_id=s)[0]
        )
    _settle_batch(cluster, subs, lambda node, rid: rid in node.sub_acks, "subscription")
    cluster.run_for(load.settle)
    return cluster, {object_id: 1 for object_id, _ in schedule.preload}


def _settle_batch(cluster, requests, answered, what) -> None:
    """Issue every request at once, re-issue the unanswered, wait for all."""
    rids = {key: [issue()] for key, issue in requests.items()}
    for _attempt in range(3):
        deadline = cluster.scheduler.now + RETRY_AFTER
        while cluster.scheduler.now < deadline:
            cluster.run_for(1.0)
            for key in [k for k, ids in rids.items() if any(answered(cluster.nodes[o], r) for o, r in ids)]:
                del rids[key]
            if not rids:
                return
        for key, ids in rids.items():
            ids.append(requests[key]())
    raise CheckFailed(f"{len(rids)} {what}s never acknowledged during set-up")


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------
class OpenLoop:
    """Runs a schedule against a built cluster and times each operation."""

    def __init__(self, cluster: ProtocolCluster, schedule: Schedule, acked: Dict[str, int]) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.acked = acked
        self.start = cluster.scheduler.now
        self.latency: Dict[str, List[float]] = {"route": [], "range": [], "update": [], "notify": []}
        self.route_hops: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.retries = 0
        self.chunk_host_s: List[float] = []
        self.node_seconds = 0.0
        self.peak_pending = 0
        self._pending: Dict[Tuple[int, int], Op] = {}
        self._open: List[Op] = []
        self._seen_delivered: Dict[int, int] = {}
        self._seen_notify: Dict[int, int] = {}
        self._update_due: Dict[Tuple[str, int], float] = {}

    # -- issuing -------------------------------------------------------
    def _issue(self, op: Op) -> None:
        cluster = self.cluster
        now = cluster.scheduler.now
        if op.kind == "crash":
            cluster.crash_node(op.origin)
            return
        if op.kind == "join":
            cluster.spawn_node(op.point, op.capacity).start_join()
            return
        node_id = member(cluster, op.origin)
        node = cluster.nodes[node_id]
        if op.kind == "route":
            rid = node.send_to_point(op.point, None)
        elif op.kind == "range":
            rid = node.store_lookup(op.rect)
        else:
            rid = node.store_update(op.object_id, op.point, version=op.version, prev_point=op.prev_point)
        if not op.rids:
            self.attempted += 1
            self._open.append(op)
        else:
            self.retries += 1
        op.rids.append(rid)
        op.last_issue = now
        self._pending[(node_id, rid)] = op

    def _complete(self, op: Op, now: float, hops: Optional[int] = None) -> None:
        """Record the first answer to ``op`` (later answers are ignored)."""
        if op.done_at is not None:
            return
        op.done_at = now
        self.completed += 1
        self.latency[op.kind].append(now - self.start - op.due)
        if hops is not None:
            self.route_hops.append(hops)
        if op.kind == "update":
            self.acked[op.object_id] = max(self.acked.get(op.object_id, 0), op.version)

    # -- polling -------------------------------------------------------
    def _poll(self, now: float) -> None:
        nodes = self.cluster.nodes
        for node_id in {origin for origin, _ in self._pending}:
            node = nodes[node_id]
            seen = self._seen_delivered.get(node_id, 0)
            for ack in node.delivered[seen:]:
                op = self._pending.get((node_id, ack.request_id))
                if op is None or op.kind != "route":
                    continue
                if ack.region is None or not covers(ack.region, op.point):
                    raise CheckFailed(
                        f"route to {op.point} delivered by region {ack.region}, which does not cover it"
                    )
                self._complete(op, now, ack.hops)
            self._seen_delivered[node_id] = len(node.delivered)
        for key, op in self._pending.items():
            node = nodes[key[0]]
            if op.kind == "range":
                results = node.store_results.get(key[1])
                if results:
                    for result in results:
                        check_in_rect(op.rect, result.records)
                    self._complete(op, now)
            elif op.kind == "update":
                ack = node.store_acks.get(key[1])
                if ack is not None:
                    self._complete(op, now, ack.hops)
        for op in self._open:
            if op.done_at is not None:
                continue
            age = now - self.start - op.due
            if age >= DEADLINE:
                op.done_at = float("nan")
                self.failed += 1
            elif now - op.last_issue >= RETRY_AFTER:
                self._issue(op)
        self._open = [op for op in self._open if op.done_at is None]
        for key in [k for k, op in self._pending.items() if op.done_at is not None]:
            del self._pending[key]

    def _poll_notifications(self, now: float) -> None:
        for origin in sorted({origin for origin, _ in self.schedule.subs}):
            node = self.cluster.nodes[origin]
            seen = self._seen_notify.get(origin, 0)
            for note in node.notifications[seen:]:
                key = note.event_key
                if len(key) == 3 and key[0] == "store":
                    due = self._update_due.get((key[1], key[2]))
                    if due is not None:
                        self.latency["notify"].append(now - self.start - due)
            self._seen_notify[origin] = len(node.notifications)

    # -- driving -------------------------------------------------------
    def run(self) -> None:
        scheduler = self.cluster.scheduler
        ops = self.schedule.ops
        for op in ops:
            if op.kind == "update":
                self._update_due[(op.object_id, op.version)] = op.due
        self.cluster.network.reset_peak_in_flight()
        network_sent = self.cluster.network.stats.sent
        i = 0
        step = 0
        horizon = self.schedule.duration
        steps_per_chunk = int(round(CHUNK / POLL))
        clock = SteadyClock()
        while True:
            step += 1
            boundary = self.start + step * POLL
            while i < len(ops) and self.start + ops[i].due <= boundary:
                op = ops[i]
                scheduler.at(self.start + op.due, lambda op=op: self._issue(op))
                i += 1
            scheduler.run_until(boundary)
            self._poll(boundary)
            if self.schedule.subs:
                self._poll_notifications(boundary)
            pending = scheduler.pending()
            if pending > self.peak_pending:
                self.peak_pending = pending
            if step % steps_per_chunk == 0:
                self.node_seconds += CHUNK * self.cluster.alive_count()
                if boundary - self.start <= horizon + 1e-9:
                    self.chunk_host_s.append(clock.lap())
            if i == len(ops) and not self._open and boundary - self.start >= horizon:
                break
        self.sent = self.cluster.network.stats.sent - network_sent


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_outputs(cluster: ProtocolCluster, loop: OpenLoop) -> None:
    """Raise :class:`CheckFailed` when the program's outputs are wrong."""
    try:
        cluster.check_partition(allow_caretaker_holes=True)
    except SimulationError as exc:
        raise CheckFailed(f"partition check: {exc}") from exc
    check_acked_objects(cluster, loop.acked)


def check_acked_objects(cluster: ProtocolCluster, acked: Dict[str, int]) -> None:
    """Every acked object is held by a live primary at >= its acked version."""
    held: Dict[str, int] = {}
    for node in cluster.nodes.values():
        if node.alive and node.owned is not None and node.owned.role == "primary":
            for record in node.owned.store.records():
                if record.version > held.get(record.object_id, -1):
                    held[record.object_id] = record.version
    for object_id, version in sorted(acked.items()):
        have = held.get(object_id)
        if have is None or have < version:
            raise CheckFailed(
                f"object {object_id!r} acked at version {version} but live primaries hold "
                f"{'nothing' if have is None else f'version {have}'}"
            )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(load: ProtocolLoad, seed: int, seconds: float, setups: int = 3, tracer=None) -> RunResult:
    """Set up ``setups`` times (timing each), then run the timed phase."""
    gen_started = time.perf_counter()
    duration = max(CHUNK, round(seconds * load.sim_per_host_s / CHUNK) * CHUNK)
    schedule = generate(load, seed, duration)
    gen_s = time.perf_counter() - gen_started

    clock = SteadyClock()
    setup_times = []
    for _ in range(setups):
        clock.skip()
        laps: List[float] = []
        cluster, acked = build(load, schedule, lambda: laps.append(clock.lap()))
        setup_times.append(sum(laps) + clock.lap())
    loop = OpenLoop(cluster, schedule, acked)
    if tracer is not None:
        tracer.begin_timed(cluster=cluster)
    loop.run()
    if tracer is not None:
        tracer.end_timed()
    cluster.run_for(SETTLE_BEFORE_CHECKS)
    check_outputs(cluster, loop)
    return summarize(cluster, loop, setup_times, gen_s)


def summarize(cluster, loop: OpenLoop, setup_times, gen_s) -> RunResult:
    """Turn one finished run into its metrics.

    Everything but ``setup_s`` and ``ops_per_s`` is a function of the
    seed alone and lands in ``deterministic`` too.
    """
    stats = cluster.network.stats
    host_s = sum(loop.chunk_host_s)
    result = RunResult(attempted=loop.attempted, failed=loop.failed, chunk_host_s=loop.chunk_host_s)
    result.metrics["setup_s"] = (median(setup_times), "s")
    result.metrics["ops_per_s"] = (loop.completed / host_s, "1/s")
    result.metrics["ok_frac"] = ((loop.attempted - loop.failed) / loop.attempted, "1")
    report = result.report
    report["failed_frac"] = (loop.failed / loop.attempted, "1")
    report["msgs_per_node_s"] = (loop.sent / loop.node_seconds, "1/s")
    for kind in ("route", "range", "update", "notify"):
        samples = loop.latency[kind]
        if samples:
            report.update(latency_figures(kind, samples))
            result.samples[kind] = len(samples)
    if loop.route_hops:
        hops = loop.route_hops
        tail = tail_percentile(len(hops))
        report["route_hops_p50"] = (percentile(hops, 50), "hops")
        report[f"route_hops_p{tail}"] = (percentile(hops, tail), "hops")
        result.metrics["route_hops_mean"] = (sum(hops) / len(hops), "hops")
    result.deterministic = {
        "events": cluster.scheduler.fired,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "retries": loop.retries,
        "route_hops_mean": result.metrics["route_hops_mean"][0],
        **{k: v for k, (v, _u) in report.items()},
    }
    result.layers["workload.gen_s"] = (gen_s, "s")
    result.trace_inputs = {
        "route_hops": loop.route_hops,
        "peak_pending": loop.peak_pending,
        "peak_in_flight": cluster.network.max_peak_in_flight(),
    }
    return result
