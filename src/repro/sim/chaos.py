"""Deterministic fault-campaign runner for the message-level protocol.

The reliability claims of :mod:`repro.protocol.reliable` -- critical
exchanges survive loss, nodes converge back to a proper partition after
faults, no stored location object is ever lost outright -- are only as
good as the faults they are tested against.  This module executes a
*seeded schedule* of the nastiest fault shapes the transport can model:

* asymmetric one-way partitions (A cannot reach B while B reaches A),
* gray failures (an endpoint silently dropping/delaying a fraction of
  its traffic while looking healthy),
* crash-with-rejoin (abrupt node loss followed by a fresh replacement),
* correlated regional outages (every region touching an area loses one
  of its owners at once),
* network-wide drop/latency spikes,
* a churn storm (Poisson join/depart/fail bursts).

Each scenario builds a cluster, stores a population of location
objects, injects its faults while update traffic keeps flowing, heals,
lets the system recover, and then drives the
:class:`repro.obs.audit.InvariantAuditor` to quiescence: the verdict
re-runs every invariant check twice, one audit interval apart, and only
violations present in *both* passes count (in-flight repair traffic is
not a failure; frozen damage is).  A scenario passes when no violation
persists and every object stored before the faults is still held by
some live owner.  Dead-letter and retry tallies from every node's
reliable channel are reported alongside, so a campaign quantifies what
the network refused to carry.

Everything is deterministic: same seed, same schedule, same verdict.
Run it from the CLI with ``python -m repro chaos`` (writes
``BENCH_chaos.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ConfigurationError, SimulationError
from repro.geometry import Point, Rect

__all__ = [
    "ChaosConfig",
    "ScenarioResult",
    "CampaignReport",
    "SCENARIOS",
    "run_scenario",
    "run_campaign",
    "run_pubsub_campaign",
]


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's knobs (every scenario runs the same schedule shape)."""

    seed: int = 7
    #: Nodes joined before any fault is injected.
    population: int = 10
    #: Location objects stored (and verified present at the end).
    objects: int = 16
    #: Baseline random drop probability during the whole scenario.
    drop_probability: float = 0.05
    #: Sim time the cluster settles before faults start.
    warmup: float = 40.0
    #: Sim time the injected faults stay active.
    fault_duration: float = 40.0
    #: Sim time between healing the faults and the quiescence verdict
    #: (failure detection, claim confrontation and rejoins need several
    #: failure-timeout periods to play out).
    recovery: float = 200.0
    #: Interval of the attached continuous invariant auditor; also the
    #: spacing of the two verdict passes.
    audit_interval: float = 5.0
    #: In-band gray-failure detection budget, in heartbeat intervals
    #: counted from fault injection.  The gray scenario *fails* unless
    #: some live node's neighborhood health view flags the victim within
    #: this many ticks -- and every scenario fails if any node flags a
    #: peer that was not the injected gray victim (zero false positives).
    detection_budget_ticks: int = 12
    #: Continuous queries registered (and acked) before faults in the
    #: pubsub campaign; the plain campaign never reads these two knobs.
    subscriptions: int = 6
    #: Targeted events per pubsub burst (one burst before the faults,
    #: one after recovery).
    pubsub_events: int = 8

    def __post_init__(self) -> None:
        if self.population < 4:
            raise ConfigurationError(
                f"population must be >= 4, got {self.population}"
            )
        if self.objects < 1:
            raise ConfigurationError(f"objects must be >= 1, got {self.objects}")
        if not (0.0 <= self.drop_probability < 0.5):
            raise ConfigurationError(
                f"drop_probability must lie in [0, 0.5), got "
                f"{self.drop_probability!r}"
            )
        for name in ("warmup", "fault_duration", "recovery"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.audit_interval <= 0:
            raise ConfigurationError("audit_interval must be positive")
        if self.detection_budget_ticks < 1:
            raise ConfigurationError(
                "detection_budget_ticks must be >= 1, got "
                f"{self.detection_budget_ticks}"
            )
        if self.subscriptions < 1:
            raise ConfigurationError(
                f"subscriptions must be >= 1, got {self.subscriptions}"
            )
        if self.pubsub_events < 1:
            raise ConfigurationError(
                f"pubsub_events must be >= 1, got {self.pubsub_events}"
            )


@dataclass
class ScenarioResult:
    """The verdict of one fault scenario."""

    name: str
    seed: int
    ok: bool
    #: Invariant violations that persisted across both verdict passes.
    violations: List[str]
    #: Objects stored before the faults that no live owner holds anymore.
    lost_objects: int
    objects: int
    #: Reliable-channel tallies summed over every node.
    dead_letters: int
    retries: int
    acked: int
    duplicates: int
    #: Total sim time the scenario ran.
    sim_time: float
    #: Scenario-specific notes (what was injected, on whom).
    detail: str = ""
    #: Address of the injected gray endpoint, when this scenario must
    #: detect one in-band (``None`` everywhere else).
    gray_expected: Optional[str] = None
    #: When the in-band telemetry plane first flagged the gray victim,
    #: in heartbeat ticks after fault injection (``None`` = never).
    detect_ticks: Optional[float] = None
    #: The detection budget the scenario ran under (heartbeat ticks).
    detect_budget: Optional[int] = None
    #: ``flagger->flagged`` pairs naming anyone other than the injected
    #: gray victim (must stay empty in every scenario).
    false_positives: List[str] = field(default_factory=list)
    #: Oracle-expected notification deliveries across the pubsub
    #: campaign's asserted bursts (0 in the plain campaign).
    expected_notifications: int = 0
    #: Expected deliveries that never arrived despite application-level
    #: publish retries -- a committed continuous query stranded by
    #: restructuring (must stay 0).
    lost_notifications: int = 0
    #: Overload-plane tallies (the flash_crowd scenario; 0 elsewhere):
    #: messages shed by ingress admission, forwarding decisions deflected
    #: around saturated nodes, and control-class sheds (must stay 0 --
    #: admission never touches membership/failover traffic).
    sheds: int = 0
    deflections: int = 0
    control_sheds: int = 0
    #: Largest per-node ingress queue depth observed during the storm,
    #: and the bound it had to stay under (0 = not asserted).
    peak_queue_depth: int = 0
    queue_bound: int = 0

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        line = (
            f"{self.name:<27} {verdict:<5} "
            f"violations={len(self.violations):<3} "
            f"lost={self.lost_objects}/{self.objects:<4} "
            f"retries={self.retries:<5} dead_letters={self.dead_letters:<4} "
            f"t={self.sim_time:g}"
        )
        if self.gray_expected is not None:
            mark = (
                f"{self.detect_ticks:g}t"
                if self.detect_ticks is not None
                else "none"
            )
            line += f" detect={mark}/{self.detect_budget}t"
        if self.false_positives:
            line += f" false_positives={len(self.false_positives)}"
        if self.expected_notifications:
            delivered = self.expected_notifications - self.lost_notifications
            line += f" notify={delivered}/{self.expected_notifications}"
        if self.sheds or self.deflections:
            line += (
                f" shed={self.sheds} deflect={self.deflections}"
                f" peak_q={self.peak_queue_depth}/{self.queue_bound}"
            )
        return line


@dataclass
class CampaignReport:
    """Every scenario's result plus campaign-level rollups."""

    seed: int
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def render(self) -> str:
        lines = [f"=== chaos campaign (seed {self.seed}) ==="]
        for result in self.results:
            lines.append(result.summary())
            if result.detail:
                lines.append(f"    {result.detail}")
            for violation in result.violations:
                lines.append(f"    persistent: {violation}")
        failed = sum(1 for result in self.results if not result.ok)
        lines.append(
            f"{len(self.results)} scenario(s), {failed} failed"
        )
        return "\n".join(lines)


class _Arena:
    """One scenario's cluster plus the bookkeeping the verdict needs."""

    BOUNDS = Rect(0.0, 0.0, 64.0, 64.0)

    def __init__(
        self, config: ChaosConfig, scenario: str, node_config: Any = None
    ) -> None:
        # Protocol imports stay local so ``repro.sim`` never depends on
        # ``repro.protocol`` at import time (the dependency points the
        # other way everywhere else).
        from repro.protocol.cluster import ProtocolCluster

        self.config = config
        self.seed = config.seed
        # Each scenario draws its schedule from an independent
        # deterministic stream derived from (campaign seed, name).
        self.rng = random.Random(f"{config.seed}:{scenario}")
        self.cluster = ProtocolCluster(
            self.BOUNDS,
            seed=config.seed,
            drop_probability=config.drop_probability,
            config=node_config,
        )
        self.auditor = self.cluster.attach_auditor(
            interval=config.audit_interval
        )
        #: Object ids stored (and acked) before the faults began.
        self.committed: Set[str] = set()
        self._versions: Dict[str, int] = {}
        self._points: Dict[str, Point] = {}
        #: In-band detection bookkeeping (the telemetry-plane contract).
        self.fault_start: Optional[float] = None
        self.gray_expected = None  # NodeAddress of the injected gray node
        self.detect_time: Optional[float] = None
        self.detect_flaggers: Set[str] = set()
        self.false_positives: Set[str] = set()

    # -- build phase ---------------------------------------------------
    def populate(self) -> None:
        config = self.config
        for index in range(config.population):
            coord = Point(
                self.rng.uniform(1.0, self.BOUNDS.x2 - 1.0),
                self.rng.uniform(1.0, self.BOUNDS.y2 - 1.0),
            )
            self.cluster.join_node(
                coord, capacity=self.rng.choice([1.0, 10.0, 100.0])
            )
        self.cluster.settle(config.warmup)
        for index in range(config.objects):
            object_id = f"obj-{index}"
            point = Point(
                self.rng.uniform(0.5, self.BOUNDS.x2 - 0.5),
                self.rng.uniform(0.5, self.BOUNDS.y2 - 0.5),
            )
            origin = self._random_live_node()
            # Synchronous write with application-level retries: the
            # object must verifiably exist before faults may eat it.
            self.cluster.store_update(
                origin.node.node_id, object_id, point, version=0,
            )
            self.committed.add(object_id)
            self._versions[object_id] = 0
            self._points[object_id] = point
        self.cluster.settle(10.0)

    # -- fault-phase helpers -------------------------------------------
    def begin_faults(self, gray_victim=None) -> None:
        """Mark fault injection; the detection clock starts here."""
        self.fault_start = self.cluster.scheduler.now
        if gray_victim is not None:
            self.gray_expected = gray_victim.address

    def poll_detection(self) -> None:
        """Read every live node's health flags (observation only).

        Strictly read-only: flags are computed from each node's existing
        health view, no rng is consumed, and nothing protocol-visible
        changes -- seeded runs stay byte-identical whether or not anyone
        polls.  Any flag naming the injected gray victim counts as a
        detection; any other flag, in any scenario, is a false positive.
        """
        now = self.cluster.scheduler.now
        live = [
            node
            for node in self.cluster.nodes.values()
            if node.alive and node.joined
        ]
        live.sort(key=lambda node: (node.address.ip, node.address.port))
        for node in live:
            for flagged in node.health_flags():
                if (
                    self.gray_expected is not None
                    and flagged == self.gray_expected
                ):
                    if self.detect_time is None:
                        self.detect_time = now
                    self.detect_flaggers.add(str(node.address))
                else:
                    self.false_positives.add(
                        f"{node.address}->{flagged}"
                    )

    def traffic_slice(self, duration: float, updates: int = 4) -> None:
        """Advance time while fire-and-forget update traffic flows.

        Updates ride normal routing (per-hop reliable) with no
        application retry, so this is exactly the traffic the reliable
        layer must carry through the active faults.
        """
        for _ in range(updates):
            object_id = self.rng.choice(sorted(self.committed))
            version = self._versions[object_id] + 1
            point = Point(
                self.rng.uniform(0.5, self.BOUNDS.x2 - 0.5),
                self.rng.uniform(0.5, self.BOUNDS.y2 - 0.5),
            )
            origin = self._random_live_node()
            origin.store_update(
                object_id, point,
                version=version, prev_point=self._points[object_id],
            )
            self._versions[object_id] = version
            self._points[object_id] = point
        self.cluster.run_for(duration)
        # Every scenario's traffic loop doubles as the detection poll:
        # the gray scenario needs sightings, the other five need proof
        # of silence.
        self.poll_detection()

    def _random_live_node(self):
        live = [
            node
            for node in self.cluster.nodes.values()
            if node.alive and node.joined
        ]
        if not live:
            raise SimulationError("no live joined node to originate traffic")
        return self.rng.choice(live)

    def live_primaries(self) -> List:
        return [
            node
            for node in self.cluster.nodes.values()
            if node.alive
            and node.joined
            and node.owned is not None
            and node.owned.role == "primary"
        ]

    def rejoin_replacement(self, coord: Point, capacity: float = 10.0) -> None:
        """A crashed node's replacement coming back up at the same spot."""
        self.cluster.join_node(coord, capacity=capacity, settle_time=200.0)

    # -- verdict -------------------------------------------------------
    def verdict(self, name: str, detail: str) -> ScenarioResult:
        from repro.protocol.node import HEARTBEAT_INTERVAL
        from repro.protocol.reliable import tally_stats

        config = self.config
        # A detection landing just after the heal still counts (scores
        # decay over the recovery, so poll before settling too).
        self.poll_detection()
        self.cluster.settle(config.recovery)
        self.poll_detection()
        first = {
            (violation.check, violation.subject): violation
            for violation in self.auditor.run_checks()
        }
        # One audit interval later: anything still broken the same way is
        # frozen damage, not repair traffic.
        self.cluster.run_for(config.audit_interval * 2)
        second = {
            (violation.check, violation.subject)
            for violation in self.auditor.run_checks()
        }
        persistent = sorted(
            str(violation)
            for key, violation in first.items()
            if key in second
        )
        surviving: Set[str] = set()
        for node in self.cluster.nodes.values():
            if node.alive and node.owned is not None:
                for record in node.owned.store.records():
                    surviving.add(record.object_id)
        lost = sorted(self.committed - surviving)
        stats = tally_stats(
            node.reliable for node in self.cluster.nodes.values()
        )
        if lost:
            suffix = f"; lost: {', '.join(lost[:5])}"
            detail = detail + suffix if detail else suffix.lstrip("; ")
        # In-band detection verdict: the gray scenario must have flagged
        # its victim within the tick budget; nobody, in any scenario,
        # may have flagged anyone else.
        detect_ticks: Optional[float] = None
        detected_in_budget = True
        if self.gray_expected is not None:
            if self.detect_time is not None and self.fault_start is not None:
                detect_ticks = round(
                    (self.detect_time - self.fault_start)
                    / HEARTBEAT_INTERVAL,
                    2,
                )
                detected_in_budget = (
                    detect_ticks <= config.detection_budget_ticks
                )
            else:
                detected_in_budget = False
            if self.detect_time is not None:
                detail += (
                    f"; flagged in-band by {len(self.detect_flaggers)} "
                    f"node(s) after {detect_ticks:g} heartbeat tick(s)"
                )
            else:
                detail += "; NOT flagged in-band"
        false_positives = sorted(self.false_positives)
        return ScenarioResult(
            name=name,
            seed=config.seed,
            ok=(
                not persistent
                and not lost
                and not false_positives
                and detected_in_budget
            ),
            violations=persistent,
            lost_objects=len(lost),
            objects=len(self.committed),
            dead_letters=stats["dead_lettered"],
            retries=stats["retries"],
            acked=stats["acked"],
            duplicates=stats["duplicates"],
            sim_time=self.cluster.scheduler.now,
            detail=detail,
            gray_expected=(
                str(self.gray_expected)
                if self.gray_expected is not None
                else None
            ),
            detect_ticks=detect_ticks,
            detect_budget=(
                config.detection_budget_ticks
                if self.gray_expected is not None
                else None
            ),
            false_positives=false_positives,
        )


class _PubSubArena(_Arena):
    """An :class:`_Arena` carrying a committed continuous-query load.

    The pubsub campaign runs every scenario with this arena instead of
    the plain one.  During :meth:`populate` a population of standing
    queries is registered *synchronously* (every registration acked, so
    the subscriptions are committed before any fault exists) and a
    pre-fault burst of targeted events proves baseline delivery under
    the ambient drop rate.  The verdict then lets the scenario's
    restructuring finish and publishes a post-heal burst: an
    oracle-expected notification that never arrives despite
    application-level publish retries means a committed lease was
    stranded -- exactly the failure the partition-following handoffs
    must prevent.  All pubsub randomness comes from its own stream
    (``seed:scenario:pubsub``), so the underlying fault schedule is the
    same one the plain campaign runs.
    """

    def __init__(self, config: ChaosConfig, scenario: str) -> None:
        from repro.workload.subscriptions import SubscriptionWorkload

        super().__init__(config, scenario)
        self.pubsub_rng = random.Random(f"{config.seed}:{scenario}:pubsub")
        self.pubsub = SubscriptionWorkload(
            self.BOUNDS,
            subscriptions=config.subscriptions,
            rng=self.pubsub_rng,
            # Leases must outlive the scenario: expiry correctness has
            # its own regression tests; this campaign tests survival.
            duration=1_000_000.0,
            hit_ratio=0.7,
        )
        #: Workload name -> (subscriber node id, protocol sub id, rect).
        self.sub_homes: Dict[str, tuple] = {}
        self.expected_notifications = 0
        self.lost_pairs: List[str] = []

    def populate(self) -> None:
        super().populate()
        clients = sorted(
            (
                node
                for node in self.cluster.nodes.values()
                if node.alive and node.joined
            ),
            key=lambda node: (node.address.ip, node.address.port),
        )
        for op in self.pubsub.initial_subscriptions():
            client = clients[op.subscriber % len(clients)]
            sub_id, _ack = self.cluster.subscribe(
                client.node.node_id, op.rect, duration=op.duration
            )
            self.sub_homes[op.name] = (client.node.node_id, sub_id, op.rect)
        self.cluster.settle(10.0)
        # The pre-fault committed burst: delivery must work under the
        # ambient drop rate before faults are allowed to complicate it.
        self.publish_burst(self.config.pubsub_events)

    # -- event side ----------------------------------------------------
    def publish_burst(
        self, count: int, attempts: int = 4, wait: float = 15.0
    ) -> None:
        """Publish ``count`` events and assert oracle-expected delivery.

        PUBLISH routing is fire-and-forget (only the NOTIFY leg rides
        the reliable channel), so on a lossy network the application
        retries the publish -- each retry is a distinct event, and the
        at-least-once contract makes the duplicates harmless.  A pair
        still missing after every attempt is recorded as lost.
        """
        for op in self.pubsub.publish_step(count):
            expected = []
            for name in sorted(self.sub_homes):
                node_id, sub_id, rect = self.sub_homes[name]
                if not self.cluster.nodes[node_id].alive:
                    continue  # the subscribing client itself died
                if rect.covers(
                    op.point, closed_low_x=True, closed_low_y=True
                ):
                    expected.append((name, node_id, sub_id))
            self.expected_notifications += len(expected)
            if not expected:
                continue
            missing = list(expected)
            for _ in range(attempts):
                publisher = self._random_live_pubsub_node()
                publisher.publish(op.point, op.payload)
                self.cluster.run_for(wait)
                missing = [
                    entry
                    for entry in missing
                    if not self._delivered(entry[1], entry[2], op.payload)
                ]
                if not missing:
                    break
            for name, _node_id, _sub_id in missing:
                self.lost_pairs.append(f"{name}->{op.payload}")

    def _delivered(self, node_id: int, sub_id: str, payload) -> bool:
        return any(
            note.sub_id == sub_id and note.payload == payload
            for note in self.cluster.nodes[node_id].notifications
        )

    def _random_live_pubsub_node(self):
        live = [
            node
            for node in self.cluster.nodes.values()
            if node.alive and node.joined
        ]
        if not live:
            raise SimulationError("no live joined node to publish from")
        return self.pubsub_rng.choice(live)

    # -- verdict -------------------------------------------------------
    def verdict(self, name: str, detail: str) -> ScenarioResult:
        # Let the scenario's restructuring finish first, then prove the
        # committed queries still deliver: the post-heal burst *is* the
        # partition-following assertion.
        self.cluster.settle(self.config.recovery)
        self.publish_burst(self.config.pubsub_events)
        result = super().verdict(name, detail)
        result.expected_notifications = self.expected_notifications
        result.lost_notifications = len(self.lost_pairs)
        if self.lost_pairs:
            result.ok = False
            result.detail += "; lost notifications: " + ", ".join(
                self.lost_pairs[:5]
            )
        return result


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _scenario_asymmetric_partition(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """One direction of a primary-to-primary link silently eats traffic."""
    arena = arena if arena is not None else _Arena(
        config, "asymmetric_partition"
    )
    arena.populate()
    primaries = arena.live_primaries()
    a, b = arena.rng.sample(primaries, 2)
    network = arena.cluster.network
    arena.begin_faults()
    network.block_one_way(a.address, b.address)
    slices = max(4, int(config.fault_duration / 10.0))
    for _ in range(slices):
        arena.traffic_slice(config.fault_duration / slices)
    network.heal_partitions()
    return arena.verdict(
        "asymmetric_partition",
        f"blocked {a.address} -> {b.address} (reverse path stayed up)",
    )


def _scenario_gray_failure(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """One endpoint drops 25% and delays 50% of its traffic, both ways."""
    arena = arena if arena is not None else _Arena(config, "gray_failure")
    arena.populate()
    victim = arena.rng.choice(arena.live_primaries())
    network = arena.cluster.network
    arena.begin_faults(gray_victim=victim)
    network.set_gray(
        victim.address,
        drop_fraction=0.25,
        extra_delay=1.5,
        delay_fraction=0.5,
    )
    # Gray failures are *persistent* -- that is what distinguishes them
    # from a transient storm -- so the affliction outlives the generic
    # fault window.  The detection budget still bounds the SLA: the
    # verdict fails unless the victim is flagged in-band within
    # ``detection_budget_ticks`` heartbeat intervals of injection.
    window = 2.0 * config.fault_duration
    # Fine-grained slices (with the update rate held constant) so the
    # detection poll sees a flag within a tick of it first firing.
    slices = max(8, int(window / 5.0))
    for _ in range(slices):
        arena.traffic_slice(window / slices, updates=2)
    network.clear_gray(victim.address)
    return arena.verdict(
        "gray_failure",
        f"{victim.address} dropped 25% / delayed 50% of its traffic",
    )


def _scenario_crash_restart(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """A primary dies abruptly; a replacement rejoins at the same spot."""
    arena = arena if arena is not None else _Arena(config, "crash_restart")
    arena.populate()
    # Crash a *replicated* primary: a solo primary's store has no other
    # copy anywhere, so losing it is by design, not a protocol failure
    # (the guarantee under test is that the secondary takes over).
    replicated = [
        primary
        for primary in arena.live_primaries()
        if primary.owned is not None and primary.owned.peer is not None
    ]
    victim = arena.rng.choice(replicated or arena.live_primaries())
    coord = victim.node.coord
    arena.begin_faults()
    arena.cluster.crash_node(victim.node.node_id)
    slices = max(4, int(config.fault_duration / 10.0))
    for _ in range(slices):
        arena.traffic_slice(config.fault_duration / slices)
    arena.rejoin_replacement(coord)
    return arena.verdict(
        "crash_restart",
        f"crashed {victim.address}, rejoined a replacement at {coord}",
    )


def _scenario_regional_outage(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """Every region touching one quadrant loses an owner at once.

    At most one owner per region crashes, so each affected region's data
    survives on its other owner -- the correlated-failure shape a real
    rack or availability-zone outage produces.
    """
    arena = arena if arena is not None else _Arena(config, "regional_outage")
    arena.populate()
    bounds = arena.BOUNDS
    quadrant = Rect(
        bounds.x, bounds.y, bounds.width / 2.0, bounds.height / 2.0
    )
    crashed: List[str] = []
    arena.begin_faults()
    for primary in arena.live_primaries():
        if not primary.owned.rect.intersects(quadrant):
            continue
        arena.cluster.crash_node(primary.node.node_id)
        crashed.append(str(primary.address))
        if len(crashed) >= max(1, config.population // 3):
            break  # an outage, not an extinction
    slices = max(4, int(config.fault_duration / 10.0))
    for _ in range(slices):
        arena.traffic_slice(config.fault_duration / slices)
    # The zone comes back: fresh capacity rejoins inside the quadrant.
    for _ in crashed:
        arena.rejoin_replacement(
            Point(
                arena.rng.uniform(quadrant.x + 1.0, quadrant.x2 - 1.0),
                arena.rng.uniform(quadrant.y + 1.0, quadrant.y2 - 1.0),
            )
        )
    return arena.verdict(
        "regional_outage",
        f"crashed {len(crashed)} primaries in {quadrant}: "
        + ", ".join(crashed),
    )


def _scenario_drop_latency_spike(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """Network-wide congestion: loss triples and every delivery slows."""
    arena = arena if arena is not None else _Arena(
        config, "drop_latency_spike"
    )
    arena.populate()
    network = arena.cluster.network
    normal_drop = network.drop_probability
    arena.begin_faults()
    network.drop_probability = min(0.45, max(0.15, normal_drop * 3.0))
    network.extra_latency += 2.0
    slices = max(4, int(config.fault_duration / 10.0))
    for _ in range(slices):
        arena.traffic_slice(config.fault_duration / slices)
    network.drop_probability = normal_drop
    network.extra_latency -= 2.0
    return arena.verdict(
        "drop_latency_spike",
        "drop tripled to "
        f"{min(0.45, max(0.15, normal_drop * 3.0)):g}, +2.0 latency on "
        "every delivery",
    )


def _scenario_churn_storm(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """A Poisson burst of joins, departures and crashes."""
    from repro.sim.churn import ChurnConfig, ChurnProcess

    arena = arena if arena is not None else _Arena(config, "churn_storm")
    arena.populate()
    cluster = arena.cluster

    def spawn() -> bool:
        coord = Point(
            arena.rng.uniform(1.0, arena.BOUNDS.x2 - 1.0),
            arena.rng.uniform(1.0, arena.BOUNDS.y2 - 1.0),
        )
        # Fire-and-forget: the join completes (or retries) on the
        # scheduler; churn callbacks must never re-enter the event loop.
        node = cluster.spawn_node(coord, capacity=arena.rng.choice([1.0, 10.0]))
        node.start_join()
        return True

    def remove(graceful: bool) -> bool:
        # Only nodes whose region has a live counterpart may leave: a
        # solo primary's store exists nowhere else, so removing one
        # loses data *by design* (crash) or punches a permanent hole
        # (depart detaches without a handoff target).  The scenario
        # tests recovery from survivable churn, not those guarantees.
        alive = {
            node.address
            for node in cluster.nodes.values()
            if node.alive and node.joined
        }
        candidates = [
            node
            for node in cluster.nodes.values()
            if node.alive
            and node.joined
            and node.owned is not None
            and node.owned.peer in alive
        ]
        if len(candidates) <= 4:
            return False
        victim = arena.rng.choice(candidates)
        if graceful:
            victim.depart()
        else:
            victim.crash()
        return True

    churn = ChurnProcess(
        cluster.scheduler,
        random.Random(f"{config.seed}:churn_storm:process"),
        ChurnConfig(
            join_rate=0.25,
            leave_rate=0.1,
            fail_rate=0.1,
            min_population=4,
            max_population=config.population * 2,
        ),
        spawn=spawn,
        remove=remove,
        population=cluster.alive_count,
    )
    arena.begin_faults()
    churn.start()
    slices = max(4, int(config.fault_duration / 10.0))
    for _ in range(slices):
        arena.traffic_slice(config.fault_duration / slices)
    churn.stop()
    return arena.verdict(
        "churn_storm",
        f"churn: {churn.joins} joins, {churn.departures} departures, "
        f"{churn.failures} crashes ({churn.suppressed} suppressed)",
    )


#: Per-node ingress queue-depth ceiling the flash_crowd scenario must
#: stay under while the storm runs.  Deterministic for a given seed, so
#: this is a regression bound, not a statistical one: with admission
#: control on, the observed peak stays far below (the shed feedback
#: starves the amplification the storm would otherwise feed).
FLASH_CROWD_QUEUE_BOUND = 192

#: Storm operations aimed at the crowd per traffic slice -- 10x the
#: ambient slice's 4 updates.
FLASH_CROWD_STORM_OPS = 40


def _scenario_flash_crowd(
    config: ChaosConfig, arena: Optional[_Arena] = None
) -> ScenarioResult:
    """A query storm drives 10x ambient load at one weak region.

    The arena runs with the overload plane enabled
    (``NodeConfig.overload_enabled``): the crowd centers on the weakest
    live primary (smallest capacity, hence smallest admission budget),
    so data-plane queries must shed while committed store objects,
    control traffic and the invariant suite stay untouched.  The
    verdict additionally asserts the overload contract: something was
    shed, *no* control-class message was shed, and every node's ingress
    queue depth stayed under :data:`FLASH_CROWD_QUEUE_BOUND`.  When an
    outer campaign supplies its own arena (e.g. the pubsub campaign's),
    the storm still runs but the overload contract is skipped -- that
    arena's cluster has the plane disabled, which is precisely the
    graceful-degradation ablation.
    """
    from repro.protocol import overload
    from repro.protocol.node import NodeConfig
    from repro.workload.hotspot import HotspotField

    overload_on = arena is None
    arena = arena if arena is not None else _Arena(
        config,
        "flash_crowd",
        node_config=NodeConfig(overload_enabled=True),
    )
    arena.populate()
    cluster = arena.cluster
    network = cluster.network
    # The crowd gathers over the weakest primary: smallest capacity =
    # smallest admission budget, so this is the node the plane must
    # protect.  Deterministic tie-break by address.
    hot = min(
        arena.live_primaries(),
        key=lambda node: (
            node.node.capacity, node.address.ip, node.address.port
        ),
    )
    storm_rng = random.Random(f"{config.seed}:flash_crowd:storm")
    field = HotspotField.flash_crowd(
        arena.BOUNDS,
        storm_rng,
        center=hot.owned.rect.center,
        burst_radius=max(1.0, min(hot.owned.rect.width,
                                  hot.owned.rect.height) / 2.0),
        intensity=10.0,
        ambient=3,
    )
    # The bound covers the storm and recovery, not join-time churn.
    network.reset_peak_in_flight()
    arena.begin_faults()
    slices = max(4, int(config.fault_duration / 10.0))
    for index in range(slices):
        live = sorted(
            (
                node
                for node in cluster.nodes.values()
                if node.alive and node.joined
            ),
            key=lambda node: (node.address.ip, node.address.port),
        )
        for op in range(FLASH_CROWD_STORM_OPS):
            point = field.sample_point(storm_rng)
            origin = storm_rng.choice(live)
            if op % 2:
                origin.send_to_point(point, "crowd")
            else:
                origin.store_lookup(
                    Rect(
                        max(arena.BOUNDS.x, point.x - 2.0),
                        max(arena.BOUNDS.y, point.y - 2.0),
                        4.0,
                        4.0,
                    )
                )
        arena.traffic_slice(config.fault_duration / slices)
        if index == slices // 2 - 1:
            # Mid-storm the crowd drifts (the epoch-migration knob):
            # the hotspot the plane defends is a moving target.
            field.migrate_epoch(storm_rng)
    result = arena.verdict(
        "flash_crowd",
        f"10x storm at {hot.address} (capacity {hot.node.capacity:g}, "
        f"rect {hot.owned.rect if hot.owned else 'moved'})",
    )
    nodes = list(cluster.nodes.values())
    control_kinds = {
        kind
        for kind, priority in overload.PRIORITY_OF.items()
        if priority in (overload.PRIORITY_CONTROL, overload.PRIORITY_ACK)
    }
    result.sheds = sum(node.sheds for node in nodes)
    result.deflections = sum(node.deflections for node in nodes)
    result.control_sheds = sum(
        count
        for node in nodes
        for kind, count in node.shed_by_kind.items()
        if kind in control_kinds
    )
    result.peak_queue_depth = network.max_peak_in_flight()
    result.queue_bound = FLASH_CROWD_QUEUE_BOUND
    if overload_on:
        problems = []
        if result.sheds == 0:
            problems.append("storm provoked no shedding")
        if result.control_sheds:
            problems.append(
                f"{result.control_sheds} control-class message(s) shed"
            )
        if result.peak_queue_depth > result.queue_bound:
            problems.append(
                f"peak queue depth {result.peak_queue_depth} exceeded "
                f"bound {result.queue_bound}"
            )
        if problems:
            result.ok = False
            result.detail += "; " + "; ".join(problems)
    return result


#: Every scenario the campaign knows, in execution order.
SCENARIOS: Dict[str, Callable[[ChaosConfig], ScenarioResult]] = {
    "asymmetric_partition": _scenario_asymmetric_partition,
    "gray_failure": _scenario_gray_failure,
    "crash_restart": _scenario_crash_restart,
    "regional_outage": _scenario_regional_outage,
    "drop_latency_spike": _scenario_drop_latency_spike,
    "churn_storm": _scenario_churn_storm,
    "flash_crowd": _scenario_flash_crowd,
}


def run_scenario(
    name: str, config: Optional[ChaosConfig] = None
) -> ScenarioResult:
    """Run one named scenario (see :data:`SCENARIOS`)."""
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](config if config is not None else ChaosConfig())


def run_campaign(
    config: Optional[ChaosConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Run the full seeded fault campaign (or a named subset)."""
    config = config if config is not None else ChaosConfig()
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    report = CampaignReport(seed=config.seed)
    for name in names:
        report.results.append(run_scenario(name, config))
    return report


def run_pubsub_campaign(
    config: Optional[ChaosConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """The fault campaign with a committed continuous-query load on top.

    Every scenario runs its usual fault schedule against a
    :class:`_PubSubArena`: subscriptions registered and acked before the
    faults, a delivery-asserted event burst before and after.  On top of
    the plain campaign's verdict, a scenario fails if any
    oracle-expected notification was lost
    (``lost_notifications`` must be 0 everywhere).
    """
    config = config if config is not None else ChaosConfig()
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    report = CampaignReport(seed=config.seed)
    for name in names:
        if name not in SCENARIOS:
            raise ConfigurationError(
                f"unknown chaos scenario {name!r}; known: "
                f"{sorted(SCENARIOS)}"
            )
        arena = _PubSubArena(config, name)
        report.results.append(SCENARIOS[name](config, arena=arena))
    return report
