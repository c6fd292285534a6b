"""One-command replay of a double hole-grant split brain.

This module is the "turning manual hunts into a repro" payoff of the
observability stack.  It injects the split brain under the default
configuration, with every protection on: a region's owners die, two of
its caretakers are cut off from each other by a partition, and each
admits its own joiner into the hole (Section 2.3's failure story with
the caretakers unable to coordinate).  The continuous invariant auditor
catches the overlap the moment it appears, the flight recorder journal
names the two grants that created it, the causal tracer renders the
hop-by-hop join traces those grants belong to, and after the heal the
ownership-conflict resolver leaves a clean partition again.

Used by the ``python -m repro flightrec --demo`` CLI and by the
integration test that pins the whole pipeline down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.geometry import Point, Rect
from repro.obs import causal
from repro.obs.audit import AuditViolation, InvariantAuditor
from repro.obs.flightrec import FlightRecorder, render_events
from repro.protocol.cluster import ProtocolCluster
from repro.protocol.failure import FAILURE_HORIZON, HEARTBEAT_INTERVAL, PEER_TIMEOUT
from repro.protocol.node import ProtocolNode
from repro.sim.latency import DistanceLatency

__all__ = ["ForensicsReport", "run_split_brain_repro"]

#: The grant decisions that can hand territory to a joiner.
GRANT_KINDS = ("grant_hole", "grant_split", "grant_secondary")


@dataclass
class ForensicsReport:
    """Everything the split-brain replay uncovered."""

    seed: int
    #: The orphaned region both caretakers granted.
    hole: Rect
    #: The caretakers in partition groups ``A`` and ``B``, in that order.
    caretakers: Tuple[ProtocolNode, ProtocolNode]
    #: The joiner each caretaker admitted, in the same order.
    joiners: Tuple[ProtocolNode, ProtocolNode]
    #: ``check_partition()`` after the heal: ``None`` when it passed,
    #: else its error.
    partition_error: Optional[str]
    violations: List[AuditViolation]
    #: The journal events of the grants that created the contested ground
    #: (two grants of one rect by different granters = the split brain).
    offending_grants: List[dict]
    #: The journal slice around the first violation (what the auditor
    #: would dump on a real run).
    journal_slice: List[dict]
    #: Rendered span trees of the traces the offending grants belong to,
    #: keyed by trace id.
    span_trees: Dict[int, str] = field(default_factory=dict)
    recorder: FlightRecorder = None  # type: ignore[assignment]
    auditor: InvariantAuditor = None  # type: ignore[assignment]

    def render(self) -> str:
        """The full human-readable forensics dump."""
        groups = ", ".join(
            f"{caretaker.address} -> {joiner.address} (group {group})"
            for group, caretaker, joiner in zip(
                "AB", self.caretakers, self.joiners
            )
        )
        lines = [
            f"=== split-brain replay (seed {self.seed}) ===",
            f"orphaned {self.hole}; partitioned grants: {groups}",
            "partition check after heal: "
            + (self.partition_error or "passed"),
        ]
        if not self.violations:
            lines.append("no invariant violations (nothing to explain)")
            return "\n".join(lines)
        lines.append(f"{len(self.violations)} invariant violation(s):")
        for violation in self.violations:
            lines.append(f"  {violation}")
        # The grant chain and slice below explain the overlap (the split
        # brain itself); soft findings above are its side effects.
        first = next(
            (v for v in self.violations if v.check == "overlap"),
            self.violations[0],
        )
        lines.append("")
        lines.append(f"explaining: {first.detail} (t={first.time:g})")
        lines.append("")
        lines.append("--- offending grant chain ---")
        lines.append(render_events(self.offending_grants))
        for trace_id, tree in sorted(self.span_trees.items()):
            lines.append("")
            lines.append(f"--- span tree, trace {trace_id} ---")
            lines.append(tree)
        lines.append("")
        lines.append(
            f"--- journal slice around t={first.time:g} "
            f"({len(self.journal_slice)} events) ---"
        )
        lines.append(render_events(self.journal_slice))
        return "\n".join(lines)


def run_split_brain_repro(
    seed: int = 14,
    count: int = 14,
    settle: float = 30.0,
    audit_interval: float = 5.0,
    capacity: int = 200_000,
) -> ForensicsReport:
    """Inject a double hole grant under full observability.

    ``count`` nodes join at places drawn from ``seed``, one region is
    orphaned (:func:`_orphan_a_region`), and two of its caretakers, each
    with a fresh joiner inside the hole, go into partition groups ``A``
    and ``B``; every other node still reaches everyone.  Both joins enter
    through their own caretaker in the same tick, so each caretaker
    grants the hole.  Each phase settles for ``settle``; the partition
    then heals.  Runs with its own recorder/auditor installed and
    restores the previous observability state on exit.
    """
    cluster = ProtocolCluster(
        Rect(0, 0, 64, 64), seed=seed, latency=DistanceLatency()
    )
    with obs.flight_capture(
        capacity=capacity, clock=lambda: cluster.scheduler.now
    ) as recorder:
        auditor = cluster.attach_auditor(interval=audit_interval)
        rng = random.Random(seed)
        for _ in range(count):
            cluster.join_node(
                Point(rng.uniform(0.5, 63.5), rng.uniform(0.5, 63.5)),
                capacity=rng.choice([1, 10, 100]),
            )
        cluster.settle(settle)
        hole, caretakers = _orphan_a_region(cluster)
        joiners = (
            cluster.spawn_node(hole.sample_interior_point(2 / 3, 2 / 3)),
            cluster.spawn_node(hole.sample_interior_point(1 / 3, 1 / 3)),
        )
        for group, caretaker, joiner in zip("AB", caretakers, joiners):
            cluster.network.set_partition(caretaker.address, group)
            cluster.network.set_partition(joiner.address, group)
        for caretaker, joiner in zip(caretakers, joiners):
            joiner.start_join(entry=caretaker.address)
        cluster.settle(settle)
        cluster.network.heal_partitions()
        cluster.settle(settle)
        events = recorder.events()
    try:
        cluster.check_partition()
        partition_error = None
    except SimulationError as error:
        partition_error = str(error)

    violations = list(auditor.violations)
    offending: List[dict] = []
    slice_: List[dict] = []
    trees: Dict[int, str] = {}
    overlap = next(
        (v for v in violations if v.check == "overlap"), None
    )
    if overlap is not None:
        contested = set(overlap.data.get("rects", ()))
        # The split brain is each overlapping owner's last grant of the
        # contested ground before the auditor saw it; earlier grants of
        # the same rect (the region's history) and later ones (the heal)
        # are context, not the conflict.
        latest: Dict[str, dict] = {}
        for event in events:
            if (
                event.get("kind") in GRANT_KINDS
                and event.get("rect") in contested
                and event.get("joiner") in overlap.data.get("owners", ())
                and event["t"] <= overlap.time
            ):
                latest[event["joiner"]] = event
        offending = sorted(
            latest.values(), key=lambda e: (e["t"], e["seq"])
        )
        for event in offending:
            trace = event.get("trace_id")
            if isinstance(trace, int) and trace not in trees:
                trees[trace] = causal.render_trace(
                    causal.build_trace(events, trace)
                )
        slice_ = auditor.journal_slice(overlap, window=30.0, events=events)

    return ForensicsReport(
        seed=seed,
        hole=hole,
        caretakers=caretakers,
        joiners=joiners,
        partition_error=partition_error,
        violations=violations,
        offending_grants=offending,
        journal_slice=slice_,
        span_trees=trees,
        recorder=recorder,
        auditor=auditor,
    )


def _orphan_a_region(
    cluster: ProtocolCluster,
) -> Tuple[Rect, Tuple[ProtocolNode, ProtocolNode]]:
    """Crash both owners of one region; return it and two caretakers.

    The secondary dies first and the primary evicts it before dying
    itself, so the neighbors see a region with no standing secondary and
    caretake it.
    """
    alive = [pnode for pnode in cluster.nodes.values() if pnode.alive]
    victim = max(
        (p for p in alive if p.is_primary() and p.owned.peer is not None),
        key=lambda pnode: len(pnode.neighbor_table),
    )
    hole = victim.owned.rect
    next(p for p in alive if p.address == victim.owned.peer).crash()
    cluster.run_for(PEER_TIMEOUT + 2 * HEARTBEAT_INTERVAL)
    if victim.owned.peer is not None:
        raise SimulationError(f"{victim.address} kept its dead secondary")
    victim.crash()
    deadline = cluster.scheduler.now + 3 * FAILURE_HORIZON
    while cluster.scheduler.now < deadline:
        cluster.run_for(1.0)
        caretakers = [p for p in alive if p.alive and hole in p.caretaker_rects]
        if len(caretakers) >= 2:
            return hole, (caretakers[0], caretakers[1])
    raise SimulationError(f"fewer than two neighbors caretake {hole}")
