"""One-command replay of the PR-2 double hole-grant split brain.

This module is the "turning manual hunts into a repro" payoff of the
observability stack: it re-runs the historical double hole-grant stress
scenario (originally seed 492; re-pinned to seed 14 when the shortcut-
cache PR's fan-out fix shifted the message sequence) with the
split-brain witness *disabled* (the
``NodeConfig.claim_witness_enabled`` fault-injection knob), so the double
hole-grant happens again -- and this time the continuous invariant
auditor catches the overlap the moment it appears, the flight recorder
journal names the two grants that created it, and the causal tracer
renders the hop-by-hop join traces those grants belong to.

Used by the ``python -m repro flightrec --demo`` CLI and by the
integration test that pins the whole pipeline down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import obs
from repro.geometry import Point, Rect
from repro.obs import causal
from repro.obs.audit import AuditViolation, InvariantAuditor
from repro.obs.flightrec import FlightRecorder, render_events
from repro.protocol.cluster import ProtocolCluster
from repro.protocol.node import NodeConfig
from repro.sim.latency import DistanceLatency

__all__ = ["ForensicsReport", "run_split_brain_repro"]

#: The grant decisions that can hand territory to a joiner.
GRANT_KINDS = ("grant_hole", "grant_split", "grant_secondary")


@dataclass
class ForensicsReport:
    """Everything the split-brain replay uncovered."""

    seed: int
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
        lines = [
            f"=== split-brain replay (seed {self.seed}, witness disabled) ==="
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
    drop: float = 0.01,
    settle: float = 120.0,
    audit_interval: float = 5.0,
    capacity: int = 200_000,
) -> ForensicsReport:
    """Replay the double hole-grant split brain under full observability.

    Mirrors ``test_double_hole_grant_split_brain_resolves`` -- same
    bounds, growth pattern, and settle time -- but with
    ``claim_witness_enabled=False`` so the PR-2 fix is out of the way and
    the split brain forms (and persists, giving the auditor something to
    catch).  The default seed is whichever one reproduces the double
    grant under the *current* message sequence (the corner fan-out fix
    shifted it off the historical 492).  Runs with its own
    recorder/auditor installed and restores the previous observability
    state on exit.
    """
    cluster = ProtocolCluster(
        Rect(0, 0, 64, 64),
        seed=seed,
        latency=DistanceLatency(),
        drop_probability=drop,
        # All reliability layers off: the witness (PR-2) would resolve
        # the split brain, and the reliable channel's ack/retransmit
        # exchange (grant resends included) would repair the lost grants
        # that set it up in the first place.
        # The shortcut cache is also off so the replayed message sequence
        # matches the historical (pre-shortcut) journal hop for hop.
        config=NodeConfig(
            claim_witness_enabled=False,
            shortcut_cache_size=0,
            reliable_enabled=False,
            join_retry_jitter=0.0,
            # Probes would heal tables the historical run left blind,
            # shifting the replayed message sequence off the journal.
            perimeter_probe_enabled=False,
        ),
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
        events = recorder.events()

    violations = list(auditor.violations)
    offending: List[dict] = []
    slice_: List[dict] = []
    trees: Dict[int, str] = {}
    overlap = next(
        (v for v in violations if v.check == "overlap"), None
    )
    if overlap is not None:
        contested = set(overlap.data.get("rects", ()))
        grants = [
            event
            for event in events
            if event.get("kind") in GRANT_KINDS
            and event.get("rect") in contested
        ]
        # The split brain is the *last* two grants of the contested ground
        # by different granters to different joiners; earlier same-rect
        # grants (lost, declined) are context, not the conflict.
        by_pair: Dict[Tuple[str, str], dict] = {}
        for event in grants:
            by_pair[(str(event.get("granter")), str(event.get("joiner")))] = (
                event
            )
        offending = sorted(
            by_pair.values(), key=lambda e: (e["t"], e["seq"])
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
        violations=violations,
        offending_grants=offending,
        journal_slice=slice_,
        span_trees=trees,
        recorder=recorder,
        auditor=auditor,
    )
