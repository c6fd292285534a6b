"""The continuous invariant auditor for the message-level protocol.

PR 2's split-brain and phantom-region bugs were only *noticed* at the end
of a run, when a quiescence assertion failed -- by which point the trace
ring held hours of unrelated traffic and the hunt for "when did coverage
first break?" was manual.  The auditor closes that gap: attached to a
:class:`~repro.protocol.cluster.ProtocolCluster` it re-checks the
protocol's global invariants at a configurable sim-time interval and, on
violation, records an ``audit_violation`` journal event so the flight
recorder's slice around that moment *is* the forensic dump.

Checks (each individually selectable):

* ``overlap`` -- no two live primaries' regions intersect (the double
  hole-grant split brain is exactly this).  **Hard**: reported the tick
  it appears.
* ``coverage`` -- live primaries plus caretakers cover the whole plane.
* ``symmetry`` -- adjacent live primaries know each other (neighbor-link
  symmetry; a one-sided link is how phantom regions and missed
  retractions begin).
* ``dualpeer`` -- a primary's ``peer`` points at a live secondary that
  agrees on the rect and points back.
* ``store_placement`` -- the latest version of every stored location
  object resides at an owner whose territory covers its position (stale
  older copies awaiting eviction are tolerated; lookups deduplicate them
  last-writer-wins).
* ``store_replication`` -- a primary's store and its live secondary's
  replica converge at quiescence.  The violation subject includes the
  divergence fingerprint, so divergence that keeps *changing* (updates in
  flight) never confirms -- only divergence frozen across two ticks,
  which is exactly what the bounded anti-entropy pass should have
  repaired, does.
* ``shortcuts`` -- every node's routing shortcut cache is structurally
  consistent: within capacity, never naming the node itself, never
  overlapping the node's own region, and never duplicating a
  neighbor-table rect (a shortcut is by definition a *non-neighbor*
  entry).  Staleness against the *global* partition is deliberately not
  checked -- lagging entries are the cache's normal state and the
  MISROUTE path repairs them lazily.
* ``telemetry`` -- the in-band telemetry plane stays structurally
  consistent: a node's digest version never regresses between audit
  ticks, the last digest fits the wire byte budget, health views never
  track their own owner, stay within capacity, and never hold a peer
  digest version *ahead* of what that peer has actually rolled (a view
  ahead of its source means fabricated or corrupted evidence).
* ``subscriptions`` -- every live continuous-query record sits at a
  primary whose territory (or caretaken ground) touches the watched
  rectangle, and a primary's subscription index converges with its live
  secondary's replica at quiescence (same frozen-divergence fingerprint
  trick as ``store_replication``).  Expired leases awaiting the next
  sweep are tolerated; only *live* records can be phantoms.

All checks except ``overlap`` are **soft**: legitimately violated for a
grant's flight time during growth, so a finding is only *reported* when
it persists across two consecutive audit ticks (deterministic debounce).
A reported violation stays active until its key clears, so the
``violations`` list records state *transitions* -- the first entry is
"when it first broke".

The auditor reads only the same global test-harness view the cluster's
own quiescence assertions use; it never mutates protocol state, so
auditing a run cannot change its outcome (beyond consuming rng-free
scheduler slots, which do not perturb message timing).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import SimulationError

__all__ = ["AuditError", "AuditViolation", "InvariantAuditor", "ALL_CHECKS"]

#: Every check the auditor knows, in report order.
ALL_CHECKS = (
    "overlap",
    "coverage",
    "symmetry",
    "dualpeer",
    "store_placement",
    "store_replication",
    "shortcuts",
    "telemetry",
    "subscriptions",
)

#: Relative tolerance on area comparisons (matches the cluster checks).
_AREA_EPS = 1e-6


class AuditError(SimulationError):
    """Raised when ``halt_on_violation`` is set and an invariant breaks."""


@dataclass(frozen=True)
class AuditViolation:
    """One confirmed invariant violation."""

    #: Sim time of the audit tick that confirmed the violation.
    time: float
    #: Which invariant broke (one of :data:`ALL_CHECKS`).
    check: str
    #: ``"hard"`` (structural, reported immediately) or ``"soft"``
    #: (debounced across two ticks).
    severity: str
    #: Stable identity of the violation (rects/addresses involved), used
    #: for debounce and journal correlation.
    subject: str
    #: Human-readable description.
    detail: str
    #: Machine-readable context (e.g. ``{"rects": [...], "owners": [...]}``)
    #: for forensics tooling.
    data: Dict[str, object] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[t={self.time:g}] {self.check}/{self.severity}: {self.detail}"
        )


class InvariantAuditor:
    """Periodically audit a protocol cluster's global invariants.

    ``cluster`` is duck-typed: anything with ``nodes`` (mapping to
    protocol nodes), ``bounds`` and ``scheduler`` works, so tests can
    audit hand-built fixtures.
    """

    def __init__(
        self,
        cluster,
        interval: float = 5.0,
        checks: Sequence[str] = ALL_CHECKS,
        allow_caretaker_holes: bool = True,
        halt_on_violation: bool = False,
    ) -> None:
        unknown = set(checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown audit checks: {sorted(unknown)}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.cluster = cluster
        self.interval = interval
        self.checks = tuple(checks)
        self.allow_caretaker_holes = allow_caretaker_holes
        self.halt_on_violation = halt_on_violation
        #: Confirmed violations, in confirmation order (state transitions:
        #: one entry per key per breakage episode).
        self.violations: List[AuditViolation] = []
        #: Number of completed audit ticks.
        self.ticks = 0
        self._timer = None
        #: Soft findings seen last tick, awaiting confirmation.
        self._pending: Dict[Tuple[str, str], AuditViolation] = {}
        #: Keys currently in reported-violation state.
        self._active: Set[Tuple[str, str]] = set()
        #: Digest versions seen at the previous pass, keyed by address
        #: string (the ``telemetry`` monotonicity memo).
        self._vitals_memo: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InvariantAuditor":
        """Arm the periodic audit timer on the cluster's scheduler."""
        if self._timer is None:
            self._timer = self.cluster.scheduler.every(
                self.interval, self.tick
            )
        return self

    def stop(self) -> None:
        """Disarm the audit timer."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def tick(self) -> List[AuditViolation]:
        """Run one audit pass; returns the violations confirmed this tick.

        Hard findings confirm immediately; soft findings confirm on their
        second consecutive sighting.  Confirmed violations are appended to
        :attr:`violations`, journaled, and -- with ``halt_on_violation``
        -- raised as :class:`AuditError`.
        """
        self.ticks += 1
        now = self.cluster.scheduler.now
        findings = self.run_checks()
        confirmed: List[AuditViolation] = []
        pending: Dict[Tuple[str, str], AuditViolation] = {}
        seen: Set[Tuple[str, str]] = set()
        for violation in findings:
            key = (violation.check, violation.subject)
            seen.add(key)
            if key in self._active:
                continue  # already reported; still broken
            if violation.severity == "hard" or key in self._pending:
                confirmed.append(violation)
                self._active.add(key)
            else:
                pending[key] = violation
        self._pending = pending
        self._active &= seen  # cleared keys may be re-reported later
        for violation in confirmed:
            self.violations.append(violation)
            obs.record(
                "audit_violation",
                now,
                check=violation.check,
                severity=violation.severity,
                subject=violation.subject,
                detail=violation.detail,
            )
        if confirmed and self.halt_on_violation:
            raise AuditError(
                f"invariant violation at t={now:g}: {confirmed[0].detail}"
            )
        return confirmed

    def run_checks(self) -> List[AuditViolation]:
        """One stateless audit pass: every enabled check, no debounce."""
        now = self.cluster.scheduler.now
        nodes = [node for node in self.cluster.nodes.values() if node.alive]
        primaries = [
            node
            for node in nodes
            if node.joined
            and node.owned is not None
            and node.owned.role == "primary"
        ]
        findings: List[AuditViolation] = []
        if "overlap" in self.checks:
            findings.extend(self._check_overlap(now, primaries))
        if "coverage" in self.checks:
            findings.extend(self._check_coverage(now, nodes, primaries))
        if "symmetry" in self.checks:
            findings.extend(self._check_symmetry(now, primaries))
        if "dualpeer" in self.checks:
            findings.extend(self._check_dualpeer(now, nodes, primaries))
        if "store_placement" in self.checks:
            findings.extend(self._check_store_placement(now, nodes, primaries))
        if "store_replication" in self.checks:
            findings.extend(
                self._check_store_replication(now, nodes, primaries)
            )
        if "shortcuts" in self.checks:
            findings.extend(self._check_shortcuts(now, nodes))
        if "telemetry" in self.checks:
            findings.extend(self._check_telemetry(now, nodes))
        if "subscriptions" in self.checks:
            findings.extend(self._check_subscriptions(now, nodes, primaries))
        return findings

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------
    def _check_overlap(self, now, primaries) -> List[AuditViolation]:
        findings = []
        for i, a in enumerate(primaries):
            for b in primaries[i + 1 :]:
                ra, rb = a.owned.rect, b.owned.rect
                if ra == rb or ra.intersects(rb):
                    rects = sorted((str(ra), str(rb)))
                    owners = sorted((str(a.address), str(b.address)))
                    findings.append(
                        AuditViolation(
                            time=now,
                            check="overlap",
                            severity="hard",
                            subject="|".join(rects),
                            detail=(
                                f"primaries {owners[0]} and {owners[1]} "
                                f"both claim overlapping ground: "
                                f"{rects[0]} vs {rects[1]}"
                            ),
                            data={"rects": rects, "owners": owners},
                        )
                    )
        return findings

    def _check_coverage(self, now, nodes, primaries) -> List[AuditViolation]:
        bounds = self.cluster.bounds
        covered = sum(node.owned.rect.area for node in primaries)
        missing = bounds.area - covered
        if missing <= _AREA_EPS * bounds.area:
            return []
        caretaken = 0.0
        holes: Set[tuple] = set()
        for node in nodes:
            for rect in getattr(node, "caretaker_rects", ()):
                key = rect.as_tuple()
                if key not in holes:
                    holes.add(key)
                    caretaken += rect.area
        if (
            self.allow_caretaker_holes
            and missing <= caretaken + _AREA_EPS * bounds.area
        ):
            return []  # the documented degraded-but-serviceable state
        return [
            AuditViolation(
                time=now,
                check="coverage",
                severity="soft",
                subject=f"missing~{missing:.6g}",
                detail=(
                    f"primaries cover {covered:g} of {bounds.area:g} "
                    f"(caretakers stand in for {caretaken:g}); "
                    f"{missing - caretaken:g} of the plane is unserved"
                ),
                data={"missing": missing, "caretaken": caretaken},
            )
        ]

    def _check_symmetry(self, now, primaries) -> List[AuditViolation]:
        findings = []
        for i, a in enumerate(primaries):
            for b in primaries[i + 1 :]:
                ra, rb = a.owned.rect, b.owned.rect
                if not ra.is_neighbor_of(rb):
                    continue
                a_knows = rb in a.neighbor_table
                b_knows = ra in b.neighbor_table
                if a_knows and b_knows:
                    continue
                gaps = []
                if not a_knows:
                    gaps.append(f"{a.address} lacks {rb}")
                if not b_knows:
                    gaps.append(f"{b.address} lacks {ra}")
                owners = sorted((str(a.address), str(b.address)))
                findings.append(
                    AuditViolation(
                        time=now,
                        check="symmetry",
                        severity="soft",
                        subject="~".join(owners),
                        detail=(
                            "neighbor link broken between adjacent "
                            f"primaries: {'; '.join(gaps)}"
                        ),
                        data={"owners": owners},
                    )
                )
        return findings

    def _check_dualpeer(self, now, nodes, primaries) -> List[AuditViolation]:
        findings = []
        by_address = {node.address: node for node in nodes}
        for primary in primaries:
            peer_address = primary.owned.peer
            if peer_address is None:
                continue
            peer = by_address.get(peer_address)
            if peer is None or not peer.alive:
                continue  # the failure sweep will evict it; not split state
            agrees = (
                peer.owned is not None
                and peer.owned.role == "secondary"
                and peer.owned.rect == primary.owned.rect
                and peer.owned.peer == primary.address
            )
            if agrees:
                continue
            findings.append(
                AuditViolation(
                    time=now,
                    check="dualpeer",
                    severity="soft",
                    subject=f"{primary.address}+{peer_address}",
                    detail=(
                        f"primary {primary.address} of "
                        f"{primary.owned.rect} names live peer "
                        f"{peer_address}, which does not reciprocate"
                    ),
                    data={
                        "primary": str(primary.address),
                        "secondary": str(peer_address),
                        "rect": str(primary.owned.rect),
                    },
                )
            )
        return findings

    def _check_store_placement(
        self, now, nodes, primaries
    ) -> List[AuditViolation]:
        """Every live object's latest version sits at a covering owner."""
        holders: List[tuple] = []  # (node, record)
        best: Dict[object, object] = {}
        for node in primaries:
            store = getattr(node.owned, "store", None)
            if store is None:
                continue
            for record in store.records():
                holders.append((node, record))
                current = best.get(record.object_id)
                if current is None or record.version > current.version:
                    best[record.object_id] = record
        findings = []
        for node, record in holders:
            if record is not best.get(record.object_id):
                continue  # a stale copy awaiting eviction; lookups LWW it away
            rect = node.owned.rect
            placed = rect.covers(
                record.point, closed_low_x=True, closed_low_y=True
            ) or any(
                hole.covers(record.point, closed_low_x=True, closed_low_y=True)
                for hole in getattr(node, "caretaker_rects", ())
            )
            if placed:
                continue
            findings.append(
                AuditViolation(
                    time=now,
                    check="store_placement",
                    severity="soft",
                    subject=f"{record.object_id!r}@v{record.version}",
                    detail=(
                        f"object {record.object_id!r} v{record.version} at "
                        f"{record.point} is stored by {node.address}, whose "
                        f"territory {rect} does not cover it"
                    ),
                    data={
                        "object_id": str(record.object_id),
                        "owners": [str(node.address)],
                        "rects": [str(rect)],
                    },
                )
            )
        return findings

    def _check_store_replication(
        self, now, nodes, primaries
    ) -> List[AuditViolation]:
        """Primary store and live secondary replica converge at quiescence."""
        by_address = {node.address: node for node in nodes}
        findings = []
        for primary in primaries:
            store = getattr(primary.owned, "store", None)
            peer_address = primary.owned.peer
            if store is None or peer_address is None:
                continue
            peer = by_address.get(peer_address)
            if (
                peer is None
                or not peer.alive
                or peer.owned is None
                or peer.owned.role != "secondary"
                or peer.owned.rect != primary.owned.rect
                or getattr(peer.owned, "store", None) is None
            ):
                continue  # dualpeer check owns the disagreement case
            divergent = store.diff_keys(peer.owned.store.digest())
            if not divergent:
                continue
            # Fingerprint the divergence: confirming requires the *same*
            # buckets to disagree in the *same* way on two consecutive
            # ticks, so in-flight traffic (ever-changing digests) never
            # reports, while frozen divergence -- lost replication the
            # anti-entropy pass failed to repair -- does.
            local = store.digest()
            remote = peer.owned.store.digest()
            fingerprint = "|".join(
                f"{key}:{local.get(key)}vs{remote.get(key)}"
                for key in divergent
            )
            findings.append(
                AuditViolation(
                    time=now,
                    check="store_replication",
                    severity="soft",
                    subject=(
                        f"{primary.address}+{peer_address}"
                        f"#{zlib.crc32(fingerprint.encode()):08x}"
                    ),
                    detail=(
                        f"store replicas of {primary.owned.rect} diverge in "
                        f"{len(divergent)} bucket(s) between primary "
                        f"{primary.address} and secondary {peer_address}"
                    ),
                    data={
                        "owners": [str(primary.address), str(peer_address)],
                        "rects": [str(primary.owned.rect)],
                        "buckets": [str(key) for key in divergent],
                    },
                )
            )
        return findings

    def _check_shortcuts(self, now, nodes) -> List[AuditViolation]:
        """Shortcut caches stay structurally consistent with local state.

        These are *locally enforceable* invariants -- the learning path
        guards every one of them -- so a violation means the eager
        invalidation hooks missed a partition change.  Global freshness
        is deliberately unchecked: a lagging entry is the cache's normal
        state, repaired lazily by the MISROUTE NACK.
        """
        findings = []
        for node in nodes:
            cache = getattr(node, "shortcuts", None)
            if cache is None or node.owned is None:
                continue
            problems: List[str] = []
            if len(cache) > cache.capacity:
                problems.append(
                    f"holds {len(cache)} entries over capacity "
                    f"{cache.capacity}"
                )
            own = node.owned.rect
            for info in cache.entries():
                if info.primary == node.address:
                    problems.append(f"entry {info.rect} names the node itself")
                if info.rect == own or info.rect.intersects(own):
                    problems.append(
                        f"entry {info.rect} overlaps own region {own}"
                    )
                if info.rect in node.neighbor_table:
                    problems.append(
                        f"entry {info.rect} duplicates a neighbor-table rect"
                    )
            for problem in problems:
                findings.append(
                    AuditViolation(
                        time=now,
                        check="shortcuts",
                        severity="soft",
                        subject=f"{node.address}:{problem}",
                        detail=(
                            f"shortcut cache of {node.address}: {problem}"
                        ),
                        data={"owners": [str(node.address)]},
                    )
                )
        return findings

    def _check_telemetry(self, now, nodes) -> List[AuditViolation]:
        """The telemetry plane stays structurally honest.

        Unlike the other checks this one keeps a memo across passes (the
        per-node digest version seen last time): monotonicity is a claim
        about *history*, not a property of one snapshot.  The memo is
        keyed by address and pruned to the live set, so a replacement
        node reusing an address after an intervening pass re-baselines.
        """
        from repro.obs.telemetry import DIGEST_BYTE_BUDGET

        findings = []
        live_keys: Set[str] = set()
        by_address = {node.address: node for node in nodes}
        for node in nodes:
            vitals = getattr(node, "vitals", None)
            health = getattr(node, "health", None)
            if vitals is None or health is None:
                continue
            key = str(node.address)
            live_keys.add(key)
            problems: List[str] = []
            seen = self._vitals_memo.get(key)
            if seen is not None and vitals.version < seen:
                problems.append(
                    f"digest version regressed from {seen} to "
                    f"{vitals.version}"
                )
            self._vitals_memo[key] = vitals.version
            digest = getattr(vitals, "last_digest", None)
            if digest is not None:
                size = digest.encoded_size()
                if size > DIGEST_BYTE_BUDGET:
                    problems.append(
                        f"last digest is {size} bytes, over the "
                        f"{DIGEST_BYTE_BUDGET}-byte wire budget"
                    )
            if node.address in health.peers:
                problems.append("health view tracks its own owner")
            if len(health.peers) > health.capacity:
                problems.append(
                    f"health view holds {len(health.peers)} peers over "
                    f"capacity {health.capacity}"
                )
            for peer_address in sorted(health.peers):
                peer = by_address.get(peer_address)
                if peer is None:
                    continue  # dead or departed peer: nothing to compare
                peer_vitals = getattr(peer, "vitals", None)
                if peer_vitals is None:
                    continue
                stored = health.peers[peer_address].version
                if stored > peer_vitals.version:
                    problems.append(
                        f"view holds digest v{stored} of {peer_address}, "
                        f"which has only rolled v{peer_vitals.version}"
                    )
            for problem in problems:
                findings.append(
                    AuditViolation(
                        time=now,
                        check="telemetry",
                        severity="soft",
                        subject=f"{key}:{problem}",
                        detail=f"telemetry plane of {key}: {problem}",
                        data={"owners": [key]},
                    )
                )
        # Prune departed nodes so a same-address replacement that joins
        # after at least one pass is not judged against its predecessor.
        for key in list(self._vitals_memo):
            if key not in live_keys:
                del self._vitals_memo[key]
        return findings

    def _check_subscriptions(
        self, now, nodes, primaries
    ) -> List[AuditViolation]:
        """Live continuous queries sit on touching ground and replicate.

        A *phantom* subscription -- a live lease held by a primary whose
        territory no longer touches the watched rectangle, with no
        caretaken ground touching it either -- is exactly the failure
        mode the partition-following handoffs exist to prevent: a
        split/merge/failover that moved the ground but stranded the
        lease.  Expired records awaiting the next sweep are ignored; the
        sweep owns them.  Replication divergence is fingerprinted like
        ``store_replication`` so only *frozen* divergence confirms.
        """
        by_address = {node.address: node for node in nodes}
        findings = []
        for primary in primaries:
            subs = getattr(primary.owned, "subs", None)
            if subs is None or not len(subs):
                continue
            rect = primary.owned.rect
            caretaken = tuple(getattr(primary, "caretaker_rects", ()))
            for record in subs.records():
                if not record.is_live_at(now):
                    continue  # awaiting the lease sweep; not a phantom
                if rect.touches(record.rect) or any(
                    hole.touches(record.rect) for hole in caretaken
                ):
                    continue
                findings.append(
                    AuditViolation(
                        time=now,
                        check="subscriptions",
                        severity="soft",
                        subject=f"{record.sub_id}@v{record.version}",
                        detail=(
                            f"live subscription {record.sub_id!r} "
                            f"v{record.version} on {record.rect} is held "
                            f"by {primary.address}, whose territory "
                            f"{rect} does not touch it"
                        ),
                        data={
                            "sub_id": record.sub_id,
                            "owners": [str(primary.address)],
                            "rects": [str(rect)],
                        },
                    )
                )
            peer_address = primary.owned.peer
            peer = by_address.get(peer_address) if peer_address else None
            if (
                peer is None
                or not peer.alive
                or peer.owned is None
                or peer.owned.role != "secondary"
                or peer.owned.rect != primary.owned.rect
                or getattr(peer.owned, "subs", None) is None
            ):
                continue  # dualpeer check owns the disagreement case
            divergent = []
            for record in subs.records():
                if not record.is_live_at(now):
                    continue
                replica = peer.owned.subs.get(record.sub_id)
                if replica is None or replica.version < record.version:
                    divergent.append(
                        f"{record.sub_id}:v{record.version}vs"
                        f"{'-' if replica is None else replica.version}"
                    )
            if not divergent:
                continue
            fingerprint = "|".join(divergent)
            findings.append(
                AuditViolation(
                    time=now,
                    check="subscriptions",
                    severity="soft",
                    subject=(
                        f"{primary.address}+{peer_address}"
                        f"#{zlib.crc32(fingerprint.encode()):08x}"
                    ),
                    detail=(
                        f"subscription replicas of {primary.owned.rect} "
                        f"diverge in {len(divergent)} record(s) between "
                        f"primary {primary.address} and secondary "
                        f"{peer_address}"
                    ),
                    data={
                        "owners": [str(primary.address), str(peer_address)],
                        "rects": [str(primary.owned.rect)],
                        "records": divergent,
                    },
                )
            )
        return findings

    # ------------------------------------------------------------------
    # Forensics
    # ------------------------------------------------------------------
    def journal_slice(
        self,
        violation: AuditViolation,
        window: float = 30.0,
        events: Optional[Iterable[dict]] = None,
    ) -> List[dict]:
        """The journal slice that explains ``violation``.

        Events within ``window`` sim-time units before the violation,
        plus -- regardless of age -- every event naming one of the
        violation's rects or owners (so the grants that *created* a
        split brain surface even when they predate the window).
        """
        if events is None:
            recorder = obs.flightrec()
            events = recorder.events() if recorder is not None else []
        needles = [
            str(value)
            for key in ("rects", "owners")
            for value in violation.data.get(key, ())  # type: ignore[union-attr]
        ]
        sliced = []
        for event in events:
            t = float(event.get("t", 0.0))
            if violation.time - window <= t <= violation.time:
                sliced.append(event)
                continue
            if needles:
                rendered = " ".join(str(v) for v in event.values())
                if any(needle in rendered for needle in needles):
                    sliced.append(event)
        return sliced

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InvariantAuditor(ticks={self.ticks}, "
            f"violations={len(self.violations)}, "
            f"checks={'/'.join(self.checks)})"
        )
