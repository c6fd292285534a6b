"""Neighborhood health views and gray-failure scoring.

The receiving half of the in-band telemetry plane
(:mod:`repro.obs.telemetry` is the sending half).  Each protocol node
folds the :class:`~repro.obs.telemetry.VitalsDigest` piggybacked on its
neighbors' heartbeats -- plus its own reliable-channel evidence (retries,
dead letters, ack round-trips attributed per destination) -- into a
bounded, decaying :class:`NeighborHealthView`.  A :class:`HealthScorer`
then flags *gray* peers: nodes that are alive enough to keep
heartbeating but whose links quietly eat or delay traffic.

Why this is hard: a **crashed** node goes silent, a **partitioned** one
disappears in one direction, and ambient loss degrades *everyone*
symmetrically.  None of those may be flagged (the chaos campaigns demand
zero false positives outside the gray scenario).  The scorer therefore
requires all of:

* **freshness** -- the peer must still be heard from (silent nodes are
  the classic failure detector's job, not ours);
* **corroboration** -- at least two distinct observers must attribute
  trouble to the peer.  Local evidence counts as one observer when it
  clears the gossip floor; the rest arrive as ``suspects`` entries in
  neighbor digests, discounted by how many peers the reporter blames at
  once (a node that blames everyone is itself the likely problem);
* **relative deviation** -- the peer's combined score must stand out
  against the neighborhood median, so a symmetric drop/latency storm
  that elevates every score flags nobody.

All state decays (exponential, seeded deterministic tie-breaking, no
shared rng draws), so views converge back to quiet after faults heal.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.node import NodeAddress
from repro.obs.telemetry import MAX_SUSPECTS, VitalsDigest

__all__ = [
    "HealthScorer",
    "NeighborHealthView",
    "PeerObservation",
]

#: Per-peer cap on remembered third-party reports.
REPORT_CAPACITY = 8


class PeerObservation:
    """Everything one view knows about one peer."""

    __slots__ = (
        "last_heard", "beats", "gap_ewma", "version", "digest",
        "streak_mark", "sent_weight", "recv_weight", "loss_mark",
        "retry_score", "retry_mark", "ack_ewma", "reports",
    )

    def __init__(self) -> None:
        #: Sim time of the last digest-bearing heartbeat from the peer.
        self.last_heard = float("-inf")
        self.beats = 0
        #: EWMA of (inter-arrival gap / expected interval); 1.0 = nominal.
        #: Updated only on *arrivals*: a peer that stops talking freezes
        #: its ratio instead of inflating it, which is what keeps crashed
        #: and partitioned peers out of the gray-flag path.
        self.gap_ewma = 1.0
        #: Last attested send streak (``HeartbeatBody.vitals_streak``);
        #: consecutive streak deltas count heartbeats the peer *sent* us
        #: between arrivals, loss-accounting that wall-clock gaps cannot
        #: do (they conflate loss with neighbor-set churn and jitter).
        self.streak_mark = 0
        #: Decaying count of heartbeats the peer attests it sent us.
        self.sent_weight = 0.0
        #: Decaying count of heartbeats that actually arrived.
        self.recv_weight = 0.0
        self.loss_mark = 0.0
        self.version = 0
        self.digest: Optional[VitalsDigest] = None
        #: Decaying local trouble attribution (retries, dead letters).
        self.retry_score = 0.0
        self.retry_mark = 0.0
        #: EWMA of reliable-exchange ack round-trips to this peer.
        self.ack_ewma = 0.0
        #: reporter address -> (time folded, discounted score).
        self.reports: Dict[NodeAddress, Tuple[float, float]] = {}


@dataclass(frozen=True)
class HealthScorer:
    """Tunable thresholds for gray-failure flagging.

    ``seed`` only perturbs score *tie-breaking* (a deterministic
    per-peer epsilon derived by hashing), never protocol behavior; every
    node may carry a different seed and still converge on the same flags
    because the epsilon is orders of magnitude below any threshold.
    """

    seed: int = 0
    #: Heartbeat loss below this rate is ambient noise, not evidence.
    loss_grace: float = 0.08
    #: Flat slack (in lost heartbeats) on top of the rate allowance, so
    #: one unlucky drop in an otherwise clean window scores zero.
    loss_slack: float = 0.4
    #: Score per excess lost heartbeat beyond the ambient allowance.
    loss_weight: float = 2.5
    #: Attested sends needed before the loss estimator is trusted
    #: (below it the coarse gap-ratio fallback applies).
    min_evidence: float = 4.0
    #: Gap ratios below this are nominal (heartbeat jitter + ambient
    #: loss); only consulted while loss evidence is still thin.
    gap_grace: float = 1.3
    gap_weight: float = 2.0
    retry_weight: float = 0.5
    ack_weight: float = 1.0
    #: Local score needed to gossip a suspect / count self as a reporter.
    #: Sits above what an ambient double-loss window can reach (~2.2),
    #: so coincidental noise never gets corroborated.
    report_floor: float = 2.3
    #: Fresh third-party reports expire after this many expected
    #: intervals.  Generous on purpose: a victim's observers are rarely
    #: each other's neighbors, so corroboration rides reports that must
    #: outlive the gossip hop plus the second observer's own ramp-up.
    report_ttl: float = 6.0
    #: Peers unheard for this many expected intervals leave the flag pool.
    freshness: float = 3.0
    min_reporters: int = 2
    min_score: float = 3.5
    #: A flagged score must exceed ``median_ratio`` x neighborhood median.
    median_ratio: float = 3.0
    median_floor: float = 0.25
    #: Median per-stream loss rate at/above which the whole view goes
    #: quiet: when *most* streams are losing heartbeats, the common
    #: cause is this node's own link (a gray self) or a network-wide
    #: storm, and flagging individual peers would only frame them.
    storm_rate: float = 0.18
    #: Multiplier on the neighborhood ambient loss estimate when it
    #: exceeds ``loss_grace``: a stream must lose at *this many times*
    #: the ambient rate before the excess scores.  A gray victim loses
    #: at ~6x ambient; the unluckiest stream of a congested-but-healthy
    #: neighborhood sits around 2x, inside this headroom.
    ambient_headroom: float = 2.5

    def tiebreak(self, address: NodeAddress) -> float:
        """Deterministic sub-threshold epsilon for stable orderings."""
        digest = zlib.crc32(
            f"{self.seed}:{address.ip}:{address.port}".encode("utf-8")
        )
        return (digest % 997) * 1e-9


class NeighborHealthView:
    """A bounded, decaying map of peer health evidence.

    ``owner`` (when given) is excluded from the view entirely -- a node
    never tracks itself, and the ``telemetry`` audit check enforces it.
    """

    def __init__(
        self,
        expected_interval: float = 5.0,
        capacity: int = 64,
        owner: Optional[NodeAddress] = None,
        scorer: Optional[HealthScorer] = None,
        gap_alpha: float = 0.35,
        half_life: Optional[float] = None,
        loss_half_life: Optional[float] = None,
    ) -> None:
        if expected_interval <= 0.0:
            raise ValueError(
                f"expected_interval must be positive, got {expected_interval}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.expected_interval = expected_interval
        self.capacity = capacity
        self.owner = owner
        self.scorer = scorer if scorer is not None else HealthScorer()
        self.gap_alpha = gap_alpha
        #: Decay half-life for local trouble attributions.
        self.half_life = (
            half_life if half_life is not None else 2.0 * expected_interval
        )
        #: Decay half-life for the attested sent/received counters; the
        #: effective loss window is a handful of these, long enough to
        #: average over ambient noise yet short enough to detect inside
        #: the chaos campaign's tick budget.
        self.loss_half_life = (
            loss_half_life
            if loss_half_life is not None
            else 6.0 * expected_interval
        )
        self.peers: Dict[NodeAddress, PeerObservation] = {}

    # ------------------------------------------------------------------
    # Evidence intake
    # ------------------------------------------------------------------
    def _entry(self, address: NodeAddress) -> Optional[PeerObservation]:
        """The (possibly new) entry for ``address``; None for the owner."""
        if self.owner is not None and address == self.owner:
            return None
        entry = self.peers.get(address)
        if entry is None:
            if len(self.peers) >= self.capacity:
                stalest = min(
                    self.peers,
                    key=lambda a: (self.peers[a].last_heard, a),
                )
                del self.peers[stalest]
            entry = PeerObservation()
            self.peers[address] = entry
        return entry

    def observe(
        self,
        source: NodeAddress,
        digest: VitalsDigest,
        now: float,
        streak: Optional[int] = None,
    ) -> None:
        """Fold one digest-bearing heartbeat from ``source``.

        ``streak`` is the sender's attestation of how many consecutive
        heartbeat ticks (including this one) it addressed us.  An arrival
        gap wider than the streak covers means the sender was not
        heartbeating us at all (neighbor-set churn, recovery from a
        crash) -- that is not network loss, so the gap evidence is capped
        at what the attested sends can explain.
        """
        # Fast path: the per-heartbeat cost of the telemetry plane runs
        # through here, and after the first beat the entry always exists.
        entry = self.peers.get(source)
        if entry is None:
            entry = self._entry(source)
            if entry is None:
                return
        if entry.beats > 0:
            gap = max(0.0, now - entry.last_heard)
            ratio = min(4.0, gap / self.expected_interval)
            if streak is not None and streak >= 1:
                ratio = min(ratio, float(streak))
            entry.gap_ewma += self.gap_alpha * (ratio - entry.gap_ewma)
        if streak is not None and streak >= 1:
            if 0 < entry.streak_mark < streak:
                sends = streak - entry.streak_mark
            else:
                # Streak restarted (churn, sender recovery) or first
                # attestation: only this arrival's send is accounted.
                sends = 1
            age = now - entry.loss_mark
            decay = 0.5 ** (age / self.loss_half_life) if age > 0.0 else 1.0
            entry.sent_weight = entry.sent_weight * decay + float(sends)
            entry.recv_weight = entry.recv_weight * decay + 1.0
            entry.loss_mark = now
            entry.streak_mark = streak
        else:
            entry.streak_mark = 0
        entry.beats += 1
        entry.last_heard = now
        # Versions may arrive out of order under variable latency; keep
        # the newest digest and never let the stored version regress.
        if digest.version > entry.version:
            entry.version = digest.version
            entry.digest = digest
        # Third-party trouble reports, discounted by the reporter's
        # blame fan-out (a reporter blaming many peers at once is weak
        # evidence against each of them -- and is how a gray node's own
        # scattergun attributions are kept from framing its neighbors).
        if digest.suspects:
            discount = 1.0 / len(digest.suspects)
            for subject, score in digest.suspects:
                if subject == source:
                    continue  # self-blame carries no information
                if self.owner is not None and subject == self.owner:
                    continue  # reports about me are not mine to act on
                subject_entry = self.peers.get(subject)
                if subject_entry is None:
                    continue  # only corroborate peers we hear directly
                subject_entry.reports[source] = (now, score * discount)
                while len(subject_entry.reports) > REPORT_CAPACITY:
                    oldest = min(
                        subject_entry.reports,
                        key=lambda a: (subject_entry.reports[a][0], a),
                    )
                    del subject_entry.reports[oldest]

    def _bump(self, destination: NodeAddress, now: float, weight: float) -> None:
        entry = self._entry(destination)
        if entry is None:
            return
        entry.retry_score = (
            self._decayed(entry.retry_score, now - entry.retry_mark) + weight
        )
        entry.retry_mark = now

    def note_retry(self, destination: NodeAddress, now: float) -> None:
        """A reliable exchange toward ``destination`` needed a retransmit."""
        self._bump(destination, now, 1.0)

    def note_dead_letter(self, destination: NodeAddress, now: float) -> None:
        """A reliable exchange toward ``destination`` was abandoned."""
        self._bump(destination, now, 3.0)

    def note_ack(
        self, destination: NodeAddress, rtt: float, now: float
    ) -> None:
        """A reliable exchange to ``destination`` acked after ``rtt``."""
        entry = self._entry(destination)
        if entry is None:
            return
        if entry.ack_ewma == 0.0:
            entry.ack_ewma = rtt
        else:
            entry.ack_ewma += self.gap_alpha * (rtt - entry.ack_ewma)

    def _decayed(self, score: float, age: float) -> float:
        if score <= 0.0 or age <= 0.0:
            return max(0.0, score)
        return score * 0.5 ** (age / self.half_life)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def loss_rate(self, address: NodeAddress) -> Optional[float]:
        """The attested heartbeat loss rate of ``address``'s stream.

        ``None`` until the stream has accumulated enough attested sends
        for the estimate to mean anything.
        """
        entry = self.peers.get(address)
        if entry is None or entry.sent_weight < self.scorer.min_evidence:
            return None
        lost = max(0.0, entry.sent_weight - entry.recv_weight)
        return lost / entry.sent_weight

    def _ambient_loss(self, now: float) -> float:
        """Median per-stream attested loss rate across fresh streams.

        Consumed by the storm silencer: when *most* streams are losing
        heartbeats the common cause is this node's own link or a
        network-wide storm.  The median over three or more evidenced
        streams is robust to one genuinely gray peer; with fewer it
        returns 0.0 (two lossy streams cannot attest a storm).
        """
        horizon = self.scorer.freshness * self.expected_interval
        rates = []
        for entry in self.peers.values():
            if entry.beats == 0 or now - entry.last_heard > horizon:
                continue
            if entry.sent_weight < self.scorer.min_evidence:
                continue
            lost = max(0.0, entry.sent_weight - entry.recv_weight)
            rates.append(lost / entry.sent_weight)
        if len(rates) < 3:
            return 0.0
        rates.sort()
        return rates[len(rates) // 2]

    def _ambient_excluding(self, subject: NodeAddress, now: float) -> float:
        """Pooled loss rate of every fresh stream *except* ``subject``'s.

        The baseline a single stream's loss is judged against.  Pooling
        (total lost over total sent) beats a median of per-stream rates
        here: each stream's own rate rides a window of only a handful of
        decayed heartbeats, noisy enough at elevated ambient loss that
        the unluckiest of a few streams routinely doubles the true rate
        -- exactly the false positive this baseline must absorb.  The
        pool spans every other stream's window, so its variance shrinks
        with neighborhood size, and excluding the subject keeps a gray
        victim from raising its own bar.  Returns 0.0 (no adjustment)
        until the pool itself carries minimal evidence.
        """
        horizon = self.scorer.freshness * self.expected_interval
        lost_total = 0.0
        sent_total = 0.0
        for address, entry in self.peers.items():
            if address == subject:
                continue
            if entry.beats == 0 or now - entry.last_heard > horizon:
                continue
            if entry.sent_weight < self.scorer.min_evidence:
                continue
            sent_total += entry.sent_weight
            lost_total += max(0.0, entry.sent_weight - entry.recv_weight)
        if sent_total < self.scorer.min_evidence:
            return 0.0
        return lost_total / sent_total

    def local_score(self, address: NodeAddress, now: float) -> float:
        """This node's own trouble attribution for ``address``."""
        entry = self.peers.get(address)
        if entry is None:
            return 0.0
        scorer = self.scorer
        if entry.sent_weight >= scorer.min_evidence:
            # Attested loss accounting: score the *excess* lost
            # heartbeats beyond what ambient loss explains.  The
            # allowance adapts to the rest of the neighborhood's pooled
            # baseline with multiplicative headroom, so loss a congested
            # network inflicts on *everyone* never singles out whoever
            # drew the worst dice -- while a gray victim, losing at many
            # times what its peers' streams lose, still clears it
            # immediately.
            ambient = self._ambient_excluding(address, now)
            grace = max(
                scorer.loss_grace, scorer.ambient_headroom * ambient
            )
            lost = max(0.0, entry.sent_weight - entry.recv_weight)
            allowance = grace * entry.sent_weight + scorer.loss_slack
            link = max(0.0, lost - allowance) * scorer.loss_weight
        else:
            link = (
                max(0.0, entry.gap_ewma - scorer.gap_grace)
                * scorer.gap_weight
            )
        retry = (
            self._decayed(entry.retry_score, now - entry.retry_mark)
            * scorer.retry_weight
        )
        return link + retry

    def _self_suspect(self, now: float) -> bool:
        """Whether the evidence pattern indicts *this* node, not a peer.

        One gray peer degrades one inbound stream; a gray *self* (its
        own NIC eating inbound traffic) or a network-wide storm degrades
        nearly all of them.  The median per-stream loss rate separates
        the two: it ignores a single bad peer but crosses the threshold
        when the trouble is everywhere -- and then both gossip and
        flagging go quiet rather than framing healthy peers.
        """
        return self._ambient_loss(now) >= self.scorer.storm_rate

    def suspects(
        self, now: float, limit: int = MAX_SUSPECTS
    ) -> Tuple[Tuple[NodeAddress, float], ...]:
        """The local attributions worth gossiping in the next digest."""
        scorer = self.scorer
        floor = scorer.report_floor
        # Fast path for the common case: a healthy neighborhood gossips
        # nothing, so most rolls can skip the storm check and the full
        # per-peer scoring pass.  ``bound`` is a cheap upper bound on
        # each entry's local score (retry evidence taken undecayed, loss
        # and gap terms exact); only when some entry could clear the
        # report floor does the slow path run.
        could_report = False
        for entry in self.peers.values():
            bound = entry.retry_score * scorer.retry_weight
            if entry.sent_weight >= scorer.min_evidence:
                lost = entry.sent_weight - entry.recv_weight
                excess = lost - (
                    scorer.loss_grace * entry.sent_weight + scorer.loss_slack
                )
                if excess > 0.0:
                    bound += excess * scorer.loss_weight
            elif entry.gap_ewma > scorer.gap_grace:
                bound += (entry.gap_ewma - scorer.gap_grace) * scorer.gap_weight
            if bound >= floor:
                could_report = True
                break
        if not could_report:
            return ()
        if self._self_suspect(now):
            return ()
        scored = []
        for address in sorted(self.peers):
            score = self.local_score(address, now)
            if score >= floor:
                scored.append((address, round(score, 3)))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return tuple(scored[:limit])

    def flags(self, now: float) -> List[NodeAddress]:
        """Peers this view currently calls gray, deterministically ordered."""
        if self._self_suspect(now):
            return []
        scorer = self.scorer
        fresh_horizon = scorer.freshness * self.expected_interval
        report_horizon = scorer.report_ttl * self.expected_interval
        candidates: List[Tuple[NodeAddress, float, int]] = []
        rtts = sorted(
            entry.ack_ewma
            for entry in self.peers.values()
            if entry.ack_ewma > 0.0
        )
        median_rtt = rtts[len(rtts) // 2] if len(rtts) >= 3 else 0.0
        for address in sorted(self.peers):
            entry = self.peers[address]
            if entry.beats == 0 or now - entry.last_heard > fresh_horizon:
                continue
            local = self.local_score(address, now)
            combined = local + scorer.tiebreak(address)
            if median_rtt > 0.0 and entry.ack_ewma > 2.0 * median_rtt:
                combined += (
                    (entry.ack_ewma / median_rtt - 2.0) * scorer.ack_weight
                )
            reporters = 1 if local >= scorer.report_floor else 0
            for reporter in sorted(entry.reports):
                reported_at, score = entry.reports[reporter]
                age = now - reported_at
                if age > report_horizon:
                    continue
                combined += self._decayed(score, age)
                reporters += 1
            candidates.append((address, combined, reporters))
        if not candidates:
            return []
        scores = sorted(score for _, score, _ in candidates)
        median = scores[len(scores) // 2] if len(scores) >= 3 else 0.0
        bar = max(
            scorer.min_score,
            scorer.median_ratio * max(median, scorer.median_floor),
        )
        return [
            address
            for address, score, reporters in candidates
            if reporters >= scorer.min_reporters and score >= bar
        ]

    def __len__(self) -> int:
        return len(self.peers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborHealthView(peers={len(self.peers)}, "
            f"capacity={self.capacity})"
        )
