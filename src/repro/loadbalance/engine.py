"""The adaptation engine: runs the mechanisms in rounds.

Each *round* gives every overloaded node (trigger: index > sqrt(2) x the
lowest neighbor index) at most one adaptation: the node walks the
mechanisms in the paper's increasing-cost order and executes the first
plan that promises a strict improvement.  Expensive mechanisms -- remote
searches, splits, merges -- are thereby "used only when all the other
adaptations fail", as Section 2.4 prescribes.

The engine records every executed adaptation, so the convergence
experiments can plot the workload-index summary per round (Figures 7/8)
and per individual adaptation (Figures 9/10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.errors import AdaptationError
from repro.core.node import Node
from repro.core.overlay import BasicGeoGrid
from repro.core.region import Region
from repro.metrics.stats import StatSummary
from repro.loadbalance.base import (
    AdaptationContext,
    AdaptationRecord,
    Mechanism,
)
from repro.loadbalance.config import AdaptationConfig
from repro.loadbalance.mechanisms import default_mechanisms
from repro.loadbalance.trigger import TriggerRule
from repro.loadbalance.workload import WorkloadIndexCalculator

#: Called after each executed adaptation with the running total count and
#: the record; Figures 9/10 hook in here.
AdaptationCallback = Callable[[int, AdaptationRecord], None]


@dataclass
class RoundReport:
    """What one round of adaptation did."""

    round_number: int
    #: Nodes whose trigger fired this round.
    triggered: int
    #: Adaptations actually executed (first-applicable mechanism each).
    records: List[AdaptationRecord]
    #: Workload-index summary over all nodes *after* the round.
    summary_after: StatSummary

    @property
    def adaptations(self) -> int:
        """Number of adaptations executed this round."""
        return len(self.records)


class AdaptationEngine:
    """Drives rounds of dynamic load-balance adaptation over an overlay."""

    def __init__(
        self,
        overlay: BasicGeoGrid,
        calc: WorkloadIndexCalculator,
        config: Optional[AdaptationConfig] = None,
        mechanisms: Optional[Sequence[Mechanism]] = None,
        on_adaptation: Optional[AdaptationCallback] = None,
    ) -> None:
        self.overlay = overlay
        self.calc = calc
        self.config = config if config is not None else AdaptationConfig()
        self.mechanisms: List[Mechanism] = (
            list(mechanisms) if mechanisms is not None else default_mechanisms()
        )
        self.mechanisms.sort(key=lambda mechanism: mechanism.cost_rank)
        self.trigger = TriggerRule(
            ratio=self.config.trigger_ratio, min_index=self.config.min_index
        )
        self.ctx = AdaptationContext(
            overlay=overlay, calc=calc, config=self.config
        )
        self.on_adaptation = on_adaptation
        self.records: List[AdaptationRecord] = []
        self.round_reports: List[RoundReport] = []
        #: Estimated messages spent *executing* adaptations (handshakes,
        #: state transfers, neighbor updates); search messages are in
        #: :attr:`search_messages`.
        self.adaptation_messages = 0
        #: Plans that turned out stale at execution time and were skipped.
        self.failed_plans = 0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    @property
    def total_adaptations(self) -> int:
        """Adaptations executed over the engine's lifetime."""
        return len(self.records)

    @property
    def search_messages(self) -> int:
        """Messages spent by TTL-guided remote searches so far."""
        return self.ctx.search_messages

    def run_round(self) -> RoundReport:
        """Run one round: every overloaded node gets one adaptation try.

        Nodes are visited from most to least loaded (by their index at the
        start of the round), mirroring that the most overloaded owners are
        the first to act on the statistics they exchanged.
        """
        self.ctx.round_number += 1
        budget = self.config.max_adaptations_per_round
        indices = self.calc.all_node_indices()
        ordered = sorted(
            indices,
            key=lambda node: (-indices[node], node.node_id),
        )
        triggered = 0
        records: List[AdaptationRecord] = []
        for node in ordered:
            if budget is not None and len(records) >= budget:
                break
            if not self.trigger.should_adapt(node, self.calc):
                continue
            triggered += 1
            record = self._adapt_node(node)
            if record is None:
                continue
            records.append(record)
            self.records.append(record)
            if self.on_adaptation is not None:
                self.on_adaptation(self.total_adaptations, record)
        report = RoundReport(
            round_number=self.ctx.round_number,
            triggered=triggered,
            records=records,
            summary_after=self.calc.summary(),
        )
        self.round_reports.append(report)
        registry = obs.active()
        if registry is not None:
            registry.inc("adapt.rounds")
            registry.observe("adapt.round.triggered", triggered)
            registry.observe("adapt.round.adaptations", len(records))
            registry.trace(
                "adaptation_round",
                round=report.round_number,
                triggered=triggered,
                adaptations=len(records),
                index_mean=report.summary_after.mean,
                index_std=report.summary_after.std,
            )
        return report

    def run_rounds(self, count: int) -> List[RoundReport]:
        """Run ``count`` rounds unconditionally."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.run_round() for _ in range(count)]

    def run_until_stable(
        self, max_rounds: int = 50, quiet_rounds: int = 2
    ) -> List[RoundReport]:
        """Run rounds until ``quiet_rounds`` consecutive rounds do nothing.

        Returns the reports of all executed rounds.  This is the "does the
        adaptation converge?" probe of Section 3.2.
        """
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        reports: List[RoundReport] = []
        quiet = 0
        for _ in range(max_rounds):
            report = self.run_round()
            reports.append(report)
            if report.adaptations == 0:
                quiet += 1
                if quiet >= quiet_rounds:
                    break
            else:
                quiet = 0
        return reports

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _adapt_node(self, node: Node) -> Optional[AdaptationRecord]:
        """Give one overloaded node its single adaptation attempt."""
        regions = sorted(
            self.overlay.primary_regions(node),
            key=lambda region: (-self.calc.region_index(region), region.region_id),
        )
        for region in regions:
            if self.ctx.in_cooldown(region):
                continue
            record = self._adapt_region(region)
            if record is not None:
                return record
        return None

    def _adapt_region(self, region: Region) -> Optional[AdaptationRecord]:
        """Try the mechanisms in cost order on one overloaded region."""
        for mechanism in self.mechanisms:
            plan = mechanism.plan(region, self.ctx)
            if plan is None:
                continue
            try:
                mechanism.execute(plan, self.ctx)
            except AdaptationError:
                # A stale plan (the deployed system races its neighbors;
                # custom mechanisms may race each other): skip it and try
                # the next mechanism rather than wedging the round.
                self.failed_plans += 1
                obs.inc("adapt.failed_plans")
                continue
            self.ctx.collect_store_motion(mechanism.key)
            messages = self._estimate_messages(plan)
            self.adaptation_messages += messages
            registry = obs.active()
            if registry is not None:
                registry.inc(f"adapt.mechanism.{mechanism.key}")
                registry.observe("adapt.messages", messages)
                registry.trace(
                    "adaptation",
                    mechanism=mechanism.key,
                    round=self.ctx.round_number,
                    region=plan.region.region_id,
                    partner=(
                        plan.partner.region_id
                        if plan.partner is not None else None
                    ),
                    index_before=plan.index_before,
                    index_after=plan.index_after,
                    messages=messages,
                )
            return AdaptationRecord(
                mechanism=mechanism.key,
                round_number=self.ctx.round_number,
                region_id=plan.region.region_id,
                partner_region_id=(
                    plan.partner.region_id if plan.partner is not None else None
                ),
                index_before=plan.index_before,
                index_after=plan.index_after,
                messages=messages,
            )
        return None

    def _estimate_messages(self, plan) -> int:
        """Message cost of one executed adaptation.

        Two handshake messages, one bulk state transfer, plus one
        routing-table update to every neighbor of each affected region
        (the neighbors must learn the new owner endpoints).  Computed
        after execution, when the affected regions' final neighbor sets
        are known.
        """
        cost = 3
        affected = [plan.region]
        if plan.partner is not None:
            affected.append(plan.partner)
        space = self.overlay.space
        for region in affected:
            if region in space:
                cost += len(space.neighbors(region))
        return cost

    def mechanism_usage(self) -> "dict[str, int]":
        """How often each mechanism fired (ablation reporting)."""
        usage: "dict[str, int]" = {}
        for record in self.records:
            usage[record.mechanism] = usage.get(record.mechanism, 0) + 1
        return usage
