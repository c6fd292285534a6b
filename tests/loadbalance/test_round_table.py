"""The engine's per-round index table stays equal to a fresh recompute.

``AdaptationEngine.run_round`` computes every node's workload index once
and then only patches the owners of each adaptation's regions.  These
tests recompute everything from scratch after every executed adaptation
(and after every round) on a seeded 512-node dual-peer run and demand
exact equality, so a mechanism that changes some other node's index
would show up here rather than as a silently different trigger decision.
The rounds of one ``run_until_stable`` or ``run_rounds`` call share one
table, so it must also equal a fresh recompute when each round starts.
"""

from dataclasses import replace

import pytest

from repro.core.node import Node
from repro.errors import AdaptationError
from repro.geometry import Point
from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.loadbalance import AdaptationEngine, AdaptationPlan
from repro.loadbalance.base import Mechanism
from repro.loadbalance.mechanisms import (
    MergeWithNeighbor,
    SplitRegion,
    StealSecondary,
    SwitchPrimaries,
    SwitchWithSecondary,
)
from repro.sim.rng import RngStreams

SEED = 20070625


def local_only():
    return [
        StealSecondary(), SwitchPrimaries(), MergeWithNeighbor(),
        SplitRegion(), SwitchWithSecondary(),
    ]


def build(replication_fraction=0.0):
    config = ExperimentConfig(trials=1)
    config = replace(
        config,
        adaptation=replace(config.adaptation, replication_fraction=replication_fraction),
    )
    return build_network(
        SystemVariant.DUAL_PEER_ADAPTATION, 512, config, RngStreams(SEED)
    )


@pytest.mark.parametrize(
    "replication_fraction, mechanisms",
    [(0.0, None), (0.5, None), (0.0, local_only)],
    ids=["default", "replication-0.5", "local-only"],
)
def test_table_matches_fresh_indices(replication_fraction, mechanisms):
    network = build(replication_fraction)
    calc = network.calc
    checked = []

    def check(count, record):
        assert engine.table.indices == calc.all_node_indices()
        checked.append(record.mechanism)

    engine = AdaptationEngine(
        network.overlay,
        calc,
        config=network.engine.config,
        mechanisms=mechanisms() if mechanisms else None,
        on_adaptation=check,
    )
    motion = RngStreams(SEED).fork(1).stream("motion")
    for _ in range(3):
        network.field.migrate(motion, steps=1)
        for _ in range(3):
            report = engine.run_round()
            assert report.summary_after == calc.summary()
    assert len(checked) == engine.total_adaptations > 20
    assert len(set(checked)) >= 4
    network.overlay.check_invariants()


class _SwapThenRaise(Mechanism):
    """Swaps two primaries, then reports the plan stale: the table must
    still see the swap."""

    key = "x"

    def plan(self, region, ctx):
        for neighbor in ctx.overlay.space.neighbors(region):
            if neighbor.primary is not None and not ctx.in_cooldown(neighbor):
                return AdaptationPlan("x", region, neighbor, 1.0, 0.0)
        return None

    def execute(self, plan, ctx):
        ctx.overlay.swap_primaries(plan.region, plan.partner)
        raise AdaptationError("stale after all")


def test_failed_plan_patches_the_table():
    network = build()
    network.field.migrate(RngStreams(SEED).stream("motion"), steps=1)
    engine = AdaptationEngine(
        network.overlay, network.calc, config=network.engine.config,
        mechanisms=[_SwapThenRaise()],
    )
    report = engine.run_round()
    assert report.adaptations == 0
    assert engine.failed_plans > 0
    assert engine.table.indices == network.calc.all_node_indices()
    assert report.summary_after == network.calc.summary()


class _FirstCallCheck:
    """Wraps the engine's trigger: on a round's first question, checks
    that the round's table equals a fresh recompute, key order included,
    and records which table object the round uses."""

    def __init__(self, engine):
        self.engine = engine
        self.rule = engine.trigger
        self.round = None
        self.tables = []

    def should_adapt(self, node, table):
        engine = self.engine
        if engine.ctx.round_number != self.round:
            self.round = engine.ctx.round_number
            fresh = engine.calc.all_node_indices()
            assert table is engine.table
            assert table.indices == fresh
            assert list(table.indices) == list(fresh)
            self.tables.append(table)
        return self.rule.should_adapt(node, table)


def test_one_run_carries_one_table():
    """``run_until_stable`` and ``run_rounds`` hand each round's patched
    table to the next; a direct ``run_round`` builds afresh, which is what
    lets it see an overlay join."""
    network = build()
    engine = network.engine
    check = engine.trigger = _FirstCallCheck(engine)
    motion = RngStreams(SEED).fork(1).stream("motion")
    runs = []
    for _ in range(3):
        network.field.migrate(motion, steps=1)
        first = len(check.tables)
        reports = engine.run_until_stable(max_rounds=3)
        runs.append(check.tables[first:])
        assert len(runs[-1]) == len(reports)
        assert sum(report.adaptations for report in reports) > 0
    first = len(check.tables)
    engine.run_rounds(2)
    runs.append(check.tables[first:])
    assert all(len(run) >= 2 and len({id(t) for t in run}) == 1 for run in runs)
    assert len({id(run[0]) for run in runs}) == len(runs)

    # Direct rounds build their own table: the newcomer is in it.
    engine.run_round()
    newcomer = Node(10_000, Point(17.0, 41.0), capacity=10.0)
    network.overlay.join(newcomer)
    engine.run_round()
    assert check.tables[-1] is not check.tables[-2] is not runs[-1][0]
    assert newcomer in engine.table.indices
    assert engine.table.indices == network.calc.all_node_indices()
