"""The engine's per-round index table stays equal to a fresh recompute.

``AdaptationEngine.run_round`` computes every node's workload index once
and then only patches the owners of each adaptation's regions.  These
tests recompute everything from scratch after every executed adaptation
(and after every round) on a seeded 512-node dual-peer run and demand
exact equality, so a mechanism that changes some other node's index
would show up here rather than as a silently different trigger decision.
"""

from dataclasses import replace

import pytest

from repro.errors import AdaptationError
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
