"""Tests for repro.loadbalance.engine -- rounds, ordering, convergence."""

import random

import pytest

from repro.dualpeer import DualPeerGeoGrid
from repro.geometry import Point, Rect
from repro.loadbalance import (
    AdaptationConfig,
    AdaptationEngine,
    WorkloadIndexCalculator,
    default_mechanisms,
)
from repro.workload import GnutellaCapacityDistribution, HotspotField
from tests.conftest import make_node
from tests.loadbalance.conftest import make_row_scenario

BOUNDS = Rect(0, 0, 64, 64)


def build_hot_network(n=300, seed=3, hotspots=6):
    rng = random.Random(seed)
    field = HotspotField.random(BOUNDS, count=hotspots, rng=rng)
    grid = DualPeerGeoGrid(
        BOUNDS, rng=random.Random(seed + 1), load_fn=field.region_load
    )
    capacities = GnutellaCapacityDistribution()
    for i in range(n):
        grid.join(
            make_node(
                i, rng.uniform(0.001, 64), rng.uniform(0.001, 64),
                capacity=capacities.sample(rng),
            )
        )
    calc = WorkloadIndexCalculator(grid, field.region_load)
    return grid, field, calc


class TestMechanismOrdering:
    def test_default_mechanisms_in_cost_order(self):
        mechanisms = default_mechanisms()
        assert [m.key for m in mechanisms] == list("abcdefgh")
        assert [m.cost_rank for m in mechanisms] == sorted(
            m.cost_rank for m in mechanisms
        )

    def test_cheapest_applicable_mechanism_wins(self):
        # Both (a)-steal and (h)-remote-switch could fix this; (a) is
        # cheaper and must be the one recorded.
        s = make_row_scenario([(1, None, 5.0), (100, 10, 0.5)])
        engine = AdaptationEngine(s.overlay, s.calc, config=s.ctx.config)
        report = engine.run_round()
        assert report.adaptations == 1
        assert report.records[0].mechanism == "a"

    def test_remote_used_only_when_local_fails(self):
        # The immediate neighbor is idle (so the trigger fires) but just
        # as weak and not worth merging with, so no local mechanism
        # applies; the TTL search must reach the remote (100, 50) region.
        s = make_row_scenario(
            [(1, None, 5.0), (1, None, 0.1), (100, 50, 0.5)]
        )
        engine = AdaptationEngine(s.overlay, s.calc, config=s.ctx.config)
        report = engine.run_round()
        keys = {record.mechanism for record in report.records}
        assert keys & {"f", "g", "h"}


class TestRounds:
    def test_round_reports_accumulate(self):
        grid, field, calc = build_hot_network(n=150)
        engine = AdaptationEngine(grid, calc)
        reports = engine.run_rounds(3)
        assert len(reports) == 3
        assert engine.round_reports == reports
        assert engine.total_adaptations == sum(r.adaptations for r in reports)

    def test_max_adaptations_per_round_cap(self):
        grid, field, calc = build_hot_network(n=200)
        config = AdaptationConfig(max_adaptations_per_round=3)
        engine = AdaptationEngine(grid, calc, config=config)
        report = engine.run_round()
        assert report.adaptations <= 3

    def test_on_adaptation_callback(self):
        grid, field, calc = build_hot_network(n=150)
        seen = []
        engine = AdaptationEngine(
            grid, calc, on_adaptation=lambda count, record: seen.append(count)
        )
        engine.run_round()
        assert seen == list(range(1, len(seen) + 1))

    def test_cooldown_blocks_back_to_back_restructuring(self):
        s = make_row_scenario(
            [(1, None, 5.0), (100, 10, 0.5)],
            config=AdaptationConfig(cooldown_rounds=5),
        )
        engine = AdaptationEngine(s.overlay, s.calc, config=s.ctx.config)
        first = engine.run_round()
        assert first.adaptations == 1
        second = engine.run_round()
        assert second.adaptations == 0  # everything is cooling down

    def test_adaptation_message_accounting(self):
        grid, field, calc = build_hot_network(n=200)
        engine = AdaptationEngine(grid, calc)
        engine.run_rounds(3)
        if engine.records:
            # Every record carries its cost; the engine sums them.
            assert all(record.messages >= 3 for record in engine.records)
            assert engine.adaptation_messages == sum(
                record.messages for record in engine.records
            )

    def test_mechanism_usage_counts(self):
        grid, field, calc = build_hot_network(n=200)
        engine = AdaptationEngine(grid, calc)
        engine.run_rounds(4)
        usage = engine.mechanism_usage()
        assert sum(usage.values()) == engine.total_adaptations
        assert all(key in "abcdefgh" for key in usage)


class TestConvergence:
    def test_adaptation_improves_balance(self):
        grid, field, calc = build_hot_network(n=400)
        before = calc.summary()
        engine = AdaptationEngine(grid, calc)
        engine.run_until_stable(max_rounds=20)
        after = calc.summary()
        assert after.std < before.std
        assert after.mean < before.mean
        grid.check_invariants()

    def test_run_until_stable_terminates(self):
        grid, field, calc = build_hot_network(n=200)
        engine = AdaptationEngine(grid, calc)
        reports = engine.run_until_stable(max_rounds=40, quiet_rounds=3)
        assert len(reports) <= 40
        # The tail rounds performed no adaptations (or we hit the cap).
        if len(reports) < 40:
            assert all(r.adaptations == 0 for r in reports[-3:])

    def test_stable_state_has_no_cheap_wins_left(self):
        """After convergence, re-running a round does ~nothing."""
        grid, field, calc = build_hot_network(n=200)
        engine = AdaptationEngine(grid, calc)
        engine.run_until_stable(max_rounds=30, quiet_rounds=3)
        extra = engine.run_round()
        assert extra.adaptations <= 2  # cooldown expiry may free a couple

    def test_total_load_is_conserved(self):
        """Adaptation moves load between owners, never creates/destroys it."""
        grid, field, calc = build_hot_network(n=250)
        total_before = sum(
            calc.region_load(region) for region in grid.space.regions
        )
        engine = AdaptationEngine(grid, calc)
        engine.run_rounds(5)
        total_after = sum(
            calc.region_load(region) for region in grid.space.regions
        )
        assert total_after == pytest.approx(total_before, rel=1e-9)

    def test_moving_hotspots_beat_no_adaptation(self):
        """Section 3.2's moving-hot-spot scenario: adaptation handles the
        migrating hot spots far better than no adaptation, even though
        individual rounds can surge when a hot spot lands somewhere new."""
        adaptive_grid, adaptive_field, adaptive_calc = build_hot_network(n=250)
        frozen_grid, frozen_field, frozen_calc = build_hot_network(n=250)
        engine = AdaptationEngine(adaptive_grid, adaptive_calc)
        rng_a = random.Random(42)
        rng_b = random.Random(42)
        adaptive_stds = []
        frozen_stds = []
        for _ in range(10):
            adaptive_field.migrate_epoch(rng_a, steps_range=(4, 10))
            frozen_field.migrate_epoch(rng_b, steps_range=(4, 10))
            engine.run_round()
            adaptive_stds.append(adaptive_calc.summary().std)
            frozen_stds.append(frozen_calc.summary().std)
        assert sum(adaptive_stds) < sum(frozen_stds)
        adaptive_grid.check_invariants()


class TestEngineConfig:
    def test_custom_mechanism_subset(self):
        s = make_row_scenario([(1, None, 5.0), (100, None, 0.5)])
        from repro.loadbalance.mechanisms import SwitchPrimaries

        engine = AdaptationEngine(
            s.overlay, s.calc, mechanisms=[SwitchPrimaries()]
        )
        report = engine.run_round()
        assert {record.mechanism for record in report.records} <= {"b"}

    def test_run_rounds_rejects_negative(self):
        s = make_row_scenario([(1, None, 1.0)])
        engine = AdaptationEngine(s.overlay, s.calc)
        with pytest.raises(ValueError):
            engine.run_rounds(-1)

    def test_run_until_stable_rejects_zero(self):
        s = make_row_scenario([(1, None, 1.0)])
        engine = AdaptationEngine(s.overlay, s.calc)
        with pytest.raises(ValueError):
            engine.run_until_stable(max_rounds=0)
