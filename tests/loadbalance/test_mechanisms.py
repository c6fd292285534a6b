"""Mechanism tests: one scenario per Figure 4 panel, plus edge cases.

Each panel's capacities follow the numbers printed in the paper's figure
(e.g. panel (a): an overloaded half-full region with capacity 1 steals the
secondary of a (100, 10) neighbor and becomes (10, 1))."""

import pytest

from repro.geometry import Point
from repro.loadbalance.mechanisms import (
    MergeWithNeighbor,
    SplitRegion,
    StealSecondary,
    SwitchPrimaries,
    SwitchWithSecondary,
)

from tests.loadbalance.conftest import make_row_scenario


class TestPanelA_StealSecondaryOwner:
    def test_steals_stronger_neighbor_secondary(self):
        # Overloaded (1) half-full region next to a (100, 10) region.
        s = make_row_scenario([(1, None, 5.0), (100, 10, 1.0)])
        hot, donor = s.region(0), s.region(1)
        mech = StealSecondary()
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        assert plan.partner is donor
        mech.execute(plan, s.ctx)
        # Figure 4(a): the hot region becomes (10, 1).
        assert hot.primary.capacity == 10
        assert hot.secondary.capacity == 1
        assert donor.is_half_full
        s.overlay.check_invariants()

    def test_does_not_apply_to_full_region(self):
        s = make_row_scenario([(1, 1, 5.0), (100, 10, 1.0)])
        assert StealSecondary().plan(s.region(0), s.ctx) is None

    def test_requires_stronger_secondary(self):
        s = make_row_scenario([(10, None, 5.0), (100, 5, 1.0)])
        assert StealSecondary().plan(s.region(0), s.ctx) is None

    def test_picks_least_loaded_donor(self):
        s = make_row_scenario(
            [(100, 50, 4.0), (1, None, 5.0), (100, 50, 1.0)]
        )
        plan = StealSecondary().plan(s.region(1), s.ctx)
        assert plan is not None
        assert plan.partner is s.region(2)

    def test_respects_donor_cooldown(self):
        s = make_row_scenario([(1, None, 5.0), (100, 10, 1.0)])
        s.region(1).last_adapted_at = s.ctx.round_number
        assert StealSecondary().plan(s.region(0), s.ctx) is None


class TestPanelB_SwitchPrimaryOwners:
    def test_switches_with_stronger_cooler_neighbor(self):
        # Hot (1)-region next to a cool (100)-region: swap primaries.
        s = make_row_scenario([(1, None, 5.0), (100, None, 1.0)])
        hot, cool = s.region(0), s.region(1)
        mech = SwitchPrimaries()
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        mech.execute(plan, s.ctx)
        assert hot.primary.capacity == 100
        assert cool.primary.capacity == 1
        s.overlay.check_invariants()

    def test_no_swap_when_it_does_not_help(self):
        # The neighbor is stronger but so loaded the swap raises the max.
        s = make_row_scenario([(1, None, 2.0), (100, None, 500.0)])
        assert SwitchPrimaries().plan(s.region(0), s.ctx) is None

    def test_no_swap_with_weaker_neighbor(self):
        s = make_row_scenario([(10, None, 5.0), (1, None, 0.0)])
        assert SwitchPrimaries().plan(s.region(0), s.ctx) is None

    def test_swap_never_oscillates(self):
        """After a beneficial swap, the reverse swap is not beneficial."""
        s = make_row_scenario([(1, None, 5.0), (100, None, 1.0)])
        mech = SwitchPrimaries()
        plan = mech.plan(s.region(0), s.ctx)
        mech.execute(plan, s.ctx)
        assert mech.plan(s.region(0), s.ctx) is None
        assert mech.plan(s.region(1), s.ctx) is None

    def test_applies_to_full_regions_too(self):
        s = make_row_scenario([(1, 2, 5.0), (100, None, 1.0)])
        assert SwitchPrimaries().plan(s.region(0), s.ctx) is not None


class TestPanelC_MergeWithNeighbor:
    def test_merges_half_full_siblings(self):
        # Figure 4(c): (1) and (10) half-full regions merge into (10, 1).
        # Loads low enough that the merged index beats the average.
        s = make_row_scenario([(10, None, 1.0), (1, None, 1.0)])
        left, right = s.region(0), s.region(1)
        # Make them mergeable: the row builder splits unevenly, so merge
        # the *rightmost sibling pair* instead -- regions 0 and 1 of a
        # 2-row are siblings by construction (single split).
        assert left.rect.can_merge_with(right.rect)
        mech = MergeWithNeighbor()
        plan = mech.plan(right, s.ctx)  # initiated by the weak owner
        assert plan is not None
        mech.execute(plan, s.ctx)
        merged = right
        assert merged.rect == s.overlay.bounds
        assert merged.primary.capacity == 10
        assert merged.secondary.capacity == 1
        s.overlay.check_invariants()

    def test_requires_merged_index_below_average(self):
        # Both heavily loaded: merging concentrates load, no benefit.
        s = make_row_scenario([(10, None, 30.0), (10, None, 30.0)])
        assert MergeWithNeighbor().plan(s.region(0), s.ctx) is None

    def test_requires_both_half_full(self):
        s = make_row_scenario([(10, 5, 1.0), (1, None, 1.0)])
        assert MergeWithNeighbor().plan(s.region(0), s.ctx) is None

    def test_requires_rectangular_union(self):
        # Regions 0 and 2 of a 3-row are not even neighbors; regions 1 and
        # 2 are neighbors with different heights? (No -- same height, so
        # they merge.)  Use a 3-row: region 0 (width 32) and region 1
        # (width 16) abut but cannot merge into a rectangle... they can
        # (same height, adjacent in x).  Actually any same-height row pair
        # merges; non-mergeable pairs need a horizontal split:
        s = make_row_scenario([(10, None, 1.0), (1, None, 1.0)])
        import random as _random
        from repro.geometry import SplitAxis
        from repro.core.node import Node
        from repro.geometry import Point
        # Split region 1 horizontally; its lower half cannot merge with
        # region 0 (heights differ).
        new = s.overlay.space.split_region(
            s.region(1), axis=SplitAxis.HORIZONTAL, keep="low"
        )
        extra = Node(99, new.rect.center, capacity=1.0)
        s.overlay.add_idle_member(extra)
        s.overlay.assign_primary(new, extra)
        assert not s.region(1).rect.can_merge_with(s.region(0).rect)
        plan = MergeWithNeighbor().plan(s.region(1), s.ctx)
        # The only mergeable partner is its sibling half `new`.
        if plan is not None:
            assert plan.partner is new


class TestPanelD_SplitRegion:
    def test_splits_equal_capacity_pair(self):
        # Figure 4(d): an overloaded (10, 10) region splits into (10)+(10).
        # The load is spread over both future halves, as under a real hot
        # spot (a point load would make splitting useless, and the planner
        # correctly refuses it -- see test_point_load_is_not_split).
        s = make_row_scenario([(10, 10, 0.0), (10, None, 0.5)])
        s.grid.set_load(*s.grid.cell_index_of(Point(16, 16)), 4.0)
        s.grid.set_load(*s.grid.cell_index_of(Point(16, 48)), 4.0)
        hot = s.region(0)
        region_count = s.overlay.space.region_count()
        mech = SplitRegion()
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        mech.execute(plan, s.ctx)
        assert s.overlay.space.region_count() == region_count + 1
        assert hot.is_half_full
        s.overlay.check_invariants()

    def test_requires_full_region(self):
        s = make_row_scenario([(10, None, 8.0)])
        assert SplitRegion().plan(s.region(0), s.ctx) is None

    def test_requires_comparable_capacities(self):
        s = make_row_scenario([(100, 1, 8.0), (10, None, 0.5)])
        assert SplitRegion().plan(s.region(0), s.ctx) is None

    def test_point_load_is_not_split(self):
        """A load concentrated in one cell cannot be halved by a split;
        the planner predicts the halves' actual loads and refuses."""
        s = make_row_scenario([(10, 10, 8.0), (10, None, 0.5)])
        assert SplitRegion().plan(s.region(0), s.ctx) is None

    def test_split_halves_the_index(self):
        s = make_row_scenario([(10, 10, 0.0), (10, None, 0.5)])
        s.grid.set_load(*s.grid.cell_index_of(Point(16, 16)), 4.0)
        s.grid.set_load(*s.grid.cell_index_of(Point(16, 48)), 4.0)
        hot = s.region(0)
        before = s.calc.region_index(hot)
        mech = SplitRegion()
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        mech.execute(plan, s.ctx)
        after = max(
            s.calc.region_index(region)
            for region in s.overlay.space.regions
        )
        assert after == pytest.approx(before / 2)


class TestPanelE_SwitchWithNeighborSecondary:
    def test_switches_full_regions_primary_out(self):
        # Overloaded full (1, 2) region; neighbor (100, 50) donates its
        # secondary: hot region becomes (50, 2), neighbor (100, 1).
        s = make_row_scenario([(1, 2, 5.0), (100, 50, 1.0)])
        hot, donor = s.region(0), s.region(1)
        mech = SwitchWithSecondary()
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        mech.execute(plan, s.ctx)
        assert hot.primary.capacity == 50
        assert hot.secondary.capacity == 2
        assert donor.primary.capacity == 100
        assert donor.secondary.capacity == 1
        s.overlay.check_invariants()

    def test_requires_full_initiator(self):
        s = make_row_scenario([(1, None, 5.0), (100, 50, 1.0)])
        assert (
            SwitchWithSecondary().plan(s.region(0), s.ctx)
            is None
        )

    def test_requires_stronger_secondary(self):
        s = make_row_scenario([(10, 2, 5.0), (100, 5, 1.0)])
        assert (
            SwitchWithSecondary().plan(s.region(0), s.ctx)
            is None
        )


class TestPanelF_StealRemoteSecondary:
    def test_steals_beyond_neighborhood(self):
        # Row: hot (1) | busy (2) | remote donor (100, 50).
        # The immediate neighbor has no secondary to steal; the TTL search
        # finds the remote donor two hops away.
        s = make_row_scenario(
            [(1, None, 5.0), (2, None, 4.0), (100, 50, 0.5)]
        )
        hot, donor = s.region(0), s.region(2)
        mech = StealSecondary(remote=True)
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        assert plan.partner is donor
        mech.execute(plan, s.ctx)
        # The old primary resigns to be the secondary owner.
        assert hot.primary.capacity == 50
        assert hot.secondary.capacity == 1
        assert donor.is_half_full
        s.overlay.check_invariants()

    def test_counts_search_messages(self):
        s = make_row_scenario(
            [(1, None, 5.0), (2, None, 4.0), (100, 50, 0.5)]
        )
        before = s.ctx.search_messages
        StealSecondary(remote=True).plan(s.region(0), s.ctx)
        assert s.ctx.search_messages > before

    def test_requires_less_loaded_donor(self):
        s = make_row_scenario(
            [(1, None, 5.0), (2, None, 4.0), (100, 50, 900.0)]
        )
        assert StealSecondary(remote=True).plan(s.region(0), s.ctx) is None

    def test_ttl_limits_reach(self):
        from repro.loadbalance import AdaptationConfig

        s = make_row_scenario(
            [(1, None, 5.0), (2, None, 4.0), (2, None, 4.0),
             (2, None, 4.0), (100, 50, 0.5)],
            config=AdaptationConfig(search_ttl=2),
        )
        # The donor sits 4 hops away, beyond TTL 2.
        assert StealSecondary(remote=True).plan(s.region(0), s.ctx) is None


class TestPanelG_SwitchWithRemoteSecondary:
    def test_switches_primary_with_remote_secondary(self):
        s = make_row_scenario(
            [(1, 2, 5.0), (2, None, 4.0), (100, 50, 0.5)]
        )
        hot, donor = s.region(0), s.region(2)
        mech = SwitchWithSecondary(remote=True)
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        mech.execute(plan, s.ctx)
        assert hot.primary.capacity == 50
        assert hot.secondary.capacity == 2  # own secondary stays
        assert donor.secondary.capacity == 1  # demoted primary moved here
        s.overlay.check_invariants()

    def test_requires_full_initiator(self):
        s = make_row_scenario(
            [(1, None, 5.0), (2, None, 4.0), (100, 50, 0.5)]
        )
        assert (
            SwitchWithSecondary(remote=True).plan(s.region(0), s.ctx)
            is None
        )


class TestPanelH_SwitchWithRemotePrimary:
    def test_switches_with_strong_remote_primary(self):
        s = make_row_scenario(
            [(1, 2, 5.0), (2, None, 4.0), (100, None, 0.5)]
        )
        hot, partner = s.region(0), s.region(2)
        mech = SwitchPrimaries(remote=True)
        plan = mech.plan(hot, s.ctx)
        assert plan is not None
        assert plan.partner is partner
        mech.execute(plan, s.ctx)
        assert hot.primary.capacity == 100
        assert partner.primary.capacity == 1
        s.overlay.check_invariants()

    def test_no_oscillation(self):
        s = make_row_scenario(
            [(1, 2, 5.0), (2, None, 4.0), (100, None, 0.5)]
        )
        mech = SwitchPrimaries(remote=True)
        plan = mech.plan(s.region(0), s.ctx)
        mech.execute(plan, s.ctx)
        assert mech.plan(s.region(0), s.ctx) is None
        assert mech.plan(s.region(2), s.ctx) is None

    def test_requires_improvement_of_pair_max(self):
        # Remote primary is stronger but drowning in load already.
        s = make_row_scenario(
            [(1, 2, 5.0), (2, None, 4.0), (100, None, 5000.0)]
        )
        assert (
            SwitchPrimaries(remote=True).plan(s.region(0), s.ctx) is None
        )
