"""Tests for repro.dualpeer.join -- the join planning rules of Section 2.3."""

import pytest

from repro.core.region import Region
from repro.dualpeer.join import (
    JoinDecision,
    pick_weaker_half,
    plan_join,
    should_take_over_primary,
)
from repro.errors import MembershipError
from repro.geometry import Rect
from tests.conftest import make_node


def region_with(primary=None, secondary=None, rect=Rect(0, 0, 8, 8)):
    region = Region(rect=rect)
    if primary is not None:
        region.set_primary(primary)
    if secondary is not None:
        region.set_secondary(secondary)
    return region


def capacity_oracle(node):
    """Available capacity == raw capacity (no load) in these unit tests."""
    return node.capacity


class TestPlanJoin:
    def test_prefers_incomplete_region(self):
        covering = region_with(
            make_node(1, 1, 1, capacity=100),
            make_node(2, 2, 2, capacity=50),
        )
        half_full = region_with(make_node(3, 3, 3, capacity=10))
        plan = plan_join(covering, [half_full], capacity_oracle)
        assert plan.decision is JoinDecision.FILL_SECONDARY
        assert plan.target is half_full

    def test_weakest_incomplete_wins(self):
        covering = region_with(make_node(1, 1, 1, capacity=10))
        weak = region_with(make_node(2, 2, 2, capacity=1))
        strong = region_with(make_node(3, 3, 3, capacity=100))
        plan = plan_join(covering, [strong, weak], capacity_oracle)
        assert plan.target is weak

    def test_covering_region_counts_as_candidate(self):
        covering = region_with(make_node(1, 1, 1, capacity=1))
        neighbor = region_with(make_node(2, 2, 2, capacity=5))
        plan = plan_join(covering, [neighbor], capacity_oracle)
        assert plan.decision is JoinDecision.FILL_SECONDARY
        assert plan.target is covering

    def test_all_full_splits_weakest_primary(self):
        covering = region_with(
            make_node(1, 1, 1, capacity=100), make_node(2, 2, 2, capacity=100)
        )
        weak_full = region_with(
            make_node(3, 3, 3, capacity=1), make_node(4, 4, 4, capacity=1)
        )
        plan = plan_join(covering, [weak_full], capacity_oracle)
        assert plan.decision is JoinDecision.SPLIT_AND_JOIN
        assert plan.target is weak_full

    def test_full_region_too_small_to_split_is_skipped(self):
        covering = region_with(
            make_node(1, 1, 1, capacity=100), make_node(2, 2, 2, capacity=100)
        )
        tiny = region_with(
            make_node(3, 3, 3, capacity=1), make_node(4, 4, 4, capacity=1),
            rect=Rect(30, 32, 1.5e-9, 1.5e-9),
        )
        plan = plan_join(covering, [tiny], capacity_oracle)
        assert plan.decision is JoinDecision.SPLIT_AND_JOIN
        assert plan.target is covering

    def test_nothing_splittable_refuses_the_join(self):
        tiny = region_with(
            make_node(3, 3, 3, capacity=1), make_node(4, 4, 4, capacity=1),
            rect=Rect(30, 32, 1.5e-9, 1.5e-9),
        )
        with pytest.raises(MembershipError):
            plan_join(tiny, [], capacity_oracle)

    def test_deterministic_tiebreak_by_region_id(self):
        covering = region_with(make_node(1, 1, 1, capacity=5))
        twin = region_with(make_node(2, 2, 2, capacity=5))
        plan_a = plan_join(covering, [twin], capacity_oracle)
        plan_b = plan_join(covering, [twin], capacity_oracle)
        assert plan_a.target is plan_b.target


class TestPickWeakerHalf:
    def test_weaker_owner_chosen(self):
        a = region_with(make_node(1, 1, 1, capacity=1))
        b = region_with(make_node(2, 2, 2, capacity=10))
        assert pick_weaker_half(a, b, capacity_oracle) is a
        assert pick_weaker_half(b, a, capacity_oracle) is a

    def test_tie_breaks_by_region_id(self):
        a = region_with(make_node(1, 1, 1, capacity=5))
        b = region_with(make_node(2, 2, 2, capacity=5))
        winner = pick_weaker_half(a, b, capacity_oracle)
        assert winner is min(a, b, key=lambda r: r.region_id)


class TestTakeOver:
    def test_stronger_newcomer_takes_over(self):
        region = region_with(make_node(1, 1, 1, capacity=10))
        assert should_take_over_primary(make_node(9, 9, 9, capacity=100), region)

    def test_weaker_newcomer_stays_secondary(self):
        region = region_with(make_node(1, 1, 1, capacity=10))
        assert not should_take_over_primary(make_node(9, 9, 9, capacity=5), region)

    def test_equal_capacity_keeps_incumbent(self):
        region = region_with(make_node(1, 1, 1, capacity=10))
        assert not should_take_over_primary(make_node(9, 9, 9, capacity=10), region)
