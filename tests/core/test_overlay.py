"""Tests for repro.core.overlay -- the basic GeoGrid system."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pubsub import GeoPubSub
from repro.errors import MembershipError
from repro.core.overlay import BasicGeoGrid
from repro.experiments.build import build_network
from repro.experiments.config import ExperimentConfig, SystemVariant
from repro.sim.rng import RngStreams
from repro.store.overlay_store import OverlayStore
from repro.geometry import Point, Rect
from tests.conftest import make_node


BOUNDS = Rect(0, 0, 64, 64)


def fresh_grid(seed=1):
    return BasicGeoGrid(BOUNDS, rng=random.Random(seed))


class TestJoin:
    def test_first_node_owns_everything(self):
        grid = fresh_grid()
        node = make_node(0, 10, 10)
        region = grid.join(node)
        assert region.rect == BOUNDS
        assert region.primary == node
        assert grid.member_count() == 1

    def test_second_join_splits(self):
        grid = fresh_grid()
        grid.join(make_node(0, 10, 10))
        grid.join(make_node(1, 50, 50))
        assert grid.space.region_count() == 2
        assert grid.stats.splits == 1
        grid.check_invariants()

    def test_join_maps_node_to_covering_region(self):
        """Each joiner ends up owning a region covering its coordinate."""
        grid = fresh_grid()
        rng = random.Random(5)
        nodes = [
            make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            for i in range(60)
        ]
        for node in nodes:
            region = grid.join(node)
            assert grid.space.region_covers(region, node.coord)
        grid.check_invariants()

    def test_n_nodes_n_regions(self):
        grid = fresh_grid()
        rng = random.Random(9)
        for i in range(100):
            grid.join(
                make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            )
        assert grid.space.region_count() == 100

    def test_duplicate_join_rejected(self):
        grid = fresh_grid()
        grid.join(make_node(0, 10, 10))
        with pytest.raises(MembershipError):
            grid.join(make_node(0, 20, 20))

    def test_join_outside_bounds_rejected(self):
        grid = fresh_grid()
        with pytest.raises(MembershipError):
            grid.join(make_node(0, 100, 100))

    def test_join_with_explicit_entry(self):
        grid = fresh_grid()
        first = make_node(0, 10, 10)
        grid.join(first)
        grid.join(make_node(1, 50, 50), entry=first)
        assert grid.member_count() == 2


class TestLeave:
    def test_leave_merges_or_hands_over(self):
        grid = fresh_grid()
        rng = random.Random(2)
        nodes = [
            make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            for i in range(30)
        ]
        for node in nodes:
            grid.join(node)
        for node in nodes[:15]:
            grid.leave(node)
            grid.check_invariants()
        assert grid.member_count() == 15

    def test_leave_unknown_node_rejected(self):
        grid = fresh_grid()
        grid.join(make_node(0, 10, 10))
        with pytest.raises(MembershipError):
            grid.leave(make_node(99, 1, 1))

    def test_last_node_leaves_empties_space(self):
        grid = fresh_grid()
        node = make_node(0, 10, 10)
        grid.join(node)
        grid.leave(node)
        assert grid.member_count() == 0
        assert grid.space.region_count() == 0

    def test_rejoin_after_empty(self):
        grid = fresh_grid()
        node = make_node(0, 10, 10)
        grid.join(node)
        grid.leave(node)
        region = grid.join(make_node(1, 20, 20))
        assert region.rect == BOUNDS

    def test_fail_is_structurally_like_leave(self):
        grid = fresh_grid()
        nodes = [make_node(i, 10 + i, 10 + i) for i in range(5)]
        for node in nodes:
            grid.join(node)
        grid.fail(nodes[2])
        grid.check_invariants()
        assert grid.stats.failures == 1
        assert grid.member_count() == 4


class TestOwnershipRegistry:
    def test_region_of_single_owner(self):
        grid = fresh_grid()
        node = make_node(0, 10, 10)
        region = grid.join(node)
        assert grid.region_of(node) is region

    def test_swap_primaries(self):
        grid = fresh_grid()
        a, b = make_node(0, 10, 10), make_node(1, 50, 50)
        ra = grid.join(a)
        rb = grid.join(b)
        ra, rb = grid.region_of(a), grid.region_of(b)
        grid.swap_primaries(ra, rb)
        assert ra.primary == b and rb.primary == a
        assert grid.region_of(a) is rb
        grid.check_invariants()

    def test_available_capacity_defaults_to_capacity(self):
        grid = fresh_grid()
        node = make_node(0, 10, 10, capacity=42.0)
        grid.join(node)
        assert grid.available_capacity(node) == 42.0

    def test_available_capacity_subtracts_load(self):
        loads = {}
        grid = BasicGeoGrid(
            BOUNDS,
            rng=random.Random(1),
            load_fn=lambda region: loads.get(region.region_id, 0.0),
        )
        node = make_node(0, 10, 10, capacity=10.0)
        region = grid.join(node)
        loads[region.region_id] = 4.0
        assert grid.available_capacity(node) == 6.0


    def test_registries_hold_no_empty_set(self):
        """Nodes that own nothing in a role have no registry entry."""
        network = build_network(
            SystemVariant.DUAL_PEER_ADAPTATION,
            256,
            ExperimentConfig(trials=1),
            RngStreams(20070625),
        )
        overlay = network.overlay
        network.field.migrate(random.Random(2), steps=1)
        network.engine.run_until_stable(max_rounds=3)
        rng = random.Random(4)
        for _ in range(20):
            members = sorted(overlay.nodes.values(), key=lambda n: n.node_id)
            victim = rng.choice(members)
            (overlay.leave if rng.random() < 0.5 else overlay.fail)(victim)
        assert network.engine.total_adaptations > 0
        for registry in (overlay._primary_of, overlay._secondary_of):
            assert all(registry.values())
        owners = {r.primary for r in overlay.space.regions}
        assert set(overlay._primary_of) == owners
        assert set(overlay._secondary_of) == {
            r.secondary for r in overlay.space.regions
        } - {None}
        overlay.check_invariants()


class _SplitRecorder:
    def __init__(self):
        self.calls = []

    def on_split(self, parent, child):
        self.calls.append((parent, child))


class TestListeners:
    def test_dropped_network_is_freed_without_the_collector(self):
        """Store and pub/sub listeners do not tie the overlay into a cycle."""
        gc.disable()
        try:
            network = build_network(
                SystemVariant.DUAL_PEER_ADAPTATION,
                128,
                ExperimentConfig(trials=1),
                RngStreams(20070625),
            )
            store = OverlayStore(network.overlay)
            service = GeoPubSub(network.overlay)
            store.update(network.nodes[0], "obj", Point(10.0, 10.0), version=1)
            network.field.migrate(random.Random(1), steps=1)
            network.engine.run_until_stable(max_rounds=2)
            overlay = weakref.ref(network.overlay)
            del network, store, service
            assert overlay() is None
        finally:
            gc.enable()

    def test_listener_of_a_dropped_subscriber_is_forgotten(self):
        grid = fresh_grid()
        grid.join(make_node(0, 10, 10))
        kept, dropped = _SplitRecorder(), _SplitRecorder()
        grid.add_listeners(on_split=kept.on_split)
        grid.add_listeners(on_split=dropped.on_split)
        del dropped
        grid.join(make_node(1, 50, 50))
        assert len(kept.calls) == 1
        assert len(grid._split_listeners) == 1


class TestRoutingApi:
    def test_route_from_member(self):
        grid = fresh_grid()
        rng = random.Random(3)
        for i in range(50):
            grid.join(
                make_node(i, rng.uniform(0.001, 64), rng.uniform(0.001, 64))
            )
        node = grid.random_node()
        result = grid.route_from(node, Point(32, 32))
        assert grid.space.region_covers(result.executor, Point(32, 32))
        assert grid.stats.route_requests >= 50  # joins route too

    def test_route_from_non_member_rejected(self):
        grid = fresh_grid()
        grid.join(make_node(0, 10, 10))
        with pytest.raises(MembershipError):
            grid.route_from(make_node(9, 1, 1), Point(5, 5))


class TestChurnProperty:
    """Random join/leave/fail interleavings keep every invariant."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_random_churn_preserves_invariants(self, seed):
        rng = random.Random(seed)
        grid = fresh_grid(seed % 1000)
        alive = []
        next_id = 0
        for _ in range(120):
            action = rng.random()
            if action < 0.55 or len(alive) < 2:
                node = make_node(
                    next_id, rng.uniform(0.001, 64), rng.uniform(0.001, 64)
                )
                next_id += 1
                grid.join(node)
                alive.append(node)
            elif action < 0.8:
                grid.leave(alive.pop(rng.randrange(len(alive))))
            else:
                grid.fail(alive.pop(rng.randrange(len(alive))))
        grid.check_invariants()
        assert grid.member_count() == len(alive)
        # Every region is owned by a live member.
        for region in grid.space.regions:
            assert region.primary.node_id in grid.nodes
