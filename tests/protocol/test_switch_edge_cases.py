"""Edge cases of the message-level primary switch (mechanism b)."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import SWITCH_COOLDOWN

BOUNDS = Rect(0, 0, 64, 64)


def two_primaries(seed=41, weak_cap=1, strong_cap=100):
    """Two adjacent single-owner regions with chosen capacities."""
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, config=NodeConfig(dual_peer=False)
    )
    weak = cluster.join_node(Point(10, 30), capacity=weak_cap)
    strong = cluster.join_node(Point(50, 30), capacity=strong_cap)
    cluster.settle(20)
    return cluster, weak, strong


def make_request(node, load=5.0):
    return m.SwitchRequestBody(
        state=m.RegionStateBody(
            rect=node.owned.rect,
            peer=None,
            neighbors=tuple(node.neighbor_table.values()),
            data=node.owned.snapshot(),
            stamp=node.owned.stamp,
            load_rate=load,
        ),
        initiator_capacity=node.node.capacity,
    )


class TestRejections:
    def test_stronger_initiator_rejected(self):
        cluster, weak, strong = two_primaries(weak_cap=100, strong_cap=1)
        # "weak" is actually stronger here; its proposal must be refused.
        request = make_request(weak, load=5.0)
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(10)
        assert weak.switches_completed == 0
        assert strong.switches_completed == 0

    def test_cooler_initiator_rejected(self):
        cluster, weak, strong = two_primaries()
        # Heat up the receiver so the initiator is not hotter.
        strong._window_served = 1_000
        strong._roll_stat_window()
        request = make_request(weak, load=0.001)
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(10)
        assert strong.switches_completed == 0

    def test_secondary_rejects_requests(self):
        cluster = ProtocolCluster(BOUNDS, seed=42)  # dual peer on
        first = cluster.join_node(Point(10, 30), capacity=10)
        second = cluster.join_node(Point(50, 30), capacity=1)
        cluster.settle(20)
        assert second.is_secondary()
        request = make_request(first, load=9.0)
        cluster.network.send(
            first.address, second.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(10)
        assert second.switches_completed == 0

    def test_reject_clears_pending_flag(self):
        cluster, weak, strong = two_primaries(weak_cap=100, strong_cap=1)
        weak._switch_pending = True
        cluster.network.send(
            strong.address, weak.address, m.SWITCH_REJECT,
            m.SwitchRejectBody(reason="test"),
        )
        cluster.run_for(5)
        assert weak._switch_pending is False


class TestAcceptedSwitch:
    def test_manual_switch_swaps_regions(self):
        cluster, weak, strong = two_primaries()
        weak_rect = weak.owned.rect
        strong_rect = strong.owned.rect
        request = make_request(weak, load=9.0)
        weak._switch_pending = True
        weak._switch_capture = request.state.data
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(20)
        assert strong.owned.rect == weak_rect
        assert weak.owned.rect == strong_rect
        assert weak.switches_completed == 1
        assert strong.switches_completed == 1
        cluster.settle(20)
        cluster.check_partition()

    def test_items_travel_with_region(self):
        cluster, weak, strong = two_primaries()
        point = weak.owned.rect.center
        weak.owned.items.append((point, "cargo"))
        request = make_request(weak, load=9.0)
        weak._switch_pending = True
        weak._switch_capture = request.state.data
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(20)
        assert ("cargo" in [item for _, item in strong.owned.items])

    def test_load_travels_with_region(self):
        """Each side installs the load rate and open-window count the
        other shipped with the region, not its own old region's."""
        cluster, weak, strong = two_primaries()
        weak._window_served = 1_000
        weak._roll_stat_window()
        weak._window_served = 7
        strong._window_served = 20
        strong._roll_stat_window()
        strong._window_served = 3
        weak.neighbor_stats[strong.owned.rect] = (
            strong.load_rate, strong.node.capacity
        )
        shipped, installed = {}, {}
        for node in (weak, strong):
            def spy(state, counterpart, unshipped=m.RegionData(),
                    node=node, install=node._install_state):
                install(state, counterpart, unshipped)
                shipped[node.address] = (state.load_rate, state.served)
                installed[node.address] = (node.load_rate, node._window_served)
            node._install_state = spy
        weak._consider_switch()
        cluster.run_for(20)
        assert weak.switches_completed == strong.switches_completed == 1
        assert shipped[strong.address] == (100.0, 7)
        assert installed == shipped


    def test_neighbors_learn_new_owner(self):
        cluster = ProtocolCluster(
            BOUNDS, seed=43, config=NodeConfig(dual_peer=False)
        )
        rng = random.Random(3)
        nodes = [
            cluster.join_node(
                Point(rng.uniform(1, 63), rng.uniform(1, 63)),
                capacity=rng.choice([1, 100]),
            )
            for _ in range(6)
        ]
        cluster.settle(30)
        primaries = [n for n in cluster.nodes.values() if n.is_primary()]
        weak = min(primaries, key=lambda n: n.node.capacity)
        neighbors_of_weak = [
            n for n in primaries
            if weak.owned.rect.as_tuple() in {
                rect.as_tuple() for rect in n.neighbor_table
            }
        ]
        strong = next(
            (
                n for n in neighbors_of_weak
                if n.node.capacity > weak.node.capacity
            ),
            None,
        )
        if strong is None:
            pytest.skip("random layout has no strong neighbor")
        weak_rect = weak.owned.rect
        request = make_request(weak, load=9.0)
        weak._switch_pending = True
        weak._switch_capture = request.state.data
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.settle(40)
        for witness in cluster.nodes.values():
            if not witness.alive or witness.owned is None:
                continue
            info = witness.neighbor_table.get(weak_rect)
            if info is not None:
                assert info.primary == strong.address


class TestCooldown:
    def test_no_switch_inside_the_cooldown(self):
        """A node installed by a switch neither proposes nor accepts
        another until its cooldown has passed."""
        cluster, weak, strong = two_primaries()
        request = make_request(weak, load=9.0)
        weak._switch_pending = True
        weak._switch_capture = request.state.data
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        # Past the target's in-flight flag, inside both cooldowns.
        cluster.run_for(20)
        assert weak.switches_completed == strong.switches_completed == 1
        assert not strong._switch_pending

        def propose():
            weak.load_rate = 9.0
            weak.neighbor_stats[strong.owned.rect] = (
                0.0, strong.node.capacity
            )
            weak._consider_switch()

        propose()
        assert not weak._switch_pending
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST,
            make_request(weak, load=9.0),
        )
        cluster.run_for(5)
        assert weak.switches_completed == strong.switches_completed == 1
        # Once the cooldown has passed, the same proposal goes out.
        cluster.run_for(SWITCH_COOLDOWN)
        propose()
        assert weak._switch_pending
        cluster.run_for(20)
        assert weak.switches_completed == strong.switches_completed == 2
