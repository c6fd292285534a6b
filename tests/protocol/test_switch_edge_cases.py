"""Edge cases of the message-level primary switch (mechanism b)."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m

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


def make_request(node, index=5.0):
    return m.SwitchRequestBody(
        state=m.RegionStateBody(
            rect=node.owned.rect,
            peer=None,
            neighbors=tuple(node.neighbor_table.values()),
            data=node.owned.snapshot(),
            stamp=node.owned.stamp,
        ),
        initiator_capacity=node.node.capacity,
        initiator_index=index,
    )


class TestRejections:
    def test_stronger_initiator_rejected(self):
        cluster, weak, strong = two_primaries(weak_cap=100, strong_cap=1)
        # "weak" is actually stronger here; its proposal must be refused.
        request = make_request(weak, index=5.0)
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
        request = make_request(weak, index=0.001)
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
        request = make_request(first, index=9.0)
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
        request = make_request(weak, index=9.0)
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
        request = make_request(weak, index=9.0)
        weak._switch_pending = True
        weak._switch_capture = request.state.data
        cluster.network.send(
            weak.address, strong.address, m.SWITCH_REQUEST, request
        )
        cluster.run_for(20)
        assert ("cargo" in [item for _, item in strong.owned.items])

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
        request = make_request(weak, index=9.0)
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
