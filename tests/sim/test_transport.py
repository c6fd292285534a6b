"""Tests for repro.sim.transport -- the simulated network."""

import random

import pytest

from repro.errors import TransportError
from repro.geometry import Point
from repro.core.node import NodeAddress
from repro.sim.latency import ConstantLatency, DistanceLatency
from repro.sim.scheduler import EventScheduler
from repro.sim.transport import SimNetwork


def make_network(drop=0.0, latency=None):
    scheduler = EventScheduler()
    network = SimNetwork(
        scheduler, rng=random.Random(3), latency=latency, drop_probability=drop
    )
    return scheduler, network


def make_endpoint(network, index, inbox):
    address = NodeAddress(f"10.0.0.{index}", 7000)
    network.register(address, Point(index, index), inbox.append)
    return address


class TestDelivery:
    def test_send_delivers_after_latency(self):
        scheduler, network = make_network(latency=ConstantLatency(2.0))
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.send(a, b, "ping", {"x": 1})
        scheduler.run_until(1.0)
        assert inbox == []
        scheduler.run_until(3.0)
        assert len(inbox) == 1
        assert inbox[0].kind == "ping"
        assert inbox[0].body == {"x": 1}
        assert inbox[0].source == a

    def test_latency_uses_destination_coordinate(self):
        scheduler, network = make_network(latency=DistanceLatency(jitter_fraction=0.0))
        near_inbox, far_inbox = [], []
        src = NodeAddress("10.0.0.1", 7000)
        network.register(src, Point(0, 0), lambda m: None)
        near = NodeAddress("10.0.0.2", 7000)
        network.register(near, Point(1, 0), near_inbox.append)
        far = NodeAddress("10.0.0.3", 7000)
        network.register(far, Point(50, 0), far_inbox.append)
        network.send(src, near, "m", None)
        network.send(src, far, "m", None)
        scheduler.run_until(1.0)
        assert near_inbox and not far_inbox

    def test_stats_counted(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        for _ in range(5):
            network.send(a, b, "ping", None)
        scheduler.run_all()
        assert network.stats.sent == 5
        assert network.stats.delivered == 5
        assert network.stats.by_kind["ping"] == 5


class TestFailureModes:
    def test_unknown_destination_silently_dropped(self):
        scheduler, network = make_network()
        a = make_endpoint(network, 1, [])
        ghost = NodeAddress("10.9.9.9", 7000)
        network.send(a, ghost, "ping", None)
        scheduler.run_all()
        assert network.stats.dropped_dead == 1

    def test_crashed_endpoint_drops_messages(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.crash(b)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert inbox == []
        assert network.stats.dropped_dead == 1
        assert not network.is_alive(b)

    def test_crash_unknown_raises(self):
        _, network = make_network()
        with pytest.raises(TransportError):
            network.crash(NodeAddress("1.2.3.4", 1))

    def test_crash_during_flight(self):
        """A message in flight to a node that crashes is lost."""
        scheduler, network = make_network(latency=ConstantLatency(5.0))
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.send(a, b, "ping", None)
        scheduler.run_until(1.0)
        network.crash(b)
        scheduler.run_all()
        assert inbox == []

    def test_random_drop(self):
        scheduler, network = make_network(drop=0.5)
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        for _ in range(200):
            network.send(a, b, "ping", None)
        scheduler.run_all()
        assert 40 < len(inbox) < 160
        assert network.stats.dropped_random == 200 - len(inbox)

    def test_invalid_drop_probability(self):
        scheduler = EventScheduler()
        with pytest.raises(TransportError):
            SimNetwork(scheduler, rng=random.Random(1), drop_probability=1.0)

    def test_duplicate_registration_rejected(self):
        _, network = make_network()
        a = make_endpoint(network, 1, [])
        with pytest.raises(TransportError):
            network.register(a, Point(0, 0), lambda m: None)

    def test_deregister_then_reregister(self):
        _, network = make_network()
        a = make_endpoint(network, 1, [])
        network.deregister(a)
        network.register(a, Point(0, 0), lambda m: None)  # no error


class TestPartitions:
    def test_partitioned_endpoints_cannot_talk(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.set_partition(a, "west")
        network.set_partition(b, "east")
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert inbox == []
        assert network.stats.dropped_partition == 1

    def test_same_group_can_talk(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.set_partition(a, "west")
        network.set_partition(b, "west")
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(inbox) == 1

    def test_ungrouped_reaches_everyone(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.set_partition(b, "east")
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(inbox) == 1

    def test_heal_partitions(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.set_partition(a, "west")
        network.set_partition(b, "east")
        network.heal_partitions()
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(inbox) == 1

    def test_partition_applies_at_delivery_time(self):
        """A partition that forms while a message is in flight eats it."""
        scheduler, network = make_network(latency=ConstantLatency(5.0))
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.send(a, b, "ping", None)
        network.set_partition(a, "west")
        network.set_partition(b, "east")
        scheduler.run_all()
        assert inbox == []


class TestMessageIds:
    def test_msg_ids_start_at_one_and_increase(self):
        scheduler, network = make_network()
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        for _ in range(4):
            network.send(a, b, "ping", None)
        scheduler.run_all()
        assert [message.msg_id for message in inbox] == [1, 2, 3, 4]

    def test_dropped_messages_consume_ids_too(self):
        """msg_id counts sends, not deliveries: gaps point at drops."""
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, inbox)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        network.crash(b)
        network.send(a, b, "lost", None)
        scheduler.run_all()
        network.register(b, Point(2, 2), inbox.append)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert [message.msg_id for message in inbox] == [1, 3]
        assert network.stats.recent_drops[-1] == (2, "lost", "dead")

    def test_recent_drops_attribute_each_loss(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, [])
        network.crash(b)
        network.send(a, b, "heartbeat", None)
        network.send(a, b, "join_request", None)
        scheduler.run_all()
        assert list(network.stats.recent_drops) == [
            (1, "heartbeat", "dead"),
            (2, "join_request", "dead"),
        ]

    def test_recent_drops_ring_is_bounded(self):
        from repro.sim.transport import RECENT_DROP_LIMIT

        scheduler, network = make_network(latency=ConstantLatency(1.0))
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, [])
        network.crash(b)
        for _ in range(RECENT_DROP_LIMIT + 10):
            network.send(a, b, "ping", None)
        scheduler.run_all()
        drops = network.stats.recent_drops
        assert len(drops) == RECENT_DROP_LIMIT
        assert drops[0][0] == 11  # the oldest ten were evicted
        assert network.stats.dropped_dead == RECENT_DROP_LIMIT + 10

    def test_record_drop_rejects_unknown_reason(self):
        _, network = make_network()
        with pytest.raises(TransportError):
            network.stats.record_drop(1, "ping", "gremlins")


class TestOneWayBlocks:
    def test_forward_direction_dropped_as_partition(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        a_inbox, b_inbox = [], []
        a = make_endpoint(network, 1, a_inbox)
        b = make_endpoint(network, 2, b_inbox)
        network.block_one_way(a, b)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert b_inbox == []
        assert network.stats.dropped_partition == 1
        assert network.stats.recent_drops[-1] == (1, "ping", "partition")

    def test_reverse_direction_still_delivers(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        a_inbox = []
        a = make_endpoint(network, 1, a_inbox)
        b = make_endpoint(network, 2, [])
        network.block_one_way(a, b)
        network.send(b, a, "pong", None)
        scheduler.run_all()
        assert len(a_inbox) == 1

    def test_unblock_restores_delivery(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.block_one_way(a, b)
        network.unblock_one_way(a, b)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(b_inbox) == 1

    def test_block_applies_at_delivery_time(self):
        """A one-way block armed while messages are in flight eats them,
        and only in the blocked direction."""
        scheduler, network = make_network(latency=ConstantLatency(5.0))
        a_inbox, b_inbox = [], []
        a = make_endpoint(network, 1, a_inbox)
        b = make_endpoint(network, 2, b_inbox)
        network.send(a, b, "ping", None)
        network.send(b, a, "pong", None)
        network.block_one_way(a, b)
        scheduler.run_all()
        assert b_inbox == []
        assert [message.kind for message in a_inbox] == ["pong"]
        assert network.stats.dropped_partition == 1
        assert network.stats.recent_drops[-1] == (1, "ping", "partition")

    def test_cuts_armed_after_heal_still_apply(self):
        """Cut, heal, cut again with messages in flight: each arming is
        seen by the delivery check."""
        scheduler, network = make_network(latency=ConstantLatency(5.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.block_one_way(a, b)
        network.heal_partitions()
        network.send(a, b, "ping", None)
        network.set_partition(a, "west")
        network.set_partition(b, "east")
        network.send(a, b, "lost at send", None)
        scheduler.run_all()
        assert b_inbox == []
        assert network.stats.dropped_partition == 2
        network.heal_partitions()
        network.send(a, b, "ping", None)
        network.block_one_way(a, b)
        scheduler.run_all()
        assert b_inbox == []
        assert network.stats.dropped_partition == 3

    def test_heal_partitions_lifts_one_way_blocks(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.block_one_way(a, b)
        network.heal_partitions()
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(b_inbox) == 1


class TestGrayFailures:
    def test_full_drop_fraction_eats_everything_as_gray(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.set_gray(b, drop_fraction=1.0)
        for _ in range(5):
            network.send(a, b, "ping", None)
        scheduler.run_all()
        assert b_inbox == []
        assert network.stats.dropped_gray == 5
        assert network.stats.recent_drops[-1][2] == "gray"

    def test_gray_afflicts_both_directions(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        a_inbox = []
        a = make_endpoint(network, 1, a_inbox)
        b = make_endpoint(network, 2, [])
        network.set_gray(b, drop_fraction=1.0)
        network.send(b, a, "pong", None)
        scheduler.run_all()
        assert a_inbox == []

    def test_extra_delay_applied(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.set_gray(b, extra_delay=5.0)
        network.send(a, b, "ping", None)
        scheduler.run_until(2.0)
        assert b_inbox == []  # base latency alone would have delivered
        scheduler.run_until(7.0)
        assert len(b_inbox) == 1

    def test_clear_gray_restores_health(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.set_gray(b, drop_fraction=1.0)
        network.clear_gray(b)
        network.send(a, b, "ping", None)
        scheduler.run_all()
        assert len(b_inbox) == 1

    def test_invalid_fractions_rejected(self):
        _, network = make_network()
        a = make_endpoint(network, 1, [])
        with pytest.raises(TransportError):
            network.set_gray(a, drop_fraction=1.5)
        with pytest.raises(TransportError):
            network.set_gray(a, extra_delay=-1.0)

    def test_network_wide_extra_latency(self):
        scheduler, network = make_network(latency=ConstantLatency(1.0))
        b_inbox = []
        a = make_endpoint(network, 1, [])
        b = make_endpoint(network, 2, b_inbox)
        network.extra_latency = 3.0
        network.send(a, b, "ping", None)
        scheduler.run_until(2.0)
        assert b_inbox == []
        scheduler.run_until(5.0)
        assert len(b_inbox) == 1
