"""Region data following the partition on the message level.

One payload (:class:`~repro.protocol.messages.RegionData`) carries a
region's items, store records and subscriptions through every handover.
These tests pin the cases where the three kinds used to part ways: the
switch replay of late writes, the handover accounting, and the ownership
yield -- plus requests reaching a node that holds no region at all.
"""

import pytest

from repro import obs
from repro.geometry import Point, Rect
from repro.protocol import NodeConfig, ProtocolCluster
from repro.protocol import messages as m
from repro.protocol.node import OwnedRegion
from repro.sim.transport import Message
from repro.store.spatial import ObjectRecord
from repro.sub import SubRecord

BOUNDS = Rect(0, 0, 64, 64)
INSIDE = Point(20, 20)
WATCHED = Rect(18, 18, 4, 4)

#: One request body per routed kind, sent from ``origin``.
ROUTED_BODIES = {
    m.JOIN_REQUEST: lambda origin: m.JoinRequestBody(
        joiner=origin, coord=INSIDE, capacity=1.0
    ),
    m.ROUTE: lambda origin: m.RouteBody(
        origin=origin, target=INSIDE, payload="probe", request_id=900_011
    ),
    m.PUBLISH: lambda origin: m.PublishBody(
        origin=origin, point=INSIDE, item="probe", event_id=900_012
    ),
    m.QUERY: lambda origin: m.QueryBody(
        origin=origin, rect=WATCHED, request_id=900_013
    ),
    m.SUBSCRIBE: lambda origin: m.SubscribeBody(
        origin=origin,
        record=SubRecord(
            sub_id="probe/2", rect=WATCHED, subscriber=origin,
            registered_at=0.0, duration=50.0,
        ),
        request_id=900_014,
    ),
    m.STORE_UPDATE: lambda origin: m.StoreUpdateBody(
        origin=origin, record=ObjectRecord("probe", INSIDE, version=1),
        request_id=900_015,
    ),
    m.STORE_REMOVE: lambda origin: m.StoreRemoveBody(
        object_id="probe", point=INSIDE, version=1
    ),
    m.STORE_LOOKUP: lambda origin: m.StoreLookupBody(
        origin=origin, rect=WATCHED, request_id=900_016
    ),
}


def deliver(cluster, source, node, kind, body):
    """Hand ``node`` one message through its receive path."""
    node._receive(
        Message(
            source=source.address,
            destination=node.address,
            kind=kind,
            body=body,
            sent_at=cluster.scheduler.now,
        )
    )


def holders(cluster, sub_id):
    return [
        n for n in cluster.nodes.values()
        if n.alive and n.is_primary() and n.owned.subs.get(sub_id) is not None
    ]


def released_secondary():
    cluster = ProtocolCluster(BOUNDS, seed=42)  # dual peer on
    primary = cluster.join_node(Point(10, 30), capacity=10)
    secondary = cluster.join_node(Point(50, 30), capacity=1)
    cluster.settle(20)
    assert secondary.is_secondary()
    deliver(
        cluster, primary, secondary, m.SECONDARY_RELEASED,
        m.SecondaryReleasedBody(rect=secondary.owned.rect),
    )
    assert secondary.owned is None
    return cluster, primary, secondary


def unjoined_node():
    cluster = ProtocolCluster(BOUNDS, seed=42)
    primary = cluster.join_node(Point(10, 30), capacity=10)
    joiner = cluster.spawn_node(Point(50, 30), capacity=1)
    joiner._attach()
    return cluster, primary, joiner


class TestRegionlessNode:
    """A released secondary has no region, yet still receives requests."""

    @pytest.fixture
    def released(self):
        return released_secondary()

    @pytest.mark.parametrize("setup", [released_secondary, unjoined_node])
    @pytest.mark.parametrize("kind", sorted(ROUTED_BODIES))
    def test_routed_request_is_dropped_unanswered(self, setup, kind):
        cluster, primary, node = setup()
        assert node.alive and node.owned is None
        assert set(node._routed) == set(ROUTED_BODIES)
        sent = cluster.network.stats.sent
        deliver(cluster, primary, node, kind, ROUTED_BODIES[kind](primary.address))
        # No ack, no answer, no forward: the origin's timeout is the signal.
        assert cluster.network.stats.sent == sent
        cluster.run_for(5)
        assert not primary.delivered
        assert not primary.query_results

    def test_store_lookup_is_dropped(self, released):
        cluster, primary, secondary = released
        body = m.StoreLookupBody(
            origin=primary.address, rect=Rect(20, 20, 8, 8),
            request_id=900_001,
        )
        deliver(cluster, primary, secondary, m.STORE_LOOKUP, body)
        assert 900_001 not in secondary._served_store_lookups

    def test_subscribe_is_dropped(self, released):
        cluster, primary, secondary = released
        record = SubRecord(
            sub_id="probe/1", rect=Rect(20, 20, 8, 8),
            subscriber=primary.address, registered_at=0.0, duration=50.0,
        )
        body = m.SubscribeBody(
            origin=primary.address, record=record, request_id=900_002
        )
        deliver(cluster, primary, secondary, m.SUBSCRIBE, body)
        assert 900_002 not in secondary._served_subs


def two_primaries(seed=41):
    cluster = ProtocolCluster(
        BOUNDS, seed=seed, config=NodeConfig(dual_peer=False)
    )
    weak = cluster.join_node(Point(10, 30), capacity=1)
    strong = cluster.join_node(Point(50, 30), capacity=100)
    cluster.settle(20)
    return cluster, weak, strong


class TestSwitchReplay:
    def test_writes_after_the_capture_reach_the_new_owner(self):
        cluster, weak, strong = two_primaries()
        weak_rect = weak.owned.rect
        # Make the weak node hot and propose the switch: the request
        # captures its state and is now in flight.
        weak._window_served = 1_000
        weak._roll_stat_window()
        weak.neighbor_stats[strong.owned.rect] = (0.0, strong.node.capacity)
        weak._consider_switch()
        assert weak._switch_pending
        # Written between the capture and the accept.
        inner = Rect(weak_rect.x + 4, weak_rect.y + 4, 6, 6)
        _, sub_id = weak.subscribe(inner)
        weak.store_update("late", inner.center, version=1)
        weak.publish(inner.center, "late-item")
        cluster.run_for(25)
        assert strong.owned.rect == weak_rect
        assert holders(cluster, sub_id) == [strong]
        assert strong.owned.store.get("late") is not None
        assert "late" not in weak.owned.store
        assert "late-item" in [item for _, item in strong.owned.items]


class TestHandoverAccounting:
    def test_departure_counts_objects_and_subscriptions(self):
        cluster = ProtocolCluster(BOUNDS, seed=42)  # dual peer on
        primary = cluster.join_node(Point(10, 30), capacity=10)
        cluster.join_node(Point(50, 30), capacity=1)
        cluster.settle(20)
        cluster.store_update(primary.node.node_id, "car", Point(20, 20))
        cluster.subscribe(primary.node.node_id, Rect(20, 20, 8, 8))
        with obs.capture() as registry:
            primary.depart()
            cluster.run_for(10)
        snapshot = registry.snapshot()
        # The departure ships the data; the peer's promotion counts it
        # again as a failover handover.
        assert snapshot["store.node.migrated"]["total"] == 2
        assert snapshot["sub.node.migrated"]["total"] == 2


class TestReplication:
    """One REPLICATE kind carries every change a primary ships its secondary."""

    def test_absorb_and_eviction_reach_the_replica_and_are_counted(self):
        cluster = ProtocolCluster(BOUNDS, seed=42)  # dual peer on
        primary = cluster.join_node(Point(10, 30), capacity=10)
        secondary = cluster.join_node(Point(50, 30), capacity=1)
        cluster.settle(20)
        assert primary.owned.peer == secondary.address
        sub = SubRecord(
            sub_id="absorbed/1", rect=Rect(20, 20, 4, 4),
            subscriber=primary.address,
            registered_at=cluster.scheduler.now, duration=500.0,
        )
        data = m.RegionData(
            objects=(
                ObjectRecord("a", Point(20, 20), version=1),
                ObjectRecord("b", Point(40, 40), version=1),
            ),
            subscriptions=(sub,),
        )
        with obs.capture() as registry:
            primary._absorb(data)
            primary._execute(m.STORE_REMOVE, m.StoreRemoveBody(
                object_id="a", point=Point(20, 20), version=1,
            ))
            cluster.run_for(5)
        snapshot = registry.snapshot()
        assert snapshot["store.node.replicated"]["total"] == 3
        assert snapshot["sub.node.replicated"]["total"] == 1
        replica = secondary.owned
        assert "a" not in replica.store
        assert replica.store.get("b") is not None
        assert replica.subs.get("absorbed/1") is not None


class TestOwnershipYield:
    def test_loser_ships_all_three_kinds_to_the_winner(self):
        cluster, weak, strong = two_primaries()
        rect = strong.owned.rect
        usurper = cluster.spawn_node(rect.center, capacity=10)
        usurper._attach()
        usurper.owned = OwnedRegion(rect=rect, role="primary", peer=None)
        usurper._set_table(strong.neighbor_table.values())
        usurper.joined = True
        usurper._start_timers()
        winner, loser = sorted(
            (strong, usurper), key=lambda n: (n.address.ip, n.address.port)
        )
        point = Point(rect.x + 3, rect.y + 3)
        loser.owned.items.append((point, "loser-item"))
        loser.owned.store.upsert(ObjectRecord("loser-obj", point, version=1))
        loser.owned.subs.upsert(
            SubRecord(
                sub_id="loser/1", rect=Rect(point.x, point.y, 2, 2),
                subscriber=loser.address,
                registered_at=cluster.scheduler.now, duration=500.0,
            )
        )
        cluster.settle(60)
        assert winner.owned.rect != rect or loser.owned is None
        # The loser rejoins (possibly splitting the winner's region), so
        # look for the data at whoever serves its point now.
        (home,) = [
            n for n in cluster.nodes.values()
            if n.alive and n.is_primary()
            and n.owned.rect.covers(point, closed_low_x=True, closed_low_y=True)
        ]
        assert home.owned.store.get("loser-obj") is not None
        assert home.owned.subs.get("loser/1") is not None
        assert "loser-item" in [item for _, item in home.owned.items]
